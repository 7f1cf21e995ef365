"""Cosine-similarity scoring: anchor extraction and guidance-driven ranking.

Anchors seed the stage-one mask: each language token votes for the image
patch it is most similar to. The same machinery scores image tokens against
an arbitrary guidance set to pick merge sources.

Public functions check every input once, through ``core``'s checks (or
``_screened`` on the anchor path), and call private kernels, which the
pipeline stages call directly. Kernels do no checks of their own, apart
from the grid row count of ``_anchor_mask``. Scores come from one float64
cosine formula; anchors are screened in float32 and decided in float64.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BinaryMask,
    GridRangeError,
    PatchGrid,
    ShapeError,
    _check_integer,
    _finite,
    _matrix,
    _real,
    _row_blocks,
    _tokens,
    sq_norms,
)

_U32 = 2.0**-24  # float32 unit roundoff
_SAFE_SQ = (2.0**-60, 2.0**60)  # float32 squared row norms the screen's bound covers


def _cosine(dots: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    # dots[i, j] / (|a_i| |b_j|); a zero row gets an infinite norm and scores 0
    na = np.where(a_sq > 0.0, np.sqrt(a_sq), np.inf)
    nb = np.where(b_sq > 0.0, np.sqrt(b_sq), np.inf)
    return dots / np.outer(na, nb)


def _screened(e_img, e_lang) -> tuple[np.ndarray, np.ndarray, tuple]:
    """e_img and e_lang checked as by ``_tokens`` (e_img's finiteness last) and the screen, in one pass."""
    e_img = _matrix(e_img, "e_img")
    e_lang = _tokens(e_lang, "e_lang", e_img.shape[1], nonempty=True)
    scaled = np.ldexp(e_lang, -np.frexp(np.abs(e_lang).max(axis=1))[1][:, None])
    sq, dots = np.empty(len(e_img), np.float32), np.empty((len(e_img), len(scaled)), np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in _row_blocks(*e_img.shape, 4, span=True):  # a span's block products, then its norms in one call
            for b in _row_blocks(*e_img[s].shape, 4):
                np.matmul(e_img[s][b], scaled.T, out=dots[s][b])
            sq[s] = sq_norms(e_img[s])
    _finite(e_img, sq, "e_img")
    return e_img, e_lang, (np.sqrt(sq_norms(scaled.astype(np.float64))), sq, dots)


def _argmax_cosine(lang, img, scaled_norm, img_sq, dots) -> np.ndarray:
    """Index of each language row's most cosine-similar image row; ties go low.

    The screen scales language row l by an exact power of two to l' (largest entry in [0.5, 1), norm
    ``scaled_norm``) and scores image row x as s = fl(l'.x) / fl(|x|) from the float32 products ``dots`` and
    squared norms ``img_sq``. With x's float32 squared norm in ``_SAFE_SQ`` nothing overflows and underflow
    is negligible, so |fl(l'.x) - l'.x| <= g|l'||x| and |fl(|x|) - |x|| <= g|x|, g = (d+2)u / (1 - (d+2)u),
    in any summation order; then |s - l'.x/|x|| <= E = |l'|(2g / (1 - g) + 2u), and for (d+2)u <= 1/16 the
    float64 argmax lies within 2E + (float64 error) <= (5d + 16)u|l'| of the best s. Rows in that margin,
    and rows the bound does not cover, are its candidates. Each language row holds its own max, so it has at
    least one; one count over all rows then tells whether each has a lone one, which is taken. Otherwise all
    candidates are re-scored in float64, each in one fixed summation order.
    """
    d = img.shape[1]
    safe = (img_sq >= _SAFE_SQ[0]) & (img_sq <= _SAFE_SQ[1]) & ((d + 2) * _U32 <= 1 / 16)
    screen = np.divide(dots.T, np.sqrt(np.where(safe, img_sq, 1.0)), order="C")  # rows contiguous for the reductions
    screen[:, ~safe] = -np.inf
    margin = (5 * d + 16) * _U32 * scaled_norm
    candidate = (screen >= (screen.max(axis=1) - margin)[:, None]) | ~safe
    if np.count_nonzero(candidate) == len(candidate):
        return np.argmax(candidate, axis=1)
    cols = np.flatnonzero(candidate.any(axis=0))
    lang64, rows64 = lang.astype(np.float64), img[cols].astype(np.float64)
    sims = _cosine(np.einsum("kj,ij->ki", lang64, rows64), sq_norms(lang64), sq_norms(rows64))
    sims[~candidate[:, cols]] = -np.inf
    return cols[np.argmax(sims, axis=1)]


def _anchor_mask(e_img: np.ndarray, e_lang: np.ndarray, screen: tuple, grid: PatchGrid) -> BinaryMask:
    # the first step of stage one, and the one home of the grid row-count check
    if e_img.shape[0] != grid.total:
        raise ShapeError(f"e_img: {e_img.shape[0]} rows, grid expects {grid.total}")
    flat = np.zeros(grid.total, dtype=bool)
    flat[_argmax_cosine(e_lang, e_img, *screen)] = True
    return BinaryMask(grid, flat.reshape(grid.shape))


def anchor_mask(e_lang, e_img, grid: PatchGrid) -> BinaryMask:
    """Mark, for every language token, the grid cell of its most similar image token.

    The argmax runs over the whole sequence, every camera view at once. Bits
    are the union over language tokens (set semantics, so at most
    ``e_lang.rows`` bits are set). Similarity is the float64 cosine; the
    float32 screen only narrows the rows that get scored, never the result.
    Argmax ties resolve to the lower token index.
    """
    return _anchor_mask(*_screened(e_img, e_lang), grid)


def _relevance(rows: np.ndarray, idx: np.ndarray, guides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # float32 scores of rows[idx] and their float64 squared norms, upcast a block at a time
    guides = guides.astype(np.float64)
    dots, sq = np.empty((idx.size, guides.shape[0])), np.empty(idx.size)
    for b in _row_blocks(idx.size, rows.shape[1], 8):
        block = rows[idx[b]].astype(np.float64)
        sq[b] = sq_norms(block)
        np.matmul(block, guides.T, out=dots[b])
    return _cosine(dots, sq, sq_norms(guides)).max(axis=1).astype(np.float32), sq


def relevance_scores(e_img, guides) -> np.ndarray:
    """Score each image token by its largest cosine similarity to any guidance token.

    The max keeps scores robust to irrelevant guides. Similarities are
    computed in float64; returns float32, one score per image token.
    """
    visual = _tokens(e_img, "e_img", nonempty=True)
    guides = _tokens(guides, "guides", visual.shape[1], nonempty=True)
    return _relevance(visual, np.arange(visual.shape[0]), guides)[0]


def _top_m(scores: np.ndarray, m: int) -> np.ndarray:
    # the m largest by a stable descending sort, so ties go to the lower index, in index order
    return np.sort(np.argsort(-scores, kind="stable")[:m])


def top_m(scores, m: int) -> np.ndarray:
    """Indices of the ``m`` largest scores as a sorted index set.

    Scores are ranked in float64, which holds float32 scores exactly. Ties
    break toward the lower index; the selection is deterministic for a fixed
    input.
    """
    _check_integer(m, "m")
    scores = _real(scores, "scores", np.float64)
    if scores.ndim != 1:
        raise ShapeError(f"scores must be 1-D, got shape {scores.shape}")
    _finite(scores, scores, "scores")
    if not 0 <= m <= scores.size:
        raise GridRangeError(f"m {m} out of range [0, {scores.size}]")
    return _top_m(scores, m)
