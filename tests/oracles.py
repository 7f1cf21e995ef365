"""Naive reference evaluators used to check the library implementations.

Everything here is written rule by rule with explicit loops and none of the
vectorized shortcuts the package uses, so a bug in the implementation and a
bug in the oracle would have to coincide to slip through. The expansion
oracle shares the package's keyed rng draw convention (that convention is
part of the documented contract); all the arithmetic around it is
independent. The scene generator is the exception: its reference is the
first float64 version kept verbatim, since the contract there is bytes.
"""

from __future__ import annotations

import math

import numpy as np

from tokpress.core import BinaryMask, CounterStream, RngState
from tokpress.workload import Workload, WorkloadSpec


def density_counts(bits: np.ndarray, k: int) -> np.ndarray:
    """Sliding-window count per cell, clipped at borders, per view."""
    views, h, w = bits.shape
    half = k // 2
    grid = bits.tolist()
    out = np.zeros((views, h, w), dtype=np.int64)
    for v in range(views):
        for i in range(h):
            for j in range(w):
                c = 0
                for r in range(max(0, i - half), min(h, i + half + 1)):
                    for s in range(max(0, j - half), min(w, j + half + 1)):
                        if grid[v][r][s]:
                            c += 1
                out[v, i, j] = c
    return out


def expand_bits(bits: np.ndarray, k: int, tau: int, rng: RngState) -> np.ndarray:
    """Direct evaluation of the two expansion rules.

    Density of the original mask decides both rules. Dense cells (F > tau)
    dilate their full window first; sparse cells (0 < F < tau) then flip, in
    row-major order, one uniformly-drawn unset cell of their window, the
    draw keyed to the cell's in-view coordinates.
    """
    views, h, w = bits.shape
    half = k // 2
    f = density_counts(bits, k)
    out = [[list(row) for row in view] for view in bits.tolist()]

    for v in range(views):
        for i in range(h):
            for j in range(w):
                if f[v, i, j] > tau:
                    for r in range(max(0, i - half), min(h, i + half + 1)):
                        for s in range(max(0, j - half), min(w, j + half + 1)):
                            out[v][r][s] = True

    for v in range(views):
        for i in range(h):
            for j in range(w):
                if 0 < f[v, i, j] < tau:
                    cand = [
                        (r, s)
                        for r in range(max(0, i - half), min(h, i + half + 1))
                        for s in range(max(0, j - half), min(w, j + half + 1))
                        if not out[v][r][s]
                    ]
                    if not cand:
                        continue
                    pick = rng.uniform_index((i * w + j) * RngState.DRAW_SLOTS, len(cand))
                    r, s = cand[pick]
                    out[v][r][s] = True

    return np.array(out, dtype=bool)


def dense_region(bits: np.ndarray, k: int, tau: int) -> np.ndarray:
    """Input bits plus the dilation of cells with F > tau (no sparse rule)."""
    views, h, w = bits.shape
    half = k // 2
    f = density_counts(bits, k)
    out = bits.copy()
    for v in range(views):
        for i in range(h):
            for j in range(w):
                if f[v, i, j] > tau:
                    out[
                        v,
                        max(0, i - half) : min(h, i + half + 1),
                        max(0, j - half) : min(w, j + half + 1),
                    ] = True
    return out


def cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry-by-entry cosine matrix with explicit norms."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            na = math.sqrt(float(np.dot(a[i].astype(np.float64), a[i].astype(np.float64))))
            nb = math.sqrt(float(np.dot(b[j].astype(np.float64), b[j].astype(np.float64))))
            if na == 0.0 or nb == 0.0:
                out[i, j] = 0.0
            else:
                out[i, j] = float(np.dot(a[i].astype(np.float64), b[j].astype(np.float64))) / (na * nb)
    return out


def anchor_cells(e_lang: np.ndarray, e_img: np.ndarray) -> set[int]:
    """Per-language-token argmax over the similarity row, lower index wins."""
    sims = cosine(e_lang, e_img)
    cells = set()
    for row in sims:
        best, best_idx = -math.inf, -1
        for idx, value in enumerate(row):
            if value > best:
                best, best_idx = value, idx
        cells.add(best_idx)
    return cells


def top_m_indices(scores, m: int) -> list[int]:
    order = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))
    return sorted(order[:m])


def stride_indices(n: int, u: float) -> list[int]:
    count = math.floor(u * n)
    return [(t * n) // count for t in range(count)]


def merge_steps(s: np.ndarray, t: np.ndarray, mode: str = "soft", eps: float = 1e-6):
    """Step-by-step merge: rms rows, scaled logits, row weights, fold, renorm.

    Returns (merged, w, s_vec) in float64. Row-by-row and entry-by-entry so
    the order of operations is explicit.
    """
    s = s.astype(np.float64)
    t = t.astype(np.float64)
    n_s, d = s.shape
    n_t = t.shape[0]

    def rms_row(row):
        ms = sum(float(x) * float(x) for x in row) / d
        scale = 1.0 / math.sqrt(ms + eps)
        return np.array([float(x) * scale for x in row])

    s_n = [rms_row(s[j]) for j in range(n_s)]
    t_n = [rms_row(t[i]) for i in range(n_t)]

    sim = np.zeros((n_t, n_s))
    for i in range(n_t):
        for j in range(n_s):
            sim[i, j] = float(np.dot(t_n[i], s_n[j])) / math.sqrt(d)

    w = np.zeros((n_t, n_s))
    for i in range(n_t):
        if mode == "soft":
            peak = max(sim[i])
            exps = [math.exp(sim[i, j] - peak) for j in range(n_s)]
            total = sum(exps)
            for j in range(n_s):
                w[i, j] = exps[j] / total
        else:
            best, best_j = -math.inf, -1
            for j in range(n_s):
                if sim[i, j] > best:
                    best, best_j = sim[i, j], j
            w[i, best_j] = 1.0

    merged = np.zeros((n_s, d))
    s_vec = np.zeros(n_s)
    for j in range(n_s):
        absorbed = np.zeros(d)
        for i in range(n_t):
            absorbed += w[i, j] * t[i]
            s_vec[j] += w[i, j]
        merged[j] = (s[j] + absorbed) / (1.0 + s_vec[j])

    return merged, w, s_vec


def layer_flops_terms(n: int, d: int, d_ff: int) -> int:
    """Term-by-term cost: QKV+out projections, attention, feed-forward."""
    qkv_and_out = 4 * (2 * n * d * d)
    attention = 2 * (2 * n * n * d)
    feed_forward = 2 * (2 * n * d * d_ff)
    return qkv_and_out + attention + feed_forward


def _orthonormal_columns(stream: CounterStream, dim: int, n_cols: int) -> np.ndarray:
    g = stream.normals(dim * n_cols).reshape(dim, n_cols)
    q, r = np.linalg.qr(g)
    # canonical signs; QR is only unique up to column flips
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def generate_workload(spec: WorkloadSpec) -> Workload:
    """The scene generator as first written, float64 throughout, kept verbatim.

    The package's generator must match it byte for byte on the same BLAS kernel.
    """
    grid = spec.grid
    stream = CounterStream(RngState(spec.seed))
    lo, hi = spec.block_size

    bits = np.zeros(grid.shape, dtype=bool)
    for _ in range(spec.blocks):
        r = lo + stream.below(hi - lo + 1)
        v = stream.below(grid.views)
        top = stream.below(grid.height - r + 1)
        left = stream.below(grid.width - r + 1)
        bits[v, top : top + r, left : left + r] = True
    truth = BinaryMask(grid, bits)

    fg_cells = truth.token_indices()
    n_fg = int(fg_cells.size)
    bg_dim = min(16, spec.embed_dim - 1 - n_fg)
    basis = _orthonormal_columns(stream, spec.embed_dim, 1 + n_fg + bg_dim)
    base = basis[:, 0]
    fg_residuals = basis[:, 1 : 1 + n_fg]
    bg_basis = basis[:, 1 + n_fg :]

    # foreground cosine band [c_lo, 0.98]: c_lo^2 certifies the margin
    # against an exactly-orthogonal background
    c_lo = max(0.9, math.sqrt(spec.margin) + 0.02)
    c = c_lo + (0.98 - c_lo) * stream.uniforms(n_fg)

    e_img = np.empty((grid.total, spec.embed_dim), dtype=np.float64)
    e_img[fg_cells] = c[:, None] * base + np.sqrt(1.0 - c * c)[:, None] * fg_residuals.T

    bg_cells = np.setdiff1d(np.arange(grid.total, dtype=np.int64), fg_cells, assume_unique=True)
    coeffs = stream.normals(bg_cells.size * bg_dim).reshape(bg_cells.size, bg_dim)
    bg = coeffs @ bg_basis.T
    e_img[bg_cells] = bg / np.maximum(np.linalg.norm(bg, axis=1, keepdims=True), 1e-30)
    e_img = e_img.astype(np.float32)

    if n_fg:
        n_anchor = max(1, math.floor(spec.anchor_fraction * n_fg))
        anchor_cells = fg_cells[np.sort(stream.sample(n_fg, n_anchor))]
        e_lang = e_img[anchor_cells].copy()
    else:
        anchor_cells = np.empty(0, dtype=np.int64)
        e_lang = base[None, :].astype(np.float32)

    guidance = np.vstack([e_lang, base[None, :].astype(np.float32)])
    return Workload(e_img, e_lang, guidance, grid, truth, anchor_cells)
