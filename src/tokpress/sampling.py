"""Stride-based context sampling and assembly of the stage-one keep set."""

from __future__ import annotations

import math

import numpy as np

from .core import BinaryMask, _check_integer, _check_real, index_set


def context_indices(n_tokens: int, fraction: float) -> np.ndarray:
    """Every-nth-token retention: floor(fraction * n_tokens) indices at uniform stride.

    Index t of the sample is floor(t * n_tokens / count), so the samples
    start at 0, are strictly increasing, and cover the sequence evenly.
    Deterministic, no rng involved.
    """
    _check_integer(n_tokens, "n_tokens", 0)
    _check_real(fraction, "fraction", 0, 1)
    count = math.floor(fraction * n_tokens)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return (np.arange(count, dtype=np.int64) * n_tokens) // count


def _keep(expanded: BinaryMask, context: np.ndarray) -> np.ndarray:
    # the union as bits: context indices set in a copy of the mask, read back in token order
    flat = expanded.bits.flatten()
    flat[context] = True
    return np.flatnonzero(flat)


def keep_set(expanded: BinaryMask, context) -> np.ndarray:
    """Union of the expanded mask's token indices with the context samples."""
    return _keep(expanded, index_set(context, limit=expanded.grid.total, name="context"))
