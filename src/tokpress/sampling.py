"""Stride-based context sampling and assembly of the stage-one keep set."""

from __future__ import annotations

import math

import numpy as np

from .core import BinaryMask, _check_integer, _check_real, index_set


def context_indices(n_tokens: int, fraction: float) -> np.ndarray:
    """Every-nth-token retention: floor(fraction * n_tokens) indices at uniform stride.

    Index t of the sample is floor(t * n_tokens / count), so the samples
    start at 0, are strictly increasing, and cover the sequence evenly.
    Deterministic, no rng involved. n_tokens is at most isqrt(2**63 - 1) = 3037000499.
    """
    _check_integer(n_tokens, "n_tokens", 0, math.isqrt(2**63 - 1))  # so each t * n_tokens fits int64
    _check_real(fraction, "fraction", 0, 1)
    count = math.floor(fraction * n_tokens)
    return (np.arange(count, dtype=np.int64) * n_tokens) // max(count, 1)


def _keep(expanded: BinaryMask, context: np.ndarray) -> np.ndarray:
    # the union as bits: context indices set in a copy of the mask, read back in token order
    flat = expanded.bits.flatten()
    flat[context] = True
    return np.flatnonzero(flat)


def keep_set(expanded: BinaryMask, context) -> np.ndarray:
    """Union of the expanded mask's token indices with the context samples."""
    return _keep(expanded, index_set(context, limit=expanded.grid.total, name="context"))
