"""Reference decoder: the backbone that ``costmodel`` prices analytically.

A pre-norm transformer decoder layer (multi-head self-attention plus a ReLU
MLP) with fixed random float32 weights. It exists only so the benchmark can
time a real token schedule: the compressed step runs the kept tokens up to
the merge layer, merges on the actual mid-layer activations, and runs the
merged sequence through the remaining layers. Its FLOPs follow the
``layer_flops`` convention exactly (QKV and output projections, scores and
weighted sum, two MLP matrices); norms, softmax and residual adds are extra
work that the model leaves out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_SEED = 0x7E4D


@dataclass(frozen=True)
class DecoderWeights:
    """Per-layer projection matrices and the dimensions they imply."""

    layers: tuple
    hidden_dim: int
    ff_dim: int
    heads: int


def make_weights(layers: int, hidden_dim: int, ff_dim: int, heads: int) -> DecoderWeights:
    """Fixed random weights, scaled by 1/sqrt(fan-in) so activations stay O(1)."""
    gen = np.random.default_rng(WEIGHT_SEED)

    def mat(rows, cols):
        return (gen.standard_normal((rows, cols)) / np.sqrt(rows)).astype(np.float32)

    per_layer = tuple(
        (mat(hidden_dim, 3 * hidden_dim), mat(hidden_dim, hidden_dim), mat(hidden_dim, ff_dim), mat(ff_dim, hidden_dim))
        for _ in range(layers)
    )
    return DecoderWeights(per_layer, hidden_dim, ff_dim, heads)


def _rms(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + np.float32(1e-6))


def layer(x: np.ndarray, weights: DecoderWeights, index: int) -> np.ndarray:
    """One decoder layer over an n x d float32 sequence; returns the new sequence."""
    qkv_w, out_w, up_w, down_w = weights.layers[index]
    n, d = x.shape
    h = weights.heads
    q, k, v = (a.reshape(n, h, d // h).transpose(1, 0, 2) for a in np.split(_rms(x) @ qkv_w, 3, axis=1))
    scores = q @ k.transpose(0, 2, 1) * np.float32(1.0 / np.sqrt(d // h))
    scores -= scores.max(axis=2, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=2, keepdims=True)
    x = x + (scores @ v).transpose(1, 0, 2).reshape(n, d) @ out_w
    return x + np.maximum(_rms(x) @ up_w, 0.0) @ down_w


def forward(x: np.ndarray, weights: DecoderWeights, start: int, stop: int, rows: list) -> np.ndarray:
    """Run layers ``start .. stop-1``, appending each layer's input row count to ``rows``."""
    for i in range(start, stop):
        rows.append(x.shape[0])
        x = layer(x, weights, i)
    return x
