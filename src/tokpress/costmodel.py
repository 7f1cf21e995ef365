"""Analytic transformer FLOPs under a per-layer token schedule.

Counts one fixed convention and nothing else: per layer at sequence length
n, QKV plus output projections cost 8*n*d^2, attention scores and the
weighted sum cost 4*n^2*d, and the two feed-forward matrices cost
4*n*d*d_ff, with every multiply-accumulate counted as 2 flops. Absolute
numbers depend on this convention; ratios between schedules are the useful
output.

Embedding lookups, the final head, layer norms, and KV-cache decode are all
outside the count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import ParameterError, ShapeError, _check_integer, _integers


@dataclass(frozen=True)
class BackboneSpec:
    """Transformer dimensions; the cost formula ignores ``heads``, which stays
    only because the ``perfbench`` decoder pins it (ROADMAP item 1b unpins it)."""

    layers: int = 32
    hidden_dim: int = 4096
    ff_dim: int = 11008
    heads: int = 32

    def __post_init__(self) -> None:
        for field in ("layers", "hidden_dim", "ff_dim", "heads"):
            object.__setattr__(self, field, _check_integer(getattr(self, field), f"BackboneSpec.{field}", 1))


#: 7B-class decoder dimensions, the scale the compression targets
DEFAULT_BACKBONE = BackboneSpec()


@dataclass(frozen=True)
class TokenSchedule:
    """Visual token count per layer plus a fixed non-visual count.

    ``visual_counts[i]`` is the number of visual tokens entering layer i;
    non-visual tokens (language, state, readouts) ride along unreduced.
    """

    visual_counts: np.ndarray
    non_visual: int = 0

    def __post_init__(self) -> None:
        counts = _integers(self.visual_counts, "TokenSchedule.visual_counts")
        if counts.ndim != 1 or counts.size < 1:
            raise ShapeError("TokenSchedule.visual_counts must be a non-empty 1-D sequence")
        object.__setattr__(self, "non_visual", _check_integer(self.non_visual, "TokenSchedule.non_visual", 0))
        if counts.min() < 0:  # both checks before the int64 cast, which would wrap uint64 counts from 2**63 on
            raise ParameterError("TokenSchedule.visual_counts must be non-negative")
        _check_integer(int(counts.max()), "TokenSchedule.visual_counts", 0, 2**63 - 1)
        counts = counts.astype(np.int64)
        if np.any(np.diff(counts) > 0):
            raise ParameterError("TokenSchedule.visual_counts may only step down across layers")
        counts.setflags(write=False)
        object.__setattr__(self, "visual_counts", counts)

    @property
    def layers(self) -> int:
        return int(self.visual_counts.size)

    @classmethod
    def flat(cls, visual: int, layers: int, non_visual: int = 0) -> "TokenSchedule":
        _check_integer(layers, "layers", 0)  # 0 layers is the empty schedule's ShapeError
        return cls([visual] * layers, non_visual)

    @classmethod
    def two_stage(
        cls, kept: int, merged: int, merge_layer: int, layers: int, non_visual: int = 0
    ) -> "TokenSchedule":
        """Kept count up to merge_layer, merged count from there on."""
        _check_integer(layers, "layers", 1)
        _check_integer(merge_layer, "merge_layer", 0, layers - 1)
        return cls([kept] * merge_layer + [merged] * (layers - merge_layer), non_visual)


def layer_flops(n: int, spec: BackboneSpec = DEFAULT_BACKBONE) -> int:
    """Flops of one layer at sequence length n (exact integer)."""
    n, d, d_ff = _check_integer(n, "n", 0), spec.hidden_dim, spec.ff_dim
    return 8 * n * d * d + 4 * n * n * d + 4 * n * d * d_ff


def schedule_flops(schedule: TokenSchedule, spec: BackboneSpec = DEFAULT_BACKBONE) -> int:
    """Total flops of running the schedule through every backbone layer."""
    if schedule.layers != spec.layers:
        raise ShapeError(f"schedule covers {schedule.layers} layers, backbone has {spec.layers}")
    # once per distinct count, times the layers that run at it: exact integers, so the same sum
    runs = Counter(schedule.visual_counts.tolist())
    return sum(layers * layer_flops(n + schedule.non_visual, spec) for n, layers in runs.items())


def relative_flops(
    candidate: TokenSchedule, baseline: TokenSchedule, spec: BackboneSpec = DEFAULT_BACKBONE
) -> float:
    """Cost of the candidate schedule as a fraction of the baseline's."""
    base = schedule_flops(baseline, spec)
    if base == 0:
        raise ParameterError("baseline schedule has zero flops")
    return schedule_flops(candidate, spec) / base
