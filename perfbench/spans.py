"""In-memory span tracer that rebinds the program's public functions.

``Tracer.install`` replaces each traced function, in every module namespace
that holds it, with a wrapper that records a span (operation id, name,
parent span, start, end); ``uninstall`` puts the originals back. Nothing
under ``src/`` changes. Only the functions in ``TRACED`` get spans, so the
self time of a span (its duration minus its child spans) includes the
untraced helpers it calls: ``similarity.anchor_mask`` holds the float64
upcast and norms of ``cosine_similarity_matrix``, ``cli.main`` holds argument
parsing, config loading and report emission.

Counts are derived after each operation from the arguments and results the
wrappers kept, so computing them costs the timed spans nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: module -> (layer name, traced functions)
TRACED = {
    "tokpress.similarity": ("similarity", ("anchor_mask", "relevance_scores", "top_m")),
    "tokpress.expand": ("expand", ("expand_mask", "density_map")),
    "tokpress.sampling": ("sampling", ("context_indices", "keep_set")),
    "tokpress.merge": ("merge", ("split_source_target", "match_logits", "match_weights", "soft_bipartite_merge")),
    "tokpress.core": ("core", ("token_matrix",)),
    "tokpress.pipeline": ("pipeline", ("prune_stage", "merge_stage", "run_pipeline")),
    "tokpress.tokenfile": ("tokenfile", ("read_tokens", "write_tokens")),
    "tokpress.cli": ("cli", ("main",)),
    "tokpress.costmodel": ("costmodel", ("relative_flops",)),
    "tokpress.workload": ("workload", ("generate_workload",)),
    "decoder": ("backbone", ("layer",)),
}

# spans whose arguments and result feed a count
_COUNTED = {
    "similarity.anchor_mask",
    "similarity.relevance_scores",
    "expand.expand_mask",
    "sampling.context_indices",
    "merge.match_logits",
    "merge.soft_bipartite_merge",
    "core.token_matrix",
    "pipeline.prune_stage",
    "pipeline.merge_stage",
    "tokenfile.read_tokens",
    "tokenfile.write_tokens",
    "costmodel.relative_flops",
    "backbone.layer",
}


def _window_counts(bits: np.ndarray, k: int) -> np.ndarray:
    half = k // 2
    padded = np.pad(bits.astype(np.int64), ((0, 0), (half, half), (half, half)))
    return sliding_window_view(padded, (k, k), axis=(1, 2)).sum(axis=(-1, -2))


def _count(name: str, args: tuple, result, counts: dict) -> None:
    if name in ("similarity.anchor_mask", "similarity.relevance_scores"):
        a, b = np.shape(args[0]), np.shape(args[1])
        counts["similarity.upcast_bytes"] += (a[0] + b[0]) * a[1] * 8
    elif name == "expand.expand_mask":
        mask, params = args[0], args[1]
        k, tau = params.kernel_size, params.threshold
        density = _window_counts(mask.bits, k)
        dense_region = mask.bits | (_window_counts(density > tau, k) > 0)
        counts["expand.sparse_cells"] += int(((density > 0) & (density < tau)).sum())
        counts["expand.dilated_bits"] += int(dense_region.sum() - mask.bits.sum())
        counts["expand.flipped_bits"] += int(result.bits.sum() - dense_region.sum())
    elif name == "sampling.context_indices":
        counts["sampling.context_tokens"] += int(result.size)
    elif name == "merge.match_logits":
        s, t = np.shape(args[0]), np.shape(args[1])
        counts["merge.logit_flops"] += 2 * t[0] * s[0] * s[1]
    elif name == "merge.soft_bipartite_merge":
        counts["merge.targets"] += int(np.shape(args[1])[0])
    elif name == "core.token_matrix":
        counts["core.validated_bytes"] += int(result.nbytes)
    elif name == "pipeline.prune_stage":
        counts["pipeline.kept_tokens"] += int(result[1].size)
    elif name == "pipeline.merge_stage":
        counts["pipeline.merged_away"] += result[1].tokens_before - result[1].tokens_after
    elif name == "tokenfile.read_tokens":
        counts["tokenfile.bytes_read"] += 12 + int(result.nbytes)
    elif name == "tokenfile.write_tokens":
        counts["tokenfile.bytes_written"] += 12 + 4 * int(np.size(args[0]))
    elif name == "costmodel.relative_flops":
        counts["costmodel.flops_ratio"] += float(result)


class Tracer:
    """Span recorder over the functions in ``TRACED``."""

    def __init__(self):
        self.spans = []  # (op id or None, name, parent index or -1, start, end)
        self.op = None
        self._stack = []
        self._payloads = []
        self._op_start = 0
        self._bindings = []
        wrappers = {}
        for modname, (layer, names) in TRACED.items():
            for fname in names:
                orig = getattr(sys.modules[modname], fname)
                wrappers[id(orig)] = (orig, self._wrap(f"{layer}.{fname}", orig))
        for modname, mod in list(sys.modules.items()):
            if modname == "tokpress" or modname.startswith("tokpress.") or modname == "decoder":
                for attr, value in vars(mod).items():
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        self._bindings.append((mod, attr, value, wrappers[id(value)][1]))

    def _wrap(self, name: str, fn):
        spans, stack, payloads = self.spans, self._stack, self._payloads
        keep = name in _COUNTED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (self.op, name, parent, t0, t1)
            if keep:
                payloads.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._bindings:
            setattr(mod, attr, orig)

    def begin(self, op: int) -> None:
        self.op = op
        self._op_start = len(self.spans)
        self._payloads.clear()

    def end(self) -> tuple[dict, dict, list]:
        """Close the operation: per-name self ms, counts, and (layer index, self ms) per decoder layer."""
        start = self._op_start
        own = self.spans[start:]
        selfs = [s[4] - s[3] for s in own]
        for s in own:
            if s[2] >= start:
                selfs[s[2] - start] -= s[4] - s[3]
        self_ms = defaultdict(float)
        counts = defaultdict(float)
        for s, t in zip(own, selfs):
            self_ms[s[1]] += t * 1e3
            if s[1] == "core.token_matrix":
                counts["core.token_matrix_calls"] += 1
        layers = []
        layer_spans = iter(t * 1e3 for s, t in zip(own, selfs) if s[1] == "backbone.layer")
        for name, args, result in self._payloads:
            if name == "backbone.layer":
                layers.append((args[2], next(layer_spans)))
            else:
                _count(name, args, result, counts)
        self._payloads.clear()
        self.op = None
        return self_ms, counts, layers

    def setup_self_ms(self, name: str) -> list[float]:
        """Self times of spans recorded outside any operation (set-up), for one name."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0] is None and s[1] == name:
                children = sum(c[4] - c[3] for c in self.spans[i + 1 :] if c[2] == i)
                out.append((s[4] - s[3] - children) * 1e3)
        return out

    def write(self, path) -> None:
        """All spans as JSON lines, times in ms from the first span."""
        t_base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (op, name, parent, t0, t1) in enumerate(self.spans):
                rec = {"span": i, "op": op, "parent": parent, "name": name,
                       "start_ms": (t0 - t_base) * 1e3, "end_ms": (t1 - t_base) * 1e3}  # fmt: skip
                fh.write(json.dumps(rec) + "\n")
