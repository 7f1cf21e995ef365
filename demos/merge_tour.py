"""Walk through the soft bipartite merge on a tiny instance.

Run from the repo root after installing the package:

    python3 demos/merge_tour.py
"""

import numpy as np

from tokpress import MergeParams, match_logits, match_weights, soft_bipartite_merge

np.set_printoptions(precision=4, suppress=True)

# Three sources, four targets, eight dimensions. Target 0 is almost a
# copy of source 0, target 3 is almost a copy of source 2, the middle
# two sit in between.
rng = np.random.default_rng(0)
sources = rng.standard_normal((3, 8)).astype(np.float32)
targets = np.vstack(
    [
        sources[0] + 0.05 * rng.standard_normal(8).astype(np.float32),
        0.6 * sources[0] + 0.4 * sources[1],
        0.5 * sources[1] + 0.5 * sources[2],
        sources[2] + 0.05 * rng.standard_normal(8).astype(np.float32),
    ]
).astype(np.float32)

# the matching score is a scaled dot product of RMS-normalized rows,
# so magnitude differences between tokens do not distort it
louder = sources.copy()
louder[0] *= 10
print("logits against source 0:           ", match_logits(sources, targets)[:, 0])
print("logits against source 0 scaled x10:", match_logits(louder, targets)[:, 0])
print()

logits = match_logits(sources, targets)
print("match logits (targets x sources):")
print(logits)
print()

w = match_weights(logits, "soft")
print("soft weights, each target row sums to 1:")
print(w)
print("row sums:", w.sum(axis=1))
print()

hard = match_weights(logits, "hard")
print("hard weights route each target to its single best source:")
print(hard)
print()

merged, report = soft_bipartite_merge(sources, targets, MergeParams(m=3, mode="soft"))
print(f"merged {report.tokens_before} tokens down to {report.tokens_after}")
print("absorbed weight per source:", report.absorbed_weight)
print("total absorbed weight equals the number of targets:", report.absorbed_weight.sum())
print()

# each merged row is a convex blend of its source and the targets, so
# it can never leave the coordinate-wise hull
lo = np.minimum(sources, targets.min(axis=0))
hi = np.maximum(sources, targets.max(axis=0))
assert np.all(merged >= lo) and np.all(merged <= hi)
print("merged rows stay inside the coordinate-wise hull of their inputs")

# no targets means nothing to absorb and the sources come back bitwise
empty = np.empty((0, 8), dtype=np.float32)
same, _ = soft_bipartite_merge(sources, empty, MergeParams(m=3))
print("no-target merge is an exact no-op:", same.tobytes() == sources.tobytes())
