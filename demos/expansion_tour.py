"""Walk through the mask expansion stage on a hand-built example.

Run from the repo root after installing the package:

    python3 demos/expansion_tour.py
"""

import numpy as np

from tokpress import BinaryMask, ExpandParams, PatchGrid, RngState, density_map, expand_mask


def show(mask, label):
    print(label)
    for v in range(mask.grid.views):
        for row in mask.view(v):
            print("  " + "".join("#" if b else "." for b in row))
        print()


# One 12x12 view with a solid 3x3 blob in the upper left and a lone
# bit near the lower right. The blob should dilate, the lone bit should
# trigger at most a random flip, depending on the threshold.
grid = PatchGrid(1, 12, 12)
bits = np.zeros(grid.shape, dtype=bool)
bits[0, 2:5, 2:5] = True
bits[0, 9, 9] = True
mask = BinaryMask(grid, bits)
show(mask, f"input mask, {mask.count()} bits")

counts = density_map(mask, kernel_size=3)
print("density map (3x3 window counts):")
for row in counts[0]:
    print("  " + " ".join(f"{c}" for c in row))
print()

# tau = 1: inside the blob every count is well above 1, so the whole
# blob neighborhood dilates. The lone bit scores exactly 1 in its own
# window, and strict inequalities leave a count equal to tau inert.
rng = RngState(7)
out1 = expand_mask(mask, ExpandParams(kernel_size=3, threshold=1), rng)
show(out1, f"tau=1: dense dilation only, {out1.count()} bits")

# tau = 4: the blob edge counts (1..3) now fall in the sparse band
# 0 < F < tau, so each such cell flips one random unset neighbor.
# Different seeds move different cells; the dense core is unaffected.
for seed in (7, 8):
    out4 = expand_mask(mask, ExpandParams(kernel_size=3, threshold=4), RngState(seed))
    show(out4, f"tau=4, seed={seed}: sparse flips around the fringe, {out4.count()} bits")

# expansion only ever adds bits
assert np.array_equal(out1.bits & mask.bits, mask.bits)
print("every expanded mask contains the input, as it must")
