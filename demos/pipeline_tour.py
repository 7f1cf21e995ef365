"""Run both compression stages end to end on a synthetic scene.

Run from the repo root after installing the package:

    python3 demos/pipeline_tour.py
"""

from tokpress import (
    CompressionConfig,
    DEFAULT_BACKBONE,
    PatchGrid,
    TokenSchedule,
    WorkloadSpec,
    generate_workload,
    relative_flops,
    run_pipeline,
)

# Two 16x16 views, one planted 5x5 foreground block, and language tokens
# that are copies of a few block cells. Ground truth is known exactly.
grid = PatchGrid(2, 16, 16)
load = generate_workload(WorkloadSpec(grid=grid, seed=42))
print(f"scene: {grid.views} views of {grid.height}x{grid.width}, {grid.total} visual tokens")
print(f"planted foreground: {load.truth.count()} cells, {load.anchor_cells.size} anchors")
print()

config = CompressionConfig()
result = run_pipeline(load.e_img, load.e_lang, load.guidance, grid, config)

prune = result.prune
print("stage one keeps anchored, expanded, and stride-context tokens:")
print(f"  anchors   {prune.anchors}")
print(f"  expanded  {prune.expanded}")
print(f"  context   {prune.context}")
print(f"  kept      {prune.kept}   pruned {prune.pruned}")
print()

rep = result.report
print("stage two folds the kept visual tokens into the top scoring ones:")
print(f"  merged away {rep.merged_away}, final visual count {result.merge.tokens_after}")
print(f"  output sequence {result.compressed.shape[0]} rows "
      f"({result.merge.tokens_after} visual + {rep.schedule.non_visual} other)")
print()

# how many of the kept tokens actually lie on the planted block
truth = set(load.truth.token_indices().tolist())
kept = set(result.kept_indices.tolist())
covered = len(truth & kept)
print(f"kept tokens cover {covered}/{len(truth)} foreground cells")
print()

# cost model: the schedule the pipeline produced vs a flat run that
# keeps all visual tokens through every layer
schedule = rep.schedule
baseline = TokenSchedule.flat(grid.total, config.total_layers, schedule.non_visual)
ratio = relative_flops(schedule, baseline, DEFAULT_BACKBONE)
counts = schedule.visual_counts
print(f"schedule: {counts[0]} visual tokens until layer {config.merge_layer}, "
      f"then {counts[-1]} through layer {config.total_layers - 1}")
print(f"backbone flops relative to the flat baseline: {ratio:.4f}")

# per-stage wall time, measured by the pipeline itself
timings = ", ".join(f"{k} {v:.3f} ms" for k, v in rep.timings_ms.items())
print(f"stage timings: {timings}")
