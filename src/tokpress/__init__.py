"""Training-free token compression for transformer inputs.

Two reduction stages over a visual token sequence: similarity-anchored mask
expansion plus stride context sampling before the backbone, and
guidance-ranked soft-bipartite merging at a mid-layer. Ships with an
analytic FLOPs model, a binary token container, a synthetic workload
generator, and a CLI (``tokpress``).
"""

from types import ModuleType as _ModuleType

from .core import (
    BinaryMask,
    CounterStream,
    GridRangeError,
    ParameterError,
    PatchGrid,
    RngState,
    ShapeError,
    index_set,
    token_matrix,
)
from .costmodel import (
    DEFAULT_BACKBONE,
    BackboneSpec,
    TokenSchedule,
    layer_flops,
    relative_flops,
    schedule_flops,
)
from .expand import ExpandParams, density_map, expand_mask
from .merge import (
    MergeParams,
    MergeReport,
    match_logits,
    match_weights,
    soft_bipartite_merge,
    split_source_target,
)
from .pipeline import (
    CompressionConfig,
    PipelineReport,
    PipelineResult,
    PruneReport,
    merge_stage,
    prune_stage,
    run_pipeline,
)
from .sampling import context_indices, keep_set
from .similarity import anchor_mask, relevance_scores, top_m
from .tokenfile import (
    MagicError,
    PayloadError,
    SizeError,
    TokenFileError,
    export_mask_pgm,
    read_tokens,
    write_tokens,
)
from .workload import Workload, WorkloadSpec, generate_workload

__version__ = "0.1.0"

# the exports are the names imported above, in import order: every one that is no submodule
__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))]
__all__.append("__version__")
