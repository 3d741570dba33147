"""Palette sparsification toolkit for coloring locally sparse graphs.

Sample small palettes, prune high-conflict colors, keep only the edges
whose palettes can collide, and color the remainder with a nibble-plus-
resampling solver. Resource-accounted simulators cover the single-pass
streaming model and the non-adaptive query model.
"""

from .cover import (
    CorrespondenceCover,
    CoverError,
    CoverReport,
    ListAssignment,
    Rows,
    cover_from_lists,
    cover_sparsity,
    random_cover,
    validate_cover,
)
from .graphcore import (
    GenerationError,
    Graph,
    GraphError,
    SparsityReport,
    gen_bipartite,
    gen_locally_sparse,
    load_graph,
    local_sparsity,
    max_degree,
    save_graph,
)
from .nibble import (
    BudgetExceeded,
    InstanceTooLarge,
    InvariantViolation,
    LllResult,
    ParamSchedule,
    PartialColoring,
    PreconditionViolation,
    RoundStats,
    ScheduleError,
    SolveResult,
    StageRecord,
    VerifyResult,
    WcpParams,
    build_schedule,
    finish_lll,
    greedy_color,
    recursion_margin,
    solve,
    verify_coloring,
    wcp_round,
)
from .querysim import (
    QueryOracle,
    QueryPlan,
    QueryRunResult,
    UnsupportedStrategy,
    end_to_end_query_color,
    execute_plan,
    plan_queries,
)
from .sparsify import (
    ConflictInstance,
    InvalidParameters,
    PaletteFamily,
    PaletteTooSmall,
    SharedPalette,
    SparsifyParams,
    build_conflict,
    derive_params,
    manual_params,
    prune,
    sample_palettes,
)
from .streaming import (
    EdgeStream,
    SpaceCapExceeded,
    SpaceLedger,
    StreamResult,
    stream_color,
)

__version__ = "0.1.0"
