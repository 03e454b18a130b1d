"""Sparse-pattern builders, plan types, and coverage accounting."""

from .accounting import (
    ORACLE_LIMIT,
    attention_recall,
    page_plan_rows,
    plan_sparsity,
    to_cell_mask,
)
from .block_sparse import BLOCK_SIZE, build_block_sparse
from .calibration import (
    METHOD_NAMES,
    CalibrationEntry,
    CalibrationSearch,
    build_plan,
    calibration_entries,
    lookup,
    predicted_sparsity,
    smallest_budget,
)
from .eviction import (
    FORCED_FIRST,
    FORCED_RECENT,
    ada_snapkv_compress,
    snapkv_compress,
)
from .plans import (
    BlockPlan,
    EvictionPlan,
    PageIndex,
    PagePlan,
    SparsePlan,
    SparsityReport,
    VerticalSlashPlan,
    block_budget_cells,
    vertical_slash_cells,
)
from .quest import PAGE_SIZE, quest_index, quest_plan, quest_select
from .vertical_slash import (
    FORCED_LOCAL,
    FORCED_PREFIX,
    FlexPrefillConfig,
    build_flexprefill,
    build_vertical_slash,
)

__all__ = [
    "BLOCK_SIZE",
    "ORACLE_LIMIT",
    "FORCED_FIRST",
    "FORCED_LOCAL",
    "FORCED_PREFIX",
    "FORCED_RECENT",
    "METHOD_NAMES",
    "PAGE_SIZE",
    "BlockPlan",
    "CalibrationEntry",
    "CalibrationSearch",
    "EvictionPlan",
    "FlexPrefillConfig",
    "PageIndex",
    "PagePlan",
    "SparsePlan",
    "SparsityReport",
    "VerticalSlashPlan",
    "ada_snapkv_compress",
    "attention_recall",
    "block_budget_cells",
    "build_block_sparse",
    "build_flexprefill",
    "build_plan",
    "build_vertical_slash",
    "calibration_entries",
    "lookup",
    "page_plan_rows",
    "plan_sparsity",
    "predicted_sparsity",
    "quest_index",
    "quest_plan",
    "quest_select",
    "smallest_budget",
    "snapkv_compress",
    "to_cell_mask",
    "vertical_slash_cells",
]
