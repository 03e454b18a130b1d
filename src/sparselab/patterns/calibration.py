"""Bundled budget-to-sparsity operating points.

The shipped table maps (method, sequence length, target sparsity) to the
parameter that realizes it.  Eviction, page, and block budgets translate to
sparsity by pure arithmetic; a vertical-slash budget's arithmetic is the
densest geometric packing, an upper bound on a built plan's cells.  Rows with
seven entries cover only the seven densest sparsity levels; the block-sparse
rows follow the conservative largest-count-to-lowest-sparsity pairing, and
the rows it misses are criterion 05's strict xfails and show in
``sparselab calibration``.  ``smallest_budget`` finds a one-count row's value
for a given input by measuring built plans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Any, Callable, NamedTuple

import numpy as np

from ..attention import AttentionInputs
from .accounting import plan_sparsity
from .block_sparse import build_block_sparse
from .eviction import FORCED_FIRST, FORCED_RECENT, ada_snapkv_compress, snapkv_compress
from .plans import SparsePlan, SparsityReport, block_budget_cells, vertical_slash_cells
from .quest import PAGE_SIZE, quest_plan
from .vertical_slash import FORCED_LOCAL, FlexPrefillConfig, build_flexprefill, build_vertical_slash

__all__ = [
    "METHODS",
    "METHOD_NAMES",
    "Method",
    "CalibrationEntry",
    "CalibrationSearch",
    "calibration_entries",
    "lookup",
    "predicted_sparsity",
    "build_plan",
    "check_params",
    "smallest_budget",
]


class Method(NamedTuple):
    """How the lab drives one selection method.

    build: plan from the inputs and explicit builder keyword arguments.
    calibrated: a calibration.json value turned into those keyword arguments.
    cells: (computed, causal) cells at length n from the keyword arguments
        alone, or None where the count depends on the inputs.  For
        vertical_slash this is the densest-packing upper bound, not the count
        of a built plan, whose units may sit further out; that is why
        ``smallest_budget`` measures built plans.
    smallest: the least one-count table value the build accepts at length
        n, or None where the table value is not one count.
    required, optional: the explicit keys ``check_params`` accepts.  ``build``
        reads these and ignores any other key.
    """

    build: Callable[[AttentionInputs, dict], SparsePlan]
    calibrated: Callable[[Any], dict]
    cells: Callable[[int, dict], tuple[int, int] | None]
    smallest: Callable[[int], int] | None
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()


def _uniform_vs_cells(n: int, num_verticals: int, num_slashes: int) -> tuple[int, int]:
    """Densest-packing cells of a vertical-slash budget: columns and offsets
    0..k-1.  Whenever num_verticals + num_slashes <= n, as in every shipped
    row, no selection of that budget computes more cells."""
    cells = vertical_slash_cells(np.arange(num_verticals), np.arange(num_slashes), n)
    return cells, n * (n + 1) // 2


def _given(kw: dict, *names: str) -> dict:
    """The optional arguments among ``names`` that ``kw`` sets; others are ignored."""
    return {name: kw[name] for name in names if name in kw}


def _flexprefill_config(kw: dict) -> FlexPrefillConfig:
    return FlexPrefillConfig(kw["alpha"], **_given(kw, "min_budget"))


def _quest_cells(n: int, kw: dict) -> tuple[int, int]:
    """Every token once the budget covers n; else floor(budget / PAGE_SIZE)
    pages, all full but the current one, which holds the last
    n - PAGE_SIZE * floor((n - 1) / PAGE_SIZE) tokens."""
    budget = kw["token_budget"]
    if budget >= n:
        return n, n
    current = n - (n - 1) // PAGE_SIZE * PAGE_SIZE
    return (budget // PAGE_SIZE - 1) * PAGE_SIZE + current, n


def _flexprefill_cells(n: int, kw: dict) -> tuple[int, int] | None:
    """alpha = 0 reverts to the uniform builder at the config's uniform
    counts; coverage-driven points (alpha > 0) depend on the inputs."""
    config = _flexprefill_config(kw)
    return None if config.alpha > 0 else _uniform_vs_cells(n, *config.uniform_counts(n))


# Each build reads a fixed set of keys and ignores the rest.  Builders are looked
# up by name at call time so that wrapping a module attribute (profiling,
# tracing) also sees calls made through the table.
METHODS: dict[str, Method] = {
    "vertical_slash": Method(
        build=lambda inputs, kw: build_vertical_slash(
            inputs, kw["num_verticals"], kw["num_slashes"]
        ),
        calibrated=lambda v: {"num_verticals": int(v), "num_slashes": int(v)},
        cells=lambda n, kw: _uniform_vs_cells(n, kw["num_verticals"], kw["num_slashes"]),
        smallest=lambda n: min(FORCED_LOCAL, n),
        required=("num_verticals", "num_slashes"),
    ),
    "flexprefill": Method(
        build=lambda inputs, kw: build_flexprefill(inputs, _flexprefill_config(kw)),
        calibrated=lambda v: {"alpha": float(v[0]), "min_budget": int(v[1])},
        cells=_flexprefill_cells,
        smallest=None,
        required=("alpha",),
        optional=("min_budget",),
    ),
    "block_sparse": Method(
        build=lambda inputs, kw: build_block_sparse(inputs, kw["top_k_blocks"]),
        calibrated=lambda v: {"top_k_blocks": int(v)},
        cells=lambda n, kw: (block_budget_cells(n, kw["top_k_blocks"]), n * (n + 1) // 2),
        smallest=lambda n: 2,
        required=("top_k_blocks",),
    ),
    "snapkv": Method(
        build=lambda inputs, kw: snapkv_compress(inputs, kw["token_capacity"]),
        calibrated=lambda v: {"token_capacity": int(v)},
        cells=lambda n, kw: (min(kw["token_capacity"], n), n),
        smallest=lambda n: FORCED_FIRST + FORCED_RECENT,
        required=("token_capacity",),
    ),
    "ada_snapkv": Method(
        build=lambda inputs, kw: ada_snapkv_compress(
            inputs, kw["token_capacity"], **_given(kw, "min_head_fraction")
        ),
        calibrated=lambda v: {"token_capacity": int(v)},
        cells=lambda n, kw: (min(kw["token_capacity"], n), n),
        smallest=lambda n: FORCED_FIRST + FORCED_RECENT,
        required=("token_capacity",),
        optional=("min_head_fraction",),
    ),
    "quest": Method(
        build=lambda inputs, kw: quest_plan(inputs, kw["token_budget"]),
        calibrated=lambda v: {"token_budget": int(v)},
        cells=_quest_cells,
        smallest=lambda n: PAGE_SIZE,
        required=("token_budget",),
    ),
}
METHOD_NAMES = tuple(METHODS)


@dataclass(frozen=True)
class CalibrationEntry:
    """One operating point: parameters tuned for a target sparsity level."""

    method: str
    seq_len: int
    target_sparsity: float
    params: tuple[tuple[str, Any], ...]


@lru_cache(maxsize=1)
def _raw_table() -> dict[str, Any]:
    path = resources.files("sparselab") / "data" / "calibration.json"
    return json.loads(path.read_text())


@lru_cache(maxsize=1)
def _all_entries() -> tuple[CalibrationEntry, ...]:
    raw = _raw_table()
    levels = raw["levels"]
    entries = []
    for method, block in raw["methods"].items():
        for length, values in block["rows"].items():
            # shorter rows pair with the densest (leading) sparsity levels
            for level, value in zip(levels, values):
                entries.append(
                    CalibrationEntry(
                        method=method,
                        seq_len=int(length),
                        target_sparsity=float(level),
                        params=tuple(METHODS[method].calibrated(value).items()),
                    )
                )
    return tuple(entries)


def calibration_entries(
    method: str | None = None, seq_len: int | None = None
) -> tuple[CalibrationEntry, ...]:
    out = _all_entries()
    if method is not None:
        if method not in METHOD_NAMES:
            raise KeyError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
        out = tuple(e for e in out if e.method == method)
    if seq_len is not None:
        out = tuple(e for e in out if e.seq_len == seq_len)
    return out


def lookup(method: str, seq_len: int, target_sparsity: float) -> CalibrationEntry:
    """The entry tuned for a sparsity level, matched within 5e-3."""
    candidates = calibration_entries(method, seq_len)
    if not candidates:
        lengths = sorted({e.seq_len for e in calibration_entries(method)})
        raise KeyError(
            f"no calibration rows for {method} at length {seq_len}; available lengths: {lengths}"
        )
    best = min(candidates, key=lambda e: abs(e.target_sparsity - target_sparsity))
    if abs(best.target_sparsity - target_sparsity) > 5e-3:
        have = sorted({e.target_sparsity for e in candidates}, reverse=True)
        raise KeyError(
            f"{method} at length {seq_len} has no entry near sparsity "
            f"{target_sparsity}; available levels: {have}"
        )
    return best


def predicted_sparsity(entry: CalibrationEntry) -> SparsityReport | None:
    """Input-independent sparsity arithmetic for one operating point.

    Vertical-slash uses the densest-packing cell count (the geometric
    maximum coverage, hence minimum sparsity).  Coverage-driven flexprefill
    points (alpha > 0) are input-dependent and return None.
    """
    counts = METHODS[entry.method].cells(entry.seq_len, dict(entry.params))
    if counts is None:
        return None
    return SparsityReport(*counts, entry.target_sparsity)


def check_params(method: str, params: dict) -> None:
    """Raise ValueError, naming the accepted keys, when explicit builder
    ``params`` for ``method`` miss a required key or set one its build never
    reads."""
    spec = METHODS[method]
    unknown = sorted(set(params) - {*spec.required, *spec.optional})
    missing = [name for name in spec.required if name not in params]
    problems = [
        f"{label} {', '.join(names)}"
        for label, names in (("unknown", unknown), ("missing", missing))
        if names
    ]
    if problems:
        accepted = ", ".join([*spec.required, *(f"{name} (optional)" for name in spec.optional)])
        raise ValueError(f"{method} takes {accepted}; {'; '.join(problems)}")


def build_plan(entry: CalibrationEntry, inputs: AttentionInputs) -> SparsePlan:
    """Run the method's builder at this operating point."""
    return METHODS[entry.method].build(inputs, dict(entry.params))


class CalibrationSearch(NamedTuple):
    count: int
    target_reachable: bool


def smallest_budget(
    method: str, inputs: AttentionInputs, target_sparsity: float
) -> CalibrationSearch:
    """Smallest one-count table value whose built plan's achieved sparsity
    is at or below the target.

    The value v runs from the row's ``smallest`` at length n up to
    max(that, n), is turned into builder arguments by ``calibrated``, and is
    bisected on ``plan_sparsity`` of the built plan, which is non-increasing
    in v because every builder's selections are nested in its budget.  When
    even the smallest value builds a plan denser than the target, the target
    is unreachable and that value is returned flagged.  Raises ValueError for
    a row whose table value is not one count (flexprefill's is a pair).
    """
    if not 0.0 <= target_sparsity < 1.0:
        raise ValueError("target_sparsity must lie in [0, 1)")
    spec = METHODS[method]
    if spec.smallest is None:
        raise ValueError(f"{method}'s table value is not one count, so it has no budget search")

    def sparsity(value: int) -> float:
        return plan_sparsity(spec.build(inputs, spec.calibrated(value))).achieved_sparsity

    lo = spec.smallest(inputs.seq_len)
    hi = max(lo, inputs.seq_len)
    if sparsity(lo) < target_sparsity:
        return CalibrationSearch(lo, False)
    while lo < hi:
        mid = (lo + hi) // 2
        if sparsity(mid) <= target_sparsity:
            hi = mid
        else:
            lo = mid + 1
    return CalibrationSearch(lo, True)
