"""Analytical inference-cost model.

Prefill cost is counted in FLOPs (compute-bound), decode cost in memory
elements moved per step (memory-bound).  Attention density scales only the
score/value interactions of dense-attention layers; sliding-window layers
are architecturally sparse already and are never rescaled.  A Pareto helper
extracts non-dominated (cost, performance) configurations.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

__all__ = [
    "CostSpec",
    "CostReport",
    "ParetoPoint",
    "model_presets",
    "spec_from_preset",
    "prefill_flops",
    "decode_memory",
    "vs_indexing_flops",
    "quest_indexing_memory",
    "prefill_speedup",
    "decode_speedup",
    "pareto_frontier",
    "sweep_rows",
    "write_csv",
]


@dataclass(frozen=True)
class CostSpec:
    """Model and workload dimensions for the cost formulas.

    layer_kinds holds one entry per layer: None for dense attention, or the
    window size for a sliding-window layer.  density is the retained fraction
    of query-key interactions in dense layers (1 = full attention).
    """

    seq_len: int
    hidden_dim: int
    num_q_heads: int
    head_dim: int
    num_kv_heads: int
    num_layers: int
    mlp_dim: int
    vocab_size: int
    batch_size: int = 1
    density: float = 1.0
    layer_kinds: tuple[int | None, ...] | None = None

    def __post_init__(self) -> None:
        for name in (
            "seq_len",
            "hidden_dim",
            "num_q_heads",
            "head_dim",
            "num_kv_heads",
            "num_layers",
            "mlp_dim",
            "vocab_size",
            "batch_size",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if self.layer_kinds is not None:
            if len(self.layer_kinds) != self.num_layers:
                raise ValueError("layer_kinds must list every layer")
            if any(w is not None and w < 1 for w in self.layer_kinds):
                raise ValueError("sliding windows must be positive")

    @property
    def kinds(self) -> tuple[int | None, ...]:
        if self.layer_kinds is None:
            return (None,) * self.num_layers
        return self.layer_kinds


@dataclass(frozen=True)
class CostReport:
    total: float
    components: dict[str, float]
    attention_share: float
    units: str

    def __post_init__(self) -> None:
        if not math.isclose(sum(self.components.values()), self.total, rel_tol=1e-12):
            raise ValueError("components must sum to total")
        if not 0.0 <= self.attention_share <= 1.0:
            raise ValueError("attention_share must lie in [0, 1]")


@lru_cache(maxsize=1)
def model_presets() -> dict[str, dict]:
    path = resources.files("sparselab") / "data" / "model_dims.json"
    return json.loads(path.read_text())


def spec_from_preset(
    name: str, seq_len: int, batch_size: int = 1, density: float = 1.0
) -> CostSpec:
    presets = model_presets()
    if name not in presets:
        raise KeyError(f"unknown model preset {name!r}; available: {sorted(presets)}")
    dims = presets[name]
    kinds: tuple[int | None, ...] | None = None
    if "sliding_window" in dims:
        window = dims["sliding_window"]
        every = dims["dense_every"]
        kinds = tuple(
            None if (i + 1) % every == 0 else window for i in range(dims["num_layers"])
        )
    return CostSpec(
        seq_len=seq_len,
        hidden_dim=dims["hidden_dim"],
        num_q_heads=dims["num_q_heads"],
        head_dim=dims["head_dim"],
        num_kv_heads=dims["num_kv_heads"],
        num_layers=dims["num_layers"],
        mlp_dim=dims["mlp_dim"],
        vocab_size=dims["vocab_size"],
        batch_size=batch_size,
        density=density,
        layer_kinds=kinds,
    )


def _causal_interactions(seq_len: int, window: int) -> int:
    """Sum over rows i of min(i, window): the cells a sliding window visits."""
    w = min(window, seq_len)
    return w * (w + 1) // 2 + (seq_len - w) * w


def _attention_flops(spec: CostSpec, density: float) -> tuple[float, float]:
    """(all layers, dense layers only) attention FLOPs at the given density."""
    L, d = spec.seq_len, spec.hidden_dim
    linear = 2 * L * d * (d + 2 * spec.head_dim * spec.num_kv_heads + d)
    quadratic = (4 * spec.head_dim + 3) * spec.num_q_heads * L * L
    full_rows = _causal_interactions(L, L)
    total = 0.0
    dense_only = 0.0
    for window in spec.kinds:
        if window is None:
            layer = linear + density * quadratic
            dense_only += layer
        else:
            # architectural sparsity: scale by the fraction of causal cells
            # a window of this size actually visits
            layer = linear + quadratic * (_causal_interactions(L, window) / full_rows)
        total += layer
    return total, dense_only


def prefill_flops(spec: CostSpec) -> CostReport:
    L, d = spec.seq_len, spec.hidden_dim
    embedding = 2 * L * d
    attention, _ = _attention_flops(spec, spec.density)
    mlp = spec.num_layers * (6 * L * d * spec.mlp_dim + 2 * L * spec.mlp_dim)
    logits = 2 * L * d * spec.vocab_size
    B = spec.batch_size
    components = {
        "embedding": B * embedding,
        "attention": B * attention,
        "mlp": B * mlp,
        "logits": B * logits,
    }
    total = sum(components.values())
    return CostReport(
        total=total,
        components=components,
        attention_share=components["attention"] / total,
        units="flops",
    )


def decode_memory(spec: CostSpec) -> CostReport:
    """Memory elements moved for one decode step.

    Weights stream once per forward pass; the KV read scales with batch.
    Dense layers read a density-scaled slice of the cache, sliding layers at
    most their window.
    """
    d = spec.hidden_dim
    weights = (
        spec.num_layers * (4 * d * d + 3 * d * spec.mlp_dim)
        + d * spec.vocab_size
        + d
    )
    per_token = 2 * spec.head_dim * spec.num_kv_heads
    kv = 0.0
    for window in spec.kinds:
        if window is None:
            kv += spec.seq_len * per_token * spec.density
        else:
            kv += min(spec.seq_len, window) * per_token
    components = {"weights": float(weights), "kv_cache": spec.batch_size * kv}
    total = sum(components.values())
    return CostReport(
        total=total,
        components=components,
        attention_share=components["kv_cache"] / total,
        units="elements",
    )


def vs_indexing_flops(
    spec: CostSpec, window: int, num_verticals: int, num_slashes: int
) -> float:
    """Cost of scoring columns/diagonals from a ``window``-query recent
    window plus the top-k scans that pick the pattern, per query head."""
    if window < 0 or num_verticals < 0 or num_slashes < 0:
        raise ValueError("window and budgets must be non-negative")
    L, d, q = spec.seq_len, spec.head_dim, window
    inner = (
        2 * d * L * q
        + 3 * L * q
        + 2 * L * q
        + 2 * L * math.log2(L)
        + (L / 64) * (num_verticals + num_slashes)
    )
    return spec.batch_size * spec.num_layers * spec.num_q_heads * inner


def quest_indexing_memory(spec: CostSpec, page_size: int) -> float:
    """Elements moved loading each kv head's min/max page vectors each step."""
    if page_size < 1:
        raise ValueError("page_size must be positive")
    return (
        spec.batch_size
        * spec.num_layers
        * spec.num_kv_heads
        * 2
        * spec.head_dim
        * (spec.seq_len / page_size)
    )


def prefill_speedup(spec: CostSpec, density: float) -> float:
    """Speedup from sparsifying dense-layer attention to the given density.

    The reducible share is the dense layers' whole attention component, the
    quantity the cost-breakdown figures call "attention"; architectural
    sliding-window layers are not reducible.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    base = prefill_flops(replace(spec, density=1.0))
    _, dense_part = _attention_flops(spec, 1.0)
    reducible = spec.batch_size * dense_part
    return base.total / (base.total - (1.0 - density) * reducible)


def decode_speedup(spec: CostSpec, density: float) -> float:
    """Memory-traffic ratio between the dense and density-scaled caches."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    dense = decode_memory(replace(spec, density=1.0))
    sparse = decode_memory(replace(spec, density=density))
    return dense.total / sparse.total


@dataclass(frozen=True)
class ParetoPoint:
    """A configuration in cost-performance space.

    label carries (model or method name, sparsity) or any short tag; it does
    not participate in dominance.
    """

    cost: float
    performance: float
    label: tuple

    def __post_init__(self) -> None:
        if not math.isfinite(self.cost) or self.cost < 0:
            raise ValueError("cost must be finite and non-negative")
        if not 0.0 <= self.performance <= 1.0:
            raise ValueError("performance must lie in [0, 1]")


def pareto_frontier(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Points not dominated by any other (cost <=, performance >=, one strict).

    Output is sorted by cost.  Exact duplicates are mutually non-dominating
    and all kept; a costlier point matching the best performance so far is
    dominated and dropped.
    """
    if not points:
        raise ValueError("at least one point required")
    order = sorted(range(len(points)), key=lambda i: (points[i].cost, i))
    frontier: list[ParetoPoint] = []
    best = -math.inf
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and points[order[j]].cost == points[order[i]].cost:
            j += 1
        group = [points[order[t]] for t in range(i, j)]
        group_best = max(p.performance for p in group)
        if group_best > best:
            frontier.extend(p for p in group if p.performance == group_best)
            best = group_best
        i = j
    return frontier


def sweep_rows(
    preset_names: Iterable[str],
    seq_lens: Iterable[int],
    densities: Iterable[float],
    batch_size: int = 1,
) -> list[dict[str, object]]:
    """Cost table over models, lengths, and densities, one dict per row."""
    rows: list[dict[str, object]] = []
    for name in preset_names:
        for L in seq_lens:
            base = spec_from_preset(name, L, batch_size=batch_size)
            pre = prefill_flops(base)
            dec = decode_memory(base)
            for rho in densities:
                rows.append(
                    {
                        "model": name,
                        "seq_len": L,
                        "batch_size": batch_size,
                        "density": rho,
                        "prefill_flops": prefill_flops(replace(base, density=rho)).total,
                        "prefill_attention_share": pre.attention_share,
                        "prefill_speedup": prefill_speedup(base, rho),
                        "decode_elements": decode_memory(replace(base, density=rho)).total,
                        "decode_kv_share": dec.attention_share,
                        "decode_speedup": decode_speedup(base, rho),
                    }
                )
    return rows


def write_csv(rows: Sequence[dict[str, object]], path: str) -> None:
    """Deterministic CSV: column order from the first row, rows as given."""
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
