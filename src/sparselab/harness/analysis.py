"""Analysis over persisted run records: tables, curves, error and Pareto exports.

Pure functions of the records: regenerating exports from the same records
produces identical bytes. Failed records (generator or adapter errors) are
excluded from every aggregate. A torn last line of ``records.jsonl`` is
skipped with a warning and the file is left as it is.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..costs import ParetoPoint, pareto_frontier, prefill_flops, spec_from_preset, write_csv
from ..evaluation import SparsityCurve, absolute_error, aggregate, relative_error
from .config import ExperimentConfig
from .runner import read_records

__all__ = [
    "analyze",
    "curve_for",
    "error_rows",
    "load_run",
    "pareto_rows",
    "summary_rows",
]


def load_run(run_dir: str | Path) -> tuple[ExperimentConfig, list[dict]]:
    run_dir = Path(run_dir)
    with open(run_dir / "config.json", encoding="utf-8") as handle:
        config = ExperimentConfig.from_json(json.load(handle))
    records, _ = read_records(run_dir / "records.jsonl")
    fingerprint = config.fingerprint()
    mixed = {r.get("fingerprint") for r in records} - {fingerprint}
    if mixed:
        raise ValueError(
            f"records carry foreign fingerprints {sorted(mixed)}; "
            f"expected {fingerprint}"
        )
    return config, records


def _scored(records) -> list[dict]:
    return [r for r in records if r["status"] == "ok" and r["score"] is not None]


def _group(records, key_fields: tuple[str, ...]) -> dict[tuple, list[float]]:
    groups: dict[tuple, list[float]] = {}
    for record in _scored(records):
        key = tuple(record[f] for f in key_fields)
        groups.setdefault(key, []).append(record["score"])
    return groups


def summary_rows(records, by_task: bool = False) -> list[dict]:
    fields = ("task",) * by_task + ("method", "sparsity", "seq_len")
    groups = _group(records, fields)
    rows = []
    for key in sorted(groups):
        summary = aggregate(groups[key])
        row = dict(zip(fields, key))
        row.update(mean=summary.mean, std_error=summary.std_error, n=summary.n)
        rows.append(row)
    return rows


def curve_for(records, method: str, seq_len: int) -> SparsityCurve:
    groups = _group(records, ("method", "seq_len", "sparsity"))
    pairs = [
        (key[2], aggregate(scores).mean)
        for key, scores in groups.items()
        if key[0] == method and key[1] == seq_len
    ]
    if not pairs:
        raise ValueError(f"no records for method {method!r} at length {seq_len}")
    return SparsityCurve.from_pairs(pairs)


def error_rows(records) -> list[dict]:
    """Per (method, length, sparsity) degradation against that method's own
    dense (sparsity 0) rows; methods without a dense baseline are skipped."""
    groups = _group(records, ("method", "seq_len", "sparsity"))
    rows = []
    for (method, seq_len, sparsity) in sorted(groups):
        if sparsity == 0.0:
            continue
        baseline = groups.get((method, seq_len, 0.0))
        if not baseline:
            continue
        dense_mean = aggregate(baseline).mean
        sparse_mean = aggregate(groups[(method, seq_len, sparsity)]).mean
        row = {
            "method": method,
            "seq_len": seq_len,
            "sparsity": sparsity,
            "dense_mean": dense_mean,
            "sparse_mean": sparse_mean,
            "absolute_error": absolute_error(dense_mean, sparse_mean),
        }
        if dense_mean > 0:
            row["relative_error"] = relative_error(dense_mean, sparse_mean)
        else:
            row["relative_error"] = ""
        rows.append(row)
    return rows


def pareto_rows(records, config: ExperimentConfig) -> list[dict]:
    """(cost, performance) points per (sparsity, length) under the config's
    model preset, with frontier membership flags."""
    groups = _group(records, ("seq_len", "sparsity"))
    rows = []
    for seq_len in sorted({key[0] for key in groups}):
        points = []
        for (length, sparsity), scores in sorted(groups.items()):
            if length != seq_len:
                continue
            spec = spec_from_preset(
                config.model_dims, seq_len=seq_len, density=max(1.0 - sparsity, 0.05)
            )
            points.append(
                ParetoPoint(
                    cost=prefill_flops(spec).total,
                    performance=aggregate(scores).mean,
                    label=(config.model_dims, str(sparsity)),
                )
            )
        frontier = set(map(id, pareto_frontier(points)))
        for point, (_, sparsity) in zip(
            points, sorted(k for k in groups if k[0] == seq_len)
        ):
            rows.append(
                {
                    "seq_len": seq_len,
                    "model": config.model_dims,
                    "sparsity": sparsity,
                    "cost_flops": point.cost,
                    "performance": point.performance,
                    "on_frontier": int(id(point) in frontier),
                }
            )
    return rows


def analyze(run_dir: str | Path, out_dir: str | Path | None = None) -> dict:
    """Builds all tables and writes them as CSV next to the records."""
    config, records = load_run(run_dir)
    if not _scored(records):
        raise ValueError("no scored records to analyze")
    out = Path(out_dir) if out_dir is not None else Path(run_dir) / "analysis"
    out.mkdir(parents=True, exist_ok=True)
    tables = {
        "summary": summary_rows(records),
        "by_task": summary_rows(records, by_task=True),
        "errors": error_rows(records),
        "frontier": pareto_rows(records, config),
    }
    for name, rows in tables.items():
        if rows:
            write_csv(rows, out / f"{name}.csv")
    return tables
