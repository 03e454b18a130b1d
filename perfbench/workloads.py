"""The benchmark's three workloads, driven through sparselab's public API.

Each workload is a closed loop over rounds: one round is a fixed list of
items run one after another, and the runner in ``run.py`` repeats rounds
until the time is spent.  Every call into sparselab goes through a module
attribute (``attention.masked_attention``, ``runner.run_suite``, ...) so the
tracer can wrap it.  Correctness checks run between timed segments.

Why these three: ``oracle_2k`` spends its time in the attention kernels and
the recall oracle; ``select_16k`` spends it in the pattern builders and the
plan accounting and never runs a prefill kernel or the oracle; and
``harness_mock`` spends it in task generation and never runs attention code.
A change to one of these layers should move one workload and leave the
others flat.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from sparselab import attention, synthetic
from sparselab.harness import adapters, analysis, runner
from sparselab.harness.config import ExperimentConfig
from sparselab.patterns import accounting, block_sparse, calibration, eviction, quest, vertical_slash
from sparselab.patterns.plans import BlockPlan, EvictionPlan, PagePlan, VerticalSlashPlan
from sparselab.tasks import TASK_KINDS

from stats import grid_counts

GENERATORS = ("planted", "clustered")
HEADS = {"num_q_heads": 4, "num_kv_heads": 2, "head_dim": 32}
REFERENCE_TOLERANCE = 1e-12


class Clock:
    """Timed segments of one kind of round (traced or untraced) and the
    latencies of the items they completed."""

    def __init__(self) -> None:
        self.segments: list[tuple[str, float, float]] = []
        self.latencies_ms: list[float] = []
        self.items = 0

    @contextmanager
    def timed(self, label: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.segments.append((label, start, time.perf_counter()))

    def complete(self, count: int = 1) -> None:
        """The last segment produced ``count`` items: one latency sample of
        the segment's time per item."""
        _, start, end = self.segments[-1]
        self.latencies_ms.append(1e3 * (end - start) / count)
        self.items += count

    @property
    def seconds(self) -> float:
        return sum(end - start for _, start, end in self.segments)


class Workload:
    """Shared bookkeeping: attempted and failed items, check failures.

    A workload builds its inputs in ``setup``, runs one round of items per
    ``run_round(index, clock, tracer, check)`` (``check`` is true for the
    first untraced round), and reports its inputs in ``describe`` and its
    quality figure in ``quality``.
    """

    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.check_failures: list[str] = []

    def fail(self, where: str, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{where}: {type(exc).__name__}: {exc}")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_failures.append(message)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- oracle_2k

ORACLE_N = accounting.ORACLE_LIMIT
# Explicit budgets at n = 2048 that land near 50 % and 90 % sparsity.
ORACLE_BUDGETS = {
    "vertical_slash": {
        "sp50": {"num_verticals": 512, "num_slashes": 512},
        "sp90": {"num_verticals": 64, "num_slashes": 64},
    },
    "flexprefill": {
        "sp50": {"alpha": 0.9, "min_budget": 1024},
        "sp90": {"alpha": 0.3, "min_budget": 128},
    },
    "block_sparse": {"sp50": {"top_k_blocks": 38}, "sp90": {"top_k_blocks": 8}},
    "snapkv": {"sp50": {"token_capacity": 1024}, "sp90": {"token_capacity": 205}},
    "ada_snapkv": {"sp50": {"token_capacity": 1024}, "sp90": {"token_capacity": 205}},
    "quest": {"sp50": {"token_budget": 1024}, "sp90": {"token_budget": 208}},
}


def build_explicit(method: str, inputs, params: dict):
    if method == "vertical_slash":
        return vertical_slash.build_vertical_slash(inputs, **params)
    if method == "flexprefill":
        return vertical_slash.build_flexprefill(inputs, vertical_slash.FlexPrefillConfig(**params))
    if method == "block_sparse":
        return block_sparse.build_block_sparse(inputs, **params)
    if method == "snapkv":
        return eviction.snapkv_compress(inputs, **params)
    if method == "ada_snapkv":
        return eviction.ada_snapkv_compress(inputs, **params)
    if method == "quest":
        return quest.quest_plan(inputs, **params)
    raise KeyError(method)


def reference_mask(plan, head: int, group_map: tuple[int, ...]) -> np.ndarray:
    """Boolean [n, n] cells of one query head, expanded from the plan's own
    fields without sparselab's mask code."""
    n = plan.seq_len
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    causal = cols <= rows
    if isinstance(plan, VerticalSlashPlan):
        vertical = np.zeros(n, dtype=bool)
        vertical[plan.verticals[head]] = True
        slash = np.zeros(n, dtype=bool)
        slash[plan.slashes[head]] = True
        return causal & (vertical[cols] | slash[np.where(causal, rows - cols, 0)])
    if isinstance(plan, BlockPlan):
        nb = plan.num_query_blocks
        chosen = np.zeros((nb, nb), dtype=bool)
        for b, blocks in enumerate(plan.selections[head]):
            chosen[b, blocks] = True
        bs = plan.block_size
        return causal & chosen[rows // bs, cols // bs]
    if isinstance(plan, EvictionPlan):
        kept = np.zeros(n, dtype=bool)
        kept[plan.kept[group_map[head]]] = True
        return causal & kept[cols]
    raise TypeError(type(plan).__name__)


def reference_prefill(inputs, plan) -> np.ndarray:
    """Float64 masked softmax attention over the reference mask."""
    out = np.empty(inputs.queries.shape)
    scale = 1.0 / np.sqrt(inputs.head_dim)
    for h in range(inputs.num_q_heads):
        g = inputs.group_map[h]
        logits = inputs.queries[h] @ inputs.keys[g].T * scale
        logits[~reference_mask(plan, h, inputs.group_map)] = -np.inf
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        out[h] = (weights / weights.sum(axis=1, keepdims=True)) @ inputs.values[g]
    return out


def reference_decode(inputs, plan: PagePlan) -> np.ndarray:
    """Float64 softmax of the plan's decode row over its selected pages."""
    pos, size = plan.position, plan.index.page_size
    out = np.empty((inputs.num_q_heads, 1, inputs.head_dim))
    scale = 1.0 / np.sqrt(inputs.head_dim)
    for h in range(inputs.num_q_heads):
        g = inputs.group_map[h]
        tokens = np.concatenate(
            [np.arange(p * size, min((p + 1) * size, pos + 1)) for p in plan.selected[g]]
        )
        logits = inputs.keys[g][tokens] @ inputs.queries[h][pos] * scale
        weights = np.exp(logits - logits.max())
        out[h, 0] = (weights / weights.sum()) @ inputs.values[g][tokens]
    return out


class Oracle2k(Workload):
    """Full-oracle evaluation of explicit-budget plans at n = ORACLE_LIMIT."""

    name = "oracle_2k"
    levels = ("sp50", "sp90")

    def setup(self) -> None:
        self.inputs = [
            synthetic.make_inputs(g, ORACLE_N, seed=self.seed, **HEADS) for g in GENERATORS
        ]
        self.recalls: list[float] = []

    def describe(self) -> dict:
        return {"n": ORACLE_N, **HEADS, "generators": list(GENERATORS), "budgets": ORACLE_BUDGETS}

    def run_round(self, index: int, clock: Clock, tracer, check: bool) -> None:
        # the first round checks every method against the reference, at
        # sp90 on the first input and at sp50 on the second
        for inputs, check_level in zip(self.inputs, ("sp90", "sp50")):
            self._run_input(index, inputs, clock, tracer, check_level if check else None)

    def _run_input(self, index, inputs, clock: Clock, tracer, check_level: str | None) -> None:
        with clock.timed("dense_prefill"):
            attention.dense_prefill(inputs)
        for level in self.levels:
            for method, budgets in ORACLE_BUDGETS.items():
                self.attempted += 1
                try:
                    with clock.timed(level):
                        plan = build_explicit(method, inputs, budgets[level])
                        report = accounting.plan_sparsity(plan)
                        if isinstance(plan, PagePlan):
                            mask = None
                            rows = accounting.page_plan_rows(plan, inputs.group_map)
                            out = attention.decode_step(inputs, rows)
                        else:
                            mask = accounting.to_cell_mask(plan, inputs.group_map)
                            out = attention.masked_attention(inputs, mask)
                        recall = accounting.attention_recall(plan, inputs)
                except Exception as exc:  # one bad item must not end the run
                    self.fail(f"{method}@{level}", exc)
                    continue
                clock.complete()
                self.recalls.append(recall)
                where = f"{method}@{level} round {index}"
                self._check_cells(where, plan, report, mask, inputs)
                if mask is not None:
                    cells = mask.num_cells()
                    causal = inputs.num_q_heads * ORACLE_N * (ORACLE_N + 1) // 2
                    tracer.add("prefill.cells", cells)
                    tracer.add(f"prefill.causal.{level}", causal)
                    tracer.add(f"prefill.computed.{level}", cells)
                if level == check_level:
                    if mask is None:
                        expected = reference_decode(inputs, plan)
                    else:
                        expected = reference_prefill(inputs, plan)
                    error = float(np.abs(out.output - expected).max())
                    self.check(
                        error <= REFERENCE_TOLERANCE,
                        f"{where}: output differs from the float64 reference by {error:.3e}",
                    )

    def _check_cells(self, where, plan, report, mask, inputs) -> None:
        """plan_sparsity's computed cells against the expanded mask: every
        cell for prefill plans, the decode row for eviction and page plans."""
        group = inputs.num_q_heads // inputs.num_kv_heads
        if isinstance(plan, (VerticalSlashPlan, BlockPlan)):
            counted = mask.num_cells()
            expected = report.computed_cells
        elif isinstance(plan, EvictionPlan):
            last = plan.seq_len - 1
            counted = sum(mask.row(h, last).size for h in range(inputs.num_q_heads))
            expected = report.computed_cells * group
        else:
            counted = sum(
                r.size for r in accounting.page_plan_rows(plan, inputs.group_map)
            )
            expected = report.computed_cells * group
        self.check(
            counted == expected,
            f"{where}: plan_sparsity counts {expected} cells, the mask holds {counted}",
        )

    def quality(self) -> dict:
        return {"recall_mean": {"value": statistics.fmean(self.recalls), "unit": "ratio"}}


# --------------------------------------------------------------- select_16k

SELECT_N = 16384
SELECT_LEVELS = {"sp90": 0.9, "sp80": 0.8, "sp60": 0.6}
DECODE_METHODS = ("snapkv", "ada_snapkv", "quest")


class Select16k(Workload):
    """Calibrated plans at n = 16384: lookup, build, accounting, and a sparse
    decode step for the decode-time methods.  No dense oracle runs."""

    name = "select_16k"

    def setup(self) -> None:
        self.inputs = [
            synthetic.make_inputs(g, SELECT_N, seed=self.seed, **HEADS) for g in GENERATORS
        ]
        self.gaps: list[float] = []

    def describe(self) -> dict:
        return {
            "n": SELECT_N,
            **HEADS,
            "generators": list(GENERATORS),
            "levels": SELECT_LEVELS,
            "methods": list(calibration.METHOD_NAMES),
        }

    def run_round(self, index: int, clock: Clock, tracer, check: bool) -> None:
        for inputs in self.inputs:
            self._run_input(index, inputs, clock, tracer)

    def _run_input(self, index: int, inputs, clock: Clock, tracer) -> None:
        with clock.timed("full_decode"):
            attention.decode_step(inputs, np.arange(SELECT_N))
        for label, level in SELECT_LEVELS.items():
            for method in calibration.METHOD_NAMES:
                self.attempted += 1
                try:
                    with clock.timed(label):
                        entry = calibration.lookup(method, SELECT_N, level)
                        plan = calibration.build_plan(entry, inputs)
                        report = accounting.plan_sparsity(
                            plan, target_sparsity=entry.target_sparsity
                        )
                        if isinstance(plan, EvictionPlan):
                            attention.decode_step(inputs, [plan.kept[g] for g in inputs.group_map])
                        elif isinstance(plan, PagePlan):
                            attention.decode_step(
                                inputs, accounting.page_plan_rows(plan, inputs.group_map)
                            )
                except Exception as exc:  # one bad item must not end the run
                    self.fail(f"{method}@{label}", exc)
                    continue
                clock.complete()
                self.gaps.append(abs(report.achieved_sparsity - entry.target_sparsity))
                if method in DECODE_METHODS:
                    tracer.add(f"decode.causal.{label}", report.causal_cells)
                    tracer.add(f"decode.computed.{label}", report.computed_cells)
                    predicted = calibration.predicted_sparsity(entry)
                    self.check(
                        report.computed_cells * predicted.causal_cells
                        == predicted.computed_cells * report.causal_cells,
                        f"{method}@{label} round {index}: plan sparsity "
                        f"{report.achieved_sparsity} != predicted {predicted.achieved_sparsity}",
                    )

    def quality(self) -> dict:
        return {"sparsity_gap_mean": {"value": statistics.fmean(self.gaps), "unit": "ratio"}}


# ------------------------------------------------------------- harness_mock

HARNESS_LENGTHS = (4000, 16000)
HARNESS_METHODS = ("dense", "vertical_slash", "quest")
HARNESS_SPARSITY = (0.0, 0.8, 0.9)
HARNESS_SAMPLES = 2


class HarnessMock(Workload):
    """run_suite with the echo adapter over one grid per (kind, length), a
    resume of each completed grid, and analyze."""

    name = "harness_mock"

    def setup(self) -> None:
        self.runs = self.work_dir / f"harness-runs-{os.getpid()}"
        self.runs.mkdir(parents=True, exist_ok=True)
        self.scores: list[float] = []
        self.passes = 0

    def describe(self) -> dict:
        return {
            "tasks": list(TASK_KINDS),
            "seq_lengths": list(HARNESS_LENGTHS),
            "methods": list(HARNESS_METHODS),
            "sparsity_levels": list(HARNESS_SPARSITY),
            "samples_per_config": HARNESS_SAMPLES,
            "config_seed": "seed * 1000 + round",
        }

    def _adapter(self, tracer):
        adapter = adapters.MockAdapter(mode="echo")
        adapter.generate = tracer.wrap(adapter.generate, "harness.adapters.generate")
        return adapter

    def run_round(self, index: int, clock: Clock, tracer, check: bool) -> None:
        self.passes += 1
        out_root = self.runs / f"pass-{self.passes}"
        planned = HARNESS_SAMPLES * len(HARNESS_METHODS) * len(HARNESS_SPARSITY)
        for kind in TASK_KINDS:
            for length in HARNESS_LENGTHS:
                grid = f"{kind}@{length}"
                config = ExperimentConfig(
                    tasks=(kind,),
                    methods=HARNESS_METHODS,
                    sparsity_levels=HARNESS_SPARSITY,
                    seq_lengths=(length,),
                    samples_per_config=HARNESS_SAMPLES,
                    seed=self.seed * 1000 + index,
                )
                adapter = self._adapter(tracer)
                result = None
                with clock.timed("grid"), tracer.span("harness.runner"):
                    try:
                        result = runner.run_suite(config, out_root, adapter=adapter)
                    except Exception as exc:  # an aborted grid must not hide the others
                        message = f"{grid}: {type(exc).__name__}: {exc}"
                        if message not in self.errors:
                            self.errors.append(message)
                records = _read_records(out_root / config.fingerprint() / "records.jsonl")
                attempted, failed = grid_counts(planned, records)
                self.attempted += attempted
                self.failed += failed
                if records:
                    # run_suite has no per-record boundary: each record of a
                    # grid is one item of the grid's time per record
                    clock.complete(len(records))
                for record in records:
                    if record["status"] == "ok":
                        self.scores.append(record["score"])
                        self.check(
                            record["score"] == 1.0,
                            f"{grid} {record['sample_id']}: echo record scored {record['score']}",
                        )
                if result is None:
                    continue
                again_adapter = self._adapter(tracer)
                with clock.timed("resume"), tracer.span("harness.runner.resume"):
                    again = runner.run_suite(config, out_root, adapter=again_adapter)
                tracer.add("resume.adapter_calls", again.adapter_calls)
                self.check(
                    again.adapter_calls == 0 and again.new_records == 0,
                    f"{grid}: resume made {again.adapter_calls} adapter calls",
                )
                self.check(
                    _canonical(again.records) == _canonical(result.records),
                    f"{grid}: resume returned different records",
                )
                with clock.timed("analyze"), tracer.span("harness.analysis.analyze"):
                    analysis.analyze(result.run_dir)
        shutil.rmtree(out_root, ignore_errors=True)

    def quality(self) -> dict:
        return {"score_mean": {"value": statistics.fmean(self.scores), "unit": "ratio"}}

    def close(self) -> None:
        shutil.rmtree(self.runs, ignore_errors=True)


def _read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _canonical(records: list[dict]) -> list[str]:
    return [json.dumps(record, sort_keys=True) for record in records]


WORKLOADS = {cls.name: cls for cls in (Oracle2k, Select16k, HarnessMock)}
