"""Span tracing around sparselab's public functions, installed from outside.

The tracer replaces module attributes (``sparselab.attention.masked_attention``,
``sparselab.harness.runner.generate``, ...) with wrappers that record a span
(name, start, end, parent) in memory, and restores the originals when it is
removed.  Both the attribute a caller uses and the one the library itself
calls internally are wrapped, so nested calls show up as child spans.
Nothing inside sparselab changes.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable

from stats import covered_share, self_times

_STORY_GENERATE = "tasks.generate.story_"
SETUP_SPANS = ("synthetic.make_inputs",)
LEVELS = ("sp50", "sp60", "sp80", "sp90")


def _generate_name(kind, *args, **kwargs) -> str:
    return f"tasks.generate.{kind}"


def _context_chars(tracer: "Tracer", sample) -> None:
    tracer.add("tasks.generate.chars", len(sample.context))


# (module, attribute, span name or naming function, result hook)
TARGETS: tuple[tuple[str, str, str | Callable, Callable | None], ...] = (
    ("sparselab.synthetic", "make_inputs", "synthetic.make_inputs", None),
    ("sparselab.patterns.vertical_slash", "window_weights_head", "patterns.window_scoring", None),
    ("sparselab.patterns.eviction", "window_weights_head", "patterns.window_scoring", None),
    *(
        (module, "build_vertical_slash", "patterns.vertical_slash.build", None)
        for module in ("sparselab.patterns.vertical_slash", "sparselab.patterns.calibration")
    ),
    *(
        (module, "build_flexprefill", "patterns.vertical_slash.flexprefill", None)
        for module in ("sparselab.patterns.vertical_slash", "sparselab.patterns.calibration")
    ),
    *(
        (module, "snapkv_compress", "patterns.eviction.snapkv", None)
        for module in ("sparselab.patterns.eviction", "sparselab.patterns.calibration")
    ),
    *(
        (module, "ada_snapkv_compress", "patterns.eviction.ada_snapkv", None)
        for module in ("sparselab.patterns.eviction", "sparselab.patterns.calibration")
    ),
    *(
        (module, "build_block_sparse", "patterns.block_sparse.build", None)
        for module in ("sparselab.patterns.block_sparse", "sparselab.patterns.calibration")
    ),
    ("sparselab.patterns.quest", "quest_index", "patterns.quest.index", None),
    ("sparselab.patterns.quest", "quest_select", "patterns.quest.select", None),
    ("sparselab.patterns.calibration", "lookup", "patterns.calibration.lookup", None),
    ("sparselab.patterns.calibration", "build_plan", "patterns.calibration.build_plan", None),
    ("sparselab.patterns.accounting", "plan_sparsity", "patterns.accounting.plan_sparsity", None),
    ("sparselab.patterns.accounting", "to_cell_mask", "patterns.accounting.to_cell_mask", None),
    ("sparselab.patterns.accounting", "page_plan_rows", "patterns.accounting.page_plan_rows", None),
    ("sparselab.patterns.accounting", "attention_recall", "patterns.accounting.attention_recall", None),
    ("sparselab.attention", "dense_prefill", "attention.dense_prefill", None),
    ("sparselab.attention", "masked_attention", "attention.masked_attention", None),
    ("sparselab.attention", "decode_step", "attention.decode_step", None),
    ("sparselab.harness.analysis", "prefill_flops", "costs.prefill_flops", None),
    ("sparselab.harness.runner", "generate", _generate_name, _context_chars),
    *(
        (module, "render_prompt", "tasks.render_prompt", None)
        for module in (
            "sparselab.harness.runner",
            "sparselab.tasks.story",
            "sparselab.tasks.niah",
            "sparselab.tasks.cwe",
            "sparselab.tasks.vt",
            "sparselab.tasks.qa",
        )
    ),
    ("sparselab.harness.runner", "parse_answer", "evaluation.parse_answer", None),
    ("sparselab.evaluation", "parse_answer", "evaluation.parse_answer", None),
    ("sparselab.harness.runner", "score_response", "evaluation.score_response", None),
)


# spans the benchmark opens around calls it makes itself or wraps per object
BENCH_SPANS = (
    "harness.adapters.generate",
    "harness.runner",
    "harness.runner.resume",
    "harness.analysis.analyze",
)
SPAN_STATS = ("calls", "ms", "self_ms", "share", "self_share")


def is_span_metric(metric: str) -> bool:
    """Whether ``metric`` is a stat of a span this tracer can record, so
    that a run in which the span never opened may report it as 0."""
    from sparselab.tasks import TASK_KINDS

    span, _, stat = metric.rpartition(".")
    spans = {name for _, _, name, _ in TARGETS if isinstance(name, str)}
    spans.update(BENCH_SPANS)
    spans.update(f"tasks.generate.{kind}" for kind in TASK_KINDS)
    return stat in SPAN_STATS and span in spans


class Tracer:
    """In-memory spans and counters for the traced rounds of one run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def wrap(self, fn: Callable, name: str | Callable, on_result: Callable | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, on_result in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, on_result))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


class NullTracer:
    """Stands in for the tracer in untraced rounds: records nothing."""

    def add(self, key: str, value: float) -> None:
        pass

    def span(self, name: str):
        return nullcontext()

    def wrap(self, fn: Callable, name: str | Callable, on_result: Callable | None = None):
        return fn


NULL_TRACER = NullTracer()


def _label_of(segments: list[tuple[str, float, float]]) -> Callable[[float], str | None]:
    """Maps a time to the label of the timed segment containing it."""
    ordered = sorted(segments, key=lambda s: s[1])
    starts = [s[1] for s in ordered]

    def label(t: float) -> str | None:
        i = bisect.bisect_right(starts, t) - 1
        if i >= 0 and ordered[i][1] <= t <= ordered[i][2]:
            return ordered[i][0]
        return None

    return label


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    segments: list[tuple[str, float, float]],
    setup_s: float,
) -> dict[str, float]:
    """Per-layer figures from the traced rounds, keyed ``<span>.<stat>``.

    ``segments`` are the traced rounds' timed intervals (label, start, end);
    an item's label is its sparsity level (``sp90``) and the baselines are
    ``dense_prefill`` and ``full_decode``.  Per span: ``calls``, mean ``ms``
    and ``self_ms`` per call, and ``share`` and ``self_share`` of the timed
    wall time (of the set-up time for set-up spans).  Layers that did not
    run are absent.
    """
    spans = tracer.spans
    timed = sum(end - start for _, start, end in segments)
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    for (name, start, end, _), self_s in zip(spans, own):
        calls[name] += 1
        total[name] += end - start
        selfs[name] += self_s

    values: dict[str, float] = {}
    for name in calls:
        base = setup_s if name in SETUP_SPANS else timed
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.ms"] = 1e3 * total[name] / calls[name]
        values[f"{name}.self_ms"] = 1e3 * selfs[name] / calls[name]
        values[f"{name}.share"] = total[name] / base
        values[f"{name}.self_share"] = selfs[name] / base

    generate = [n for n in calls if n.startswith("tasks.generate.")]
    values["tasks.generate.calls"] = sum(calls[n] for n in generate)
    values["tasks.generate.chars_per_s"] = _ratio(
        tracer.counters["tasks.generate.chars"], sum(total[n] for n in generate)
    )
    story_samples = sum(calls[n] for n in generate if n.startswith(_STORY_GENERATE))
    story_renders = sum(
        1
        for name, _, _, parent in spans
        if name == "tasks.render_prompt"
        and parent is not None
        and spans[parent][0].startswith(_STORY_GENERATE)
    )
    values["tasks.story.renders_per_sample"] = _ratio(story_renders, story_samples)
    values["harness.runner.resume_adapter_calls"] = tracer.counters["resume.adapter_calls"]

    label = _label_of(segments)
    by_label: dict[tuple[str, str | None], list[float]] = defaultdict(list)
    for name, start, end, _ in spans:
        if name in ("attention.masked_attention", "attention.decode_step", "attention.dense_prefill"):
            by_label[(name, label(start))].append(end - start)

    def mean(xs: list[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    cells = tracer.counters["prefill.cells"]
    kernel_s = total["attention.masked_attention"]
    values["attention.masked_attention.cells_per_s"] = _ratio(cells, kernel_s)
    values["attention.masked_attention.ns_per_cell"] = _ratio(1e9 * kernel_s, cells)
    dense = mean(by_label[("attention.dense_prefill", "dense_prefill")])
    full = mean(by_label[("attention.decode_step", "full_decode")])
    for level in LEVELS:
        values[f"attention.masked_attention.measured_speedup.{level}"] = _ratio(
            dense, mean(by_label[("attention.masked_attention", level)])
        )
        values[f"attention.decode_step.measured_speedup.{level}"] = _ratio(
            full, mean(by_label[("attention.decode_step", level)])
        )
        for kind in ("prefill", "decode"):
            values[f"costs.kernel_predicted_speedup.{kind}_{level}"] = _ratio(
                tracer.counters[f"{kind}.causal.{level}"],
                tracer.counters[f"{kind}.computed.{level}"],
            )

    windows = [(start, end) for _, start, end in segments]
    covered = covered_share(((start, end) for _, start, end, _ in spans), windows)
    values["trace.unattributed_share"] = 1.0 - covered
    return values
