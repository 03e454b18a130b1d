"""Benchmark for sparselab: end-to-end metrics per workload, per-layer
metrics from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload oracle_2k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Workloads (each runs in its own process; ``all`` runs them one by one):

- ``oracle_2k``: explicit-budget plans of all six methods at n = 2048,
  evaluated against the dense oracle (kernels and recall dominate).
- ``select_16k``: calibrated plans at n = 16384 (builders and accounting
  dominate; no prefill kernel, no oracle).
- ``harness_mock``: run_suite with the echo adapter, resume, analyze (task
  generation dominates; no attention code).

The load is one closed loop in one process.  A run repeats whole rounds of
items (every input of the workload once) until about ``--seconds`` of timed
work is done.  With ``--trace 0`` the last line carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the per-layer metrics, from
rounds traced in alternation with untraced ones.  The line before it is a
full report: environment stamp, inputs, failure texts, the tail percentile
and the metrics BENCHMARK.json does not gate (``failed_share``,
``item_p50_ms``, ``item_tail_ms`` and the workload's quality figure).
Reports (and the spans of a traced run) are written under
``.perfbench_out/``.

Correctness checks run outside the timed segments; a failed check prints the
result with ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("oracle_2k", "select_16k", "harness_mock")
# set-up probes per run, half before and half after the timed rounds so the
# median spans the run's time rather than one moment of it
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Caps BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def environment(cap: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_id = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_thread_cap": cap,
    }


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_setup_probes(args: argparse.Namespace, count: int) -> list[float]:
    """Set-up times of fresh processes doing only this workload's set-up."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(workload, seconds: float, tracer) -> tuple:
    """Whole rounds until about ``seconds`` of timed work is done and the
    items give a latency tail.  Returns the items per second of each
    untraced round and the untraced and traced clocks.

    Untraced rounds give the end-to-end metrics.  With a tracer, each
    untraced round is followed by the same round traced.
    """
    from stats import tail_rank
    from tracing import NULL_TRACER
    from workloads import Clock

    plain, traced = Clock(), Clock()
    rates = []
    while True:
        items, spent = plain.items, plain.seconds
        workload.run_round(len(rates), plain, NULL_TRACER, not rates)
        rates.append((plain.items - items) / (plain.seconds - spent))
        if tracer is not None:
            with tracer.installed():
                workload.run_round(len(rates) - 1, traced, tracer, False)
        spent = plain.seconds + traced.seconds
        enough = tracer is not None or tail_rank(len(plain.latencies_ms)) is not None
        if enough and spent + 0.5 * spent / len(rates) >= seconds:
            return rates, plain, traced


def run_workload(args: argparse.Namespace) -> int:
    cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import sparselab

    if Path(sparselab.__file__).resolve().parent != (SRC / "sparselab").resolve():
        print(f"sparselab imported from {sparselab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer, is_span_metric, layer_metrics
    from stats import failed_share, latency_summary

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        if tracer is not None:
            with tracer.installed():
                workload.setup()
        else:
            workload.setup()
        setup_s = time.perf_counter() - START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_times = [setup_s]
        if tracer is None:
            setup_times += run_setup_probes(args, SETUP_PROBES // 2)
        rates, plain, traced = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.close()

    specs = metric_specs()
    items_per_s = plain.items / plain.seconds
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(cap),
        "inputs": workload.describe(),
        "round_items_per_s": rates,
        "timed_s": plain.seconds,
        "items": plain.items,
        "errors": workload.errors,
        "check_failures": workload.check_failures,
        "other_metrics": {
            "failed_share": {
                "value": failed_share(workload.attempted, workload.failed),
                "unit": "ratio",
            },
            **workload.quality(),
        },
    }
    if tracer is None:
        setup_times += run_setup_probes(args, SETUP_PROBES - SETUP_PROBES // 2)
        latency = latency_summary(plain.latencies_ms)
        report["setup_samples_s"] = setup_times
        report["other_metrics"]["item_p50_ms"] = {"value": latency["p50_ms"], "unit": "ms"}
        report["other_metrics"]["item_tail_ms"] = {"value": latency["tail_ms"], "unit": "ms"}
        report["item_tail_percentile"] = latency["tail_percentile"]
        report["latency_samples"] = latency["count"]
        values = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": items_per_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = specs["end_to_end"]
    else:
        layers = layer_metrics(tracer, traced.segments, setup_s)
        layers["trace.overhead_share"] = 1.0 - (traced.items / traced.seconds) / items_per_s
        report["layers"] = layers
        unknown = [n for n in specs["per_layer"] if n not in layers and not is_span_metric(n)]
        if unknown:
            print(f"unknown per-layer metrics: {unknown}", file=sys.stderr)
            return 2
        values = {name: layers.get(name, 0.0) for name in specs["per_layer"]}
        units = specs["per_layer"]
    missing = set(units) - set(values)
    if missing:
        print(f"metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["metrics"] = metrics

    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({**report, "latencies_ms": plain.latencies_ms,
                   "spans": tracer.spans if tracer else []}, handle)
    for name, metric in {**metrics, **report["other_metrics"]}.items():
        note = ""
        if name == "item_tail_ms":
            note = f" (p{report['item_tail_percentile']:.1f} of {report['latency_samples']})"
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps(report, sort_keys=True))
    correct = not workload.check_failures
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = max(status, done.returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparselab" / "__init__.py").is_file():
        print(f"no sparselab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
