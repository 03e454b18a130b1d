"""Command-line entry points: gen, plan, cost, calibration, run, analyze."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import click

from ..costs import ParetoPoint, model_presets, pareto_frontier, sweep_rows, write_csv
from ..patterns import (
    METHOD_NAMES,
    build_plan,
    calibration_entries,
    plan_sparsity,
    predicted_sparsity,
)
from ..synthetic import GENERATOR_NAMES, make_inputs
from ..tasks import TASK_KINDS, GenerationError, generate, write_samples
from .analysis import analyze as analyze_run
from .config import load_config
from .demo import plan_demo
from .runner import run_suite, sample_seed


@click.group()
def main() -> None:
    """Desk-scale laboratory for training-free sparse attention."""


@main.command()
@click.option("--kind", type=click.Choice(TASK_KINDS), required=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--target-tokens", default=16384, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def gen(kind, seed, samples, target_tokens, out) -> None:
    """Emit task samples as line-delimited JSON."""
    try:
        batch = [
            generate(kind, seed=sample_seed(seed, kind, target_tokens, i),
                     target_tokens=target_tokens)
            for i in range(samples)
        ]
    except GenerationError as exc:  # a target the generator cannot meet
        raise click.ClickException(str(exc)) from None
    write_samples(batch, out)
    click.echo(f"wrote {len(batch)} {kind} sample(s) to {out}")


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        name, _, raw = pair.partition("=")
        if not raw:
            raise click.BadParameter(f"expected name=value, got {pair!r}", param_hint="--param")
        try:
            params[name] = int(raw)
        except ValueError:
            try:
                params[name] = float(raw)
            except ValueError:
                raise click.BadParameter(
                    f"{name} must be a number, got {raw!r}", param_hint="--param"
                ) from None
    return params


@main.command()
@click.option("--method", type=click.Choice(METHOD_NAMES), required=True)
@click.option("--length", "seq_len", default=1024, show_default=True)
@click.option("--level", type=float, default=None,
              help="Calibrated target sparsity from the bundled table.")
@click.option("--param", "params", multiple=True,
              help="Explicit builder parameter, e.g. num_verticals=64.")
@click.option("--generator", type=click.Choice(GENERATOR_NAMES),
              default="uniform", show_default=True)
@click.option("--seed", default=0, show_default=True)
def plan(method, seq_len, level, params, generator, seed) -> None:
    """Build one sparse plan on synthetic inputs and report its quality."""
    try:
        result = plan_demo(
            method,
            seq_len,
            params=_parse_params(params) or None,
            target_sparsity=level,
            generator=generator,
            seed=seed,
        )
    except ValueError as exc:  # misspelt --param keys, out-of-range values
        raise click.UsageError(str(exc)) from None
    except KeyError as exc:  # a --level or --length the calibration table lacks
        raise click.UsageError(exc.args[0]) from None
    report = result["report"]
    click.echo(f"method={method} generator={generator} n={seq_len}")
    click.echo(
        f"achieved sparsity {report.achieved_sparsity:.4f}"
        + (f" (target {report.target_sparsity})" if report.target_sparsity is not None else "")
    )
    click.echo(f"computed cells {report.computed_cells} / {report.causal_cells}")
    if result["recall"] is not None:
        click.echo(f"attention recall {result['recall']:.4f}")
        click.echo(f"max output error {result['max_output_error']:.3e}")


@main.command()
@click.option("--model", "models", multiple=True,
              help="Model preset; repeatable. Defaults to the Qwen family.")
@click.option("--length", "lengths", multiple=True, type=int)
@click.option("--density", "densities", multiple=True, type=float)
@click.option("--batch", default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--frontier-csv", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="Input CSV with cost,performance[,label] columns; writes "
                   "the non-dominated subset instead of a sweep.")
def cost(models, lengths, densities, batch, out, frontier_csv) -> None:
    """Cost-model sweeps (or a Pareto frontier over a points CSV)."""
    if frontier_csv:
        with open(frontier_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        points = [
            ParetoPoint(
                cost=float(row["cost"]),
                performance=float(row["performance"]),
                label=(row.get("label", str(i)),),
            )
            for i, row in enumerate(rows)
        ]
        frontier = pareto_frontier(points)
        write_csv(
            [
                {"cost": p.cost, "performance": p.performance, "label": p.label[0]}
                for p in frontier
            ],
            out,
        )
        click.echo(f"frontier: {len(frontier)} of {len(points)} points -> {out}")
        return
    models = models or tuple(
        name for name in model_presets() if name.startswith("qwen")
    )
    lengths = lengths or (16384, 65536, 128000)
    densities = densities or (1.0, 0.2)
    try:
        rows = sweep_rows(models, lengths, densities, batch_size=batch)
    except ValueError as exc:  # a batch, length or density CostSpec rejects
        raise click.UsageError(str(exc)) from None
    except KeyError as exc:  # an unknown --model preset
        raise click.UsageError(exc.args[0]) from None
    write_csv(rows, out)
    click.echo(f"wrote {len(rows)} sweep rows to {out}")


# Input-dependent rows are built and measured up to this length, which
# keeps the command to a few seconds.
_MEASURE_LIMIT = 16384
_TOLERANCE = 0.03


@main.command()
def calibration() -> None:
    """Target against achieved sparsity for every calibration row.

    Rows with input-free cell counts are checked by arithmetic. Coverage-
    driven flexprefill rows depend on the input, so they are built on a
    clustered input and measured, up to 16384 tokens; longer ones are
    reported as not measured. Rows more than 0.03 off their target are
    flagged.
    """
    click.echo(f"{'method':<16}{'seq_len':>8}{'target':>9}{'achieved':>10}{'error':>9}  source")
    worst = 0.0
    for entry in calibration_entries():
        row = f"{entry.method:<16}{entry.seq_len:>8}{entry.target_sparsity:>9.4f}"
        report, source = predicted_sparsity(entry), "arithmetic"
        if report is None:
            if entry.seq_len > _MEASURE_LIMIT:
                click.echo(f"{row}{'':>19}  not measured")
                continue
            inputs = make_inputs("clustered", entry.seq_len, seed=0)
            plan = build_plan(entry, inputs)
            report = plan_sparsity(plan, target_sparsity=entry.target_sparsity)
            source = "measured"
        error = abs(report.achieved_sparsity - entry.target_sparsity)
        worst = max(worst, error)
        flag = "  <-- off" if error > _TOLERANCE else ""
        click.echo(f"{row}{report.achieved_sparsity:>10.4f}{error:>9.4f}  {source}{flag}")
    click.echo(f"worst |achieved - target| = {worst:.4f}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--out", type=click.Path(file_okay=False), default="out",
              show_default=True)
@click.option("--adapter", type=click.Choice(["mock", "remote"]), default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--lengths", multiple=True, type=int)
@click.option("--sparsity", multiple=True, type=float)
def run(config_path, out, adapter, samples, seed, lengths, sparsity) -> None:
    """Execute a suite; reruns resume from persisted records."""
    overrides = {}
    if adapter:
        overrides["adapter"] = adapter
    if samples is not None:
        overrides["samples_per_config"] = samples
    if seed is not None:
        overrides["seed"] = seed
    if lengths:
        overrides["seq_lengths"] = lengths
    if sparsity:
        overrides["sparsity_levels"] = sparsity
    try:
        config = load_config(config_path).override(**overrides)
    except ValueError as exc:  # unknown or repeated grid entries, malformed JSON
        raise click.UsageError(str(exc)) from None
    if config.adapter == "remote":
        click.echo(
            "note: remote runs measure the endpoint's model; accuracy figures "
            "are not reproduced by the mock path.",
            err=True,
        )
    result = run_suite(config, out)
    failed = sum(record["status"] != "ok" for record in result.records)
    click.echo(
        f"run {config.fingerprint()}: {result.new_records} new record(s), "
        f"{len(result.records)} total, {result.adapter_calls} adapter call(s), "
        f"{failed} failed"
    )
    click.echo(f"records: {result.run_dir / 'records.jsonl'}")


@main.command()
@click.option("--run", "run_dir", type=click.Path(exists=True, file_okay=False),
              required=True)
@click.option("--out", type=click.Path(file_okay=False), default=None)
def analyze(run_dir, out) -> None:
    """Aggregate a finished run into summary/error/frontier tables."""
    tables = analyze_run(run_dir, out)
    target = Path(out) if out else Path(run_dir) / "analysis"
    for name, rows in tables.items():
        click.echo(f"{name}: {len(rows)} row(s)")
    click.echo(f"tables written under {target}")


if __name__ == "__main__":
    main()
