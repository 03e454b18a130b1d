import csv
import dataclasses
import json
import logging
import re
import weakref

import numpy as np
import pytest
import requests
from click.testing import CliRunner

from sparselab.evaluation import interpolate
from sparselab.harness import (
    ExperimentConfig,
    MockAdapter,
    RemoteAdapter,
    analyze,
    curve_for,
    error_rows,
    load_config,
    load_run,
    pareto_rows,
    plan_demo,
    record_key,
    run_suite,
    sample_seed,
    summary_rows,
)
from sparselab.harness import runner
from sparselab.harness.adapters import ENV_MODEL, ENV_TOKEN, ENV_URL
from sparselab.harness.cli import main as cli
from sparselab.patterns import (
    FlexPrefillConfig,
    ada_snapkv_compress,
    build_block_sparse,
    build_flexprefill,
    build_vertical_slash,
    calibration_entries,
    predicted_sparsity,
    quest_plan,
    snapkv_compress,
)
from sparselab.patterns.calibration import METHOD_NAMES, METHODS
from sparselab.synthetic import make_inputs
from sparselab.tasks import format_reference_response, generate, render_prompt


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        tasks=("niah",),
        methods=("dense", "snapkv"),
        sparsity_levels=(0.0, 0.8),
        seq_lengths=(2000,),
        samples_per_config=2,
        seed=5,
        mock_mode="echo",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_fingerprint_ignores_set_field_order():
    a = small_config(methods=("dense", "snapkv"), sparsity_levels=(0.0, 0.8))
    b = small_config(methods=("snapkv", "dense"), sparsity_levels=(0.8, 0.0))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != small_config(seed=6).fingerprint()
    assert len(a.fingerprint()) == 16


def test_config_round_trip_and_override():
    config = small_config()
    again = ExperimentConfig.from_json(config.to_json())
    assert again.fingerprint() == config.fingerprint()
    bumped = config.override(samples_per_config=9)
    assert bumped.samples_per_config == 9
    assert bumped.fingerprint() != config.fingerprint()


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(tasks=("unknown_kind",))
    with pytest.raises(ValueError):
        small_config(methods=("magic",))
    with pytest.raises(ValueError):
        small_config(sparsity_levels=(0.99,))
    with pytest.raises(ValueError):
        small_config(model_dims="gpt-17")
    with pytest.raises(ValueError):
        small_config(mock_mode="chatty")
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({**small_config().to_json(), "extra_field": 1})


@pytest.mark.parametrize(
    "field, values, repeated",
    [
        ("tasks", ("niah", "cwe", "niah"), "'niah'"),
        ("methods", ("dense", "dense"), "'dense'"),
        ("sparsity_levels", (0.8, 0.0, 0.80), "0.8"),
        ("seq_lengths", (2000, 4000, 2000), "2000"),
    ],
    ids=["tasks", "methods", "sparsity_levels", "seq_lengths"],
)
def test_config_rejects_repeated_grid_entries(field, values, repeated):
    """A repeated entry would run, and count, every one of its cells twice."""
    with pytest.raises(ValueError, match=re.escape(f"{field} lists {repeated} more than once")):
        small_config(**{field: values})


@pytest.mark.parametrize(
    "config, args, message",
    [
        ({"tasks": ["niah", "no_such_kind"]}, [], "unknown task kind 'no_such_kind'"),
        ({"methods": ["dense", "snapkv", "dense"]}, [], "methods lists 'dense' more than once"),
        ({}, ["--lengths", "2000", "--lengths", "2000"], "seq_lengths lists 2000 more than once"),
        ({"seq_lengths": None}, [], "missing config fields: ['seq_lengths']"),
    ],
    ids=["unknown_kind", "repeated_method", "repeated_length_option", "missing_field"],
)
def test_cli_run_reports_config_errors_as_usage_errors(tmp_path, config, args, message):
    config_path = tmp_path / "config.json"
    payload = {**small_config().to_json(), **config}
    config_path.write_text(json.dumps({k: v for k, v in payload.items() if v is not None}))
    result = CliRunner().invoke(
        cli, ["run", "--config", str(config_path), "--out", str(tmp_path / "runs"), *args]
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "runs").exists()


def test_echo_run_scores_one(tmp_path):
    config = small_config()
    result = run_suite(config, tmp_path)
    assert result.new_records == 8
    assert result.adapter_calls == 8
    assert all(r["status"] == "ok" for r in result.records)
    assert all(r["score"] == 1.0 for r in result.records)
    assert all(r["fingerprint"] == config.fingerprint() for r in result.records)
    assert len({record_key(r) for r in result.records}) == 8


def test_empty_mode_scores_zero(tmp_path):
    config = small_config(mock_mode="empty")
    result = run_suite(config, tmp_path)
    assert all(r["score"] == 0.0 for r in result.records)
    assert all(not r["parse_ok"] for r in result.records)


def test_resume_skips_completed_records(tmp_path):
    config = small_config()
    first = run_suite(config, tmp_path)
    second = run_suite(config, tmp_path)
    assert second.new_records == 0
    assert second.adapter_calls == 0
    assert {record_key(r) for r in second.records} == {
        record_key(r) for r in first.records
    }


class DownAdapter:
    def generate(self, prompt, sample):
        raise RuntimeError("endpoint down")


def test_failed_records_are_retried(tmp_path):
    config = small_config()
    broken = run_suite(config, tmp_path, adapter=DownAdapter())
    assert all(r["status"] == "failed: endpoint down" for r in broken.records)
    assert all(r["score"] is None for r in broken.records)
    healed = run_suite(config, tmp_path)
    assert healed.new_records == 8
    assert all(r["status"] == "ok" for r in healed.records)


def test_mock_answers_from_the_sample():
    sample = generate("niah", seed=1, target_tokens=2000)
    prompt = render_prompt(sample)
    assert MockAdapter().generate(prompt, sample) == format_reference_response(sample)
    assert MockAdapter(mode="empty").generate(prompt, sample) == ""


class WeakAdapter(MockAdapter):
    """Echo mock that counts, as each new sample arrives, how many of the
    samples it saw before are still alive."""

    def __init__(self) -> None:
        super().__init__(mode="echo")
        self.seen: list[weakref.ref] = []
        self.alive_at_arrival: list[int] = []

    def generate(self, prompt, sample):
        if not self.seen or self.seen[-1]() is not sample:
            self.alive_at_arrival.append(sum(ref() is not None for ref in self.seen))
            self.seen.append(weakref.ref(sample))
        return super().generate(prompt, sample)


def test_one_sample_in_memory(tmp_path):
    config = small_config(tasks=("niah", "vt"), seq_lengths=(2000, 3000))
    adapter = WeakAdapter()
    result = run_suite(config, tmp_path, adapter=adapter)
    assert adapter.alive_at_arrival == [0] * 8
    assert result.adapter_calls == 32
    assert all(r["score"] == 1.0 for r in result.records)


def test_samples_are_generated_only_for_pending_cells(tmp_path, monkeypatch):
    kinds = []

    def counted(kind, **kwargs):
        kinds.append(kind)
        return generate(kind, **kwargs)

    monkeypatch.setattr(runner, "generate", counted)
    config = small_config(tasks=("niah", "vt"))
    first = run_suite(config, tmp_path)
    assert kinds == ["niah", "niah", "vt", "vt"]
    del kinds[:]
    assert run_suite(config, tmp_path).new_records == 0
    assert kinds == []
    # drop one cell of the third sample: only that sample is generated again
    path = first.run_dir / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:9] + lines[10:]))
    again = run_suite(config, tmp_path)
    assert kinds == ["vt"]
    assert again.new_records == again.adapter_calls == 1
    assert [record_key(r) for r in again.records] == [record_key(r) for r in first.records]


def test_infeasible_sample_fails_its_cells_and_not_the_grid(tmp_path):
    config = small_config(tasks=("vt", "niah"), seq_lengths=(100, 2000))
    result = run_suite(config, tmp_path)
    assert len(result.records) == 32
    assert result.adapter_calls == 16
    for record in result.records:
        if record["seq_len"] == 2000:
            assert record["status"] == "ok" and record["score"] == 1.0
            continue
        index = int(record["sample_id"].rpartition("-i")[2])
        assert record["sample_seed"] == sample_seed(config.seed, record["task"], 100, index)
        assert record["status"].startswith("failed: target_tokens=100 ")
        assert record["score"] is None
        assert record["response"] == "" and not record["parse_ok"]
    retried = run_suite(config, tmp_path)
    assert retried.new_records == 16
    assert retried.adapter_calls == 0


def test_cli_run_reports_failed_records(tmp_path):
    config_path = tmp_path / "config.json"
    config = small_config(tasks=("vt", "niah"), seq_lengths=(100, 2000))
    config_path.write_text(json.dumps(config.to_json()))
    result = CliRunner().invoke(
        cli, ["run", "--config", str(config_path), "--out", str(tmp_path / "runs")]
    )
    assert result.exit_code == 0, result.output
    assert "Traceback" not in result.output
    assert "32 total, 16 adapter call(s), 16 failed" in result.output


def test_run_suite_logs_progress_per_sample(tmp_path, caplog):
    config = small_config(seq_lengths=(100, 2000))
    fingerprint = config.fingerprint()
    with caplog.at_level(logging.WARNING, logger="sparselab"):
        run_suite(config, tmp_path)
    assert caplog.records == []
    with caplog.at_level(logging.INFO, logger="sparselab"):
        run_suite(config, tmp_path)
    assert {r.levelname for r in caplog.records} == {"INFO"}
    # the 100-token cells cannot hold a sample and fail again on the rerun
    assert caplog.messages == [
        f"run {fingerprint}: 1/4 samples done, 4 records, 0 resumed, 4 failed",
        f"run {fingerprint}: 2/4 samples done, 8 records, 0 resumed, 8 failed",
        f"run {fingerprint}: 3/4 samples done, 12 records, 4 resumed, 8 failed",
        f"run {fingerprint}: 4/4 samples done, 16 records, 8 resumed, 8 failed",
    ]


def test_cli_analyze_skips_a_torn_last_line(tmp_path, caplog):
    config = small_config()
    first = run_suite(config, tmp_path)
    path = first.run_dir / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    torn = "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
    path.write_text(torn)
    with caplog.at_level(logging.WARNING, logger="sparselab"):
        result = CliRunner().invoke(cli, ["analyze", "--run", str(first.run_dir)])
    assert result.exit_code == 0, result.output
    assert path.read_text() == torn
    [warning] = caplog.messages
    assert warning.endswith("skipping a torn last line (%d bytes)" % (len(lines[-1]) // 2))
    with open(first.run_dir / "analysis" / "summary.csv", newline="") as handle:
        counts = [int(row["n"]) for row in csv.DictReader(handle)]
    assert sum(counts) == len(lines) - 1
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="sparselab"):
        run_suite(config, tmp_path)
    assert caplog.messages == [warning]


def test_remote_adapter_posts_the_prompt(monkeypatch):
    posts = []

    class Response:
        def __init__(self, body):
            self.body = body

        def raise_for_status(self):
            pass

        def json(self):
            return self.body

    bodies = [{"text": "plain"}, {"choices": [{"text": "wrapped"}]}]

    def post(url, **kwargs):
        posts.append((url, kwargs))
        return Response(bodies[len(posts) - 1])

    monkeypatch.setattr(requests, "post", post)
    adapter = RemoteAdapter(url="http://endpoint.test/v1/completions", token="s3cret",
                            model="m-1", timeout=7.5)
    sample = generate("niah", seed=1, target_tokens=2000)
    assert adapter.generate("the prompt", sample) == "plain"
    assert adapter.generate("the prompt", sample) == "wrapped"
    assert adapter.calls == 2
    assert posts[0] == posts[1] == (
        "http://endpoint.test/v1/completions",
        {
            "json": {"model": "m-1", "prompt": "the prompt", "max_tokens": 512},
            "headers": {"Authorization": "Bearer s3cret"},
            "timeout": 7.5,
        },
    )


def test_remote_adapter_reads_the_environment_and_needs_a_url(monkeypatch):
    monkeypatch.delenv(ENV_URL, raising=False)
    with pytest.raises(ValueError, match=ENV_URL):
        RemoteAdapter()
    monkeypatch.setenv(ENV_URL, "http://endpoint.test")
    monkeypatch.setenv(ENV_TOKEN, "t")
    monkeypatch.setenv(ENV_MODEL, "m")
    adapter = RemoteAdapter()
    assert (adapter.url, adapter.token, adapter.model) == ("http://endpoint.test", "t", "m")


def test_resume_after_torn_last_record(tmp_path, caplog):
    config = small_config()
    first = run_suite(config, tmp_path)
    path = first.run_dir / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    with caplog.at_level(logging.WARNING, logger="sparselab"):
        again = run_suite(config, tmp_path)
    assert "torn last line" in caplog.text
    assert again.new_records == again.adapter_calls == 1
    assert record_key(again.records[-1]) == record_key(first.records[-1])
    redone = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(redone) == len(lines)
    assert {record_key(r) for r in redone} == {record_key(r) for r in first.records}
    assert not list(first.run_dir.glob("*.tmp"))


def test_resume_rejects_bad_line_before_the_last(tmp_path):
    config = small_config()
    first = run_suite(config, tmp_path)
    path = first.run_dir / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:10] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(json.JSONDecodeError):
        run_suite(config, tmp_path)


def test_record_fields_and_sample_reuse(tmp_path):
    config = small_config()
    result = run_suite(config, tmp_path)
    expected = {
        "task", "method", "sparsity", "seq_len", "sample_id", "sample_seed",
        "model", "status", "score", "parse_ok", "answer_block", "response",
        "elapsed_ms", "fingerprint",
    }
    assert all(expected <= set(r) for r in result.records)
    by_sample = {}
    for record in result.records:
        by_sample.setdefault(record["sample_id"], set()).add(record["sample_seed"])
    # one generated sample per (kind, length, index), shared across the
    # method x sparsity grid
    assert all(len(seeds) == 1 for seeds in by_sample.values())
    assert len(by_sample) == 2
    expected_seed = sample_seed(config.seed, "niah", 2000, 0)
    assert by_sample["niah-L2000-i0"] == {expected_seed}
    assert sample_seed(config.seed, "niah", 2000, 1) != expected_seed


def test_load_run_rejects_foreign_fingerprint(tmp_path):
    config = small_config()
    result = run_suite(config, tmp_path)
    path = result.run_dir / "records.jsonl"
    lines = path.read_text().splitlines()
    tainted = json.loads(lines[0])
    tainted["fingerprint"] = "deadbeefdeadbeef"
    path.write_text("\n".join(lines + [json.dumps(tainted)]) + "\n")
    with pytest.raises(ValueError):
        load_run(result.run_dir)


def test_summary_and_curve(tmp_path):
    config = small_config()
    result = run_suite(config, tmp_path)
    rows = summary_rows(result.records)
    assert {(r["method"], r["sparsity"]) for r in rows} == {
        ("dense", 0.0), ("dense", 0.8), ("snapkv", 0.0), ("snapkv", 0.8),
    }
    assert all(r["mean"] == 1.0 and r["n"] == 2 for r in rows)
    tasked = summary_rows(result.records, by_task=True)
    assert all(r["task"] == "niah" for r in tasked)
    curve = curve_for(result.records, "snapkv", 2000)
    assert interpolate(curve, 0.4) == 1.0
    with pytest.raises(ValueError):
        curve_for(result.records, "quest", 2000)


def synthetic_records(scores_by_sparsity) -> list[dict]:
    records = []
    for sparsity, scores in scores_by_sparsity.items():
        for i, score in enumerate(scores):
            records.append(
                {
                    "task": "niah",
                    "method": "quest",
                    "sparsity": sparsity,
                    "seq_len": 4096,
                    "sample_id": f"niah-L4096-i{i}",
                    "status": "ok",
                    "score": score,
                }
            )
    return records


def test_error_rows_against_hand_arithmetic():
    records = synthetic_records({0.0: [1.0, 0.5], 0.8: [0.5, 0.4]})
    rows = error_rows(records)
    assert len(rows) == 1
    row = rows[0]
    assert row["dense_mean"] == 0.75
    assert row["sparse_mean"] == pytest.approx(0.45)
    assert row["absolute_error"] == pytest.approx(0.30)
    assert row["relative_error"] == pytest.approx(0.40)
    # no dense baseline -> no row
    assert error_rows(synthetic_records({0.8: [0.5]})) == []


def test_pareto_rows_flags(tmp_path):
    records = synthetic_records({0.0: [1.0, 1.0], 0.5: [0.9], 0.8: [0.2]})
    config = small_config(methods=("quest",), sparsity_levels=(0.0, 0.5, 0.8))
    rows = pareto_rows(records, config)
    by_sparsity = {r["sparsity"]: r for r in rows}
    assert by_sparsity[0.8]["cost_flops"] < by_sparsity[0.0]["cost_flops"]
    # every point here trades cost against performance, so all are frontier
    assert all(r["on_frontier"] == 1 for r in rows)
    worse = synthetic_records({0.0: [1.0], 0.5: [0.9], 0.8: [0.95]})
    rows = pareto_rows(worse, config)
    flags = {r["sparsity"]: r["on_frontier"] for r in rows}
    assert flags[0.5] == 0  # dominated: costs more than 0.8 and performs worse
    assert flags[0.8] == 1 and flags[0.0] == 1


def test_analyze_writes_deterministic_csvs(tmp_path):
    config = small_config()
    result = run_suite(config, tmp_path)
    tables = analyze(result.run_dir)
    assert set(tables) == {"summary", "by_task", "errors", "frontier"}
    out = result.run_dir / "analysis"
    first = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert "summary.csv" in first and "frontier.csv" in first
    analyze(result.run_dir)
    second = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert first == second
    with open(out / "summary.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all(float(r["mean"]) == 1.0 for r in rows)


DEMO_PARAMS = {
    "vertical_slash": {"num_verticals": 32, "num_slashes": 80},
    "flexprefill": {"alpha": 0.9, "min_budget": 68},
    "block_sparse": {"top_k_blocks": 6},
    "snapkv": {"token_capacity": 160},
    "ada_snapkv": {"token_capacity": 160},
    "quest": {"token_budget": 128},
}


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_plan_demo_every_method(method):
    result = plan_demo(
        method, 512, params=DEMO_PARAMS[method], generator="clustered", seed=1
    )
    report = result["report"]
    assert 0.0 <= report.achieved_sparsity < 1.0
    assert report.computed_cells <= report.causal_cells
    if result["recall"] is not None:
        assert 0.0 < result["recall"] <= 1.0


DIRECT_BUILDERS = {
    "vertical_slash": lambda x, p: build_vertical_slash(x, p["num_verticals"], p["num_slashes"]),
    "flexprefill": lambda x, p: build_flexprefill(
        x, FlexPrefillConfig(p["alpha"], p["min_budget"])
    ),
    "block_sparse": lambda x, p: build_block_sparse(x, p["top_k_blocks"]),
    "snapkv": lambda x, p: snapkv_compress(x, p["token_capacity"]),
    "ada_snapkv": lambda x, p: ada_snapkv_compress(x, p["token_capacity"]),
    "quest": lambda x, p: quest_plan(x, p["token_budget"]),
}


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_registry_build_matches_direct_builder(method):
    inputs = make_inputs("clustered", 512, seed=1)
    params = DEMO_PARAMS[method]
    # builder options that explicit builds never took are ignored
    got = METHODS[method].build(inputs, params | {"block_size": 8, "page_size": 4, "kernel_size": 3})
    want = DIRECT_BUILDERS[method](inputs, params)
    assert type(got) is type(want)
    np.testing.assert_equal(dataclasses.asdict(got), dataclasses.asdict(want))


def test_cli_gen_plan_cost(tmp_path):
    runner = CliRunner()
    out = tmp_path / "samples.jsonl"
    result = runner.invoke(
        cli, ["gen", "--kind", "niah", "--target-tokens", "2000",
              "--samples", "2", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert len(out.read_text().splitlines()) == 2

    result = runner.invoke(
        cli, ["plan", "--method", "quest", "--length", "512",
              "--param", "token_budget=128", "--generator", "clustered"],
    )
    assert result.exit_code == 0, result.output
    assert "achieved sparsity" in result.output

    sweep = tmp_path / "sweep.csv"
    result = runner.invoke(
        cli, ["cost", "--model", "qwen2.5-7b", "--length", "16384",
              "--density", "1.0", "--out", str(sweep)],
    )
    assert result.exit_code == 0, result.output
    with open(sweep, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and rows[0]["model"] == "qwen2.5-7b"

    points = tmp_path / "points.csv"
    points.write_text("cost,performance\n1.0,0.5\n2.0,0.4\n3.0,0.9\n")
    front = tmp_path / "front.csv"
    result = runner.invoke(
        cli, ["cost", "--frontier-csv", str(points), "--out", str(front)],
    )
    assert result.exit_code == 0, result.output
    with open(front, newline="") as handle:
        kept = {float(r["cost"]) for r in csv.DictReader(handle)}
    assert kept == {1.0, 3.0}


@pytest.mark.parametrize(
    "method, pairs, wrong, accepted",
    [
        ("quest", ["token_budgt=64"], "token_budgt", "quest takes token_budget;"),
        ("quest", ["token_budget=64", "page_sise=8"], "page_sise", "quest takes token_budget;"),
        (
            "vertical_slash",
            ["num_verticals=8", "num_slashes=64", "approx_window=64"],
            "approx_window",
            "vertical_slash takes num_verticals, num_slashes;",
        ),
        (
            "flexprefill",
            ["alpha=0.5", "approx_window=64"],
            "approx_window",
            "flexprefill takes alpha, min_budget (optional);",
        ),
    ],
    ids=["misspelt_required", "misspelt_optional", "vs_window", "flex_window"],
)
def test_cli_plan_rejects_unknown_param_names(method, pairs, wrong, accepted):
    params = [arg for pair in pairs for arg in ("--param", pair)]
    result = CliRunner().invoke(cli, ["plan", "--method", method, "--length", "256", *params])
    assert result.exit_code == 2, result.output
    assert accepted in result.output
    assert f"unknown {wrong}" in result.output


def test_cli_plan_rejects_level_with_params():
    result = CliRunner().invoke(
        cli,
        ["plan", "--method", "quest", "--length", "256", "--level", "0.9",
         "--param", "token_budget=64"],
    )
    assert result.exit_code == 2, result.output
    assert "not both" in result.output
    assert "achieved sparsity" not in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["--batch", "0"], "batch_size must be positive"),
        (["--density", "1.5"], "density must lie in (0, 1]"),
        (["--model", "nope"], "unknown model preset 'nope'"),
    ],
    ids=["batch", "density", "model"],
)
def test_cli_cost_reports_bad_values(tmp_path, args, message):
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(cli, ["cost", "--length", "16384", *args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "method, length, level, message",
    [
        ("snapkv", "16384", "0.55", "available levels: [0.95,"),
        ("quest", "3000", "0.9", "available lengths: [16384,"),
    ],
    ids=["missing_level", "missing_length"],
)
def test_cli_plan_rejects_uncalibrated_level(method, length, level, message):
    result = CliRunner().invoke(
        cli, ["plan", "--method", method, "--length", length, "--level", level]
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output


def test_cli_gen_reports_infeasible_target(tmp_path):
    out = tmp_path / "story.jsonl"
    result = CliRunner().invoke(
        cli,
        ["gen", "--kind", "story_retrieval", "--target-tokens", "1500", "--out", str(out)],
    )
    assert result.exit_code == 1, result.output
    assert "Error: target_tokens=1500 cannot hold 16 chapters" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_gen_rejects_samples_below_one(tmp_path, samples):
    out = tmp_path / "samples.jsonl"
    result = CliRunner().invoke(
        cli,
        ["gen", "--kind", "niah", "--target-tokens", "2000", "--samples", samples,
         "--out", str(out)],
    )
    assert result.exit_code == 2, result.output
    assert "--samples" in result.output
    assert not out.exists()


def test_cli_plan_flexprefill_alpha_zero_takes_a_small_min_budget():
    result = CliRunner().invoke(
        cli,
        ["plan", "--method", "flexprefill", "--length", "256",
         "--param", "alpha=0", "--param", "min_budget=10"],
    )
    assert result.exit_code == 0, result.output
    assert "achieved sparsity" in result.output


def test_cli_calibration_reports_every_row():
    result = CliRunner().invoke(cli, ["calibration"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[-1].startswith("worst |achieved - target| = ")
    rows = lines[1:-1]
    entries = calibration_entries()
    assert len(rows) == len(entries)
    for entry, line in zip(entries, rows):
        fields = line.split()
        assert fields[:3] == [entry.method, str(entry.seq_len), f"{entry.target_sparsity:.4f}"]
        predicted = predicted_sparsity(entry)
        if predicted is None and entry.seq_len > 16384:
            assert fields[3:] == ["not", "measured"]
            continue
        achieved, error = float(fields[3]), float(fields[4])
        assert error == pytest.approx(abs(achieved - entry.target_sparsity), abs=2e-4)
        if predicted is not None:
            assert fields[5] == "arithmetic"
            assert achieved == pytest.approx(predicted.achieved_sparsity, abs=1e-4)
        else:
            assert fields[5] == "measured"
        assert (fields[6:] == ["<--", "off"]) == (error > 0.03)
    assert any(line.endswith("measured  <-- off") for line in rows)


def test_cli_run_rejects_zero_samples(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config().to_json()))
    out_root = tmp_path / "runs"
    result = CliRunner().invoke(
        cli, ["run", "--config", str(config_path), "--out", str(out_root), "--samples", "0"],
    )
    assert result.exit_code == 2, result.output
    assert "samples_per_config must be positive" in result.output
    assert not out_root.exists()


def test_cli_run_and_analyze(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config().to_json()))
    assert load_config(config_path) == small_config()
    runner = CliRunner()
    out_root = tmp_path / "runs"
    result = runner.invoke(
        cli, ["run", "--config", str(config_path), "--out", str(out_root)],
    )
    assert result.exit_code == 0, result.output
    run_dirs = [p for p in out_root.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    result = runner.invoke(cli, ["analyze", "--run", str(run_dirs[0])])
    assert result.exit_code == 0, result.output
    assert (run_dirs[0] / "analysis" / "summary.csv").exists()
