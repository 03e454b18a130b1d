"""Resumable suite execution over the task grid."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from ..evaluation import parse_answer, score_response
from ..tasks import GenerationError, generate, render_prompt
from .adapters import make_adapter
from .config import ExperimentConfig

__all__ = ["RunResult", "read_records", "record_key", "run_suite", "sample_seed"]

logger = logging.getLogger("sparselab")


def sample_seed(root_seed: int, kind: str, seq_len: int, index: int) -> int:
    """Stable per-sample seed, independent of grid iteration order."""
    blob = f"{root_seed}:{kind}:{seq_len}:{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def record_key(record: dict) -> tuple:
    return (
        record["task"],
        record["method"],
        record["sparsity"],
        record["seq_len"],
        record["sample_id"],
    )


@dataclass
class RunResult:
    run_dir: Path
    records: list[dict]
    new_records: int
    adapter_calls: int


def _is_torn(line: bytes) -> bool:
    """Whether a last line was cut short by a crash: every record is written
    as one JSON object and a newline, so a torn one lacks either."""
    if not line.endswith(b"\n"):
        return True
    try:
        json.loads(line)
    except ValueError:
        return True
    return False


def read_records(path: Path) -> tuple[list[dict], int]:
    """The records in a ``records.jsonl`` and the byte length of the part
    that holds them. A torn last line, left by a crash mid-write, is skipped
    with a warning; a bad line anywhere else raises."""
    lines = path.read_bytes().splitlines(keepends=True)
    if lines and _is_torn(lines[-1]):
        logger.warning(
            "%s: skipping a torn last line (%d bytes)", path, len(lines.pop())
        )
    records = [json.loads(line) for line in lines if line.strip()]
    return records, sum(map(len, lines))


def _load_existing(path: Path) -> dict[tuple, dict]:
    """Records already in ``path``, by key. A torn last line is cut from the
    file, so appends start after the last complete record, and its record
    is redone."""
    if not path.exists():
        return {}
    records, complete = read_records(path)
    if complete < path.stat().st_size:
        os.truncate(path, complete)
    return {record_key(record): record for record in records}


def run_suite(config: ExperimentConfig, out_root: str | Path, adapter=None) -> RunResult:
    """Executes the full grid, appending one record per (task, method,
    sparsity, length, sample). Completed records are skipped on rerun;
    failed ones are retried. Each finished sample logs one INFO line of
    progress on the ``sparselab`` logger."""
    fingerprint = config.fingerprint()
    run_dir = Path(out_root) / fingerprint
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    if not config_path.exists():
        # write, then rename into place, so a crash never leaves a partial file
        staged = run_dir / f".config.json.{os.getpid()}.tmp"
        staged.write_text(
            json.dumps(config.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(staged, config_path)
    records_path = run_dir / "records.jsonl"
    existing = _load_existing(records_path)

    if adapter is None:
        adapter = make_adapter(config)
    calls_before = getattr(adapter, "calls", 0)

    records: list[dict] = []
    new_records = failed = 0
    grid = list(
        product(config.tasks, config.seq_lengths, range(config.samples_per_config))
    )
    with open(records_path, "a", encoding="utf-8") as sink:
        for done, (kind, seq_len, index) in enumerate(grid, 1):
            for record, is_new in _sample_records(
                adapter, config, existing, kind, seq_len, index
            ):
                if is_new:
                    record["fingerprint"] = fingerprint
                    sink.write(json.dumps(record, sort_keys=True) + "\n")
                    sink.flush()
                    new_records += 1
                    failed += record["status"] != "ok"
                records.append(record)
            logger.info(
                "run %s: %d/%d samples done, %d records, %d resumed, %d failed",
                fingerprint, done, len(grid), len(records),
                len(records) - new_records, failed,
            )
    return RunResult(
        run_dir=run_dir,
        records=records,
        new_records=new_records,
        adapter_calls=getattr(adapter, "calls", 0) - calls_before,
    )


def _sample_records(adapter, config, existing, kind, seq_len, index):
    """One sample's records over the (method, sparsity) cells in grid order,
    each with whether it is new. The sample is generated and rendered at its
    first pending cell and released when the last cell is done, so a run
    holds one sample at a time. A sample its generator cannot produce fails
    each pending cell without an adapter call, and resume retries them."""
    sample_id = f"{kind}-L{seq_len}-i{index}"
    seed = sample_seed(config.seed, kind, seq_len, index)
    sample = prompt = failure = None
    for method, sparsity in product(config.methods, config.sparsity_levels):
        prior = existing.get((kind, method, sparsity, seq_len, sample_id))
        if prior is not None and prior["status"] == "ok":
            yield prior, False
            continue
        if sample is None and failure is None:
            try:
                sample = generate(kind, seed=seed, target_tokens=seq_len)
            except GenerationError as exc:  # an infeasible (kind, length)
                failure = f"failed: {exc}"
            else:
                prompt = render_prompt(sample)
        started = time.monotonic()
        response, status = "", failure
        if failure is None:
            try:
                response, status = adapter.generate(prompt, sample), "ok"
            except Exception as exc:  # adapter failure: record and continue
                status = f"failed: {exc}"
        elapsed_ms = (time.monotonic() - started) * 1000.0
        parsed = parse_answer(response)
        yield {
            "task": kind,
            "method": method,
            "sparsity": sparsity,
            "seq_len": seq_len,
            "sample_id": sample_id,
            "sample_seed": seed,
            "model": config.model_dims,
            "status": status,
            "score": score_response(sample, response) if status == "ok" else None,
            "parse_ok": parsed.parse_ok,
            "answer_block": parsed.answer_block,
            "response": response,
            "elapsed_ms": round(elapsed_ms, 3),
        }, True
