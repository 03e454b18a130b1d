"""Resumable suite execution over the task grid."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..evaluation import parse_answer, score_response
from ..tasks import format_reference_response, generate, render_prompt
from .adapters import MockAdapter, make_adapter
from .config import ExperimentConfig

__all__ = ["RunResult", "record_key", "run_suite", "sample_seed"]

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


def _load_existing(path: Path) -> dict[tuple, dict]:
    """Records already in ``path``, by key. A torn last line is cut from the
    file, so appends start after the last complete record, and its record
    is redone. A bad line anywhere else raises."""
    if not path.exists():
        return {}
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    if lines and _is_torn(lines[-1]):
        tail = lines.pop()
        logger.warning(
            "%s: dropping a torn last line (%d bytes); its record is redone",
            path, len(tail),
        )
        with open(path, "r+b") as handle:
            handle.truncate(len(data) - len(tail))
    records = (json.loads(line) for line in lines if line.strip())
    return {record_key(record): record for record in records}


def run_suite(
    config: ExperimentConfig,
    out_root: str | Path,
    adapter=None,
    max_new_tokens: int = 512,
) -> RunResult:
    """Executes the full grid, appending one record per (task, method,
    sparsity, length, sample). Completed records are skipped on rerun;
    failed ones are retried."""
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

    samples: dict[tuple, object] = {}

    def get_sample(kind: str, seq_len: int, index: int):
        key = (kind, seq_len, index)
        if key not in samples:
            seed = sample_seed(config.seed, kind, seq_len, index)
            sample = generate(kind, seed=seed, target_tokens=seq_len)
            samples[key] = (sample, render_prompt(sample))
        return samples[key]

    records: list[dict] = []
    new_records = 0
    with open(records_path, "a", encoding="utf-8") as sink:
        for kind in config.tasks:
            for seq_len in config.seq_lengths:
                for index in range(config.samples_per_config):
                    sample_id = f"{kind}-L{seq_len}-i{index}"
                    for method in config.methods:
                        for sparsity in config.sparsity_levels:
                            key = (kind, method, sparsity, seq_len, sample_id)
                            prior = existing.get(key)
                            if prior is not None and prior["status"] == "ok":
                                records.append(prior)
                                continue
                            sample, prompt = get_sample(kind, seq_len, index)
                            record = _run_one(
                                adapter, config, sample, prompt, kind, method,
                                sparsity, seq_len, sample_id, max_new_tokens,
                            )
                            record["fingerprint"] = fingerprint
                            sink.write(json.dumps(record, sort_keys=True) + "\n")
                            sink.flush()
                            records.append(record)
                            new_records += 1
    return RunResult(
        run_dir=run_dir,
        records=records,
        new_records=new_records,
        adapter_calls=getattr(adapter, "calls", 0) - calls_before,
    )


def _run_one(
    adapter, config, sample, prompt, kind, method, sparsity, seq_len,
    sample_id, max_new_tokens,
) -> dict:
    if isinstance(adapter, MockAdapter) and adapter.mode == "echo":
        adapter.register(prompt, format_reference_response(sample))
    started = time.monotonic()
    try:
        response = adapter.generate(prompt, max_new_tokens=max_new_tokens)
        status = "ok"
    except Exception as exc:  # adapter failure: record and continue
        response = ""
        status = f"failed: {exc}"
    elapsed_ms = (time.monotonic() - started) * 1000.0
    parsed = parse_answer(response)
    score = score_response(sample, response) if status == "ok" else None
    return {
        "task": kind,
        "method": method,
        "sparsity": sparsity,
        "seq_len": seq_len,
        "sample_id": sample_id,
        "sample_seed": sample.seed,
        "model": config.model_dims,
        "status": status,
        "score": score,
        "parse_ok": parsed.parse_ok,
        "answer_block": parsed.answer_block,
        "response": response,
        "elapsed_ms": round(elapsed_ms, 3),
    }
