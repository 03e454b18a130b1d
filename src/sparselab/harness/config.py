"""Experiment configuration with a stable fingerprint for resumable runs."""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

from ..costs import model_presets
from ..patterns.calibration import METHOD_NAMES
from ..tasks.base import TASK_KINDS

__all__ = ["ExperimentConfig", "load_config"]

_ADAPTERS = ("mock", "remote")
_MOCK_MODES = ("echo", "empty")


@dataclass(frozen=True)
class ExperimentConfig:
    tasks: tuple[str, ...]
    methods: tuple[str, ...]
    sparsity_levels: tuple[float, ...]
    seq_lengths: tuple[int, ...]
    model_dims: str = "qwen2.5-7b"
    samples_per_config: int = 100
    seed: int = 0
    adapter: str = "mock"
    mock_mode: str = "echo"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(
            self, "sparsity_levels", tuple(float(s) for s in self.sparsity_levels)
        )
        object.__setattr__(
            self, "seq_lengths", tuple(int(n) for n in self.seq_lengths)
        )
        for name in ("tasks", "methods", "sparsity_levels", "seq_lengths"):
            values = getattr(self, name)
            repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
            if repeated is not None:
                raise ValueError(f"{name} lists {repeated!r} more than once")
        for kind in self.tasks:
            if kind not in TASK_KINDS:
                raise ValueError(f"unknown task kind {kind!r}")
        valid_methods = set(METHOD_NAMES) | {"dense"}
        for method in self.methods:
            if method not in valid_methods:
                raise ValueError(f"unknown method {method!r}")
        for level in self.sparsity_levels:
            if not 0.0 <= level <= 0.95:
                raise ValueError(f"sparsity level {level} outside [0, 0.95]")
        if not self.tasks or not self.methods or not self.sparsity_levels:
            raise ValueError("tasks, methods, and sparsity_levels must be non-empty")
        if not self.seq_lengths or any(n < 1 for n in self.seq_lengths):
            raise ValueError("seq_lengths must be positive")
        if self.model_dims not in model_presets():
            raise ValueError(f"unknown model preset {self.model_dims!r}")
        if self.samples_per_config < 1:
            raise ValueError("samples_per_config must be positive")
        if self.adapter not in _ADAPTERS:
            raise ValueError(f"adapter must be one of {_ADAPTERS}")
        if self.mock_mode not in _MOCK_MODES:
            raise ValueError(f"mock_mode must be one of {_MOCK_MODES}")

    def to_json(self) -> dict:
        """Set-like list fields are sorted so ordering cannot change the
        fingerprint."""
        payload = asdict(self)
        payload["tasks"] = sorted(self.tasks)
        payload["methods"] = sorted(self.methods)
        payload["sparsity_levels"] = sorted(self.sparsity_levels)
        payload["seq_lengths"] = sorted(self.seq_lengths)
        return payload

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_json(cls, payload: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in payload]
        if missing:
            raise ValueError(f"missing config fields: {missing}")
        return cls(**payload)

    def override(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        return ExperimentConfig.from_json(json.load(handle))
