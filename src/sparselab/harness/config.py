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


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_whole(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and value.is_integer())


# The JSON type of every field, so a config file of the wrong shape fails
# with the field's name. A grid list's entries are checked, then converted.
_GRID_LISTS = {
    "tasks": (_is_str, "strings", str),
    "methods": (_is_str, "strings", str),
    "sparsity_levels": (_is_number, "numbers", float),
    "seq_lengths": (_is_whole, "whole numbers", int),
}
_SCALARS = {
    "model_dims": (_is_str, "a string"),
    "samples_per_config": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "adapter": (_is_str, "a string"),
    "mock_mode": (_is_str, "a string"),
}


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
        for name, (check, what, convert) in _GRID_LISTS.items():
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {values!r}")
            for value in values:
                if not check(value):
                    raise ValueError(f"{name} must hold {what}, got {value!r}")
            object.__setattr__(self, name, tuple(map(convert, values)))
        for name, (check, what) in _SCALARS.items():
            value = getattr(self, name)
            if not check(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
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
        if not isinstance(payload, dict):
            raise ValueError(f"a config must be a JSON object, got {type(payload).__name__}")
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
