"""Sample container shared by all task generators."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .kinds import TABLE

__all__ = [
    "GenerationError",
    "TASK_KINDS",
    "TaskSample",
    "read_samples",
    "write_samples",
]

TASK_KINDS = tuple(TABLE)


class GenerationError(ValueError):
    """Raised when a sample cannot satisfy its constraints (length budget
    too small, vocabulary exhausted, not enough distractor documents)."""


@dataclass(frozen=True)
class TaskSample:
    id: str
    kind: str
    context: str
    questions: tuple[str, ...]
    gold: tuple[str, ...]
    target_tokens: int
    seed: int
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if not self.gold:
            raise ValueError("gold answers must be non-empty")
        if not self.questions:
            raise ValueError("questions must be non-empty")
        if self.target_tokens < 1:
            raise ValueError("target_tokens must be positive")

    def to_json(self) -> dict:
        from .prompt import render_prompt

        return {
            "id": self.id,
            "kind": self.kind,
            "context": self.context,
            "questions": list(self.questions),
            "gold": list(self.gold),
            "metric": TABLE[self.kind].metric,
            "target_tokens": self.target_tokens,
            "seed": self.seed,
            "extras": self.extras,
            "prompt": render_prompt(self),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TaskSample":
        """The sample a ``to_json`` payload holds; its ``metric`` must be
        its kind's."""
        sample = cls(
            id=payload["id"],
            kind=payload["kind"],
            context=payload["context"],
            questions=tuple(payload["questions"]),
            gold=tuple(payload["gold"]),
            target_tokens=payload["target_tokens"],
            seed=payload["seed"],
            extras=payload.get("extras", {}),
        )
        if payload["metric"] != TABLE[sample.kind].metric:
            raise ValueError(
                f"metric {payload['metric']!r} not valid for kind {sample.kind!r}"
            )
        return sample


def write_samples(samples: Iterable[TaskSample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample.to_json(), sort_keys=True) + "\n")


def read_samples(path: str | Path) -> Iterator[TaskSample]:
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield TaskSample.from_json(json.loads(line))
