"""Variable tracking: resolve copy chains to a target numeric value."""

from __future__ import annotations

import re

import numpy as np

from .base import GenerationError, TaskSample
from .prompt import render_prompt
from .tokenization import count_tokens, units_within

__all__ = ["CHAIN_DEPTH", "FILLER", "NUM_CHAINS", "gen_vt", "resolve_variables"]

FILLER = (
    "The grass is green. The sky is blue. The sun is yellow. "
    "Here we go. There and back again."
)
_NAME_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
NUM_CHAINS = 4
CHAIN_DEPTH = 4

_NUMERIC = re.compile(r"^VAR ([A-Z]+) = (\d+)$", re.MULTILINE)
_COPY = re.compile(r"^VAR ([A-Z]+) = VAR ([A-Z]+)$", re.MULTILINE)


def _fresh_name(rng: np.random.Generator, used: set) -> str:
    while True:
        name = "".join(
            _NAME_LETTERS[int(i)] for i in rng.integers(0, 26, size=3)
        )
        if name not in used:
            used.add(name)
            return name


def gen_vt(seed: int, target_tokens: int = 16384) -> TaskSample:
    """``NUM_CHAINS`` chains are trees: each has one numeric root and
    ``CHAIN_DEPTH - 1`` copy assignments pointing at earlier members of the
    same chain. The first chain's value is queried; gold is that chain's full
    membership."""
    rng = np.random.default_rng(seed)
    used: set = set()

    values = rng.choice(np.arange(10000, 100000), size=NUM_CHAINS, replace=False)
    lines: list[str] = []
    target_members: list[str] = []
    for chain in range(NUM_CHAINS):
        members = [_fresh_name(rng, used)]
        lines.append(f"VAR {members[0]} = {int(values[chain])}")
        for _ in range(CHAIN_DEPTH - 1):
            parent = members[int(rng.integers(0, len(members)))]
            child = _fresh_name(rng, used)
            members.append(child)
            lines.append(f"VAR {child} = VAR {parent}")
        if chain == 0:
            target_members = members
    target_value = int(values[0])

    order = rng.permutation(len(lines))
    lines = [lines[int(i)] for i in order]

    probe = _sample("", seed, target_tokens, target_value, tuple(sorted(target_members)))
    overhead = count_tokens(render_prompt(probe))
    line_tokens = count_tokens("\n".join(lines))
    budget = target_tokens - overhead - line_tokens
    if budget < 0:
        raise GenerationError(
            f"target_tokens={target_tokens} too small for {len(lines)} assignments"
        )
    chunks = units_within(budget, FILLER)
    gaps = len(lines) + 1
    base, extra = divmod(chunks, gaps)
    parts: list[str] = []
    for gap in range(gaps):
        parts.extend([FILLER] * (base + (1 if gap < extra else 0)))
        if gap < len(lines):
            parts.append(lines[gap])
    return _sample("\n".join(parts), seed, target_tokens, target_value,
                   tuple(sorted(target_members)))


def _sample(context, seed, target_tokens, value, gold) -> TaskSample:
    question = (
        f"Which variables resolve to the value {value}? A variable resolves to "
        f"{value} if it is either directly assigned {value}, or assigned to "
        f"another variable that resolves to {value}."
    )
    return TaskSample(
        id=f"vt-s{seed}-t{target_tokens}",
        kind="vt",
        context=context,
        questions=(question,),
        gold=gold,
        target_tokens=target_tokens,
        seed=seed,
        extras={"target_value": value, "num_chains": NUM_CHAINS,
                "chain_depth": CHAIN_DEPTH},
    )


def resolve_variables(context: str, value: int) -> set[str]:
    """Independent resolver: every variable whose assignment chain reaches
    ``value``. Unresolvable references and cycles resolve to nothing."""
    numeric = {m.group(1): int(m.group(2)) for m in _NUMERIC.finditer(context)}
    copies = {m.group(1): m.group(2) for m in _COPY.finditer(context)}

    resolved: dict[str, int | None] = dict(numeric)

    def resolve(name: str, trail: set) -> int | None:
        if name in resolved:
            return resolved[name]
        if name in trail or name not in copies:
            return None
        trail.add(name)
        result = resolve(copies[name], trail)
        resolved[name] = result
        return result

    for name in set(numeric) | set(copies):
        resolve(name, set())
    return {name for name, val in resolved.items() if val == value}
