"""Variable tracking: resolve copy chains to a target numeric value."""

from __future__ import annotations

import re

import numpy as np

from .base import GenerationError, TaskSample
from .kinds import TABLE
from .prompt import render_prompt
from .tokenization import ApproxTokenizer, count_tokens, units_within

__all__ = ["FILLER", "gen_vt", "resolve_variables"]

FILLER = (
    "The grass is green. The sky is blue. The sun is yellow. "
    "Here we go. There and back again."
)
_NAME_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

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


def gen_vt(
    seed: int,
    num_chains: int = 4,
    chain_depth: int = 4,
    target_tokens: int = 16384,
    tokenizer: ApproxTokenizer | None = None,
) -> TaskSample:
    """Chains are trees: each chain has one numeric root and ``chain_depth - 1``
    copy assignments pointing at earlier members of the same chain. The first
    chain's value is queried; gold is that chain's full membership."""
    if num_chains < 1 or chain_depth < 1:
        raise ValueError("num_chains and chain_depth must be positive")
    rng = np.random.default_rng(seed)
    used: set = set()

    values = rng.choice(np.arange(10000, 100000), size=num_chains, replace=False)
    lines: list[str] = []
    target_members: list[str] = []
    for chain in range(num_chains):
        members = [_fresh_name(rng, used)]
        lines.append(f"VAR {members[0]} = {int(values[chain])}")
        for _ in range(chain_depth - 1):
            parent = members[int(rng.integers(0, len(members)))]
            child = _fresh_name(rng, used)
            members.append(child)
            lines.append(f"VAR {child} = VAR {parent}")
        if chain == 0:
            target_members = members
    target_value = int(values[0])

    order = rng.permutation(len(lines))
    lines = [lines[int(i)] for i in order]

    probe = _sample("", seed, target_tokens, target_value, tuple(sorted(target_members)),
                    num_chains, chain_depth)
    overhead = count_tokens(render_prompt(probe), tokenizer)
    line_tokens = count_tokens("\n".join(lines), tokenizer)
    budget = target_tokens - overhead - line_tokens
    if budget < 0:
        raise GenerationError(
            f"target_tokens={target_tokens} too small for {len(lines)} assignments"
        )
    chunks = units_within(budget, FILLER, tokenizer)
    gaps = len(lines) + 1
    base, extra = divmod(chunks, gaps)
    parts: list[str] = []
    for gap in range(gaps):
        parts.extend([FILLER] * (base + (1 if gap < extra else 0)))
        if gap < len(lines):
            parts.append(lines[gap])
    return _sample("\n".join(parts), seed, target_tokens, target_value,
                   tuple(sorted(target_members)), num_chains, chain_depth)


def _sample(context, seed, target_tokens, value, gold, num_chains, chain_depth) -> TaskSample:
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
        metric=TABLE["vt"].metric,
        target_tokens=target_tokens,
        seed=seed,
        extras={"target_value": value, "num_chains": num_chains,
                "chain_depth": chain_depth},
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
