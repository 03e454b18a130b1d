"""Needle-in-a-haystack key-value extraction.

The context is a flat document of ``The value for K is: V.`` lines with
hyphenated random keys and values; four of the keys are queried. Distractor
pairs fill the document to the token target.
"""

from __future__ import annotations

import numpy as np

from .base import GenerationError, TaskSample
from .prompt import render_prompt
from .tokenization import count_tokens, units_within
from .vocab import load_words

__all__ = ["NUM_QUERIES", "gen_niah", "scan_pairs"]

NUM_QUERIES = 4
_WORDS_PER_STRING = 3


def _hyphenated(rng: np.random.Generator, words: tuple[str, ...], used: set) -> str:
    while True:
        picks = rng.choice(len(words), size=_WORDS_PER_STRING, replace=False)
        candidate = "-".join(words[int(i)] for i in picks)
        if candidate not in used:
            used.add(candidate)
            return candidate


def _pair_line(key: str, value: str) -> str:
    return f"The value for {key} is: {value}."


def gen_niah(seed: int, target_tokens: int = 16384) -> TaskSample:
    """Key-value pairs are added until the rendered prompt reaches the token
    target; ``NUM_QUERIES`` of them are queried, so the target must hold at
    least that many."""
    rng = np.random.default_rng(seed)
    words = load_words()
    used: set = set()

    pairs = [
        (_hyphenated(rng, words, used), _hyphenated(rng, words, used))
        for _ in range(NUM_QUERIES)
    ]

    # Overhead is constant: every key/value is three words and two hyphens,
    # so a same-shape probe measures the non-context template exactly.
    probe = _sample_from(pairs, pairs[:NUM_QUERIES], "", seed, target_tokens)
    overhead = count_tokens(render_prompt(probe))
    capacity = units_within(target_tokens - overhead, _pair_line(*pairs[0]))
    if capacity < NUM_QUERIES:
        raise GenerationError(
            f"target_tokens={target_tokens} cannot hold {NUM_QUERIES} pairs"
        )
    while len(pairs) < capacity:
        pairs.append(
            (_hyphenated(rng, words, used), _hyphenated(rng, words, used))
        )

    order = rng.permutation(len(pairs))
    shuffled = [pairs[int(i)] for i in order]
    queried_idx = sorted(int(i) for i in rng.choice(len(shuffled), size=NUM_QUERIES, replace=False))
    queried = [shuffled[i] for i in queried_idx]
    context = "\n".join(_pair_line(k, v) for k, v in shuffled)
    return _sample_from(shuffled, queried, context, seed, target_tokens)


def _sample_from(pairs, queried, context: str, seed: int, target_tokens: int) -> TaskSample:
    keys = [k for k, _ in queried]
    question = (
        "Extract the values for the following keys:\n{" + ", ".join(keys) + "}"
    )
    return TaskSample(
        id=f"niah-s{seed}-t{target_tokens}",
        kind="niah",
        context=context,
        questions=(question,),
        gold=tuple(v for _, v in queried),
        target_tokens=target_tokens,
        seed=seed,
        extras={"keys": keys, "num_pairs": len(pairs)},
    )


def scan_pairs(context: str) -> dict[str, str]:
    """Independent recovery of the key-value mapping from the emitted text."""
    import re

    mapping: dict[str, str] = {}
    for match in re.finditer(r"The value for (\S+) is: (\S+)\.", context):
        mapping[match.group(1)] = match.group(2)
    return mapping
