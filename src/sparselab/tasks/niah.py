"""Needle-in-a-haystack key-value extraction.

The context is a flat document of ``The value for K is: V.`` lines with
hyphenated random keys and values; four of the keys are queried. Distractor
pairs fill the document to the token target.

Each key or value is three distinct words, and a string that repeats an
earlier one is drawn again.  Candidates are drawn in batches that replay
one ``rng.choice(pop, 3, replace=False)`` call per candidate.  In numpy 2
(checked on 2.4.6) that call is Floyd's algorithm, bounded draws in
[0, pop - 3], [0, pop - 2] and [0, pop - 1], then a shuffle of the three,
bounded draws in [0, 2] and [0, 1]; each is the draw ``integers`` makes
per element.  So one ``rng.integers(0, [pop - 2, pop - 1, pop, 3, 2])``
row holds one call's draws, and ``_choice3`` undoes Floyd's step and the
shuffle on whole arrays.  A batch never holds more candidates than strings
are still needed, so the random stream, and every sample, is that of the
per-candidate calls.  A numpy that changes ``choice`` fails
``test_choice3_replays_rng_choice``.
"""

from __future__ import annotations

import numpy as np

from .base import GenerationError, TaskSample
from .prompt import render_prompt
from .tokenization import count_tokens, units_within
from .vocab import load_words

__all__ = ["NUM_QUERIES", "gen_niah", "scan_pairs"]

NUM_QUERIES = 4


def _shuffle_slots(d3: int, d4: int) -> list[int]:
    # choice's shuffle swaps slot 2 with slot d3, then slot 1 with slot d4
    slots = [0, 1, 2]
    slots[2], slots[d3] = slots[d3], slots[2]
    slots[1], slots[d4] = slots[d4], slots[1]
    return slots


# [d3, d4] -> the drawn slot that lands in each output position
_SHUFFLES = np.array([[_shuffle_slots(d3, d4) for d4 in range(2)] for d3 in range(3)])


def _choice3(rng: np.random.Generator, pop: int, count: int) -> np.ndarray:
    """``count`` successive ``rng.choice(pop, 3, replace=False)`` results,
    [count, 3], from one draw that leaves ``rng`` in the same state."""
    draws = rng.integers(0, [pop - 2, pop - 1, pop, 3, 2], size=(count, 5))
    x, y, z = draws[:, 0], draws[:, 1], draws[:, 2]
    # Floyd's step: a draw that repeats an earlier pick takes its own bound
    y[y == x] = pop - 2
    z[(z == x) | (z == y)] = pop - 1
    return np.take_along_axis(draws[:, :3], _SHUFFLES[draws[:, 3], draws[:, 4]], axis=1)


def _hyphenated(
    rng: np.random.Generator, words: tuple[str, ...], used: set, count: int
) -> list[str]:
    """The next ``count`` strings of three hyphenated words not in ``used``,
    taking candidates in draw order and skipping repeats.  A shortfall is
    drawn again at its exact size, so no candidate past the last taken one
    is drawn."""
    strings: list[str] = []
    while len(strings) < count:
        flat = iter(_choice3(rng, len(words), count - len(strings)).ravel().tolist())
        for a, b, c in zip(flat, flat, flat):  # one candidate's three words
            candidate = f"{words[a]}-{words[b]}-{words[c]}"
            if candidate not in used:
                used.add(candidate)
                strings.append(candidate)
    return strings


def _pairs(
    rng: np.random.Generator, words: tuple[str, ...], used: set, count: int
) -> list[tuple[str, str]]:
    """``count`` (key, value) pairs, drawn key first."""
    strings = _hyphenated(rng, words, used, 2 * count)
    return list(zip(strings[::2], strings[1::2]))


def _pair_line(key: str, value: str) -> str:
    return f"The value for {key} is: {value}."


def gen_niah(seed: int, target_tokens: int = 16384) -> TaskSample:
    """Key-value pairs are added until the rendered prompt reaches the token
    target; ``NUM_QUERIES`` of them are queried, so the target must hold at
    least that many."""
    rng = np.random.default_rng(seed)
    words = load_words()
    used: set = set()

    pairs = _pairs(rng, words, used, NUM_QUERIES)

    # Overhead is constant: every key/value is three words and two hyphens,
    # so a same-shape probe measures the non-context template exactly.
    probe = _sample_from(pairs, pairs[:NUM_QUERIES], "", seed, target_tokens)
    overhead = count_tokens(render_prompt(probe))
    capacity = units_within(target_tokens - overhead, _pair_line(*pairs[0]))
    if capacity < NUM_QUERIES:
        raise GenerationError(
            f"target_tokens={target_tokens} cannot hold {NUM_QUERIES} pairs"
        )
    pairs += _pairs(rng, words, used, capacity - len(pairs))

    shuffled = [pairs[i] for i in rng.permutation(len(pairs)).tolist()]
    queried_idx = sorted(rng.choice(len(shuffled), size=NUM_QUERIES, replace=False).tolist())
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
