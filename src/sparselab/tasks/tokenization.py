"""Token counting for length-targeted sample generation.

Real context lengths depend on the serving model's subword vocabulary, which
is out of scope here. A token is one word or punctuation unit, so generated
samples are deterministic and model-free, and token i of a text is its i-th
unit.

A unit is a run of word characters or one character that is neither a
word character nor whitespace, as Python's ``re`` defines them. ASCII text,
which every generator writes, is counted without a regex: each character is
translated to its class and the units are counted in the class string, in
about a fifth of the time ``findall`` takes. Other text takes the general
pattern. Both give the same count on ASCII text, so the path taken never
changes a sample. Counts add over texts joined by whitespace.
"""

from __future__ import annotations

import re

__all__ = ["count_tokens", "units_within"]

_UNIT = re.compile(r"\w+|[^\w\s]")
# Each ASCII character as its class under _UNIT's own \w and \s: "a" word,
# " " whitespace (\x1c-\x1f included), "." any other character.
_ASCII_CLASS = str.maketrans({
    chr(c): "a" if re.fullmatch(r"\w", chr(c)) else " " if re.fullmatch(r"\s", chr(c)) else "."
    for c in range(128)
})


def _ascii_units(text: str) -> int:
    """``len(_UNIT.findall(text))`` for ASCII text: one unit per "." class
    and one per word run, that is per "a" that starts the text or follows
    another class."""
    classes = text.translate(_ASCII_CLASS)
    return (
        classes.count(".")
        + classes.count(" a")
        + classes.count(".a")
        + classes.startswith("a")
    )


def count_tokens(text: str) -> int:
    return _ascii_units(text) if text.isascii() else len(_UNIT.findall(text))


def units_within(budget: int, unit: str) -> int:
    """How many newline-joined copies of ``unit`` fit in ``budget`` tokens."""
    return budget // count_tokens(unit)
