"""Approximate token counting for length-targeted sample generation.

Real context lengths depend on the serving model's subword vocabulary, which
is out of scope here. The default counter splits text into word and
punctuation units and applies a calibration factor, so generated samples are
deterministic and model-free. Callers that need fidelity to a specific
tokenizer can pass any object with a ``count(text) -> int`` method.

A unit is a run of word characters or one character that is neither a
word character nor whitespace, as Python's ``re`` defines them. ASCII text,
which every generator writes, is counted without a regex: each character is
translated to its class and the units are counted in the class string, in
about a fifth of the time ``findall`` takes. Other text takes the general
pattern. Both give the same count on ASCII text, so the path taken never
changes a sample.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = ["ApproxTokenizer", "DEFAULT_TOKENIZER", "count_tokens", "units_within"]

_UNIT = re.compile(r"\w+|[^\w\s]")
# Each ASCII character as its class under _UNIT's own \w and \s: "a" word,
# " " whitespace (\x1c-\x1f included), "." any other character.
_ASCII_CLASS = str.maketrans({
    chr(c): "a" if re.fullmatch(r"\w", chr(c)) else " " if re.fullmatch(r"\s", chr(c)) else "."
    for c in range(128)
})

# Copies of a repeated unit priced together, which prices each copy within
# 1/20 of a token; one copy rounded up alone would price a 2.4-token line at
# 3 and fill only 80 % of the budget.
_PRICE_RUN = 20


@dataclass(frozen=True)
class ApproxTokenizer:
    """Counts word/punctuation units scaled by ``factor``.

    factor=1.0 treats each unit as one token. Subword vocabularies for
    English prose typically land between 1.1 and 1.4 units per token;
    adjust the factor when matching a specific model.
    """

    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("factor must be positive")

    def count(self, text: str) -> int:
        units = _ascii_units(text) if text.isascii() else len(_UNIT.findall(text))
        return math.ceil(units * self.factor)


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


DEFAULT_TOKENIZER = ApproxTokenizer()


def count_tokens(text: str, tokenizer: ApproxTokenizer | None = None) -> int:
    return (tokenizer or DEFAULT_TOKENIZER).count(text)


def units_within(budget: int, unit: str, tokenizer: ApproxTokenizer | None = None) -> int:
    """How many newline-joined copies of ``unit`` fit in ``budget`` tokens,
    pricing each copy at the cost of a run of them."""
    run = count_tokens("\n".join([unit] * _PRICE_RUN), tokenizer)
    return budget * _PRICE_RUN // run
