"""One row per task kind: its metric, its prompt wording, and how its answer
is written and read.

Every other module reads these rows, so what a kind is gets written down
once. The rows are plain data and pure functions and this module imports
nothing from sparselab, so the sample container, the generators, the prompt
renderer and the scorer can all import it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .base import TaskSample

__all__ = ["TABLE", "TaskKind"]

_NUMBERED = re.compile(r"^\s*(\d+)[.)]\s*(.*?)\s*$")


@dataclass(frozen=True)
class TaskKind:
    """What a task kind is.

    ``metrics`` names the metrics a sample may be scored with; the first is
    the default. ``plural`` words the prompt for several questions at
    once and ``numbered`` also numbers them. ``answer_format`` and
    ``extra_instructions`` may name ``{count}``, the number of gold answers.
    ``write`` gives the answer body that scores 1.0; ``read`` turns an
    answer body into the answer list the metric compares with the gold.
    """

    metrics: tuple[str, ...]
    intro: str
    answer_format: str
    extra_instructions: str
    write: Callable[["TaskSample"], str]
    read: Callable[[str], list[str]]
    plural: bool = False
    numbered: bool = False

    @property
    def metric(self) -> str:
        return self.metrics[0]


def _numbered(items) -> str:
    return "\n".join(f"{i}. {item}" for i, item in enumerate(items, start=1))


def _numbered_items(text: str) -> list[str]:
    """Answers listed one per line; numbering is honored when present."""
    numbered: list[tuple[int, str]] = []
    plain: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        match = _NUMBERED.match(line)
        if match:
            numbered.append((int(match.group(1)), match.group(2)))
        else:
            plain.append(line)
    if numbered:
        return [item for _, item in sorted(numbered, key=lambda kv: kv[0])]
    return plain


def _write_key_values(sample: "TaskSample") -> str:
    return _numbered(
        f"The answer for {key} is {value}."
        for key, value in zip(sample.extras["keys"], sample.gold)
    )


def _read_key_values(text: str) -> list[str]:
    # "The answer for <key> is <value>." keeps only the value.
    values = []
    for item in _numbered_items(text):
        if " is " in item:
            item = item.rsplit(" is ", 1)[1]
        values.append(item.rstrip("."))
    return values


def _write_numbered(sample: "TaskSample") -> str:
    return _numbered(sample.gold)


def _write_one(sample: "TaskSample") -> str:
    return sample.gold[0]


def _read_one(text: str) -> list[str]:
    return [text]


_STORY_INTRO = (
    "You are given a narrative composed of multiple chapters. Throughout these "
    "chapters, the protagonist travels between different locations, meets various "
    "characters, and engages in trading activities. All items mentioned in the "
    "narrative are unique, and their ownership can change through trades. Your "
    "task is to carefully read the narrative and answer the questions based on "
    "the provided information."
)

# Needle retrieval and factoid tasks score per-answer equality; set-valued
# tasks (word selection, variable sets, chapter ids) score set overlap; only
# open-ended QA uses token F1, and its caller may ask for exact match.
TABLE: dict[str, TaskKind] = {
    "niah": TaskKind(
        metrics=("exact_match",),
        intro=(
            "I will provide you with a document containing multiple key-value pairs.\n"
            "Your task is to extract specific values associated with given keys."
        ),
        answer_format=(
            "1. The answer for <key1> is <value1>.\n"
            "2. The answer for <key2> is <value2>.\n"
            "etc."
        ),
        extra_instructions=(
            "- Provide answers in the exact order of the requested keys\n"
            '- Each answer must follow the format: "<number>. The answer for <key> is <value>."\n'
            "- Ensure exact key matches - do not modify or paraphrase the keys\n"
            "- Values must match exactly as they appear in the document"
        ),
        write=_write_key_values,
        read=_read_key_values,
        plural=True,
    ),
    "cwe": TaskKind(
        metrics=("iou",),
        intro=(
            "You will be given a numbered list of words. Your task is to identify "
            "the most frequently occurring words. You should solve this task by "
            "carefully reading and analyzing the word list. Do not attempt to write "
            "code or use programming tools to count frequencies. This is a test of "
            "your ability to track word frequencies directly."
        ),
        answer_format="1. word_one\n2. word_two\n...\n{count}. word_ten",
        extra_instructions=(
            "- List exactly {count} words, one per line, numbered from 1 to {count}."
        ),
        write=_write_numbered,
        read=_numbered_items,
    ),
    "vt": TaskKind(
        metrics=("iou",),
        intro=(
            "I will provide you with a text containing variable assignments. "
            "The text contains two types of assignments:\n"
            '1. Numeric assignments that set a variable to a number (e.g., "VAR ABC = 12345")\n'
            '2. Copy assignments that set a variable equal to another variable (e.g., "VAR XYZ = VAR ABC")\n'
            "Variables are sequences of uppercase letters. The assignments can "
            "appear in any order in the text."
        ),
        answer_format="VARIABLE_ONE VARIABLE_TWO etc.",
        extra_instructions=(
            "- List ONLY the variable names that resolve to the target value.\n"
            "- Variables can be listed in any order.\n"
            '- Do not include "VAR" prefix in your answer. Do not include punctuation.'
        ),
        write=lambda sample: " ".join(sample.gold),
        read=str.split,
    ),
    "story_retrieval": TaskKind(
        metrics=("exact_match",),
        intro=_STORY_INTRO,
        answer_format="1. ANSWER_ONE\n2. ANSWER_TWO\netc.",
        extra_instructions=(
            "- For answers, use one line per answer with the number prefix\n"
            "- Do not include articles like 'the' or 'a' in answers\n"
            "- Answers should be specific names/items/locations mentioned in the text"
        ),
        write=_write_numbered,
        read=_numbered_items,
        plural=True,
        numbered=True,
    ),
    "story_filtering": TaskKind(
        metrics=("iou",),
        intro=_STORY_INTRO,
        answer_format="chapter_id_1, chapter_id_2, ...",
        extra_instructions=(
            "- In the answer section, provide only the chapter IDs separated by commas."
        ),
        write=lambda sample: ", ".join(sample.gold),
        read=lambda text: text.split(","),
    ),
    "story_multihop": TaskKind(
        metrics=("exact_match",),
        intro=_STORY_INTRO,
        answer_format="ITEM_NAME",
        extra_instructions=(
            "- Provide only the item name in the answer section.\n"
            "- Do not include articles like 'the' or 'a' in your answer.\n"
            "- The item name must be exactly as mentioned in the text."
        ),
        write=_write_one,
        read=_read_one,
    ),
    "qa": TaskKind(
        metrics=("f1", "exact_match"),
        intro=(
            "I will provide you with multiple documents and ask you a question "
            "about one specific document."
        ),
        answer_format="Your answer here...",
        extra_instructions=(
            "- Do not use complete sentences in the answer.\n"
            "- For dates: Include ONLY the COMPLETE date if specifically asked.\n"
            "- For locations: Use the shortest unambiguous form (e.g., 'New York' "
            "not 'New York City').\n"
            "- For comparisons: State ONLY the answer that matches the criteria"
        ),
        write=_write_one,
        read=_read_one,
    ),
}
