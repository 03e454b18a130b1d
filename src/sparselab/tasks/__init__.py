"""Benchmark task generation: long-context samples with constructed gold."""

from functools import partial

from .base import (
    TASK_KINDS,
    GenerationError,
    TaskSample,
    read_samples,
    write_samples,
)
from .cwe import count_listed_words, gen_cwe
from .kinds import TABLE, TaskKind
from .niah import gen_niah, scan_pairs
from .prompt import format_reference_response, question_block, render_prompt
from .qa import assemble_qa, gen_qa, make_demo_documents
from .story import Chapter, StoryWorld, gen_story, scan_world
from .tokenization import DEFAULT_TOKENIZER, ApproxTokenizer, count_tokens
from .vocab import load_words
from .vt import gen_vt, resolve_variables

__all__ = [
    "ApproxTokenizer",
    "Chapter",
    "DEFAULT_TOKENIZER",
    "GenerationError",
    "StoryWorld",
    "TABLE",
    "TASK_KINDS",
    "TaskKind",
    "TaskSample",
    "assemble_qa",
    "count_listed_words",
    "count_tokens",
    "format_reference_response",
    "gen_cwe",
    "gen_niah",
    "gen_qa",
    "gen_story",
    "gen_vt",
    "load_words",
    "make_demo_documents",
    "question_block",
    "read_samples",
    "render_prompt",
    "resolve_variables",
    "scan_pairs",
    "scan_world",
    "write_samples",
]


_GENERATORS = {
    "niah": gen_niah,
    "cwe": gen_cwe,
    "vt": gen_vt,
    "story_retrieval": partial(gen_story, kind="story_retrieval"),
    "story_filtering": partial(gen_story, kind="story_filtering"),
    "story_multihop": partial(gen_story, kind="story_multihop"),
    "qa": gen_qa,
}


def generate(kind: str, seed: int, target_tokens: int, **kwargs):
    """One sample of ``kind`` from its generator, with that generator's
    defaults for anything ``kwargs`` leaves out."""
    try:
        generator = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown task kind {kind!r}") from None
    return generator(seed, target_tokens=target_tokens, **kwargs)


__all__.append("generate")
