"""Prompt rendering.

Every task shares one skeleton: a fixed preamble, a task-specific
introduction, the question stated both before and after the context, a fixed
instruction block, and task-specific answer-format and extra-instruction
lines. The task-specific parts come from the kind's row in ``kinds.TABLE``:
kinds that pose several questions at once (key extraction, story retrieval)
use the plural wording and ``<questions>`` tags; all others use the singular
form.
"""

from __future__ import annotations

from .base import TaskSample
from .kinds import TABLE

__all__ = [
    "format_reference_response",
    "question_block",
    "render_prompt",
]

_SKELETON = """You are provided with a task introduction, context, and a question.

{task_intro}

{preface}

<{tag}>
{question}
</{tag}>

<context>
{context}
</context>

<{tag}_repeated>
{question}
</{tag}_repeated>

Instructions:
1. First, provide a brief explanation of your reasoning process. Explain how you identified
   the relevant information from the context and how you determined your answer.
2. Then, provide your final answer following this exact format:
<answer>
{answer_format}
</answer>

Your response must follow this structure exactly:
<explanation>
Your explanation here...
</explanation>
<answer>
Your answer here...
</answer>

Important:
{extra_instructions}
- Keep your explanations clear, coherent, concise, and to the point.
- Do not include any additional text, explanations, or reasoning in the answer section.
"""

_PREFACE_SINGULAR = (
    "Below is your question. I will state it both before and after the context."
)
_PREFACE_PLURAL = (
    "Below are your questions. I will state them both before and after the context."
)


def question_block(sample: TaskSample) -> str:
    """The text placed inside the question tags (numbered for multi-question
    kinds, verbatim otherwise)."""
    if TABLE[sample.kind].numbered:
        return "\n".join(
            f"{i}. {q}" for i, q in enumerate(sample.questions, start=1)
        )
    return sample.questions[0]


def render_prompt(sample: TaskSample) -> str:
    kind = TABLE[sample.kind]
    count = len(sample.gold)
    return _SKELETON.format(
        task_intro=kind.intro,
        preface=_PREFACE_PLURAL if kind.plural else _PREFACE_SINGULAR,
        tag="questions" if kind.plural else "question",
        question=question_block(sample),
        context=sample.context,
        answer_format=kind.answer_format.format(count=count),
        extra_instructions=kind.extra_instructions.format(count=count),
    )


def format_reference_response(sample: TaskSample) -> str:
    """A response that scores 1.0: the gold answers in the requested format,
    wrapped in the explanation/answer structure. Used by the echo adapter."""
    return (
        "<explanation>\n"
        "Located the relevant lines in the context and read off the answer.\n"
        "</explanation>\n"
        "<answer>\n"
        f"{TABLE[sample.kind].write(sample)}\n"
        "</answer>"
    )
