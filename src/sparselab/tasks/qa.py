"""Question answering over a supplied document collection.

Documents are caller-provided dicts with ``title`` and ``text`` (plus
optional ``question``/``answer`` for convenience). The assembler shuffles
and numbers one answer-bearing document among distractors until the prompt
reaches its token target; the question names the answer document's number.
"""

from __future__ import annotations

import numpy as np

from .base import GenerationError, TaskSample
from .prompt import render_prompt
from .tokenization import count_tokens
from .vocab import load_words

__all__ = ["ANSWER_DOC_TOKEN_LIMIT", "assemble_qa", "gen_qa", "make_demo_documents"]

ANSWER_DOC_TOKEN_LIMIT = 8000


def _render_doc(number: int, doc: dict) -> str:
    return f"Document {number}: {doc['title']}\n{doc['text']}"


def assemble_qa(
    documents: list[dict],
    answer_doc_index: int,
    question: str,
    gold: str,
    target_tokens: int = 16384,
    seed: int = 0,
) -> TaskSample:
    """Distractors that happen to contain the gold string are skipped so the
    answer occurs in exactly one document."""
    if not 0 <= answer_doc_index < len(documents):
        raise ValueError("answer_doc_index out of range")
    answer_doc = documents[answer_doc_index]
    if count_tokens(answer_doc["text"]) > ANSWER_DOC_TOKEN_LIMIT:
        raise GenerationError(
            f"answer document exceeds {ANSWER_DOC_TOKEN_LIMIT} tokens"
        )
    if gold.casefold() not in answer_doc["text"].casefold():
        raise GenerationError("gold answer does not occur in the answer document")

    rng = np.random.default_rng(seed)
    distractors = [
        doc
        for i, doc in enumerate(documents)
        if i != answer_doc_index and gold.casefold() not in doc["text"].casefold()
    ]
    order = rng.permutation(len(distractors))

    probe = _sample([answer_doc], 1, question, gold, seed, target_tokens)
    budget = target_tokens - count_tokens(render_prompt(probe))
    budget -= count_tokens(_render_doc(99, answer_doc))
    if budget < 0:
        raise GenerationError(
            f"target_tokens={target_tokens} cannot hold the answer document"
        )
    chosen = [answer_doc]
    for idx in order:
        doc = distractors[int(idx)]
        cost = count_tokens(_render_doc(99, doc))
        if cost > budget:
            continue
        chosen.append(doc)
        budget -= cost
    if budget > 0.05 * target_tokens and len(chosen) - 1 == len(distractors):
        raise GenerationError(
            "insufficient distractor documents to reach the token target"
        )

    final_order = rng.permutation(len(chosen))
    ordered = [chosen[int(i)] for i in final_order]
    answer_number = ordered.index(answer_doc) + 1
    context = "\n\n".join(
        _render_doc(i, doc) for i, doc in enumerate(ordered, start=1)
    )
    return _sample(ordered, answer_number, question, gold, seed, target_tokens, context)


def _sample(docs, answer_number, question, gold, seed, target_tokens,
            context: str = "") -> TaskSample:
    return TaskSample(
        id=f"qa-s{seed}-t{target_tokens}",
        kind="qa",
        context=context,
        questions=(f"Question about document {answer_number}:\n{question}",),
        gold=(gold,),
        target_tokens=target_tokens,
        seed=seed,
        extras={"answer_document": answer_number, "num_documents": len(docs)},
    )


def gen_qa(seed: int, target_tokens: int = 16384) -> TaskSample:
    """Asks the first document's own question over the demo corpus, one
    document per 100 target tokens and at least 40; a demo document renders
    to about 140 tokens, so the corpus holds about 1.4 times the distractor
    text the target needs.  ``assemble_qa`` takes caller-supplied documents."""
    documents = make_demo_documents(max(40, target_tokens // 100), seed=seed)
    doc = documents[0]
    return assemble_qa(
        documents, 0, doc["question"], doc["answer"],
        target_tokens=target_tokens, seed=seed
    )


def make_demo_documents(num_docs: int = 40, seed: int = 0) -> list[dict]:
    """Small procedural factoid documents so the CLI can demo the QA path
    without bundling external datasets. Each document knows its own
    question/answer pair."""
    rng = np.random.default_rng(seed)
    words = load_words()
    docs = []
    for i in range(num_docs):
        subject = f"the {words[int(rng.integers(0, len(words)))]} guild"
        year = 1400 + int(rng.integers(0, 500))
        city = f"{words[int(rng.integers(0, len(words)))]}ton".capitalize()
        filler = " ".join(
            words[int(j)] for j in rng.integers(0, len(words), size=120)
        )
        text = (
            f"Records state that {subject} was founded in {city} in the year "
            f"{year}. {filler}."
        )
        docs.append(
            {
                "title": f"Chronicle {i + 1}",
                "text": text,
                "question": f"In which year was {subject} founded?",
                "answer": str(year),
            }
        )
    return docs
