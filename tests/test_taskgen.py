import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselab.tasks import niah, story
from sparselab.tasks import (
    GenerationError,
    TABLE,
    TASK_KINDS,
    TaskSample,
    assemble_qa,
    count_listed_words,
    count_tokens,
    gen_cwe,
    gen_niah,
    gen_story,
    gen_vt,
    generate,
    load_words,
    make_demo_documents,
    question_block,
    read_samples,
    render_prompt,
    resolve_variables,
    scan_pairs,
    scan_world,
    write_samples,
)

SMALL_TOKENS = {
    "niah": 2000,
    "cwe": 3000,
    "vt": 2500,
    "story_retrieval": 4500,
    "story_filtering": 2500,
    "story_multihop": 2200,
    "qa": 3000,
}


def test_vocabulary_loaded():
    words = load_words()
    assert len(words) >= 8000
    assert all(re.fullmatch(r"[a-z]{3,18}", w) for w in words[:200])
    assert len(set(words)) == len(words)


def test_niah_scan_oracle_recovers_gold():
    for seed in range(20):
        sample = gen_niah(seed, target_tokens=2000)
        pairs = scan_pairs(sample.context)
        keys = sample.extras["keys"]
        assert len(keys) == len(sample.gold) == 4
        for key, value in zip(keys, sample.gold):
            assert pairs[key] == value
        assert len(pairs) == sample.extras["num_pairs"]
        assert len(set(pairs.values())) == len(pairs)


def test_niah_prompt_states_keys_twice():
    sample = gen_niah(0, target_tokens=2000)
    prompt = render_prompt(sample)
    assert prompt.count("Extract the values for the following keys") == 2
    assert "I will state them both before and after the context." in prompt
    assert "<questions>" in prompt and "<questions_repeated>" in prompt


@pytest.mark.parametrize("pop", [3, 4, 150, 8695, 10001])
@pytest.mark.parametrize("count", [0, 1, 257])
def test_choice3_replays_rng_choice(pop, count):
    """One batched draw gives what ``count`` successive
    ``choice(pop, 3, replace=False)`` calls give and leaves the generator
    where they leave it.  A numpy whose ``choice`` draws otherwise fails
    here before it changes a niah sample."""
    for seed in (0, 1, 7, 2**40):
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [scalar.choice(pop, 3, replace=False).tolist() for _ in range(count)]
        assert niah._choice3(batched, pop, count).tolist() == expected
        assert batched.bit_generator.state == scalar.bit_generator.state


def _scalar_pairs(rng, words, used, count, rejected):
    """niah's pairs drawn one ``rng.choice`` call per candidate string,
    redrawing a repeat; ``rejected`` collects the repeats."""

    def hyphenated():
        while True:
            picks = rng.choice(len(words), size=3, replace=False)
            candidate = "-".join(words[int(i)] for i in picks)
            if candidate not in used:
                used.add(candidate)
                return candidate
            rejected.append(candidate)

    return [(hyphenated(), hyphenated()) for _ in range(count)]


def test_niah_repeats_replay_the_scalar_draws(monkeypatch):
    # 12 words give 1320 strings, so a 4000-token sample's ~480 draw many repeats
    monkeypatch.setattr(niah, "load_words", lambda: load_words()[:12])
    batched = [gen_niah(seed, target_tokens=4000).to_json() for seed in range(3)]
    rejected = []
    monkeypatch.setattr(
        niah, "_pairs", lambda *args: _scalar_pairs(*args, rejected=rejected)
    )
    for seed, sample in enumerate(batched):
        assert gen_niah(seed, target_tokens=4000).to_json() == sample
    assert len(rejected) > 100


class _CountingGenerator:
    """A numpy Generator that records the name of each method called."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("kind", ["niah", "qa"])
def test_generation_draws_once_per_sample(monkeypatch, kind):
    """A 16000-token sample draws in a handful of generator calls, not one
    per key, value or document."""
    expected = generate(kind, seed=5, target_tokens=16000).to_json()
    calls = []
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _CountingGenerator(make(seed), calls))
    assert generate(kind, seed=5, target_tokens=16000).to_json() == expected
    assert 0 < len(calls) <= 6, Counter(calls)


def test_cwe_histogram_law():
    for seed in range(20):
        sample = gen_cwe(seed, target_tokens=3000)
        counts = count_listed_words(sample.context)
        histogram = Counter(counts.values())
        assert set(histogram) == {30, 3}
        assert histogram[30] == 10
        common = sorted(w for w, c in counts.items() if c == 30)
        assert list(sample.gold) == common


def test_cwe_too_small_target_raises():
    with pytest.raises(GenerationError):
        gen_cwe(0, target_tokens=400)


def test_vt_resolver_oracle_recovers_gold():
    for seed in range(20):
        sample = gen_vt(seed, target_tokens=2500)
        resolved = resolve_variables(sample.context, sample.extras["target_value"])
        assert sorted(resolved) == list(sample.gold)
        assert len(sample.gold) == sample.extras["chain_depth"]


def test_vt_resolver_handles_transitive_chains():
    context = (
        "VAR A = 12345\n"
        "VAR B = VAR A\n"
        "VAR C = VAR B\n"
        "VAR D = 54321\n"
        "VAR E = VAR D\n"
        "VAR F = VAR C\n"
    )
    assert resolve_variables(context, 12345) == {"A", "B", "C", "F"}
    assert resolve_variables(context, 54321) == {"D", "E"}
    assert resolve_variables(context, 99999) == set()


def test_vt_distractor_chains_do_not_leak():
    sample = gen_vt(5, target_tokens=2500)
    value = sample.extras["target_value"]
    all_values = {int(v) for v in re.findall(r"VAR \w+ = (\d+)\n", sample.context)}
    for other in all_values - {value}:
        assert not (resolve_variables(sample.context, other) & set(sample.gold))


def test_story_retrieval_scan_oracle():
    for seed in range(10):
        sample = gen_story(seed, "story_retrieval", target_tokens=4500)
        facts = scan_world(sample.context)
        queried = sample.extras["queried_chapters"]
        assert len(queried) == len(sample.gold) == 16
        for slot, chapter in enumerate(queried):
            fact = facts[chapter]
            assert fact["index"] == chapter + 1
            field = ("character", "acquired_item", "location")[slot % 3]
            assert sample.gold[slot] == fact[field]
            assert f"In Chapter {chapter + 1}," in sample.questions[slot]


def test_story_filtering_exact_no_purchase_count():
    for seed in range(10):
        sample = gen_story(seed, "story_filtering", target_tokens=2500)
        facts = scan_world(sample.context)
        empty = [str(f["index"]) for f in facts if f["acquired_item"] is None]
        assert len(empty) == 3
        assert list(sample.gold) == empty
        assert "exactly 3 chapters" in sample.questions[0]


def test_story_filtering_configurable_k(monkeypatch):
    """NUM_NO_PURCHASE sets how many chapters go without a purchase."""
    monkeypatch.setattr(story, "NUM_NO_PURCHASE", 5)
    sample = gen_story(2, "story_filtering", target_tokens=3000)
    facts = scan_world(sample.context)
    assert sum(f["acquired_item"] is None for f in facts) == 5
    assert len(sample.gold) == 5 and "exactly 5 chapters" in sample.questions[0]


def test_story_multihop_walk_back_oracle():
    for seed in range(10):
        sample = gen_story(seed, "story_multihop", target_tokens=2200)
        facts = scan_world(sample.context)
        anchor = re.search(r"before acquiring (.+)\?", sample.questions[0]).group(1)
        where = [i for i, f in enumerate(facts) if f["acquired_item"] == anchor]
        assert len(where) == 1
        t = where[0]
        assert t >= 1
        previous = next(
            facts[i]["acquired_item"]
            for i in range(t - 1, -1, -1)
            if facts[i]["acquired_item"] is not None
        )
        assert sample.gold == (previous,)


def test_story_items_globally_unique():
    sample = gen_story(4, "story_retrieval", target_tokens=4500)
    items = [f["acquired_item"] for f in scan_world(sample.context) if f["acquired_item"]]
    assert len(items) == len(set(items))


STORY_KINDS = ("story_retrieval", "story_filtering", "story_multihop")


@pytest.mark.parametrize("kind", ["story_retrieval", "story_multihop"])
def test_story_text_is_prefix_stable(kind):
    for seed in range(5):
        short = gen_story(seed, kind, num_chapters=40, target_tokens=8000)
        long = gen_story(seed, kind, num_chapters=45, target_tokens=8000)
        assert scan_world(long.context)[:40] == scan_world(short.context)
        assert long.context.split("\n\n")[:40] == short.context.split("\n\n")


@pytest.mark.parametrize("kind", STORY_KINDS)
@pytest.mark.parametrize("target", [4500, 16000])
def test_story_fit_is_largest_that_fits(kind, target):
    for seed in range(10):
        sample = gen_story(seed, kind, target_tokens=target)
        count = sample.extras["num_chapters"]
        longer = gen_story(seed, kind, num_chapters=count + 1, target_tokens=target)
        assert count_tokens(render_prompt(sample)) <= target
        assert count_tokens(render_prompt(longer)) > target


def _count_renders(monkeypatch) -> Counter:
    renders: Counter = Counter()
    render = story._render_chapter

    def counted(seed, protagonist, ch):
        renders[ch] += 1
        return render(seed, protagonist, ch)

    monkeypatch.setattr(story, "_render_chapter", counted)
    return renders


@pytest.mark.parametrize("kind", STORY_KINDS)
@pytest.mark.parametrize("target", [4000, 16000])
def test_story_renders_each_chapter_once(monkeypatch, kind, target):
    renders = _count_renders(monkeypatch)
    for seed in range(4):
        renders.clear()
        sample = gen_story(seed, kind, target_tokens=target)
        assert max(renders.values()) == 1
        assert len(renders) > sample.extras["num_chapters"]
        if kind != "story_filtering":
            # one world for every count, so one chapter per index
            assert max(Counter(ch.index for ch in renders).values()) == 1


def test_story_item_limit_raises_generation_error():
    with pytest.raises(GenerationError, match="4608 chapters"):
        gen_story(0, "story_multihop", num_chapters=4700, target_tokens=600000)


def test_story_too_small_target_raises():
    with pytest.raises(GenerationError):
        gen_story(0, "story_retrieval", target_tokens=1500)


def test_qa_containment():
    for seed in range(10):
        sample = generate("qa", seed=seed, target_tokens=3000)
        docs = re.split(r"\n\nDocument \d+: ", "\n\n" + sample.context)[1:]
        target = sample.extras["answer_document"]
        gold = sample.gold[0].casefold()
        holding = [i for i, text in enumerate(docs) if gold in text.casefold()]
        body = re.search(
            rf"Document {target}: (.*?)(?:\n\nDocument \d+: |\Z)", sample.context, re.S
        ).group(1)
        assert gold in body.casefold()
        assert len(holding) == 1


def test_qa_rejects_oversized_answer_doc():
    docs = make_demo_documents(num_docs=6, seed=0)
    docs[0]["text"] = "word " * 9000
    with pytest.raises(GenerationError):
        assemble_qa(docs, 0, "What?", docs[0]["answer"], target_tokens=12000)


def test_qa_budget_too_small_raises():
    docs = make_demo_documents(num_docs=6, seed=0)
    with pytest.raises(GenerationError):
        assemble_qa(docs, 0, docs[0]["question"], docs[0]["answer"], target_tokens=60)


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_generation_deterministic(kind):
    a = generate(kind, seed=11, target_tokens=SMALL_TOKENS[kind])
    b = generate(kind, seed=11, target_tokens=SMALL_TOKENS[kind])
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    c = generate(kind, seed=12, target_tokens=SMALL_TOKENS[kind])
    assert c.context != a.context


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_prompt_length_band(kind):
    for target in (4500, 8000, 16000):
        sample = generate(kind, seed=2, target_tokens=target)
        tokens = count_tokens(render_prompt(sample))
        assert 0.95 * target <= tokens <= target


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_prompt_structure(kind):
    sample = generate(kind, seed=1, target_tokens=SMALL_TOKENS[kind])
    prompt = render_prompt(sample)
    assert "<context>" in prompt and "</context>" in prompt
    assert "<answer>" in prompt
    for question in sample.questions:
        assert prompt.count(question) == 2
    assert sample.to_json()["metric"] == TABLE[kind].metric
    assert sample.gold


def question_block_tokens(sample) -> int:
    """Token count of the question text over both stated copies."""
    return 2 * count_tokens(question_block(sample))


def test_retrieval_question_block_near_reference_width():
    # 16 numbered retrieval questions measure 457.54 tokens on average in the
    # reference corpus; stay within 15%
    widths = [
        question_block_tokens(gen_story(seed, "story_retrieval", target_tokens=4500))
        for seed in range(10)
    ]
    mean = sum(widths) / len(widths)
    assert abs(mean - 457.54) / 457.54 <= 0.15


def _reference_units(text: str) -> int:
    return len(re.findall(r"\w+|[^\w\s]", text))


# text from every code point, or from ASCII, which takes the regex-free path
TEXT = st.text() | st.text(st.characters(max_codepoint=127))


@settings(deadline=None, max_examples=300)
@given(text=TEXT)
@example(text="")
@example(text="\x1c\x1d\x1e\x1f")
@example(text="a\x1cb\x1f.c")
@example(text=" ")
@example(text="\xa0\u2003 x")
@example(text="café naïve, Zoë!")
@example(text="ab12 3.5 __init__ x_y-z")
@example(text="snake_case_2 _ __")
def test_tokenizer_count_matches_general_pattern(text):
    assert count_tokens(text) == _reference_units(text)


# sha256 over every kind at seeds 0-2 and 4000/16000 tokens, computed on the
# generators before chapter texts were shared and the tokenizer had an ASCII
# path; both must leave every sample byte-identical. It also covers the niah
# and cwe context sizing through units_within.
SAMPLES_DIGEST = "d430c581a0469c37e078db8e02a266db0b21f201f69dc2faf131649582b62d3c"


def test_samples_byte_identical():
    digest = hashlib.sha256()
    for kind in TASK_KINDS:
        for seed in range(3):
            for target in (4000, 16000):
                sample = generate(kind, seed=seed, target_tokens=target)
                digest.update(json.dumps(sample.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == SAMPLES_DIGEST


@settings(deadline=None, max_examples=300)
@given(a=TEXT, b=TEXT, join=st.sampled_from(["\n", " "]))
@example(a="hello,", b="world.", join=" ")
@example(a="ab", b="cd", join="\n")
@example(a="x", b="é", join=" ")
def test_tokenizer_additivity(a, b, join):
    """units_within and the story chapter estimate price joined texts as the
    sum of their parts."""
    assert count_tokens(a + join + b) == count_tokens(a) + count_tokens(b)


def test_token_is_a_word_or_punctuation_unit():
    assert count_tokens("hello, world.") == 4
    assert count_tokens("VAR ABC = VAR XYZ") == 5
    assert count_tokens("The value for red-fox is: 12.") == 10


def test_sample_round_trip(tmp_path):
    samples = [generate(k, seed=3, target_tokens=SMALL_TOKENS[k]) for k in TASK_KINDS]
    path = tmp_path / "samples.jsonl"
    write_samples(samples, path)
    loaded = list(read_samples(path))
    assert len(loaded) == len(samples)
    for orig, back in zip(samples, loaded):
        assert back.id == orig.id
        assert back.kind == orig.kind
        assert back.context == orig.context
        assert back.questions == orig.questions
        assert back.gold == orig.gold
    payload = samples[TASK_KINDS.index("qa")].to_json()
    with pytest.raises(ValueError, match="metric 'exact_match' not valid for kind 'qa'"):
        TaskSample.from_json({**payload, "metric": "exact_match"})
