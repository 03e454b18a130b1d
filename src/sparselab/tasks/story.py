"""Synthetic trading narratives with world-state gold answers.

Each chapter follows a fixed scene order: arrival at a location, purpose,
an event, meeting a character, discussion, an acquisition (or an explicit
no-purchase beat), an optional relinquishment of a previously held item,
farewell, departure, and an atmospheric closer. Sentence wording is drawn
from paraphrase pools whose anchor phrases are stable, so an independent
scanner can recover every fact from the rendered text alone.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .base import GenerationError, TaskSample
from .kinds import TABLE
from .prompt import render_prompt
from .tokenization import ApproxTokenizer, count_tokens

__all__ = [
    "Chapter",
    "StoryWorld",
    "gen_story",
    "render_world",
    "scan_world",
]

PROTAGONISTS = ("Arion", "Lysias", "Kallias", "Neritos", "Phaidon", "Melanthe")

LOCATIONS = (
    "Athens", "Hippo Regius", "Emerita Augusta", "Berenice", "Syracuse",
    "Babylon", "Delphi", "Pergamon", "Berenice Troglodytica", "Carthage",
    "Alexandria", "Corinth", "Ephesus", "Thebes", "Rhodes", "Knossos",
    "Sparta", "Miletus", "Byzantium", "Tyre", "Sidon", "Memphis", "Petra",
    "Palmyra", "Antioch", "Cyrene", "Leptis Magna", "Tingis", "Gades",
    "Massalia", "Tarentum", "Paestum",
)

CHARACTERS = (
    "Cleo", "Thanos", "Niko", "Roxana", "Phaedra", "Xanthe", "Vitalis",
    "Damon", "Marcus", "Lysandra", "Philon", "Kassandra", "Demetrios",
    "Selene", "Hektor", "Melite", "Orestes", "Thais", "Leonidas", "Zenobia",
    "Alkaios", "Myrrine", "Patrokles", "Eirene", "Sostratos", "Galla",
    "Timon", "Chloe",
)

ITEM_ADJECTIVES = (
    "lavish", "ceremonial", "delicate", "mystic", "engraved", "pristine",
    "timeworn", "gilded", "ancient", "ornate", "polished", "rustic",
    "elegant", "weathered", "luminous", "austere", "carved", "burnished",
    "painted", "jeweled", "antique", "splendid", "humble", "radiant",
)
ITEM_MATERIALS = (
    "crystal", "gold", "porcelain", "bronze", "emerald", "silver", "amber",
    "ivory", "obsidian", "jade", "copper", "marble",
)
ITEM_OBJECTS = (
    "lamp", "seal", "sword", "goblet", "vase", "amulet", "mirror", "chalice",
    "figurine", "dagger", "flute", "casket", "diadem", "scepter", "tablet",
    "ring",
)

# story_retrieval asks NUM_QUESTIONS questions and story_filtering hides
# NUM_NO_PURCHASE chapters without a purchase.  In each chapter the
# protagonist, while owning an item, gives one away with RELINQUISH_RATE.
NUM_QUESTIONS = 16
NUM_NO_PURCHASE = 3
RELINQUISH_RATE = 0.25

EVENTS = (
    "a tense negotiation", "a violent storm", "an opulent banquet",
    "a sudden market crash", "a solemn festival", "a heated auction",
    "an unexpected eclipse", "a lavish procession",
)

_ARRIVAL = (
    "Beneath gentle breezes, {p} ventured into {loc}, curious about its secrets.",
    "At dawn, {p} reached the gates of {loc}, where merchants and travelers converged.",
    "After a long road, {p} arrived in {loc} with hopeful expectations.",
    "By midday, {p} entered {loc}, drawn by tales of its markets.",
    "Under a fading sky, {p} came to {loc}, eager for new prospects.",
)
_PURPOSE = (
    "Long journeys had led {p} to this place, a step closer to understanding.",
    "Every road, {p} believed, carried its own quiet promise.",
    "Trade had always pulled {p} onward, and this stop was no exception.",
    "Rumors of rare goods had guided the steps of {p} for many days.",
)
_EVENT = (
    "Soon enough, {event} seized everyone's attention.",
    "Before long, {event} unsettled the whole quarter.",
    "That day, {event} became the talk of the town.",
    "Whispers spread quickly when {event} disrupted the usual rhythm.",
)
_MEETING = (
    "{c} appeared as if expecting {p}, engaging them without delay.",
    "It was {c} who approached {p} first, offering a courteous greeting.",
    "Among the stalls, {c} recognized {p} and struck up a conversation.",
    "Without ceremony, {c} drew {p} aside for a quiet word.",
)
_DISCUSSION = (
    "Carefully, they navigated the topic of old feuds and new alliances.",
    "Their talk drifted from distant ports to the price of passage.",
    "Neither hurried; the conversation wound through trivial and weighty matters alike.",
    "They spoke at length of caravans, storms, and the habits of buyers.",
    "A shared respect surfaced as each weighed the other's words.",
)
_ACQUISITION = (
    "Following subtle bargaining with {c}, {p} claimed ownership of {item}.",
    "After reaching terms with {c}, {p} took possession of {item}.",
    "The transaction concluded with {p} acquiring {item} from {c}.",
    "{item} changed hands as {p} completed the purchase from {c}.",
    "With measured consideration, {p} purchased {item} from {c}, examining it closely.",
)
_NO_PURCHASE = (
    "Though several wares tempted {p}, no bargain was struck before departure.",
    "{p} inspected many goods but left every offer on the table.",
    "This visit yielded conversation alone; {p} bought nothing at all.",
    "Despite lengthy haggling, {p} walked away without buying anything.",
)
_RELINQUISH = ("{p} handed over {item} to {c} as the deal closed.",)
_FAREWELL = (
    "With a light gesture, {p} acknowledged {c} once more before departing.",
    "Parting words were brief, as both had distant obligations.",
    "{p} wished {c} fortune in the seasons ahead.",
)
_DEPARTURE = (
    "Nothing would be the same as {p} left {loc}, thoughts turning inward.",
    "The road called again, and {p} slipped out of {loc} by the old causeway.",
    "{p} departed {loc} at dusk, the day's dealings settled.",
)
_CLOSER = (
    "In quiet corners, ambitions simmered, waiting for a spark.",
    "Somewhere behind the walls, new schemes were already taking shape.",
    "The evening settled softly, indifferent to commerce and its games.",
    "Lanterns flickered on, and the town resumed its usual murmur.",
)

# Anchors for the independent scanner. Kept in lockstep with the pools above.
_LOC_PATTERNS = (
    r"ventured into ([A-Z][\w ]+?),",
    r"reached the gates of ([A-Z][\w ]+?),",
    r"arrived in ([A-Z][\w ]+?) with hopeful",
    r"entered ([A-Z][\w ]+?),",
    r"came to ([A-Z][\w ]+?),",
)
_CHAR_PATTERNS = (
    r"(?:^|\. )([A-Z][a-z]+) appeared as if expecting",
    r"It was ([A-Z][a-z]+) who approached",
    r"Among the stalls, ([A-Z][a-z]+) recognized",
    r"Without ceremony, ([A-Z][a-z]+) drew",
)
_ITEM_PATTERNS = (
    r"claimed ownership of ([a-z][a-z ]+?)\.",
    r"took possession of ([a-z][a-z ]+?)\.",
    r"acquiring ([a-z][a-z ]+?) from",
    r"(?:^|\. )([a-z][a-z ]+?) changed hands",
    r"purchased ([a-z][a-z ]+?) from",
)
_RELINQUISH_PATTERN = r"handed over ([a-z][a-z ]+?) to [A-Z]"

# Every acquired item is unique, so a world has at most this many purchases.
ITEM_LIMIT = len(ITEM_ADJECTIVES) * len(ITEM_MATERIALS) * len(ITEM_OBJECTS)


@dataclass(frozen=True)
class Chapter:
    index: int
    location: str
    character: str
    event: str
    acquired_item: str | None
    relinquished_item: str | None


@dataclass(frozen=True)
class StoryWorld:
    protagonist: str
    chapters: tuple[Chapter, ...]

    def __post_init__(self) -> None:
        items = [c.acquired_item for c in self.chapters if c.acquired_item]
        if len(items) != len(set(items)):
            raise ValueError("acquired items must be globally unique")


def _item_stream(rng: np.random.Generator):
    """Every item name once, in an order drawn from ``rng`` up front."""
    shape = (len(ITEM_ADJECTIVES), len(ITEM_MATERIALS), len(ITEM_OBJECTS))
    order = np.unravel_index(rng.permutation(ITEM_LIMIT), shape)
    return (
        f"{ITEM_ADJECTIVES[a]} {ITEM_MATERIALS[m]} {ITEM_OBJECTS[o]}"
        for a, m, o in zip(*order)
    )


def _pick(rng: np.random.Generator, pool, avoid=None):
    while True:
        choice = pool[int(rng.integers(0, len(pool)))]
        if choice != avoid:
            return choice


def _chapter_stream(rng: np.random.Generator, no_purchase: frozenset[int] = frozenset()):
    """Chapters 1, 2, ... of one world, each drawn from ``rng`` after the
    ones before it, so the first k chapters do not depend on how many follow."""
    items = _item_stream(rng)
    owned: list[str] = []
    prev_loc = prev_char = None
    for index in itertools.count(1):
        location = _pick(rng, LOCATIONS, avoid=prev_loc)
        character = _pick(rng, CHARACTERS, avoid=prev_char)
        event = _pick(rng, EVENTS)
        acquired = None if index in no_purchase else next(items, None)
        if acquired is None and index not in no_purchase:
            raise GenerationError(
                f"a story world runs out of items after {ITEM_LIMIT} chapters "
                "with a purchase"
            )
        relinquished = None
        if owned and rng.random() < RELINQUISH_RATE:
            relinquished = owned.pop(int(rng.integers(0, len(owned))))
        if acquired is not None:
            owned.append(acquired)
        yield Chapter(index, location, character, event, acquired, relinquished)
        prev_loc, prev_char = location, character


def build_world(
    rng: np.random.Generator,
    num_chapters: int,
    no_purchase: frozenset[int] = frozenset(),
) -> StoryWorld:
    protagonist = _pick(rng, PROTAGONISTS)
    chapters = _chapter_stream(rng, no_purchase)
    return StoryWorld(protagonist, tuple(itertools.islice(chapters, num_chapters)))


def _render_chapter(seed: int, protagonist: str, ch: Chapter) -> str:
    """Wording comes from the chapter's own generator, so a chapter reads the
    same whatever the chapter count."""
    rng = np.random.default_rng([seed, 2, ch.index])
    p = protagonist
    parts = [
        _pick(rng, _ARRIVAL).format(p=p, loc=ch.location),
        _pick(rng, _PURPOSE).format(p=p),
        _pick(rng, _EVENT).format(event=ch.event),
        _pick(rng, _MEETING).format(c=ch.character, p=p),
    ]
    for _ in range(2 + int(rng.integers(0, 2))):
        parts.append(_pick(rng, _DISCUSSION))
    if ch.acquired_item is not None:
        parts.append(
            _pick(rng, _ACQUISITION).format(c=ch.character, p=p, item=ch.acquired_item)
        )
    else:
        parts.append(_pick(rng, _NO_PURCHASE).format(p=p))
    if ch.relinquished_item is not None:
        parts.append(
            _RELINQUISH[0].format(p=p, item=ch.relinquished_item, c=ch.character)
        )
    parts.append(_pick(rng, _FAREWELL).format(p=p, c=ch.character))
    parts.append(_pick(rng, _DEPARTURE).format(p=p, loc=ch.location))
    parts.append(_pick(rng, _CLOSER))
    return f"Chapter {ch.index}:\n" + " ".join(parts)


def render_world(world: StoryWorld, render) -> str:
    """The world's chapters in order, each from ``render(protagonist,
    chapter)``."""
    return "\n\n".join(render(world.protagonist, ch) for ch in world.chapters)


def scan_world(context: str) -> list[dict]:
    """Recover per-chapter facts from rendered text without the world object."""
    facts = []
    blocks = re.split(r"^Chapter (\d+):$", context, flags=re.MULTILINE)
    for header, body in zip(blocks[1::2], blocks[2::2]):
        fact = {
            "index": int(header),
            "location": _first_match(_LOC_PATTERNS, body),
            "character": _first_match(_CHAR_PATTERNS, body),
            "acquired_item": _first_match(_ITEM_PATTERNS, body),
            "relinquished_item": _first_match((_RELINQUISH_PATTERN,), body),
        }
        facts.append(fact)
    return facts


def _first_match(patterns, text: str) -> str | None:
    for pattern in patterns:
        match = re.search(pattern, text)
        if match:
            return match.group(1)
    return None


_STORY_KINDS = ("story_retrieval", "story_filtering", "story_multihop")


def gen_story(
    seed: int,
    kind: str = "story_retrieval",
    num_chapters: int | None = None,
    target_tokens: int = 16384,
    tokenizer: ApproxTokenizer | None = None,
) -> TaskSample:
    """When ``num_chapters`` is None the chapter count is chosen to land the
    rendered prompt inside the token target."""
    if kind not in _STORY_KINDS:
        raise ValueError(f"unknown story kind {kind!r}")
    num_no_purchase = NUM_NO_PURCHASE if kind == "story_filtering" else 0
    minimum = {
        "story_retrieval": NUM_QUESTIONS,
        "story_filtering": num_no_purchase + 1,
        "story_multihop": 2,
    }[kind]

    # one rendered text per chapter for the whole call, freed with it
    render = functools.cache(functools.partial(_render_chapter, seed))

    @functools.cache
    def build(count: int) -> TaskSample:
        return _build_sample(seed, kind, count, target_tokens, num_no_purchase, render)

    if num_chapters is None:
        # the pass's world: the protagonist, then chapters without
        # no-purchase beats
        rng = np.random.default_rng([seed, 1])
        protagonist = _pick(rng, PROTAGONISTS)
        chapter_texts = (render(protagonist, ch) for ch in _chapter_stream(rng))
        num_chapters = _fit_chapter_count(
            build, chapter_texts, minimum, target_tokens, tokenizer
        )
    if num_chapters < minimum:
        raise GenerationError(
            f"{kind} needs at least {minimum} chapters, got {num_chapters}"
        )
    return build(num_chapters)


def _build_sample(
    seed, kind, num_chapters, target_tokens, num_no_purchase, render
) -> TaskSample:
    if num_no_purchase:
        skip = frozenset(
            int(i) + 1
            for i in np.random.default_rng([seed, 3]).choice(
                num_chapters, size=num_no_purchase, replace=False
            )
        )
    else:
        skip = frozenset()
    rng = np.random.default_rng([seed, 1])
    world = build_world(rng, num_chapters, no_purchase=skip)
    context = render_world(world, render)
    questions, gold, extras = _pose_questions(rng, world, kind)
    return TaskSample(
        id=f"{kind}-s{seed}-t{target_tokens}",
        kind=kind,
        context=context,
        questions=questions,
        gold=gold,
        metric=TABLE[kind].metric,
        target_tokens=target_tokens,
        seed=seed,
        extras={"num_chapters": num_chapters, **extras},
    )


def _pose_questions(rng, world: StoryWorld, kind: str):
    chapters = world.chapters
    if kind == "story_retrieval":
        picked = sorted(
            int(i) for i in rng.choice(len(chapters), size=NUM_QUESTIONS, replace=False)
        )
        questions, gold = [], []
        for slot, idx in enumerate(picked):
            ch = chapters[idx]
            variant = slot % 3
            if variant == 0:
                questions.append(
                    f"In Chapter {ch.index}, which character did the "
                    "protagonist interact with?"
                )
                gold.append(ch.character)
            elif variant == 1:
                questions.append(
                    f"In Chapter {ch.index}, which specific item was acquired "
                    "by the protagonist?"
                )
                gold.append(ch.acquired_item)
            else:
                questions.append(
                    f"In Chapter {ch.index}, which specific location did the "
                    "protagonist visit?"
                )
                gold.append(ch.location)
        return tuple(questions), tuple(gold), {"queried_chapters": picked}
    if kind == "story_filtering":
        skipped = sorted(ch.index for ch in chapters if ch.acquired_item is None)
        question = (
            "Identify all chapters where the protagonist did not buy any item.\n"
            f"Note: There are exactly {len(skipped)} chapters without any purchases."
        )
        return (question,), tuple(str(i) for i in skipped), {}
    target = chapters[1 + int(rng.integers(0, len(chapters) - 1))]
    previous = chapters[target.index - 2]
    question = (
        "What was the last item that the protagonist acquired before "
        f"acquiring {target.acquired_item}?"
    )
    return (
        (question,),
        (previous.acquired_item,),
        {"target_chapter": target.index},
    )


def _fit_chapter_count(
    build, chapter_texts, minimum: int, target_tokens: int, tokenizer
) -> int:
    """Largest chapter count whose rendered prompt fits the token target.

    Story text is prefix-stable, so each chapter after ``minimum`` adds
    about its own token count to the prompt. One pass adds those counts to
    the measured prompt of the ``minimum``-chapter sample and stops before
    the target. Exact counts of full prompts then confirm the estimate:
    step down while it overshoots, step up while one more chapter fits.
    The confirmation makes the result exact for any tokenizer, additive or
    not, and for no-purchase beats that ``chapter_texts`` does not carry.
    ``build`` should cache by count; the confirmed sample is built once.
    ``gen_story`` gives the pass and the builds one cached chapter renderer,
    so the confirmation renders no chapter the pass rendered. story_filtering
    draws its no-purchase beats per count, so its builds share only the
    chapters before their first beat.
    """

    def total(count: int) -> int:
        return count_tokens(render_prompt(build(count)), tokenizer)

    used = total(minimum)
    if used > target_tokens:
        raise GenerationError(
            f"target_tokens={target_tokens} cannot hold {minimum} chapters"
        )
    count = minimum
    for text in itertools.islice(chapter_texts, minimum, None):
        used += count_tokens(text, tokenizer)
        if used > target_tokens:
            break
        count += 1
    while total(count) > target_tokens:
        count -= 1
    while total(count + 1) <= target_tokens:
        count += 1
    return count
