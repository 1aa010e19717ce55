"""Seeded input generator for the slangsent benchmark.

`generate(workload, seed, root)` writes every file a workload needs into
`root` and returns what the checks need to know about them. The same
(workload, seed) always gives byte-identical files: all randomness comes
from one `random.Random` keyed by both, and nothing iterates over a set.

Words are built from letter syllables without "x", so no generated word can
look like an emoticon to the tokenizer; emoticons appear only where the
generator puts them, and it knows the label each apply document must get.
"""

from __future__ import annotations

import json
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

POSITIVE_EMOTICONS = (":)", ":D", "<3", ";)", ":P", "^_^")
NEGATIVE_EMOTICONS = (":(", ":'(", ":/", "-_-", "T_T", "D:")


@dataclass(frozen=True)
class Shape:
    """Input sizes and mix of one workload."""

    terms: int  # vocabulary terms
    phrase_share: float  # share of terms that are two words
    docs: int  # build corpus documents
    seed_words: int  # sentiment words in the seed sources, outside the vocabulary
    extra_seed_terms: int  # further seed-source terms outside the vocabulary
    seeded_share: float  # share of vocabulary terms the seed sources label
    mentioned_share: float  # share of the other terms the corpus mentions
    related_mean: float  # cross-links per entry, on top of the chains
    chain: int  # related-word chain length (sets the propagation depth)
    apply_docs: int  # documents the label and evaluate commands read
    score_docs: int  # documents the score command reads
    max_docs: int = 150


SHAPES = {
    # Corpus-bound build: Zipf-skewed mentions over many documents, so the
    # most frequent terms match more than max_docs and sampling engages.
    "build-corpus": Shape(
        terms=1200, phrase_share=0.25, docs=8000, seed_words=300,
        extra_seed_terms=200, seeded_share=0.05, mentioned_share=0.85,
        related_mean=0.5, chain=3, apply_docs=2000, score_docs=60,
    ),
    # Graph-bound build: a large vocabulary with dense, chained related-word
    # lists and large seed sources, over a small corpus.
    "build-graph": Shape(
        terms=5000, phrase_share=0.25, docs=500, seed_words=300,
        extra_seed_terms=5000, seeded_share=0.04, mentioned_share=0.02,
        related_mean=3.0, chain=12, apply_docs=2000, score_docs=60,
    ),
    # Apply-bound: a small build yields a lexicon of a few thousand terms,
    # then label and evaluate read a large emoticon-marked corpus.
    "apply": Shape(
        terms=3000, phrase_share=0.25, docs=1000, seed_words=300,
        extra_seed_terms=500, seeded_share=0.6, mentioned_share=0.3,
        related_mean=1.0, chain=4, apply_docs=6000, score_docs=80,
    ),
}

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_FILLER_WORDS = 1500
_ZIPF_EXPONENT = 1.0
_LINK_WINDOW = 6
# Apply documents by emoticon marking: positive only, negative only, both, none.
_MARKING = (("positive", 0.35), ("negative", 0.25), ("both", 0.10), ("none", 0.30))


@dataclass(frozen=True)
class Manifest:
    """What the generator knows about the files it wrote."""

    config: Path
    apply_corpus: Path
    score_corpus: Path
    emoticons: Path
    apply_docs: int
    expected_labels: dict[str, str]  # apply document id -> gold label
    score_ids: list[str]
    score_texts: list[str]


def _word_pool(rng: random.Random, count: int) -> list[str]:
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < count:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 4))
        )
        if rng.random() < 0.3:
            word += rng.choice(_CONSONANTS)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Zipf:
    """Draws items with probability proportional to 1 / rank."""

    def __init__(self, items: list, rng: random.Random):
        self._items = items
        self._rng = rng
        self._cumulative = list(
            accumulate(1.0 / (rank ** _ZIPF_EXPONENT) for rank in range(1, len(items) + 1))
        )

    def draw(self) -> object:
        point = self._rng.random() * self._cumulative[-1]
        return self._items[min(bisect(self._cumulative, point), len(self._items) - 1)]


def _terms(rng: random.Random, shape: Shape, words: list[str]) -> list[str]:
    n_phrases = int(shape.terms * shape.phrase_share)
    singles = words[: shape.terms - n_phrases]
    spare = words[shape.terms - n_phrases :]
    phrases: list[str] = []
    seen: set[str] = set()
    while len(phrases) < n_phrases:
        # Some phrases start with a single-word term, so the scorer's
        # longest match has a prefix to beat.
        first = rng.choice(singles) if rng.random() < 0.3 else rng.choice(spare)
        second = rng.choice(spare)
        phrase = f"{first} {second}"
        if first != second and phrase not in seen:
            seen.add(phrase)
            phrases.append(phrase)
    terms = singles + phrases
    rng.shuffle(terms)
    return terms


def _entry(term: str, related: list[str], rng: random.Random) -> dict:
    return {
        "term": term,
        "meanings": [f"meaning of {term}"],
        "examples": [f"they said {term} again"],
        "related_terms": related,
        "upvotes": rng.randint(0, 500),
        "downvotes": rng.randint(0, 50),
    }


def _related(rng: random.Random, shape: Shape, terms: list[str], outside: list[str]) -> list[list[str]]:
    """Related-word lists: each term lists its predecessor in a chain of
    `shape.chain` terms, plus cross-links to terms nearby in the same order
    (nearby, so they do not shortcut the chains) and now and then a word
    outside the vocabulary, which the graph must ignore."""
    lists: list[list[str]] = []
    for index, term in enumerate(terms):
        related = []
        if index % shape.chain:
            related.append(terms[index - 1])
        links = int(shape.related_mean) + (rng.random() < shape.related_mean % 1)
        for _ in range(links):
            other = terms[(index + rng.randint(-_LINK_WINDOW, _LINK_WINDOW)) % len(terms)]
            if other != term and other not in related:
                related.append(other)
        if rng.random() < 0.05:
            related.append(rng.choice(outside))
        lists.append(related)
    return lists


def _doc_words(rng: random.Random, filler: _Zipf, low: int, high: int) -> list[str]:
    return [filler.draw() for _ in range(rng.randint(low, high))]


def _insert(rng: random.Random, words: list[str], phrase: str) -> None:
    position = rng.randint(0, len(words))
    words[position:position] = phrase.split(" ")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="\n")


def _jsonl(records: list[dict]) -> list[str]:
    return [json.dumps(record, ensure_ascii=False, sort_keys=True) for record in records]


def generate(workload: str, seed: int, root: Path) -> Manifest:
    shape = SHAPES[workload]
    rng = random.Random(f"slangsent-bench:{workload}:{seed}")
    root.mkdir(parents=True, exist_ok=True)

    n_words = shape.terms + _FILLER_WORDS + shape.seed_words + shape.extra_seed_terms + 200
    words = _word_pool(rng, n_words)
    filler_words, words = words[:_FILLER_WORDS], words[_FILLER_WORDS:]
    sentiment_words, words = words[: shape.seed_words], words[shape.seed_words :]
    extra_words, words = words[: shape.extra_seed_terms], words[shape.extra_seed_terms :]
    outside = words[:200]
    terms = _terms(rng, shape, words[200:])

    # Entry records: one per term, a few duplicates differing in case and
    # spacing, so vocabulary merging and normalization do work.
    related = _related(rng, shape, terms, outside)
    entries = [_entry(term, rel, rng) for term, rel in zip(terms, related)]
    for index in rng.sample(range(len(terms)), len(terms) // 20):
        variant = "  ".join(part.upper() for part in terms[index].split(" "))
        entries.append(_entry(variant, [], rng))
    _write_lines(root / "entries.jsonl", _jsonl(entries))

    # Seed sources: sentiment words split over two sources that overlap,
    # plus vocabulary terms and further outside terms.
    n_seeded = int(shape.terms * shape.seeded_share)
    seeded = [terms[i * len(terms) // n_seeded] for i in range(n_seeded)]
    seeded_set = set(seeded)
    strengths = {word: rng.uniform(-2, 2) for word in sentiment_words}
    core, wide = [], []
    for i, word in enumerate(sentiment_words):
        if i < 0.6 * len(sentiment_words):
            core.append(f"{word}\t{strengths[word]:.3f}")
        if i >= 0.4 * len(sentiment_words):
            native = strengths[word] * 2.5 + rng.uniform(-0.2, 0.2)
            wide.append(f"{word}\t{max(-5.0, min(5.0, native)):.3f}")
    for term in seeded + extra_words:
        if rng.random() < 0.5:
            core.append(f"{term}\t{rng.uniform(-2, 2):.3f}")
        else:
            wide.append(f"{term}\t{rng.uniform(-5, 5):.3f}")
    _write_lines(root / "seed_core.tsv", ["# core sentiment lexicon", *core])
    _write_lines(root / "seed_wide.tsv", wide)

    # Build corpus: filler, sentiment words near some mentions, and Zipf-
    # skewed mentions of the terms the corpus covers. Some documents carry a
    # phrase's words apart, which phrase filtering must reject.
    unseeded = [term for term in terms if term not in seeded_set]
    mentioned = unseeded[: int(len(unseeded) * shape.mentioned_share)]
    phrases = [term for term in mentioned if " " in term]
    filler = _Zipf(filler_words, rng)
    mentions = _Zipf(mentioned, rng) if mentioned else None
    corpus = []
    for i in range(shape.docs):
        doc = _doc_words(rng, filler, 4, 10)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            doc.insert(rng.randint(0, len(doc)), rng.choice(sentiment_words))
        if mentions is not None:
            for _ in range(rng.choice((1, 1, 2))):
                _insert(rng, doc, mentions.draw())
        if phrases and rng.random() < 0.05:
            first, second = rng.choice(phrases).split(" ")
            doc = [first, *doc, second]
        corpus.append({"id": f"d{i:06d}", "text": " ".join(doc)})
    _write_lines(root / "corpus.jsonl", _jsonl(corpus))

    config = root / "config.json"
    config.write_text(
        json.dumps(
            {
                "entries": ["entries.jsonl"],
                "seed_lexicons": [
                    {"id": "core", "path": "seed_core.tsv", "scale": {"factor": 1.0, "offset": 0.0}},
                    {"id": "wide", "path": "seed_wide.tsv", "scale": {"source_range": [-5, 5]}},
                ],
                "corpus": "corpus.jsonl",
                "output_dir": "out",
                "max_docs": shape.max_docs,
                "sample_seed": seed,
                "strict": True,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    emoticons = root / "emoticons.txt"
    _write_lines(
        emoticons, ["[positive]", *POSITIVE_EMOTICONS, "[negative]", *NEGATIVE_EMOTICONS]
    )

    # Apply corpus: lexicon terms in filler, marked with emoticons of one
    # polarity, both, or none.
    apply_terms = _Zipf(terms, rng)
    marks = [name for name, _ in _MARKING]
    weights = [weight for _, weight in _MARKING]
    expected: dict[str, str] = {}
    apply = []
    for i in range(shape.apply_docs):
        doc = _doc_words(rng, filler, 4, 12)
        for _ in range(rng.randint(0, 3)):
            _insert(rng, doc, apply_terms.draw())
        mark = rng.choices(marks, weights)[0]
        added = []
        if mark in ("positive", "both"):
            added += rng.sample(POSITIVE_EMOTICONS, rng.randint(1, 2))
        if mark in ("negative", "both"):
            added += rng.sample(NEGATIVE_EMOTICONS, rng.randint(1, 2))
        for emoticon in added:
            doc.insert(rng.randint(0, len(doc)), emoticon)
        doc_id = f"a{i:06d}"
        if mark in ("positive", "negative"):
            expected[doc_id] = mark
        apply.append({"id": doc_id, "text": " ".join(doc)})
    apply_lines = _jsonl(apply)
    _write_lines(root / "apply_corpus.jsonl", apply_lines)
    _write_lines(root / "score_corpus.jsonl", apply_lines[: shape.score_docs])

    return Manifest(
        config=config,
        apply_corpus=root / "apply_corpus.jsonl",
        score_corpus=root / "score_corpus.jsonl",
        emoticons=emoticons,
        apply_docs=shape.apply_docs,
        expected_labels=expected,
        score_ids=[record["id"] for record in apply[: shape.score_docs]],
        score_texts=[record["text"] for record in apply[: shape.score_docs]],
    )
