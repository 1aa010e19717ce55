"""Shared fixture data and builders.

GOLDEN_* is a small hand-designed end-to-end fixture: 20 entry records over
15 vocabulary terms, 2 seed lexicons, and a 30-document corpus. It is built
so every arithmetic step stays exact in floats (integer/dyadic sums), which
lets the independent reference implementation reproduce the pipeline's
exports byte for byte.

Expected structure (hand-derived, cross-checked by tests/reference.py):
  stage 1 (seed):        epic +2.0, meh -0.75
  stage 2 (corpus):      lit +1, fire +5/3, dope +1, salty -2/3, sus -2,
                         cringe -5/3
  stage 3 (propagation): yeet +1 (lit), pog +5/3 (fire), based +1 (dope),
                         mid -7/6 (salty, cringe), w -7/6 (mid)
  unreached (excluded):  ghosted, ratio
"""

from __future__ import annotations

import json
import random
from pathlib import Path


def _entry(term, related=(), upvotes=1, downvotes=0):
    return {
        "term": term,
        "meanings": [f"meaning of {term}"],
        "examples": [f"example using {term}"],
        "related_terms": list(related),
        "upvotes": upvotes,
        "downvotes": downvotes,
    }


GOLDEN_ENTRIES = [
    _entry("epic", related=["lit"], upvotes=30),
    _entry("Epic", upvotes=4),
    _entry("meh", upvotes=9),
    _entry("lit", related=["legendary"], upvotes=25),
    _entry("LIT", upvotes=2),
    _entry("fire", upvotes=18),
    _entry("fire", downvotes=3),
    _entry("dope", upvotes=11),
    _entry("salty", upvotes=8),
    _entry("salty", upvotes=1, downvotes=2),
    _entry("sus", upvotes=14),
    _entry("cringe", upvotes=13),
    _entry("yeet", related=["lit"], upvotes=21),
    _entry("YEET", upvotes=3),
    _entry("pog", related=["fire"], upvotes=7),
    _entry("based", related=["dope"], upvotes=6),
    _entry("mid", related=["salty", "cringe"], upvotes=5),
    _entry("w", related=["mid"], upvotes=4),
    _entry("ghosted", upvotes=2),
    _entry("ratio", upvotes=2),
]

# (source id, term -> native value, (factor, offset))
GOLDEN_SEEDS = [
    (
        "core",
        {"great": 2.0, "good": 1.0, "bad": -1.0, "awful": -2.0, "epic": 2.0, "meh": -0.5},
        (1.0, 0.0),
    ),
    (
        "wide",
        {"love": 4.0, "nice": 2.0, "gross": -2.0, "hate": -4.0, "epic": 4.0, "meh": -2.0},
        (0.5, 0.0),
    ),
]

GOLDEN_CORPUS = [
    "the party was lit great vibes",
    "lit night love it",
    "so lit",
    "good lit bad",
    "that mixtape is fire love this",
    "fire so nice good",
    "fire love",
    "dope stuff good",
    "really dope good call",
    "he got salty bad scene",
    "salty and gross",
    "salty about it",
    "that deal is sus awful",
    "sus hate it",
    "cringe content hate",
    "bit cringe bad",
    "pure cringe hate this",
    "weather is great today",
    "nothing to report",
    "love a quiet evening",
    "good morning everyone",
    "the bus was late again",
    "nice walk in the park",
    "awful traffic downtown",
    "hate waiting in line",
    "gross food at the stand",
    "see you tomorrow then",
    "meeting moved to friday",
    "coffee first always",
    "that is all for now",
]


def write_golden_fixture(root: Path) -> Path:
    """Write entry/seed/corpus/config files for the golden fixture; returns
    the config path."""
    root.mkdir(parents=True, exist_ok=True)
    entries_path = root / "entries.jsonl"
    entries_path.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in GOLDEN_ENTRIES),
        encoding="utf-8",
    )
    seed_items = []
    for source_id, values, (factor, offset) in GOLDEN_SEEDS:
        path = root / f"seed_{source_id}.tsv"
        path.write_text(
            "".join(f"{term}\t{value}\n" for term, value in values.items()), encoding="utf-8"
        )
        seed_items.append(
            {"id": source_id, "path": path.name, "scale": {"factor": factor, "offset": offset}}
        )
    corpus_path = root / "corpus.jsonl"
    corpus_path.write_text(
        "".join(
            json.dumps({"id": f"d{i:02d}", "text": text}) + "\n"
            for i, text in enumerate(GOLDEN_CORPUS)
        ),
        encoding="utf-8",
    )
    config_path = root / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "entries": [entries_path.name],
                "seed_lexicons": seed_items,
                "corpus": corpus_path.name,
                "output_dir": "out",
                "max_docs": 150,
                "sample_seed": 7,
                "strict": True,
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    return config_path


def write_synthetic_fixture(
    root: Path,
    rng: random.Random,
    n_terms: int = 200,
    n_docs: int = 500,
) -> Path:
    """Random but reproducible pipeline fixture at acceptance scale."""
    root.mkdir(parents=True, exist_ok=True)
    terms = [f"t{i:03d}" for i in range(n_terms)]
    seed_words = [f"s{i:02d}" for i in range(40)]

    entries = []
    for term in terms:
        related = []
        if rng.random() < 0.6:
            related = rng.sample([t for t in terms if t != term], rng.randint(1, 3))
        entries.append(_entry(term, related=related, upvotes=rng.randint(0, 50)))
    # a few duplicate records to exercise merging
    for term in rng.sample(terms, 10):
        entries.append(_entry(term, upvotes=rng.randint(0, 5)))
    (root / "entries.jsonl").write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries), encoding="utf-8"
    )

    lex_a = {w: round(rng.uniform(-2, 2), 3) for w in seed_words[:25]}
    lex_a.update({t: round(rng.uniform(-2, 2), 3) for t in terms[:5]})
    lex_b = {w: round(rng.uniform(-5, 5), 3) for w in seed_words[15:]}
    lex_b.update({t: round(rng.uniform(-5, 5), 3) for t in terms[3:8]})
    (root / "seed_a.tsv").write_text(
        "".join(f"{t}\t{v}\n" for t, v in lex_a.items()), encoding="utf-8"
    )
    (root / "seed_b.tsv").write_text(
        "".join(f"{t}\t{v}\n" for t, v in lex_b.items()), encoding="utf-8"
    )

    # most terms appear in documents; the rest can only be reached via the
    # related-word graph (or not at all)
    mentionable = terms[: int(n_terms * 0.7)]
    filler = [f"f{i:02d}" for i in range(30)]
    lines = []
    for i in range(n_docs):
        words = [rng.choice(filler) for _ in range(rng.randint(2, 6))]
        words += rng.sample(seed_words, rng.randint(0, 3))
        words += rng.sample(mentionable, rng.randint(0, 4))
        rng.shuffle(words)
        lines.append(json.dumps({"id": f"d{i:04d}", "text": " ".join(words)}))
    (root / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    config_path = root / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "entries": ["entries.jsonl"],
                "seed_lexicons": [
                    {"id": "a", "path": "seed_a.tsv", "scale": {"factor": 1.0, "offset": 0.0}},
                    {"id": "b", "path": "seed_b.tsv", "scale": {"source_range": [-5, 5]}},
                ],
                "corpus": "corpus.jsonl",
                "output_dir": "out",
                "max_docs": 150,
                "sample_seed": 13,
                "strict": True,
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    return config_path


def write_planted_fixture(root: Path, rng: random.Random) -> tuple[Path, dict[str, int]]:
    """A fixture whose slang terms carry a hidden sign that each stage should
    recover; returns the config path and each term's sign (+1 or -1).

    300 terms, half of them positive; 20 positive and 20 negative seed words.
    Each of 1,500 documents holds one of the 150 corpus-reachable terms one or
    two tokens from a seed word of its sign, of the other sign in 20% of them.
    80% of terms list two related terms of the same sign, so propagation can
    reach the 150 terms no document holds. `labeled.jsonl` is an evaluation
    set of 1,000 documents made of slang terms only, one or two of one sign,
    whose gold label is that sign: no seed word is in it.
    """
    root.mkdir(parents=True, exist_ok=True)
    terms = [f"t{i:03d}" for i in range(300)]
    signs = dict(zip(terms, rng.sample([1, -1] * 150, 300)))
    by_sign = {sign: [t for t in terms if signs[t] == sign] for sign in (1, -1)}
    seed_words = {1: [f"p{i:02d}" for i in range(20)], -1: [f"n{i:02d}" for i in range(20)]}
    filler = [f"f{i:02d}" for i in range(30)]

    entries = []
    for term in terms:
        related = []
        if rng.random() < 0.8:
            related = rng.sample([t for t in by_sign[signs[term]] if t != term], 2)
        entries.append(_entry(term, related=related))
    (root / "entries.jsonl").write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries), encoding="utf-8")
    (root / "seed.tsv").write_text("".join(
        f"{word}\t{sign * round(rng.uniform(0.5, 2.0), 3)}\n"
        for sign, words in seed_words.items() for word in words), encoding="utf-8")

    reachable = rng.sample(terms, 150)
    lines = []
    for i in range(1500):
        term = reachable[i % 150]
        sign = signs[term] if rng.random() < 0.8 else -signs[term]
        words = [term, *rng.sample(filler, rng.randint(0, 1)), rng.choice(seed_words[sign])]
        if rng.random() < 0.5:
            words.reverse()
        words = [*rng.sample(filler, rng.randint(0, 3)), *words,
                 *rng.sample(filler, rng.randint(0, 3))]
        lines.append(json.dumps({"id": f"d{i:04d}", "text": " ".join(words)}))
    (root / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    labeled = []
    for i in range(1000):
        sign = rng.choice((1, -1))
        text = " ".join(rng.sample(by_sign[sign], rng.randint(1, 2)))
        label = "positive" if sign > 0 else "negative"
        labeled.append(json.dumps({"id": f"e{i:04d}", "label": label, "text": text}))
    (root / "labeled.jsonl").write_text("\n".join(labeled) + "\n", encoding="utf-8")

    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "entries": ["entries.jsonl"],
        "seed_lexicons": [{"id": "planted", "path": "seed.tsv"}],
        "corpus": "corpus.jsonl",
        "output_dir": "out",
    }), encoding="utf-8")
    return config_path, signs
