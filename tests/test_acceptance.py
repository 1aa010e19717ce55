"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from slangsent.corpus import FileCorpusProvider, estimate_all
from slangsent.distant import EmoticonSet, build_eval_corpus, default_emoticons, load_labeled_corpus
from slangsent.lexicon import (
    Lexicon,
    LexiconEntry,
    LinearScale,
    Polarity,
    SeedSource,
    Stage,
    combine,
    export_idiom_table,
    export_slangsd,
    load_lexicon,
    load_slangsd,
    merge_seed_lexicons,
)
from slangsent.pipeline import load_config, run_pipeline
from slangsent.propagate import SynonymGraph, propagate
from slangsent.scoring import evaluate, score_text
from slangsent.text import tokenize

from .fixtures import (
    GOLDEN_CORPUS,
    GOLDEN_ENTRIES,
    GOLDEN_SEEDS,
    write_golden_fixture,
    write_planted_fixture,
    write_synthetic_fixture,
)
from .oracles import brute_document_strength, brute_estimate, brute_metrics, brute_propagate
from .reference import reference_slangsd

GOLDEN_FILE = Path(__file__).parent / "data" / "golden_slangsd.txt"


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number} {name}: PASS")
            return result

        return wrapper

    return decorate


def _clamp(value):
    """`value` put on the [-2, 2] strength scale."""
    return min(2.0, max(-2.0, value))


def _entries_for(nodes, values):
    return {n: LexiconEntry(n, values[n], Stage.IMPORTED) for n in nodes}


def _check_against_oracle(nodes, edges, seed_values, entries, graph=None):
    graph = graph or SynonymGraph(nodes, edges)
    result = propagate(graph, Lexicon(entries[n] for n in seed_values))
    expected, expected_iterations, expected_unreached = brute_propagate(
        nodes, edges, seed_values
    )
    assert result.iterations == expected_iterations
    assert result.unreached == frozenset(expected_unreached)
    got = {t: result.labeled[t].strength for t in result.labeled}
    assert got.keys() == expected.keys()
    for term, value in expected.items():
        assert abs(got[term] - value) <= 1e-12, (term, got[term], value)


def _connected(n, edges):
    if n == 0:
        return True
    adjacency = {i: set() for i in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == n


@criterion(1, "stage-additivity on synthetic fixture")
def test_stage_additivity(tmp_path):
    config = load_config(write_synthetic_fixture(tmp_path, random.Random(4242)))
    started = time.monotonic()
    result = run_pipeline(config)
    elapsed = time.monotonic() - started

    stage_terms = {stage: set() for stage in Stage}
    for entry in result.final.entries():
        stage_terms[entry.stage].add(entry.term)
    labeled_stages = (Stage.SEED_LEXICON, Stage.CORPUS_ESTIMATE, Stage.PROPAGATION)
    for a, b in itertools.combinations(labeled_stages, 2):
        assert not stage_terms[a] & stage_terms[b]
    for stage in labeled_stages:
        assert stage_terms[stage], f"{stage} produced nothing"
    assert sum(len(stage_terms[s]) for s in Stage) == len(result.final)
    assert result.report.total == len(result.final)
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"


@criterion(2, "propagation equals brute-force oracle on small graphs")
def test_propagation_oracle_equivalence():
    started = time.monotonic()

    # (a) every labeled connected graph on 1..5 nodes x every seed subset
    for n in range(1, 6):
        nodes = [f"n{i}" for i in range(n)]
        values = {node: ((i * 37) % 9 - 4) / 2 for i, node in enumerate(nodes)}
        entries = _entries_for(nodes, values)
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            index_edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            if not _connected(n, index_edges):
                continue
            edges = [(nodes[a], nodes[b]) for a, b in index_edges]
            graph = SynonymGraph(nodes, edges)
            for r in range(n + 1):
                for subset in itertools.combinations(nodes, r):
                    seed_values = {node: values[node] for node in subset}
                    _check_against_oracle(nodes, edges, seed_values, entries, graph)

    # (b) every connected graph on 6..7 nodes up to isomorphism (atlas) x
    # every seed subset; propagation is label-symmetric, so representatives
    # cover the labeled space
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if n < 6 or not nx.is_connected(g):
            continue
        nodes = [f"n{i}" for i in range(n)]
        values = {node: ((i * 53) % 11 - 5) / 4 for i, node in enumerate(nodes)}
        entries = _entries_for(nodes, values)
        edges = [(nodes[a], nodes[b]) for a, b in g.edges()]
        graph = SynonymGraph(nodes, edges)
        for r in range(n + 1):
            for subset in itertools.combinations(nodes, r):
                seed_values = {node: values[node] for node in subset}
                _check_against_oracle(nodes, edges, seed_values, entries, graph)

    # (c) 8-node coverage: exhaustive enumeration is combinatorially out of
    # reach, so draw seeded-random connected graphs with all 256 seed subsets
    rng = random.Random(808)
    nodes = [f"n{i}" for i in range(8)]
    for _ in range(1200):
        while True:
            edges = [
                (nodes[a], nodes[b])
                for a, b in itertools.combinations(range(8), 2)
                if rng.random() < 0.3
            ]
            index_edges = [(int(a[1:]), int(b[1:])) for a, b in edges]
            if _connected(8, index_edges):
                break
        values = {node: rng.uniform(-2, 2) for node in nodes}
        entries = _entries_for(nodes, values)
        graph = SynonymGraph(nodes, edges)
        for r in range(9):
            for subset in itertools.combinations(nodes, r):
                seed_values = {node: values[node] for node in subset}
                _check_against_oracle(nodes, edges, seed_values, entries, graph)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"


@criterion(3, "propagation properties on randomized graphs")
def test_propagation_properties():
    rng = random.Random(31337)
    for _ in range(1000):
        n = rng.randint(1, 200)
        nodes = [f"n{i}" for i in range(n)]
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if a != b:
                edges.add((nodes[min(a, b)], nodes[max(a, b)]))
        edges = sorted(edges)
        seed_count = rng.randint(0, n)
        seed_values = {node: rng.uniform(-2, 2) for node in rng.sample(nodes, seed_count)}

        def lex(values):
            return Lexicon(LexiconEntry(t, v, Stage.IMPORTED) for t, v in values.items())

        base = propagate(SynonymGraph(nodes, edges), lex(seed_values))

        # determinism under node/edge order permutation (exact)
        shuffled_nodes = nodes[:]
        rng.shuffle(shuffled_nodes)
        shuffled_edges = [
            (b, a) if rng.random() < 0.5 else (a, b) for a, b in edges
        ]
        rng.shuffle(shuffled_edges)
        permuted = propagate(SynonymGraph(shuffled_nodes, shuffled_edges), lex(seed_values))
        assert permuted.labeled == base.labeled
        assert permuted.iterations == base.iterations
        assert permuted.unreached == base.unreached

        # sign symmetry (exact)
        negated = propagate(
            SynonymGraph(nodes, edges), lex({t: -v for t, v in seed_values.items()})
        )
        assert set(negated.labeled) == set(base.labeled)
        for term in base.labeled:
            assert negated.labeled[term].strength == -base.labeled[term].strength

        # boundedness within seed [min, max]
        if seed_values:
            lo, hi = min(seed_values.values()), max(seed_values.values())
            for term in base.labeled:
                assert lo <= base.labeled[term].strength <= hi

        # termination within node-count rounds
        assert base.iterations <= n


@criterion(4, "corpus estimator equals brute-force oracle")
def test_corpus_estimator_oracle(tmp_path):
    rng = random.Random(505)
    seed_words = [f"s{i}" for i in range(10)]
    seed_values = {w: rng.choice([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]) for w in seed_words}
    filler = [f"f{i}" for i in range(20)]

    texts = []
    for i in range(50):
        if i < 14:  # neutral-default documents: the term, no seed words
            words = [rng.choice(filler) for _ in range(rng.randint(2, 8))]
        else:
            words = [rng.choice(filler + seed_words) for _ in range(rng.randint(2, 10))]
        words.insert(rng.randrange(len(words) + 1), "q")
        if rng.random() < 0.2:  # some documents mention the term twice
            words.append("q")
        texts.append(" ".join(words))

    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(
        "".join(json.dumps({"id": str(i), "text": t}) + "\n" for i, t in enumerate(texts)),
        encoding="utf-8",
    )
    provider = FileCorpusProvider(corpus_path, sample_seed=1)
    seed = Lexicon(
        LexiconEntry(w, v, Stage.SEED_LEXICON, ("oracle",)) for w, v in seed_values.items()
    )

    token_lists = [t.split() for t in texts]
    neutral_hits = sum(
        1
        for tokens in token_lists
        if brute_document_strength(tokens, "q", seed_values) == 0.0
        and not any(w in seed_values for w in tokens)
    )
    assert neutral_hits >= 10

    got = estimate_all(["q"], provider, seed, max_docs=150)[0]["q"].strength
    expected = brute_estimate(token_lists, "q", seed_values, 150)
    assert got is not None and expected is not None
    assert abs(got - expected) <= 1e-12

    # per-document agreement as well
    for tokens in token_lists:
        from slangsent.corpus import Document, document_strength

        doc = Document.from_text("x", " ".join(tokens))
        assert (
            abs(document_strength(doc, "q", seed) - brute_document_strength(tokens, "q", seed_values))
            <= 1e-12
        )


@criterion(5, "seed merge takes the exact mean of scale-mapped values")
def test_merge_rule_exact():
    # three lexicons with dyadic scale maps so every mean is float-exact
    scale_half = LinearScale.from_ranges((-4.0, 4.0))  # factor 0.5
    scale_shift = LinearScale.from_ranges((0.0, 4.0))  # value - 2
    natives = {
        "alpha": {"a": (1.0, None, 3.25), "b": (0.5, -3.0, None), "c": (-1.25, 2.0, 0.5)},
    }["alpha"]
    lex_one = {t: v[0] for t, v in natives.items() if v[0] is not None}
    lex_two = {t: v[1] for t, v in natives.items() if v[1] is not None}
    lex_three = {t: v[2] for t, v in natives.items() if v[2] is not None}
    merged = merge_seed_lexicons(
        [
            SeedSource("one", lex_one),
            SeedSource("two", lex_two, scale_half),
            SeedSource("three", lex_three, scale_shift),
        ]
    )
    scales = {"one": lambda v: v, "two": scale_half.apply, "three": scale_shift.apply}
    for term, (v1, v2, v3) in natives.items():
        mapped = [
            scales[src](v)
            for src, v in (("one", v1), ("two", v2), ("three", v3))
            if v is not None
        ]
        exact = Fraction(0)
        for value in mapped:
            exact += Fraction(value)
        exact /= len(mapped)
        assert merged[term].strength == float(exact), term
        assert len(merged[term].sources) == len(mapped)
    # every fixture term has conflicting values across lexicons
    for term in natives:
        mapped = {scales[s](v) for s, v in zip(("one", "two", "three"), natives[term]) if v is not None}
        assert len(mapped) > 1


@criterion(6, "formats round-trip")
def test_format_round_trips(tmp_path):
    rng = random.Random(606)
    terms = [f"term{i}" for i in range(80)] + [f"two word{i}" for i in range(20)]
    lexicon = Lexicon(
        LexiconEntry(t, rng.uniform(-2, 2), Stage.IMPORTED) for t in terms
    )
    once = export_slangsd(lexicon)
    (tmp_path / "slangsd.txt").write_text(once, encoding="utf-8")
    assert export_slangsd(load_slangsd(tmp_path / "slangsd.txt")) == once

    idiom = export_idiom_table(lexicon)
    for line in idiom.splitlines():
        term, value = line.split("\t")
        assert int(value) in {-4, -2, 2, 4}
    exported_terms = {line.split("\t")[0] for line in idiom.splitlines()}
    from slangsent.lexicon import classify

    for entry in lexicon.entries():
        assert (classify(entry.strength) == 0) == (entry.term not in exported_terms)


@criterion(7, "scorer and one-vs-all metrics match hand computation")
def test_scorer_and_metrics(tmp_path):
    from slangsent.corpus import Document
    from slangsent.distant import LabeledDocument

    values = {"lit": 1.0, "fire": 0.5, "meh": -1.0, "sus": -0.5, "shit hot": 2.0, "shit": -2.0}
    lexicon = Lexicon(LexiconEntry(t, v, Stage.IMPORTED) for t, v in values.items())
    docs = [
        ("1", "that was lit", Polarity.POSITIVE),            # +1   -> positive
        ("2", "fire stuff", Polarity.POSITIVE),              # +0.5 -> positive
        ("3", "lit but meh", Polarity.POSITIVE),             # 0    -> neutral
        ("4", "so meh", Polarity.NEGATIVE),                  # -1   -> negative
        ("5", "sus vibes", Polarity.NEGATIVE),               # -0.5 -> negative
        ("6", "lit party honestly", Polarity.NEGATIVE),      # +1   -> positive
        ("7", "nothing here", Polarity.NEUTRAL),             # 0    -> neutral
        ("8", "fire tho", Polarity.NEUTRAL),                 # +0.5 -> positive
        ("9", "battery life's shit hot", Polarity.POSITIVE), # +2   -> positive
        ("10", "total shit", Polarity.NEGATIVE),             # -2   -> negative
    ]
    corpus = [LabeledDocument(Document.from_text(i, t), g) for i, t, g in docs]
    report = evaluate(corpus, lexicon)

    predicted = ["positive", "positive", "neutral", "negative", "negative",
                 "positive", "neutral", "positive", "positive", "negative"]
    pairs = [(g.value, p) for (_, _, g), p in zip(docs, predicted)]
    expected = brute_metrics(pairs)
    assert abs(report.accuracy - float(expected["accuracy"])) <= 1e-12
    assert report.accuracy == 0.7
    for polarity, name in ((Polarity.POSITIVE, "positive"), (Polarity.NEGATIVE, "negative")):
        precision, recall, f_score = expected["classes"][name]
        metrics = report.per_class[polarity]
        assert abs(metrics.precision - float(precision)) <= 1e-12
        assert abs(metrics.recall - float(recall)) <= 1e-12
        assert abs(metrics.f_score - float(f_score)) <= 1e-12
    assert report.per_class[Polarity.POSITIVE] == (0.6, 0.75, pytest.approx(2 / 3, abs=1e-12))
    assert report.per_class[Polarity.NEGATIVE] == (1.0, 0.75, pytest.approx(6 / 7, abs=1e-12))

    # polarity invariant under uniform positive scaling
    for factor in (0.5, 3.0, 10.0):
        scaled = Lexicon(
            LexiconEntry(t, _clamp(factor * v), Stage.IMPORTED)
            for t, v in values.items()
        )
        for _, text, _ in docs:
            assert score_text(text, scaled).polarity is score_text(text, lexicon).polarity
        assert evaluate(corpus, scaled) == report

    # longest match recovers the positive reading of the opening example
    breakdown = score_text("battery life's shit hot", lexicon)
    assert breakdown.polarity is Polarity.POSITIVE
    assert [m.term for m in breakdown.matches] == ["shit hot"]


@criterion(8, "end-to-end determinism and golden equivalence")
def test_end_to_end_golden(tmp_path):
    exports = []
    for run in range(3):
        config = load_config(write_golden_fixture(tmp_path / f"run{run}"))
        result = run_pipeline(config)
        exports.append(
            (
                result.paths["slangsd"].read_bytes(),
                result.paths["idiom_table"].read_bytes(),
                result.paths["final"].read_bytes(),
            )
        )
    assert exports[0] == exports[1] == exports[2]

    reference_text, _ = reference_slangsd(GOLDEN_ENTRIES, GOLDEN_SEEDS, GOLDEN_CORPUS)
    produced = exports[0][0].decode("utf-8")
    assert produced == reference_text
    assert produced == GOLDEN_FILE.read_text(encoding="utf-8")


@criterion(9, "distant labeler discards, strips, and swaps exactly")
def test_distant_labeler(tmp_path):
    emoticons = default_emoticons()
    positives = sorted(emoticons.positive)
    negatives = sorted(emoticons.negative)
    rng = random.Random(909)
    filler = ["such", "a", "day", "today", "really", "what", "ride", "huh"]

    documents = []
    from slangsent.corpus import Document

    expected = {}
    for i in range(100):
        words = rng.sample(filler, rng.randint(2, 5))
        kind = i % 4
        if kind == 0:
            for _ in range(rng.randint(1, 2)):
                words.insert(rng.randrange(len(words) + 1), rng.choice(positives))
            expected[f"t{i}"] = Polarity.POSITIVE
        elif kind == 1:
            for _ in range(rng.randint(1, 2)):
                words.insert(rng.randrange(len(words) + 1), rng.choice(negatives))
            expected[f"t{i}"] = Polarity.NEGATIVE
        elif kind == 2:
            words.insert(rng.randrange(len(words) + 1), rng.choice(positives))
            words.insert(rng.randrange(len(words) + 1), rng.choice(negatives))
        else:
            if rng.random() < 0.3:
                words.append(";]")  # emoticon-shaped but in neither set
        documents.append(Document.from_text(f"t{i}", " ".join(words)))

    labeled, report = build_eval_corpus(documents, emoticons)
    assert report.labeled + report.discarded_conflict + report.discarded_unmarked == 100
    assert report.labeled == 50 and len(labeled) == 50
    assert report.discarded_conflict == 25
    assert report.discarded_unmarked == 25
    got = {item.document.id: item.gold for item in labeled}
    assert got == expected
    for item in labeled:
        assert not set(item.document.tokens) & (emoticons.positive | emoticons.negative)

    swapped_labeled, swapped_report = build_eval_corpus(
        documents, EmoticonSet(positive=emoticons.negative, negative=emoticons.positive)
    )
    assert swapped_report.discarded_conflict == report.discarded_conflict
    assert swapped_report.discarded_unmarked == report.discarded_unmarked
    flipped = {Polarity.POSITIVE: Polarity.NEGATIVE, Polarity.NEGATIVE: Polarity.POSITIVE}
    assert {i.document.id: i.gold for i in swapped_labeled} == {
        doc_id: flipped[gold] for doc_id, gold in got.items()
    }
    for original, mirrored in zip(labeled, swapped_labeled):
        assert original.document == mirrored.document


@criterion(10, "each stage recovers planted polarity, and each adds accuracy (the ablation)")
def test_planted_polarity_ablation(tmp_path):
    # Floors are set from the worst of rng seeds 0-7 on this fixture, less a
    # stated margin: corpus 139 of 150 agreeing (margin 4), propagation 141
    # terms labeled (margin 11) and 97.2% agreeing (margin 2.2 points),
    # accuracy 0.596 with seed and corpus (margin 0.046) and 0.961 with
    # propagation added (margin 0.031).
    for rng_seed in range(3):
        config, signs = write_planted_fixture(tmp_path / str(rng_seed), random.Random(rng_seed))
        result = run_pipeline(load_config(config))
        seed, estimates, propagated = (
            load_lexicon(result.paths[name]) for name in ("seed", "estimates", "propagated"))

        def agreeing(lexicon):
            return sum(entry.strength * signs[term] > 0 for term, entry in lexicon.items())

        assert len(seed) == 40 and all(
            (entry.strength > 0) == term.startswith("p") for term, entry in seed.items())
        assert len(estimates) == 150 and agreeing(estimates) >= 135
        assert len(propagated) >= 130 and agreeing(propagated) >= 0.95 * len(propagated)

        gold = load_labeled_corpus(config.with_name("labeled.jsonl"))
        seed_only, with_corpus, full = (evaluate(gold, lexicon).accuracy for lexicon in (
            seed, combine(seed, estimates), result.final))
        assert seed_only < with_corpus < full
        assert with_corpus >= 0.55 and full >= 0.93
