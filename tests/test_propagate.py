from __future__ import annotations

import random

import pytest

from slangsent.ingest import SlangEntry, build_vocabulary
from slangsent.lexicon import Lexicon, LexiconEntry, Stage
from slangsent.propagate import SynonymGraph, build_graph, propagate, stage_report

from .oracles import brute_propagate


def seeds(values):
    return Lexicon(
        LexiconEntry(term, strength, Stage.SEED_LEXICON, ("test",))
        for term, strength in values.items()
    )


def vocab_entry(term, related=()):
    return SlangEntry(term, ("m",), ("e",), related_terms=tuple(related))


class TestSynonymGraph:
    # build_graph is the one constructor of a graph from outside data, so it
    # is where self-loops and unknown endpoints are dropped. The vocabulary is
    # built by hand: build_vocabulary already removes self-references.
    def test_rejects_self_loop(self):
        graph = build_graph({"a": ("a",)})
        assert len(graph) == 1 and graph.edge_count() == 0
        assert graph["a"] == ()

    def test_rejects_unknown_endpoint(self):
        graph = build_graph({"a": ("b",)})
        assert len(graph) == 1 and graph.edge_count() == 0
        assert "b" not in graph and graph["a"] == ()

    def test_edges_undirected_and_deduplicated(self):
        graph = SynonymGraph(["a", "b"], [("a", "b"), ("b", "a")])
        assert graph.edge_count() == 1
        assert graph["a"] == ("b",)
        assert graph["b"] == ("a",)


class TestBuildGraph:
    def test_one_sided_listing_symmetrized(self):
        vocab = build_vocabulary([vocab_entry("a", ["b"]), vocab_entry("b")])
        graph = build_graph(vocab)
        assert graph.edge_count() == 1
        assert graph["a"] == ("b",) and graph["b"] == ("a",)

    def test_unknown_related_term_ignored(self):
        vocab = build_vocabulary([vocab_entry("a", ["zzz"])])
        graph = build_graph(vocab)
        assert len(graph) == 1 and graph.edge_count() == 0

    def test_self_reference_already_removed_at_ingestion(self):
        vocab = build_vocabulary([vocab_entry("a", ["a", "A"])])
        assert build_graph(vocab).edge_count() == 0


class TestPropagate:
    def test_conflicting_neighbors_average(self):
        graph = SynonymGraph(["p", "n", "u"], [("p", "u"), ("n", "u")])
        result = propagate(graph, seeds({"p": 1.0, "n": -1.0}))
        assert result.labeled["u"].strength == 0.0
        assert result.labeled["u"].stage is Stage.PROPAGATION

    def test_chain_layering_and_iteration_count(self):
        graph = SynonymGraph(["s", "a", "b"], [("s", "a"), ("a", "b")])
        result = propagate(graph, seeds({"s": 2.0}))
        assert result.labeled["a"].strength == 2.0
        assert result.labeled["b"].strength == 2.0
        assert result.iterations == 3  # third round assigns nothing
        assert result.unreached == frozenset()

    def test_isolated_node_unreached(self):
        graph = SynonymGraph(["s", "x"], [])
        result = propagate(graph, seeds({"s": 1.0}))
        assert result.unreached == frozenset({"x"})
        assert len(result.labeled) == 0

    def test_seed_not_in_graph_ignored(self):
        graph = SynonymGraph(["a", "b"], [("a", "b")])
        result = propagate(graph, seeds({"a": 1.0, "ghost": -2.0}))
        assert sorted(result.labeled) == ["b"]
        assert result.labeled["b"].strength == 1.0

    def test_all_nodes_seeded_zero_iterations(self):
        graph = SynonymGraph(["a", "b"], [("a", "b")])
        result = propagate(graph, seeds({"a": 1.0, "b": -1.0}))
        assert result.iterations == 0 and len(result.labeled) == 0

    def test_empty_graph(self):
        result = propagate(SynonymGraph(), seeds({"a": 1.0}))
        assert result.iterations == 0
        assert len(result.labeled) == 0 and result.unreached == frozenset()

    def test_labels_frozen_and_rounds_synchronous(self):
        # Path p(+2) - u - v - q(-2). In round 1, u reads only p and v reads
        # only q (synchronous snapshot); their labels then never move even
        # though u and v are adjacent with conflicting values.
        graph = SynonymGraph(["p", "u", "v", "q"], [("p", "u"), ("u", "v"), ("v", "q")])
        result = propagate(graph, seeds({"p": 2.0, "q": -2.0}))
        assert result.labeled["u"].strength == 2.0
        assert result.labeled["v"].strength == -2.0
        assert result.iterations == 2

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 12)
            nodes = [f"n{i}" for i in range(n)]
            edges = [
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            seed_values = {
                node: rng.uniform(-2, 2) for node in nodes if rng.random() < 0.4
            }
            result = propagate(SynonymGraph(nodes, edges), seeds(seed_values))
            expected, expected_iters, expected_unreached = brute_propagate(
                nodes, edges, seed_values
            )
            assert result.iterations == expected_iters
            assert result.unreached == frozenset(expected_unreached)
            assert set(result.labeled) == set(expected)
            for term, value in expected.items():
                assert result.labeled[term].strength == pytest.approx(value, abs=1e-12)


class TestStageReport:
    def test_fixture_counts(self):
        lex = Lexicon(
            [
                LexiconEntry("a", 2.0, Stage.SEED_LEXICON, ("s",)),
                LexiconEntry("b", -1.0, Stage.SEED_LEXICON, ("s",)),
                LexiconEntry("c", 0.5, Stage.SEED_LEXICON, ("s",)),
                LexiconEntry("d", 0.2, Stage.CORPUS_ESTIMATE),
                LexiconEntry("e", -0.2, Stage.CORPUS_ESTIMATE),
                LexiconEntry("f", 1.4, Stage.PROPAGATION),
                LexiconEntry("g", 1.6, Stage.PROPAGATION),
                LexiconEntry("h", -2.0, Stage.PROPAGATION),
                LexiconEntry("i", 0.0, Stage.PROPAGATION),
                LexiconEntry("j", -0.7, Stage.PROPAGATION),
            ]
        )
        report = stage_report(lex)
        assert report.total == 10
        assert report.by_stage[Stage.SEED_LEXICON] == 3
        assert report.by_stage[Stage.CORPUS_ESTIMATE] == 2
        assert report.by_stage[Stage.PROPAGATION] == 5
        assert report.by_stage[Stage.IMPORTED] == 0
        assert report.by_class == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 2}

    def test_empty_lexicon(self):
        report = stage_report(Lexicon())
        assert report.total == 0
        assert all(v == 0 for v in report.by_stage.values())
        assert all(v == 0 for v in report.by_class.values())
        text = report.format_text()
        assert "total entries: 0" in text

    def test_text_and_dict_render(self):
        lex = Lexicon([LexiconEntry("a", 2.0, Stage.SEED_LEXICON, ("s",))])
        report = stage_report(lex)
        assert "seed_lexicon" in report.format_text()
        payload = report.to_dict()
        assert payload["total"] == 1
        assert payload["stages"]["seed_lexicon"] == 1
        assert payload["classes"]["2"] == 1
