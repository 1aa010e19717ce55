from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slangsent.corpus import (
    DEFAULT_MAX_DOCS,
    Document,
    FileCorpusProvider,
    document_strength,
    estimate_all,
    load_corpus,
)
from slangsent.errors import ParseError
from slangsent.lexicon import Lexicon, LexiconEntry, Stage

from .oracles import brute_document_strength, brute_estimate, brute_spans


def seed_lexicon(values):
    return Lexicon(
        LexiconEntry(term, strength, Stage.SEED_LEXICON, ("test",))
        for term, strength in values.items()
    )


def doc(*tokens, id="d"):
    text = " ".join(tokens)
    return Document.from_text(id, text)


class ListProvider:
    """In-memory provider for tests; returns documents in given order."""

    def __init__(self, documents, fail=False):
        self.documents = documents
        self.fail = fail

    def query(self, term, max_docs):
        if self.fail:
            raise OSError("provider down")
        from slangsent.text import find_occurrences

        matching = [d for d in self.documents if find_occurrences(d.tokens, term)]
        return matching[:max_docs]


class TestDocument:
    def test_tokens_derived_from_text(self):
        d = Document.from_text("1", "Great day :)")
        assert d.tokens == ("great", "day", ":)")


# Terms and documents over a few words, some of them seed words.
_WORDS = ["a", "b", "good", "bad"]


class TestDocumentStrength:
    def test_single_nearest(self):
        seed = seed_lexicon({"great": 2.0})
        assert document_strength(doc("great", "x", "lol"), "lol", seed) == 2.0

    def test_equidistant_tie_averages(self):
        seed = seed_lexicon({"good": 1.0, "bad": -1.0})
        assert document_strength(doc("good", "lol", "bad"), "lol", seed) == 0.0

    def test_no_seed_words_is_neutral(self):
        assert document_strength(doc("x", "lol", "y"), "lol", seed_lexicon({"q": 1.0})) == 0.0

    def test_nearest_beats_farther(self):
        seed = seed_lexicon({"good": 1.0, "awful": -2.0})
        # awful at gap 1, good at gap 3
        assert document_strength(doc("good", "x", "y", "lol", "awful"), "lol", seed) == -2.0

    def test_term_tokens_excluded_as_candidates(self):
        seed = seed_lexicon({"lol": 1.5, "bad": -1.0})
        # the only other occurrence of a seed word is "bad"
        assert document_strength(doc("lol", "x", "bad"), "lol", seed) == -1.0

    def test_multiple_occurrences_use_min_gap(self):
        seed = seed_lexicon({"good": 1.0, "bad": -1.0})
        tokens = ["good", "lol", "x", "x", "lol", "bad"]
        # good is gap 1 from first occurrence, bad gap 1 from second: tie
        assert document_strength(doc(*tokens), "lol", seed) == 0.0

    def test_phrase_query(self):
        seed = seed_lexicon({"excellent": 2.0})
        assert document_strength(doc("battery", "shit", "hot", "excellent"), "shit hot", seed) == 2.0

    def test_missing_term_raises(self):
        with pytest.raises(ValueError, match="term 'lol' not in document 'd'"):
            document_strength(doc("a", "b"), "lol", seed_lexicon({"a": 1.0}))

    def test_matches_brute_force_on_random_docs(self):
        rng = random.Random(42)
        words = [f"w{i}" for i in range(12)]
        seed_values = {w: rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]) for w in words[:6]}
        seed = seed_lexicon(seed_values)
        for _ in range(300):
            tokens = [rng.choice(words) for _ in range(rng.randint(1, 15))]
            tokens.insert(rng.randrange(len(tokens) + 1), "lol")
            got = document_strength(doc(*tokens), "lol", seed)
            expected = brute_document_strength(tokens, "lol", seed_values)
            assert got == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(st.sampled_from(_WORDS), max_size=8),
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3),
        st.lists(st.sampled_from(_WORDS), max_size=8),
        st.dictionaries(st.sampled_from(_WORDS), st.sampled_from([-2.0, -1.0, -0.5, 0.5, 2.0])),
    )
    @example(["a"], ["good", "a"], ["good"], {"good": 2.0, "a": -1.0})
    def test_phrases_and_seed_words_in_a_span_match_the_oracle(
        self, before, term_words, after, seed_values
    ):
        tokens = before + term_words + after
        term = " ".join(term_words)
        got = document_strength(doc(*tokens), term, seed_lexicon(seed_values))
        expected = brute_document_strength(tokens, term, seed_values)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_sign_symmetry(self):
        rng = random.Random(9)
        words = [f"w{i}" for i in range(8)]
        for _ in range(200):
            values = {w: rng.uniform(-2, 2) for w in words[:4]}
            tokens = [rng.choice(words) for _ in range(rng.randint(1, 12))] + ["lol"]
            plus = document_strength(doc(*tokens), "lol", seed_lexicon(values))
            minus = document_strength(
                doc(*tokens), "lol", seed_lexicon({w: -v for w, v in values.items()})
            )
            assert minus == -plus

    def test_bounded_by_seed_range(self):
        rng = random.Random(13)
        words = [f"w{i}" for i in range(10)]
        values = {w: rng.uniform(-2, 2) for w in words[:5]}
        lo, hi = min(values.values()), max(values.values())
        seed = seed_lexicon(values)
        for _ in range(200):
            tokens = [rng.choice(words) for _ in range(rng.randint(1, 12))] + ["lol"]
            value = document_strength(doc(*tokens), "lol", seed)
            assert min(lo, 0.0) <= value <= max(hi, 0.0)


def estimate_strength(term, provider, seed, max_docs=DEFAULT_MAX_DOCS):
    """The strength `estimate_all` gives one term, or None when the term is
    unlabelable."""
    delta, _ = estimate_all([term], provider, seed, max_docs)
    return delta[term].strength if term in delta else None


class TestEstimateStrength:
    def test_mean_with_neutral_default(self):
        seed = seed_lexicon({"great": 2.0})
        documents = [doc("great", "lol", id="1"), doc("x", "lol", "y", id="2")]
        assert estimate_strength("lol", ListProvider(documents), seed) == 1.0

    def test_no_documents_is_unlabelable(self):
        assert estimate_strength("lol", ListProvider([]), seed_lexicon({"a": 1.0})) is None

    def test_identical_documents(self):
        seed = seed_lexicon({"bad": -1.0})
        documents = [doc("bad", "lol", id=str(i)) for i in range(150)]
        assert estimate_strength("lol", ListProvider(documents), seed) == -1.0

    def test_single_doc_single_seed_word(self):
        seed = seed_lexicon({"great": 1.75})
        documents = [doc("so", "great", "x", "lol")]
        assert estimate_strength("lol", ListProvider(documents), seed) == 1.75

    def test_order_invariant(self):
        rng = random.Random(5)
        seed = seed_lexicon({"good": 1.0, "bad": -2.0, "meh": -0.5})
        documents = [
            doc(*(rng.choice(["good", "bad", "meh", "x", "y"]) for _ in range(6)), "lol", id=str(i))
            for i in range(30)
        ]
        base = estimate_strength("lol", ListProvider(documents), seed)
        for _ in range(10):
            rng.shuffle(documents)
            assert estimate_strength("lol", ListProvider(documents), seed) == base

    def test_provider_failure_raises(self):
        with pytest.raises(OSError, match="^provider down$"):
            estimate_all(["lol"], ListProvider([], fail=True), seed_lexicon({"a": 1.0}))

    def test_contract_violation_raises(self):
        class BadProvider:
            def query(self, term, max_docs):
                return [doc("no", "match", id="bad")]

        with pytest.raises(ValueError, match="^term 'lol' not in document 'bad'$"):
            estimate_all(["lol"], BadProvider(), seed_lexicon({"a": 1.0}))

    def test_max_docs_validated(self):
        with pytest.raises(ValueError):
            estimate_strength("lol", ListProvider([]), seed_lexicon({"a": 1.0}), max_docs=0)


class TestEstimateAll:
    def test_seed_terms_untouched(self):
        seed = seed_lexicon({"lol": 1.0, "great": 2.0})
        documents = [doc("great", "lol", id="1")]
        delta, report = estimate_all(["lol", "brb"], ListProvider(documents), seed)
        assert "lol" not in delta
        assert report.unlabelable == ["brb"]

    def test_unlabelable_absent_from_delta(self):
        delta, report = estimate_all(["zzz"], ListProvider([]), seed_lexicon({"a": 1.0}))
        assert len(delta) == 0 and report.unlabelable == ["zzz"]

    def test_failure_stops_the_run(self):
        class FlakyProvider:
            def query(self, term, max_docs):
                if term == "bad":
                    raise OSError("boom")
                return [doc("great", term)]

        seed = seed_lexicon({"great": 2.0})
        with pytest.raises(OSError, match="^boom$"):
            estimate_all(["bad", "ok"], FlakyProvider(), seed)

    def test_delta_stage_and_oracle_value(self):
        # term co-occurring only with +2 words must come out at +2
        seed_values = {"great": 2.0, "awesome": 2.0}
        seed = seed_lexicon(seed_values)
        documents = [
            doc("great", "yeet", id="1"),
            doc("awesome", "x", "yeet", id="2"),
            doc("yeet", "great", "stuff", id="3"),
        ]
        delta, _ = estimate_all(["yeet"], ListProvider(documents), seed)
        expected = brute_estimate([list(d.tokens) for d in documents], "yeet", seed_values, 150)
        assert delta["yeet"].stage is Stage.CORPUS_ESTIMATE
        assert delta.strength("yeet") == pytest.approx(expected, abs=1e-12)
        assert delta.strength("yeet") == 2.0


class TestFileCorpusProvider:
    def _write(self, tmp_path, texts):
        path = tmp_path / "corpus.jsonl"
        lines = [json.dumps({"id": str(i), "text": t}) for i, t in enumerate(texts)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_returns_only_matching_documents(self, tmp_path):
        path = self._write(tmp_path, ["lol here", "nothing", "double lol lol"])
        provider = FileCorpusProvider(path)
        assert [d.id for d in provider.query("lol", 150)] == ["0", "2"]

    def test_phrase_match_requires_sequence(self, tmp_path):
        path = self._write(tmp_path, ["shit hot stuff", "hot shit", "shit cold hot"])
        provider = FileCorpusProvider(path)
        assert [d.id for d in provider.query("shit hot", 150)] == ["0"]

    def test_respects_max_docs_deterministically(self, tmp_path):
        path = self._write(tmp_path, [f"lol number {i}" for i in range(20)])
        first = FileCorpusProvider(path, sample_seed=7).query("lol", 5)
        second = FileCorpusProvider(path, sample_seed=7).query("lol", 5)
        assert len(first) == 5
        assert [d.id for d in first] == [d.id for d in second]
        other_seed = FileCorpusProvider(path, sample_seed=8).query("lol", 5)
        assert len(other_seed) == 5

    def test_unknown_term_yields_nothing(self, tmp_path):
        provider = FileCorpusProvider(self._write(tmp_path, ["hello world"]))
        assert provider.query("zzz", 10) == []

    def test_query_equals_a_brute_force_provider(self, tmp_path):
        rng = random.Random(5)
        words = ["a", "b", "c", "d"]
        texts = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))) for _ in range(60)]
        path = self._write(tmp_path, texts)
        token_lists = [text.split() for text in texts]
        providers = {seed: FileCorpusProvider(path, sample_seed=seed) for seed in (0, 7)}
        apart = 0  # documents holding all of a term's words, but not the term
        for width in (1, 2, 3):
            for term_words in itertools.product(words + ["e"], repeat=width):
                term = " ".join(term_words)
                matching = [position for position, tokens in enumerate(token_lists)
                            if brute_spans(tokens, term_words)]
                apart += sum(set(term_words) <= set(tokens) for tokens in token_lists)
                apart -= len(matching)
                for sample_seed, provider in providers.items():
                    for max_docs in (1, 5, 150):
                        expected = matching
                        if len(matching) > max_docs:
                            sampler = random.Random(f"{sample_seed}:{term}")
                            expected = sorted(sampler.sample(matching, max_docs))
                        got = provider.query(term, max_docs)
                        assert [d.id for d in got] == [str(p) for p in expected], (term, max_docs)
        assert apart > 0


# The tab and every character str.splitlines breaks at (none is above U+2029).
ID_BREAKS = ["\t"] + [chr(c) for c in range(0x2100) if len(f"a{chr(c)}b".splitlines()) > 1]


class TestLoadCorpus:
    def _write(self, tmp_path, doc_id):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": "ok", "text": "hi"}) + "\n"
                        + json.dumps({"id": doc_id, "text": "hi"}) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("breaker", ID_BREAKS, ids=[hex(ord(c)) for c in ID_BREAKS])
    def test_id_with_a_tab_or_line_break_is_an_error(self, tmp_path, breaker):
        with pytest.raises(ParseError) as caught:
            load_corpus(self._write(tmp_path, f"a{breaker}b"))
        assert str(caught.value).endswith(
            f"corpus.jsonl: line 2: 'id' has a tab or line break: {f'a{breaker}b'!r}")

    @pytest.mark.parametrize("doc_id", ["a b", "a\x1fb", "a\xa0b", "a\u3000b", ""])
    def test_id_with_other_space_is_read(self, tmp_path, doc_id):
        assert [d.id for d in load_corpus(self._write(tmp_path, doc_id))] == ["ok", doc_id]
