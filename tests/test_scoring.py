from __future__ import annotations

import copy
import gc
import random
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import slangsent.scoring
from slangsent.corpus import Document
from slangsent.distant import LabeledDocument
from slangsent.errors import DataError
from slangsent.lexicon import Lexicon, LexiconEntry, Polarity, Stage
from slangsent.scoring import (
    EvalSubset,
    PhraseMatcher,
    evaluate,
    score_text,
    score_tokens,
)

from .oracles import brute_longest_match, brute_metrics


def lexicon(values):
    return Lexicon(LexiconEntry(t, s, Stage.IMPORTED) for t, s in values.items())


def _clamp(value):
    """`value` put on the [-2, 2] strength scale."""
    return min(2.0, max(-2.0, value))


def labeled(text, gold, id="d"):
    return LabeledDocument(Document.from_text(id, text), gold)


SHIT_LEX = lexicon({"shit hot": 2.0, "shit": -2.0})


class TestMatchTerms:
    def test_longest_match_wins(self):
        tokens = ["battery", "life's", "shit", "hot"]
        matches = PhraseMatcher(SHIT_LEX).match(tokens)
        assert [(m.term, m.span, m.strength) for m in matches] == [("shit hot", (2, 3), 2.0)]

    def test_prefix_word_still_matches_alone(self):
        matches = PhraseMatcher(SHIT_LEX).match(["shit"])
        assert [(m.term, m.span) for m in matches] == [("shit", (0, 0))]

    def test_no_match(self):
        assert PhraseMatcher(SHIT_LEX).match(["nothing", "here"]) == []

    def test_cursor_jumps_past_match(self):
        lex = lexicon({"a b": 1.0, "b": -2.0})
        matches = PhraseMatcher(lex).match(["a", "b", "b"])
        assert [(m.term, m.span) for m in matches] == [("a b", (0, 1)), ("b", (2, 2))]

    def test_spans_disjoint_and_sorted(self):
        rng = random.Random(17)
        lex = lexicon({"a": 1.0, "b c": -1.0, "c d e": 2.0, "e": 0.5})
        matcher = PhraseMatcher(lex)
        for _ in range(100):
            tokens = [rng.choice("abcdef") for _ in range(rng.randint(0, 15))]
            matches = matcher.match(tokens)
            previous_end = -1
            for m in matches:
                assert m.span[0] > previous_end
                assert m.span[1] >= m.span[0]
                previous_end = m.span[1]

    def test_longer_phrase_beats_shorter_at_same_start(self):
        lex = lexicon({"out": -1.0, "out of the park": 2.0})
        matches = PhraseMatcher(lex).match(["knocked", "it", "out", "of", "the", "park"])
        assert [(m.term, m.span) for m in matches] == [("out of the park", (2, 5))]


# Few distinct words, so drawn terms share first words; "a b c" is often
# drawn without its prefix "a b".
WORDS = st.sampled_from(["a", "b", "c", "shit", "hot"])
TERMS = st.lists(WORDS, min_size=1, max_size=4).map(" ".join)


@st.composite
def lexicon_and_tokens(draw):
    """Term values, and tokens made of single words and whole terms, so that
    long terms occur in the text and not only by chance."""
    values = draw(st.dictionaries(TERMS, st.sampled_from([-2.0, -0.5, 1.0, 2.0]), max_size=8))
    pieces = WORDS.map(lambda word: [word])
    if values:
        pieces |= st.sampled_from(sorted(values)).map(lambda term: term.split(" "))
    return values, [token for piece in draw(st.lists(pieces, max_size=6)) for token in piece]


@given(lexicon_and_tokens())
@example(({"shit hot": 2.0, "shit": -2.0}, ["shit"]))
@example(({"a b c": 1.0, "a": -1.0}, ["a", "b", "a", "b", "c"]))
@example(({"a b c": 1.0, "a b": -1.0}, ["a", "b", "c"]))
@example(({"a b c d": 1.0, "b": -1.0}, ["a", "b", "c"]))
def test_matcher_equals_brute_longest_match(case):
    values, tokens = case
    matches = PhraseMatcher(lexicon(values)).match(tokens)
    assert [(m.term, m.span, m.strength) for m in matches] == brute_longest_match(tokens, values)


class TestCompileOnce:
    @pytest.fixture()
    def builds(self, monkeypatch):
        built = []

        def counting(lexicon):
            built.append(lexicon)
            return PhraseMatcher(lexicon)

        monkeypatch.setattr(slangsent.scoring, "PhraseMatcher", counting)
        return built

    def test_one_build_per_lexicon(self, builds):
        lex = lexicon({"shit hot": 2.0, "shit": -2.0})
        for _ in range(50):
            score_text("battery life's shit hot", lex)
        assert len(builds) == 1
        other = lexicon({"shit hot": 2.0, "shit": -2.0})
        assert score_text("shit", other).total == -2.0
        assert len(builds) == 2

    def test_each_lexicon_keeps_its_own_matcher(self, builds):
        first, second = lexicon({"lit": 1.0}), lexicon({"lit": 1.0})
        assert first == second and first is not second
        for _ in range(50):
            assert score_text("so lit", first).total == 1.0
            assert score_text("so lit", second).total == 1.0
        assert len(builds) == 2 and builds[0] is first and builds[1] is second

    def test_a_copy_builds_its_own_matcher(self, builds):
        lex = lexicon({"lit": 1.0})
        score_text("lit", lex)
        duplicate = copy.copy(lex)
        assert score_text("lit", duplicate).total == 1.0
        assert len(builds) == 2 and builds[1] is duplicate

    def test_evaluate_and_score_tokens_reuse_the_matcher(self, builds):
        lex = lexicon({"lit": 1.0})
        score_tokens(["so", "lit"], lex)
        evaluate([labeled("lit", Polarity.POSITIVE)], lex)
        assert len(builds) == 1

    def test_dropped_lexicon_is_freed(self):
        lex = lexicon({"lit": 1.0})
        score_text("lit", lex)
        ref = weakref.ref(lex)
        del lex
        gc.collect()
        assert ref() is None


class TestScoreText:
    def test_single_match(self):
        breakdown = score_text("battery life's shit hot", SHIT_LEX)
        assert breakdown.total == 2.0
        assert breakdown.polarity is Polarity.POSITIVE

    def test_mixed_matches_sum(self):
        lex = lexicon({"good": 1.0, "awful": -2.0})
        breakdown = score_text("good but awful", lex)
        assert breakdown.total == -1.0
        assert breakdown.polarity is Polarity.NEGATIVE

    def test_empty_text_neutral(self):
        breakdown = score_text("", SHIT_LEX)
        assert breakdown.total == 0.0
        assert breakdown.polarity is Polarity.NEUTRAL
        assert breakdown.matches == ()

    @pytest.mark.parametrize("tokens, total, polarity", [
        (["so", "lit"], 0.125, Polarity.POSITIVE),
        (["meh", "meh"], -3.0, Polarity.NEGATIVE),
        (["fam", "meh"], 0.0, Polarity.NEUTRAL),  # matches that sum to exactly zero
        (["nothing", "here"], 0.0, Polarity.NEUTRAL),
    ], ids=["positive", "negative", "zero-sum", "no-match"])
    def test_polarity_is_the_sign_of_the_total(self, tokens, total, polarity):
        breakdown = score_tokens(tokens, lexicon({"lit": 0.125, "meh": -1.5, "fam": 1.5}))
        assert breakdown.total == total and breakdown.polarity is polarity

    def test_format_text(self):
        text = score_text("shit hot", SHIT_LEX).format_text()
        assert "shit hot" in text and "positive" in text


class TestContainsSlang:
    def test_true_on_phrase(self):
        doc = Document.from_text("1", "that was shit hot")
        assert PhraseMatcher(SHIT_LEX).match(doc.tokens)

    def test_false_without_match(self):
        assert not PhraseMatcher(SHIT_LEX).match(Document.from_text("1", "nothing here").tokens)


class TestEvaluate:
    def _fixture(self):
        lex = lexicon({"lit": 1.0, "meh": -1.0, "ok": 0.5})
        corpus = [
            labeled("that was lit", Polarity.POSITIVE, "1"),       # pred positive (TP+)
            labeled("lit lit lit", Polarity.POSITIVE, "2"),        # pred positive (TP+)
            labeled("pretty meh tbh", Polarity.NEGATIVE, "3"),     # pred negative (TN+/TP-)
            labeled("meh but lit", Polarity.POSITIVE, "4"),        # 0 -> neutral (FN+)
            labeled("no slang here", Polarity.NEUTRAL, "5"),       # neutral (correct)
            labeled("ok stuff", Polarity.NEGATIVE, "6"),           # positive (FP+, FN-)
        ]
        return lex, corpus

    def test_against_rational_oracle(self):
        lex, corpus = self._fixture()
        report = evaluate(corpus, lex)
        pairs = [
            ("positive", "positive"),
            ("positive", "positive"),
            ("negative", "negative"),
            ("positive", "neutral"),
            ("neutral", "neutral"),
            ("negative", "positive"),
        ]
        expected = brute_metrics(pairs)
        assert report.accuracy == pytest.approx(float(expected["accuracy"]), abs=1e-12)
        for polarity, name in ((Polarity.POSITIVE, "positive"), (Polarity.NEGATIVE, "negative")):
            precision, recall, f_score = expected["classes"][name]
            metrics = report.per_class[polarity]
            assert metrics.precision == pytest.approx(float(precision), abs=1e-12)
            assert metrics.recall == pytest.approx(float(recall), abs=1e-12)
            assert metrics.f_score == pytest.approx(float(f_score), abs=1e-12)

    def test_perfect_predictions(self):
        lex = lexicon({"lit": 2.0, "meh": -2.0})
        corpus = [
            labeled("lit", Polarity.POSITIVE, "1"),
            labeled("meh", Polarity.NEGATIVE, "2"),
        ]
        report = evaluate(corpus, lex)
        assert report.accuracy == 1.0
        for metrics in report.per_class.values():
            assert metrics == (1.0, 1.0, 1.0)

    def test_all_neutral_predictions_zero_recall(self):
        lex = lexicon({"unused": 1.0})
        corpus = [
            labeled("a b", Polarity.POSITIVE, "1"),
            labeled("c d", Polarity.NEGATIVE, "2"),
        ]
        report = evaluate(corpus, lex)
        assert report.per_class[Polarity.POSITIVE].recall == 0.0
        assert report.per_class[Polarity.NEGATIVE].recall == 0.0
        assert report.per_class[Polarity.POSITIVE].f_score == 0.0

    def test_accuracy_is_confusion_trace_over_size(self):
        lex, corpus = self._fixture()
        report = evaluate(corpus, lex)
        trace = sum(report.counts.get((p, p), 0) for p in Polarity)
        assert report.accuracy == trace / report.size

    def test_slang_subset_filters(self):
        lex, corpus = self._fixture()
        report = evaluate(corpus, lex, EvalSubset.SLANG_ONLY)
        assert report.size == 5  # doc 5 has no lexicon term

    def test_subset_equals_all_when_everything_matches(self):
        lex, corpus = self._fixture()
        slangful = [item for item in corpus if item.document.id != "5"]
        assert evaluate(slangful, lex, EvalSubset.ALL) == evaluate(
            slangful, lex, EvalSubset.SLANG_ONLY
        )

    def test_empty_subset_raises(self):
        lex = lexicon({"unused": 1.0})
        with pytest.raises(DataError, match=r"no documents to evaluate \(subset=slang\)"):
            evaluate([labeled("a", Polarity.NEUTRAL)], lex, EvalSubset.SLANG_ONLY)
        with pytest.raises(DataError, match=r"no documents to evaluate \(subset=all\)"):
            evaluate([], lex)

    def test_scale_invariance_of_polarity_and_report(self):
        # dyadic strengths small enough that c in {0.5, 3, 10} stays on-scale
        base_values = {"lit": 0.125, "fam": 0.0625, "meh": -0.1875, "sus": -0.0625}
        corpus = [
            labeled("lit and fam", Polarity.POSITIVE, "1"),
            labeled("meh sus", Polarity.NEGATIVE, "2"),
            labeled("lit but meh and sus", Polarity.NEGATIVE, "3"),
            labeled("fam sus", Polarity.NEUTRAL, "4"),  # +0.0625 - 0.0625 = 0
            labeled("nothing", Polarity.NEUTRAL, "5"),
        ]
        base_report = evaluate(corpus, lexicon(base_values))
        for factor in (0.5, 3.0, 10.0):
            scaled = lexicon({t: _clamp(factor * v) for t, v in base_values.items()})
            for item in corpus:
                assert (
                    score_text(item.document.text, scaled).polarity
                    is score_text(item.document.text, lexicon(base_values)).polarity
                )
            assert evaluate(corpus, scaled) == base_report

    def test_report_serialization(self):
        lex, corpus = self._fixture()
        report = evaluate(corpus, lex)
        payload = report.to_dict()
        assert payload["size"] == 6
        assert set(payload["confusion"]) == {"positive", "negative", "neutral"}
        table = report.format_table()
        assert "precision" in table and "negative" in table
