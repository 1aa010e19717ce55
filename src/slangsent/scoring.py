"""Lexicon-based scoring of short texts and the evaluation harness.

Scoring is transparent on purpose: greedy longest-match over lexicon terms,
sum the matched strengths, read the polarity off the sign. Evaluation
reports accuracy plus one-vs-all precision/recall/F-score for the positive
and negative classes.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .distant import LabeledDocument
from .errors import DataError
from .lexicon import Lexicon, Polarity
from .text import tokenize


class Match(NamedTuple):
    term: str
    span: tuple[int, int]
    strength: float


class PhraseMatcher:
    """Greedy longest-match lookup of lexicon terms in token sequences.

    At each position the longest term starting there wins and the cursor
    jumps past it, so matches never overlap and a phrase always beats its
    own prefix word. A run of tokens is looked up as its space-joined
    string, so tokens must contain no spaces; every token from `tokenize`
    meets this.
    """

    def __init__(self, lexicon: Lexicon):
        self._strengths = {term: entry.strength for term, entry in lexicon.items()}
        # First word of each multi-word term -> the most words any term
        # starting with that word has.
        self._widths: dict[str, int] = {}
        for words in (term.split(" ") for term in self._strengths if " " in term):
            if len(words) > self._widths.get(words[0], 0):
                self._widths[words[0]] = len(words)

    def match(self, tokens: Sequence[str]) -> list[Match]:
        strengths, widths = self._strengths, self._widths
        matches: list[Match] = []
        position = 0
        while position < len(tokens):
            term = tokens[position]
            end = position
            if term in widths:
                for end in range(min(position + widths[term], len(tokens)) - 1, position, -1):
                    phrase = " ".join(tokens[position:end + 1])
                    if phrase in strengths:
                        term = phrase
                        break
                else:
                    end = position
            if term in strengths:
                matches.append(Match(term, (position, end), strengths[term]))
            position = end + 1
        return matches


def _compiled_matcher(lexicon: Lexicon) -> PhraseMatcher:
    """The lexicon's matcher, built on first use and kept on that Lexicon
    object; a Lexicon never changes after construction, so it never goes stale."""
    try:
        return lexicon._matcher
    except AttributeError:
        matcher = lexicon._matcher = PhraseMatcher(lexicon)
        return matcher


@dataclass(frozen=True)
class ScoreBreakdown:
    matches: tuple[Match, ...]
    total: float
    polarity: Polarity

    def format_text(self) -> str:
        lines = [f"total: {self.total:+g}  polarity: {self.polarity.value}"]
        for match in self.matches:
            start, end = match.span
            lines.append(f"  {match.term}  [{start}:{end}]  {match.strength:+g}")
        return "\n".join(lines) + "\n"


def _total_and_polarity(matches: Sequence[Match]) -> tuple[float, Polarity]:
    total = math.fsum(m.strength for m in matches)
    return total, (Polarity.POSITIVE if total > 0 else
                   Polarity.NEGATIVE if total < 0 else Polarity.NEUTRAL)


def score_tokens(tokens: Sequence[str], lexicon: Lexicon) -> ScoreBreakdown:
    """Score a token sequence as `tokenize` makes it."""
    matches = _compiled_matcher(lexicon).match(tokens)
    return ScoreBreakdown(tuple(matches), *_total_and_polarity(matches))


def score_text(text: str, lexicon: Lexicon) -> ScoreBreakdown:
    return score_tokens(tokenize(text), lexicon)


class EvalSubset(Enum):
    ALL = "all"
    SLANG_ONLY = "slang"


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f_score: float


@dataclass(frozen=True)
class EvaluationReport:
    accuracy: float
    per_class: dict[Polarity, ClassMetrics]
    counts: dict[tuple[Polarity, Polarity], int]  # (gold, predicted) -> count
    size: int

    def to_dict(self) -> dict:
        confusion = {
            gold.value: {
                pred.value: self.counts.get((gold, pred), 0) for pred in Polarity
            }
            for gold in Polarity
        }
        return {
            "size": self.size,
            "accuracy": self.accuracy,
            "classes": {
                polarity.value: metrics._asdict()
                for polarity, metrics in self.per_class.items()
            },
            "confusion": confusion,
        }

    def format_table(self) -> str:
        lines = [
            f"documents: {self.size}   accuracy: {self.accuracy:.4f}",
            f"{'class':<10} {'precision':>9} {'recall':>9} {'f_score':>9}",
        ]
        for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE):
            m = self.per_class[polarity]
            lines.append(
                f"{polarity.value:<10} {m.precision:>9.4f} {m.recall:>9.4f} {m.f_score:>9.4f}"
            )
        return "\n".join(lines) + "\n"


def _one_vs_all(counts: Counter[tuple[Polarity, Polarity]], polarity: Polarity) -> ClassMetrics:
    tp = counts[polarity, polarity]
    fp = sum(n for (_, pred), n in counts.items() if pred is polarity) - tp
    fn = sum(n for (gold, _), n in counts.items() if gold is polarity) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClassMetrics(precision, recall, f_score)


def evaluate(
    corpus: Sequence[LabeledDocument],
    lexicon: Lexicon,
    subset: EvalSubset = EvalSubset.ALL,
) -> EvaluationReport:
    """Score a gold-labeled corpus and compute accuracy plus one-vs-all
    metrics for Positive and Negative (Neutral counts toward accuracy and
    toward the "all" side of each one-vs-all split, but gets no row).

    With subset SLANG_ONLY, only documents containing at least one lexicon
    term are evaluated; an empty subset raises DataError.
    """
    matcher = _compiled_matcher(lexicon)
    counts: Counter[tuple[Polarity, Polarity]] = Counter()
    for item in corpus:
        matches = matcher.match(item.document.tokens)
        if subset is EvalSubset.SLANG_ONLY and not matches:
            continue
        counts[item.gold, _total_and_polarity(matches)[1]] += 1
    size = counts.total()
    if not size:
        raise DataError(f"no documents to evaluate (subset={subset.value})")
    return EvaluationReport(
        accuracy=sum(counts[p, p] for p in Polarity) / size,
        per_class={
            polarity: _one_vs_all(counts, polarity)
            for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE)
        },
        counts=counts,
        size=size,
    )
