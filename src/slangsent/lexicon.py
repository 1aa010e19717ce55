"""Sentiment lexicon core: strength scale, entries, seed merging, file formats.

Strengths are floats on a fixed [-2.0, +2.0] scale (-2 strongly negative, 0
neutral, +2 strongly positive). Values stay real-valued internally so that
averaging keeps its precision; discretization into the five integer classes
happens only at export and reporting time.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import DataError, ParseError
from .records import Lines, parse_record, value_of, write_records
from .text import checked_term, normalize_term

STRENGTH_MIN = -2.0
STRENGTH_MAX = 2.0
CLASSES = range(-2, 3)  # the five strength classes, as `classify` returns them


class Stage(Enum):
    """Which labeling mechanism produced an entry."""

    SEED_LEXICON = "seed_lexicon"
    CORPUS_ESTIMATE = "corpus_estimate"
    PROPAGATION = "propagation"
    # Entries re-read from an exported dictionary; original provenance and
    # fractional strength are not recoverable from the quantized file.
    IMPORTED = "imported"


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"

    @classmethod
    def from_value(cls, value: float) -> Polarity:
        if value > 0:
            return cls.POSITIVE
        if value < 0:
            return cls.NEGATIVE
        return cls.NEUTRAL


def mean_strength(values: Sequence[float]) -> float:
    """Arithmetic mean as a float, closed over the inputs' own range.

    math.fsum makes the result independent of summation order; the final
    nudge into [min(values), max(values)] removes the one-ulp drift a
    correctly-rounded sum followed by a division can produce (the true mean
    never leaves that range). Both matter: averaging chains must stay
    bounded and order-free, exactly.
    """
    mean = math.fsum(values) / len(values)
    return float(min(max(values), max(min(values), mean)))


def classify(strength: float) -> int:
    """Discretize a strength into one of the five classes -2..+2.

    Nearest integer; exact halves round away from zero so the rule stays
    symmetric around neutral.
    """
    magnitude = int(math.floor(abs(strength) + 0.5))
    return -magnitude if strength < 0 else magnitude


@dataclass(frozen=True)
class LexiconEntry:
    """One labeled term. The caller holds its invariants: `term` is normalized,
    `strength` lies in [-2, +2], and `sources` (the contributing seed lexicons)
    is non-empty exactly when `stage` is seed_lexicon."""

    term: str
    strength: float
    stage: Stage
    sources: tuple[str, ...] = ()


class Lexicon:
    """Immutable mapping from normalized term to LexiconEntry; one entry per term."""

    __slots__ = ("_entries", "__weakref__")

    def __init__(self, entries: Iterable[LexiconEntry] = ()):
        self._entries = {entry.term: entry for entry in entries}

    def __contains__(self, term: object) -> bool:
        return term in self._entries

    def __getitem__(self, term: str) -> LexiconEntry:
        return self._entries[term]

    def get(self, term: str, default: LexiconEntry | None = None) -> LexiconEntry | None:
        return self._entries.get(term, default)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lexicon):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"Lexicon({len(self)} terms)"

    def strength(self, term: str) -> float:
        return self._entries[term].strength

    def entries(self) -> list[LexiconEntry]:
        """Entries in term-sorted order (the canonical order everywhere)."""
        return [self._entries[t] for t in sorted(self._entries)]

    def restricted(self, terms: Iterable[str]) -> Lexicon:
        """The sub-lexicon covering only the given terms."""
        keep = set(terms)
        return Lexicon(e for t, e in self._entries.items() if t in keep)


def combine(*lexicons: Lexicon) -> Lexicon:
    """Union with first-wins precedence: a term labeled by an earlier lexicon
    is never overwritten by a later one."""
    table: dict[str, LexiconEntry] = {}
    for lexicon in lexicons:
        for term in lexicon:
            if term not in table:
                table[term] = lexicon[term]
    return Lexicon(table.values())


@dataclass(frozen=True)
class LinearScale:
    """Monotone linear map from a source lexicon's native scale onto the
    [-2, +2] strength scale."""

    factor: float = 1.0
    offset: float = 0.0

    def apply(self, value: float) -> float:
        return self.factor * value + self.offset

    @classmethod
    def from_ranges(
        cls,
        source_range: tuple[float, float],
        target_range: tuple[float, float] = (STRENGTH_MIN, STRENGTH_MAX),
    ) -> LinearScale:
        """The map taking `source_range` onto `target_range`, which must lie
        within the strength scale. Raises ValueError naming the bad range."""
        (lo, hi), (target_lo, target_hi) = source_range, target_range
        if hi == lo:
            raise ValueError(f"'source_range' {list(source_range)} is degenerate")
        if not all(STRENGTH_MIN <= end <= STRENGTH_MAX for end in target_range):
            raise ValueError(f"'target_range' {list(target_range)} reaches outside the "
                             f"strength scale [{STRENGTH_MIN}, {STRENGTH_MAX}]")
        factor = (target_hi - target_lo) / (hi - lo)
        return cls(factor=factor, offset=target_lo - factor * lo)


@dataclass(frozen=True)
class SeedSource:
    """One external sentiment lexicon: an id, its term -> native strength
    mapping, and the scale map onto [-2, +2]."""

    source_id: str
    values: Mapping[str, float]
    scale: LinearScale = LinearScale()


def merge_seed_lexicons(sources: Iterable[SeedSource]) -> Lexicon:
    """Merge external seed lexicons into one strength lexicon.

    Each source's native values are scale-mapped onto [-2, +2]; a term found
    in several sources gets the arithmetic mean of its per-source values.
    Terms are normalized first; if normalization makes two of one source's
    terms collide, that source contributes their mean as its single value.
    The result is independent of source order: contributions are keyed and
    summed per sorted source id, with math.fsum making the mean exact with
    respect to ordering.
    """
    per_source: dict[str, dict[str, list[float]]] = {}
    for source in sources:
        for raw_term, native in source.values.items():
            term = normalize_term(raw_term)
            if not term:
                raise DataError(f"term is empty after normalization: {reprlib.repr(raw_term)}")
            mapped = source.scale.apply(float(native))
            if not STRENGTH_MIN <= mapped <= STRENGTH_MAX:
                raise DataError(f"source {reprlib.repr(source.source_id)} maps "
                                f"{reprlib.repr(raw_term)} ({native!r}) to {mapped!r}, "
                                f"outside [{STRENGTH_MIN}, {STRENGTH_MAX}]")
            per_source.setdefault(term, {}).setdefault(source.source_id, []).append(mapped)

    entries = []
    for term, by_source in per_source.items():
        source_ids = tuple(sorted(by_source))
        strength = mean_strength([mean_strength(by_source[sid]) for sid in source_ids])
        entries.append(LexiconEntry(term, strength, Stage.SEED_LEXICON, source_ids))
    return Lexicon(entries)


def load_seed_values(path: str | Path) -> dict[str, float]:
    """Read a seed-lexicon source file: one `term<TAB>native_strength` per
    line, '#' comments and blank lines ignored. A term given twice, or a
    value that is no finite number, is an error naming the file and the line."""
    values: dict[str, float] = {}
    with Lines(path) as lines:
        for raw in lines:
            line = raw.strip()
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected 'term<TAB>value', got {reprlib.repr(line)}")
            term, text = fields
            if term in values:
                raise ParseError(f"duplicate term {reprlib.repr(term)}")
            try:
                values[term] = float(text)
            except ValueError:
                values[term] = math.nan
            if not math.isfinite(values[term]):  # float() reads "nan", "inf" and "1e999" too
                raise ParseError(f"bad strength value {reprlib.repr(text)}")
    return values


# --- exported dictionary format -------------------------------------------
#
# One `term<TAB>class` line per term, class in {-2..2}, lines sorted by term,
# UTF-8, LF-terminated. Sorting makes re-exports byte-reproducible.


def export_slangsd(lexicon: Lexicon) -> str:
    return "".join(f"{e.term}\t{classify(e.strength)}\n" for e in lexicon.entries())


def load_slangsd(path: str | Path) -> Lexicon:
    """Inverse of export_slangsd up to quantization.

    Parsed strengths are the class values; provenance is not recoverable, so
    entries carry the distinguished stage `imported`.
    """
    entries: dict[str, LexiconEntry] = {}
    with Lines(path) as lines:
        for raw in lines:
            line = raw.rstrip("\n")
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected 'term<TAB>class', got {reprlib.repr(line)}")
            term, class_text = fields
            try:
                cls = int(class_text)
            except ValueError:
                raise ParseError(f"bad class {reprlib.repr(class_text)}") from None
            if cls not in CLASSES:
                raise ParseError(f"class {reprlib.repr(cls)} outside -2..2")
            checked_term(term)
            if term in entries:
                raise ParseError(f"duplicate term {reprlib.repr(term)}")
            entries[term] = LexiconEntry(term, float(cls), Stage.IMPORTED)
    return Lexicon(entries.values())


def export_idiom_table(lexicon: Lexicon) -> str:
    """Export non-neutral terms for a phrase/idiom lookup table on a -5..+5
    scale: value = 2 * class, so entries land on {-4, -2, +2, +4} and the
    host scorer's native extremes stay free."""
    lines = []
    for entry in lexicon.entries():
        cls = classify(entry.strength)
        if cls != 0:
            lines.append(f"{entry.term}\t{2 * cls}\n")
    return "".join(lines)


# --- full-fidelity lexicon persistence (pipeline intermediates) -------------


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    """Write a lexicon as sorted JSON lines, keeping exact strengths, stages
    and sources (unlike the quantized exported dictionary)."""
    write_records(path, (
        {
            "term": entry.term,
            "strength": entry.strength,
            "stage": entry.stage.value,
            "sources": list(entry.sources),
        }
        for entry in lexicon.entries()
    ))


def load_lexicon(path: str | Path) -> Lexicon:
    """The lexicon `save_lexicon` wrote. A record that breaks a LexiconEntry
    or Lexicon invariant is a ParseError naming its line."""
    entries: dict[str, LexiconEntry] = {}
    with Lines(path) as lines:
        for record in map(parse_record, lines):
            term = value_of(record, "term", str)
            strength = value_of(record, "strength", float)
            stage = value_of(record, "stage", Stage)
            sources = value_of(record, "sources", list, default=[])
            checked_term(term)
            if not STRENGTH_MIN <= strength <= STRENGTH_MAX:
                raise ParseError(f"strength out of range: {reprlib.repr(strength)}")
            if (stage is Stage.SEED_LEXICON) != bool(sources):
                raise ParseError(f"sources {reprlib.repr(sources)} do not fit stage {stage.value}")
            if term in entries:
                raise ParseError(f"duplicate term {reprlib.repr(term)}")
            entries[term] = LexiconEntry(term, strength, stage, tuple(sources))
    return Lexicon(entries.values())
