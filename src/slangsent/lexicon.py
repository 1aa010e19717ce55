"""Sentiment lexicon core: strength scale, entries, seed merging, file formats.

Strengths are floats on a fixed [-2.0, +2.0] scale (-2 strongly negative, 0
neutral, +2 strongly positive). Values stay real-valued internally so that
averaging keeps its precision; discretization into the five integer classes
happens only at export and reporting time.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple, NoReturn

from .errors import DataError, ParseError
from .records import Lines, json_string, json_strings, parse_record, value_of, write_lines
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

    # Members are singletons and Enum compares by identity.
    __hash__ = object.__hash__


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"

    # Members are singletons and Enum compares by identity.
    __hash__ = object.__hash__


def mean_strength(values: Sequence[float]) -> float:
    """Arithmetic mean as a float, closed over the inputs' own range.

    math.fsum makes the result independent of summation order; the final
    nudge into [min(values), max(values)] removes the one-ulp drift a
    correctly-rounded sum followed by a division can produce (the true mean
    never leaves that range). Both matter: averaging chains must stay
    bounded and order-free, exactly.
    """
    if len(values) == 1:  # what the clamp below would give, -0.0 included
        return float(values[0])
    mean = math.fsum(values) / len(values)
    return float(min(max(values), max(min(values), mean)))


def classify(strength: float) -> int:
    """Discretize a strength into one of the five classes -2..+2.

    Nearest integer; exact halves round away from zero so the rule stays
    symmetric around neutral.
    """
    magnitude = int(math.floor(abs(strength) + 0.5))
    return -magnitude if strength < 0 else magnitude


class LexiconEntry(NamedTuple):
    """One labeled term. The caller holds its invariants: `term` is normalized,
    `strength` lies in [-2, +2], and `sources` (the contributing seed lexicons)
    is non-empty exactly when `stage` is seed_lexicon."""

    term: str
    strength: float
    stage: Stage
    sources: tuple[str, ...] = ()


class Lexicon(dict[str, LexiconEntry]):
    """Read-only dict from normalized term to LexiconEntry; one entry per term.
    Every mutator raises TypeError, so a Lexicon never changes once built."""

    def __init__(self, entries: Iterable[LexiconEntry] = ()):
        super().__init__({entry.term: entry for entry in entries})

    def _read_only(self, *args, **kwargs) -> NoReturn:
        raise TypeError("a Lexicon is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> tuple:
        return type(self), (tuple(self.values()),)

    def __repr__(self) -> str:
        return f"Lexicon({len(self)} terms)"

    def entries(self) -> list[LexiconEntry]:
        """Entries in term-sorted order (the canonical order everywhere)."""
        return [self[t] for t in sorted(self)]


def combine(*lexicons: Lexicon) -> Lexicon:
    """Union with first-wins precedence: a term labeled by an earlier lexicon
    is never overwritten by a later one. The lexicons are read last to first,
    so an earlier lexicon's entry is built in after, and replaces, a later one's."""
    return Lexicon(entry for lexicon in reversed(lexicons) for entry in lexicon.values())


@dataclass(frozen=True)
class LinearScale:
    """Monotone linear map from a source lexicon's native scale onto the
    [-2, +2] strength scale."""

    factor: float = 1.0
    offset: float = 0.0

    def apply(self, value: float) -> float:
        return self.factor * value + self.offset

    @classmethod
    def from_ranges(cls, source_range: tuple[float, float]) -> LinearScale:
        """The map taking `source_range` onto the whole strength scale; no
        value in the range maps off it. Raises ValueError unless low < high,
        the factor is finite and nonzero, and a map fits within 64 ulp steps
        of the factor: a range too narrow for its magnitude would otherwise
        map onto one point or part of the scale."""
        lo, hi = source_range
        if not lo < hi:
            raise ValueError(f"'source_range' {list(source_range)} must have low below high")
        factor = (STRENGTH_MAX - STRENGTH_MIN) / (hi - lo)
        if not 0.0 < factor < math.inf:  # `hi - lo` overflowed, or the quotient did
            raise ValueError(f"'source_range' {list(source_range)} is too wide or too narrow")
        for _ in range(64):  # rounding may carry an end point off the scale: shrink the factor by ulps
            scale = cls(factor, STRENGTH_MIN - factor * lo)
            if STRENGTH_MIN <= scale.apply(lo) and scale.apply(hi) <= STRENGTH_MAX:
                return scale
            factor = math.nextafter(factor, 0.0)
        raise ValueError(f"'source_range' {list(source_range)} is too narrow for its magnitude")


@dataclass(frozen=True)
class SeedSource:
    """One external sentiment lexicon: an id, its term -> native strength
    mapping, and the scale map onto [-2, +2]."""

    source_id: str
    values: Mapping[str, float]
    scale: LinearScale = LinearScale()


def merge_seed_lexicons(sources: Iterable[SeedSource]) -> Lexicon:
    """Merge external seed lexicons into one strength lexicon.

    Each source's native values are scale-mapped onto [-2, +2]. Terms are
    normalized first; if normalization makes two of one source's terms
    collide, that source contributes their mean as its single value. A term
    found in one source takes that source's value, and the entries of one
    source share one `(source_id,)` tuple. A term found in several sources
    gets the arithmetic mean of its per-source values. The result is
    independent of source order: contributions are keyed and summed per sorted
    source id, with math.fsum making the mean exact with respect to ordering.
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

    alone: dict[str, tuple[str]] = {}  # the one `(source_id,)` of each source's own terms
    entries = []
    for term, by_source in per_source.items():
        if len(by_source) == 1:
            [(source_id, values)] = by_source.items()
            source_ids = alone.setdefault(source_id, (source_id,))
            strength = mean_strength(values)
        else:
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


def save_lexicon(lexicon: Lexicon, path: str | Path) -> str:
    """Write a lexicon as sorted JSON lines, keeping exact strengths, stages
    and sources (unlike the quantized exported dictionary); returns the
    sha256 of the file written."""
    return write_lines(path, (
        f'{{"sources": {json_strings(entry.sources)}, "stage": "{entry.stage.value}", '
        f'"strength": {entry.strength!r}, "term": {json_string(entry.term)}}}\n'
        for entry in lexicon.entries()
    ))


def load_lexicon(path: str | Path, *, data: bytes | None = None) -> Lexicon:
    """The lexicon `save_lexicon` wrote. A record that breaks a LexiconEntry
    or Lexicon invariant is a ParseError naming its line. Given `data`, the
    bytes of a file this version's `save_lexicon` wrote (see `Lines`), it
    parses them and checks no record."""
    entries: dict[str, LexiconEntry] = {}
    with Lines(path, data) as lines:
        for record in map(parse_record, lines):
            term = value_of(record, "term", str)
            strength = value_of(record, "strength", float)
            stage = value_of(record, "stage", Stage)
            sources = value_of(record, "sources", list, default=[])
            if data is None:
                checked_term(term)
                if not STRENGTH_MIN <= strength <= STRENGTH_MAX:
                    raise ParseError(f"strength out of range: {reprlib.repr(strength)}")
                if (stage is Stage.SEED_LEXICON) != bool(sources):
                    raise ParseError(f"sources {reprlib.repr(sources)} do not fit stage "
                                     f"{stage.value}")
                if term in entries:
                    raise ParseError(f"duplicate term {reprlib.repr(term)}")
            entries[term] = LexiconEntry(term, strength, stage, tuple(sources))
    return Lexicon(entries.values())
