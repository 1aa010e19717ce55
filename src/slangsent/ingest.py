"""Ingestion of crowdsourced slang-dictionary entries.

Entries arrive as JSON lines, one object per record, with fields term,
meanings, examples, related_terms, upvotes, downvotes and an optional
created_date. Every field is checked where an entry file is read, and
`extend` writes each record back as it read it. The vocabulary keeps only
what the later stages read: each normalized term and its related terms. The
entry files stay the provenance of meanings, examples, votes and dates.
"""

from __future__ import annotations

import reprlib
from collections.abc import Callable, Iterable
from datetime import date, timedelta
from functools import cache
from pathlib import Path
from typing import NamedTuple

from .errors import DataError, ParseError
from .records import Lines, json_string, json_strings, parse_record, value_of, write_lines
from .text import checked_term, normalize_term

Vocabulary = dict[str, tuple[str, ...]]  # normalized term -> its related terms


class SlangEntry(NamedTuple):
    """One crowdsourced dictionary record. The caller holds its invariants: a
    term that normalizes, some meanings and examples, and votes >= 0."""

    term: str
    meanings: tuple[str, ...]
    examples: tuple[str, ...]
    related_terms: tuple[str, ...] = ()
    upvotes: int = 0
    downvotes: int = 0
    created_date: date | None = None


def parse_entries(
    path: str | Path, *, issues: list[ParseError] | None = None
) -> list[SlangEntry]:
    """Parse the JSON-line entry records of a file in file order.

    Without an `issues` list the first bad record raises ParseError (naming
    the file and line); with one, bad records are skipped and their errors
    appended to it.
    """
    entries: list[SlangEntry] = []
    with Lines(path) as lines:
        for raw in lines:
            try:
                entry = _parse_record(raw)
                if not normalize_term(entry.term):
                    raise ParseError(f"term {reprlib.repr(entry.term)} normalizes to nothing")
                entries.append(entry)
            except ParseError as exc:
                if issues is None:
                    raise
                issues.append(lines.locate(exc))
    return entries


def _parse_record(raw: str) -> SlangEntry:
    """The entry of one record, its fields checked; its term is left as written."""
    record = parse_record(raw)
    term = value_of(record, "term", str)
    meanings = value_of(record, "meanings", list)
    if not meanings:
        raise ParseError("entry must have at least one meaning")
    examples = value_of(record, "examples", list)
    if not examples:
        raise ParseError("entry must have at least one example")

    related = value_of(record, "related_terms", list, default=())
    upvotes = value_of(record, "upvotes", int, default=0)
    downvotes = value_of(record, "downvotes", int, default=0)
    if upvotes < 0 or downvotes < 0:
        key = "upvotes" if upvotes < 0 else "downvotes"
        raise ParseError(f"'{key}' must be non-negative")

    day = value_of(record, "created_date", str, default=None)
    try:
        created = None if day is None else parse_day(day)
    except ValueError:
        raise ParseError(f"'created_date' must be YYYY-MM-DD, got {reprlib.repr(day)}") from None

    return SlangEntry(term, tuple(meanings), tuple(examples), tuple(related),
                      upvotes, downvotes, created)


def parse_day(text: str) -> date:
    """The day `text` names as YYYY-MM-DD, the one date form every input
    uses; any other form, or a day that does not exist, is a ValueError."""
    day = date.fromisoformat(text)  # which, from Python 3.11 on, reads other ISO forms too
    if day.isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return day


def entry_row(entry: SlangEntry) -> str:
    """The record line of `entry`, which `parse_entries` reads back as it."""
    day = "" if entry.created_date is None else f'"created_date": "{entry.created_date}", '
    return (
        f'{{{day}"downvotes": {entry.downvotes}, "examples": {json_strings(entry.examples)}, '
        f'"meanings": {json_strings(entry.meanings)}, '
        f'"related_terms": {json_strings(entry.related_terms)}, '
        f'"term": {json_string(entry.term)}, "upvotes": {entry.upvotes}}}\n'
    )


def build_vocabulary(entries: Iterable[SlangEntry]) -> Vocabulary:
    """Each normalized term of `entries`, in first-seen order, mapped to the
    related terms of all its records: normalized, unique, sorted and never
    the term. Related terms outside the vocabulary stay, for graph
    construction to judge."""
    raws: dict[str, list[str]] = {}
    for entry in entries:
        term = normalize_term(entry.term)
        if not term:
            raise DataError(f"term is empty after normalization: {reprlib.repr(entry.term)}")
        raws.setdefault(term, []).extend(entry.related_terms)
    normal = cache(normalize_term)
    return {term: _related_terms(term, related, normal) for term, related in raws.items()}


def _related_terms(term: str, raws: Iterable[str], normal: Callable[[str], str]) -> tuple[str, ...]:
    """The related terms of `term` when its records list the strings `raws`:
    each put through `normal` (a memo of `normalize_term`), then unique,
    sorted, and without "" or the term itself."""
    related = set(map(normal, raws))
    related -= {term, ""}
    return tuple(sorted(related))


def save_vocabulary(vocabulary: Vocabulary, path: str | Path) -> None:
    write_lines(path, (f'{{"related_terms": {json_strings(vocabulary[term])}, '
                       f'"term": {json_string(term)}}}\n' for term in sorted(vocabulary)))


def load_vocabulary(path: str | Path) -> Vocabulary:
    """The vocabulary `save_vocabulary` wrote, read back without building it
    again. A row holds `term` and, optionally, `related_terms`; other keys are
    ignored, so rows that also hold an entry's other fields load too. A
    ParseError names the line of a row that `build_vocabulary` would change,
    by its term (unnormalized or repeated) or by `_related_terms`."""
    vocabulary: Vocabulary = {}
    normal = cache(normalize_term)
    with Lines(path) as lines:
        for raw in lines:
            record = parse_record(raw)
            term = checked_term(value_of(record, "term", str))
            if term in vocabulary:
                raise ParseError(f"duplicate term {reprlib.repr(term)}")
            related = value_of(record, "related_terms", list, default=[])
            merged = _related_terms(term, related, normal)
            if list(merged) != related:
                raise ParseError(f"related terms {reprlib.repr(related)} "
                                 f"merge to {reprlib.repr(list(merged))}")
            vocabulary[term] = merged
    return vocabulary


# --- extension workflow ------------------------------------------------------


def date_range(start: date, end: date) -> list[date]:
    """Calendar days from start to end, inclusive; empty when start > end."""
    return [start + timedelta(days=i) for i in range((end - start).days + 1)]


def day_files(directory: str | Path, day: date) -> list[Path]:
    """The paths a day's record file may have, in the order a fetch tries them."""
    return [Path(directory, f"{day}{suffix}") for suffix in (".jsonl", ".jsonl.gz")]


def fetch_new_entries(
    directory: str | Path, start: date, end: date
) -> tuple[list[SlangEntry], list[tuple[date, str]]]:
    """Parse the entry records of every day in [start, end] and the (day,
    reason) of each day that failed.

    A day's records are in the first of its `day_files` that exists. A
    missing, unreadable or malformed day file is a failure of that day and
    the remaining days still run; any other error raises. Output order is by
    date, then record order within a day. Duplicate terms are left for
    build_vocabulary to merge.
    """
    entries: list[SlangEntry] = []
    failures: list[tuple[date, str]] = []
    for day in date_range(start, end):
        try:
            if (path := next(filter(Path.exists, day_files(directory, day)), None)) is None:
                raise FileNotFoundError(f"no record file for {day} under {directory}")
            entries.extend(parse_entries(path))
        except (DataError, OSError) as exc:
            failures.append((day, str(exc)))
    return entries, failures
