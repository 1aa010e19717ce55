"""Ingestion of crowdsourced slang-dictionary entries.

Entries arrive as JSON lines, one object per record, with fields term,
meanings, examples, related_terms, upvotes, downvotes and an optional
created_date. Meanings and examples are carried for provenance only; the
related-word lists are the only entry content the sentiment stages trust.
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

Vocabulary = dict[str, "SlangEntry"]


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
    """Merge entries into one record per normalized term.

    A term with one record keeps that record's meanings, examples, votes and
    date as they are. For a term with several, meanings and examples are
    concatenated with the better-voted record's items first (descending net
    votes, ties keep input order), votes are summed and the earliest date is
    kept. Related terms are normalized, unique, sorted and never the term;
    those outside the vocabulary stay, for graph construction to judge.
    """
    groups: dict[str, list[SlangEntry]] = {}
    for entry in entries:
        term = normalize_term(entry.term)
        if not term:
            raise DataError(f"term is empty after normalization: {reprlib.repr(entry.term)}")
        groups.setdefault(term, []).append(entry)

    vocabulary: Vocabulary = {}
    normal = cache(normalize_term)
    for term, group in groups.items():
        if len(group) == 1:
            [entry] = group
            vocabulary[term] = SlangEntry(term, entry.meanings, entry.examples,
                                          _related_terms(term, entry.related_terms, normal),
                                          entry.upvotes, entry.downvotes, entry.created_date)
            continue
        ranked = sorted(group, key=lambda e: e.upvotes - e.downvotes, reverse=True)
        dates = [e.created_date for e in group if e.created_date is not None]
        vocabulary[term] = SlangEntry(
            term,
            tuple(m for e in ranked for m in e.meanings),
            tuple(x for e in ranked for x in e.examples),
            _related_terms(term, [r for e in group for r in e.related_terms], normal),
            sum(e.upvotes for e in group),
            sum(e.downvotes for e in group),
            min(dates) if dates else None,
        )
    return vocabulary


def _related_terms(term: str, raws: Iterable[str], normal: Callable[[str], str]) -> tuple[str, ...]:
    """The related terms of `term`'s merged entry when its records list the
    strings `raws`: each put through `normal` (a memo of `normalize_term`),
    then unique, sorted, and without "" or the term itself."""
    related = set(map(normal, raws))
    related -= {term, ""}
    return tuple(sorted(related))


def save_vocabulary(vocabulary: Vocabulary, path: str | Path) -> None:
    write_lines(path, (entry_row(vocabulary[term]) for term in sorted(vocabulary)))


def load_vocabulary(path: str | Path) -> Vocabulary:
    """The vocabulary `save_vocabulary` wrote, read back without merging it
    again: a ParseError names the line of an entry that `build_vocabulary` would
    change, by its term (unnormalized or repeated) or by `_related_terms`."""
    vocabulary: Vocabulary = {}
    normal = cache(normalize_term)
    with Lines(path) as lines:
        for raw in lines:
            entry = _parse_record(raw)
            term = checked_term(entry.term)
            if term in vocabulary:
                raise ParseError(f"duplicate term {reprlib.repr(term)}")
            merged = _related_terms(term, entry.related_terms, normal)
            if merged != entry.related_terms:
                raise ParseError(f"related terms {reprlib.repr(list(entry.related_terms))} "
                                 f"merge to {reprlib.repr(list(merged))}")
            vocabulary[term] = entry
    return vocabulary


# --- extension workflow ------------------------------------------------------


def date_range(start: date, end: date) -> list[date]:
    """Calendar days from start to end, inclusive; empty when start > end."""
    days = (end - start).days
    return [start + timedelta(days=i) for i in range(days + 1)] if days >= 0 else []


def fetch_new_entries(
    directory: str | Path, start: date, end: date
) -> tuple[list[SlangEntry], list[tuple[date, str]]]:
    """Parse the entry records of every day in [start, end] and the (day,
    reason) of each day that failed.

    A day's records are in <directory>/<YYYY-MM-DD>.jsonl, or .jsonl.gz when
    there is no .jsonl. A missing, unreadable or malformed day file is a
    failure of that day and the remaining days still run; any other error
    raises. Output order is by date, then record order within a day.
    Duplicate terms are left for build_vocabulary to merge.
    """
    entries: list[SlangEntry] = []
    failures: list[tuple[date, str]] = []
    for day in date_range(start, end):
        try:
            path = Path(directory, f"{day}.jsonl")
            if not path.exists():
                path = path.with_name(f"{path.name}.gz")
            if not path.exists():
                raise FileNotFoundError(f"no record file for {day} under {directory}")
            entries.extend(parse_entries(path))
        except (DataError, OSError) as exc:
            failures.append((day, str(exc)))
    return entries, failures
