"""Ingestion of crowdsourced slang-dictionary entries.

Entries arrive as JSON lines, one object per record, with fields term,
meanings, examples, related_terms, upvotes, downvotes and an optional
created_date. Meanings and examples are carried for provenance only; the
related-word lists are the only entry content the sentiment stages trust.
"""

from __future__ import annotations

import reprlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

from .errors import DataError, ParseError
from .records import Lines, parse_record, value_of, write_records
from .text import checked_term, normalize_term

Vocabulary = dict[str, "SlangEntry"]

EXTENSION_URL_BASE = "http://www.urbandictionary.com/yesterday.php"


@dataclass(frozen=True)
class SlangEntry:
    """One crowdsourced dictionary record. The caller holds its invariants: a
    term that normalizes, some meanings and examples, and votes >= 0."""

    term: str
    meanings: tuple[str, ...]
    examples: tuple[str, ...]
    related_terms: tuple[str, ...] = ()
    upvotes: int = 0
    downvotes: int = 0
    created_date: date | None = None

    @property
    def net_votes(self) -> int:
        return self.upvotes - self.downvotes


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

    return SlangEntry(
        term=term,
        meanings=tuple(meanings),
        examples=tuple(examples),
        related_terms=tuple(related),
        upvotes=upvotes,
        downvotes=downvotes,
        created_date=created,
    )


def parse_day(text: str) -> date:
    """The day `text` names as YYYY-MM-DD, the one date form every input
    uses; any other form, or a day that does not exist, is a ValueError."""
    day = date.fromisoformat(text)  # which, from Python 3.11 on, reads other ISO forms too
    if day.isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return day


def serialize_entry(entry: SlangEntry) -> dict[str, object]:
    record: dict[str, object] = {
        "term": entry.term,
        "meanings": list(entry.meanings),
        "examples": list(entry.examples),
        "related_terms": list(entry.related_terms),
        "upvotes": entry.upvotes,
        "downvotes": entry.downvotes,
    }
    if entry.created_date is not None:
        record["created_date"] = entry.created_date.isoformat()
    return record


def build_vocabulary(entries: Iterable[SlangEntry]) -> Vocabulary:
    """Merge entries into one record per normalized term.

    Meanings and examples are concatenated with the better-voted entry's
    items first (descending net votes, ties keep input order); votes are
    summed; related terms are normalized, deduplicated, sorted, and never
    include the term itself. Terms pointing outside the vocabulary are kept:
    graph construction decides what to do with them.
    """
    groups: dict[str, list[SlangEntry]] = {}
    for entry in entries:
        term = normalize_term(entry.term)
        if not term:
            raise DataError(f"term is empty after normalization: {reprlib.repr(entry.term)}")
        groups.setdefault(term, []).append(entry)

    vocabulary: Vocabulary = {}
    normal: dict[str, str] = {}  # each distinct related string, normalized once
    for term, group in groups.items():
        ranked = sorted(group, key=lambda e: e.net_votes, reverse=True)
        related: set[str] = set()
        for entry in group:
            for raw in entry.related_terms:
                if raw not in normal:
                    normal[raw] = normalize_term(raw)
                related.add(normal[raw])
        related -= {term, ""}  # "": a related string that normalizes to nothing
        dates = [e.created_date for e in group if e.created_date is not None]
        vocabulary[term] = SlangEntry(
            term=term,
            meanings=tuple(m for e in ranked for m in e.meanings),
            examples=tuple(x for e in ranked for x in e.examples),
            related_terms=tuple(sorted(related)),
            upvotes=sum(e.upvotes for e in group),
            downvotes=sum(e.downvotes for e in group),
            created_date=min(dates) if dates else None,
        )
    return vocabulary


def save_vocabulary(vocabulary: Vocabulary, path: str | Path) -> None:
    write_records(path, (serialize_entry(vocabulary[term]) for term in sorted(vocabulary)))


def load_vocabulary(path: str | Path) -> Vocabulary:
    """The vocabulary `save_vocabulary` wrote, read back without merging it
    again: each entry must already hold what `build_vocabulary` establishes (a
    normalized term seen once; related terms normalized, sorted, unique and
    not the term itself), or it is a ParseError naming its line."""
    vocabulary: Vocabulary = {}
    known: set[str] = set()  # the terms and related terms checked so far
    with Lines(path) as lines:
        for raw in lines:
            entry = _parse_record(raw)
            term, related = entry.term, entry.related_terms
            if term not in known:
                known.add(checked_term(term))
            distinct = set(related)
            for text in sorted(distinct - known):
                known.add(checked_term(text, "related term"))
            if term in vocabulary:
                raise ParseError(f"duplicate term {reprlib.repr(term)}")
            if term in distinct:
                raise ParseError(f"related terms include the term {reprlib.repr(term)}")
            if sorted(distinct) != list(related):
                raise ParseError("related terms are not sorted and unique: "
                                 f"{reprlib.repr(list(related))}")
            vocabulary[term] = entry
    return vocabulary


# --- extension workflow ------------------------------------------------------


def extension_url(day: date) -> str:
    """URL of the new-words-by-creation-date page for one calendar day."""
    return f"{EXTENSION_URL_BASE}?date={day.isoformat()}"


def date_range(start: date, end: date) -> list[date]:
    """Calendar days from start to end, inclusive; empty when start > end."""
    days = (end - start).days
    return [start + timedelta(days=i) for i in range(days + 1)] if days >= 0 else []


EntryFetcher = Callable[[date], Path]


@dataclass
class FetchReport:
    requested: int = 0
    failures: list[tuple[date, str]] = field(default_factory=list)  # (day, reason)


def fetch_new_entries(
    fetcher: EntryFetcher, start: date, end: date
) -> tuple[list[SlangEntry], FetchReport]:
    """Fetch and parse entry records for every day in [start, end].

    The fetcher maps a day to the record file that holds its records; a
    record error names that file. A failing day is recorded in the report
    and the remaining days still run; output order is by date, then record
    order within a day. Duplicate terms are left for build_vocabulary to merge.
    """
    entries: list[SlangEntry] = []
    report = FetchReport()
    for day in date_range(start, end):
        report.requested += 1
        try:
            entries.extend(parse_entries(fetcher(day)))
        except Exception as exc:
            report.failures.append((day, str(exc)))
    return entries, report


class DirectoryFetcher:
    """EntryFetcher over local files: the record file for a day is
    <directory>/<YYYY-MM-DD>.jsonl (optionally .jsonl.gz)."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def __call__(self, day: date) -> Path:
        for name in (f"{day.isoformat()}.jsonl", f"{day.isoformat()}.jsonl.gz"):
            candidate = self.directory / name
            if candidate.exists():
                return candidate
        raise FileNotFoundError(f"no record file for {day} under {self.directory}")
