from __future__ import annotations

import gzip
import json
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slangsent import ingest
from slangsent.errors import DataError, ParseError
from slangsent.ingest import (
    SlangEntry,
    build_vocabulary,
    date_range,
    entry_row,
    fetch_new_entries,
    load_vocabulary,
    parse_day,
    parse_entries,
    save_vocabulary,
)

from .oracles import brute_vocabulary


def record(term="lol", **overrides):
    base = {
        "term": term,
        "meanings": ["laughing out loud"],
        "examples": ["lol that was funny"],
        "related_terms": [],
        "upvotes": 10,
        "downvotes": 2,
    }
    base.update(overrides)
    return json.dumps(base)


def entries_from(tmp_path, lines, **options):
    """`parse_entries` of a file holding `lines`."""
    path = tmp_path / "entries.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return parse_entries(path, **options)


class TestParseEntries:
    def test_happy_path(self, tmp_path):
        entries = entries_from(tmp_path, [record()])
        assert entries[0].term == "lol"
        assert entries[0].upvotes - entries[0].downvotes == 8

    def test_missing_examples_rejected(self, tmp_path):
        line = json.dumps({"term": "x", "meanings": ["m"], "upvotes": 0, "downvotes": 0})
        with pytest.raises(ParseError) as exc:
            entries_from(tmp_path, [line])
        assert str(exc.value).startswith(f"{tmp_path / 'entries.jsonl'}: line 1: ")

    def test_empty_examples_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            entries_from(tmp_path, [record(examples=[])])

    def test_related_terms_optional(self, tmp_path):
        line = json.dumps(
            {"term": "x", "meanings": ["m"], "examples": ["e"], "upvotes": 0, "downvotes": 0}
        )
        assert entries_from(tmp_path, [line])[0].related_terms == ()

    def test_negative_votes_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            entries_from(tmp_path, [record(upvotes=-1)])

    def test_created_date_parsed(self, tmp_path):
        entries = entries_from(tmp_path, [record(created_date="2016-07-14")])
        assert entries[0].created_date == date(2016, 7, 14)

    def test_bad_date_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            entries_from(tmp_path, [record(created_date="not a date")])

    def test_null_counts_as_absent(self, tmp_path):
        entry = entries_from(
            tmp_path, [record(related_terms=None, upvotes=None, created_date=None)])[0]
        assert (entry.related_terms, entry.upvotes, entry.created_date) == ((), 0, None)


    def test_bad_json_line_number(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            entries_from(tmp_path, [record(), "{oops"])
        assert str(exc.value).startswith(f"{tmp_path / 'entries.jsonl'}: line 2: ")

    def test_lenient_mode_skips_and_reports(self, tmp_path):
        issues = []
        entries = entries_from(tmp_path, [record("a"), "{oops", record("b")], issues=issues)
        assert [e.term for e in entries] == ["a", "b"]
        assert len(issues) == 1
        assert str(issues[0]).startswith(f"{tmp_path / 'entries.jsonl'}: line 2: ")

    def test_blank_lines_ignored(self, tmp_path):
        assert len(entries_from(tmp_path, [record(), "", "  "])) == 1

    def test_serialize_round_trip(self, tmp_path):
        entries = entries_from(
            tmp_path,
            [
                record("lol", related_terms=["rofl", "lmao"], created_date="2015-01-02"),
                record("shit hot", upvotes=0, downvotes=0),
            ]
        )
        (tmp_path / "entries.jsonl").write_text("".join(map(entry_row, entries)), encoding="utf-8")
        assert parse_entries(tmp_path / "entries.jsonl") == entries


class TestParseDay:
    def test_reads_yyyy_mm_dd(self):
        assert parse_day("2016-07-14") == date(2016, 7, 14)
        assert parse_day("0999-12-31") == date(999, 12, 31)

    @pytest.mark.parametrize("text", [
        "20230401", "2023-W13-6", "2023-091", "2023-4-1", "2023-04-01T00:00", " 2023-04-01",
        "2023-02-29", "2023-13-01", "２０２３-04-01", "",
    ])
    def test_every_other_form_is_rejected_on_every_python(self, text):
        with pytest.raises(ValueError):
            parse_day(text)


class TestBuildVocabulary:
    def test_self_reference_removed(self):
        entry = SlangEntry("lol", ("m",), ("e",), related_terms=("LoL", "lol"))
        vocab = build_vocabulary([entry])
        assert vocab == {"lol": ()}

    def test_related_normalized_and_deduplicated(self):
        entry = SlangEntry("a", ("m",), ("e",), related_terms=("B", "b", " c ", " \t "))
        assert build_vocabulary([entry]) == {"a": ("b", "c")}

    def test_each_distinct_related_string_is_normalized_once(self, monkeypatch):
        import slangsent.ingest as ingest

        calls = []
        normalize = ingest.normalize_term
        monkeypatch.setattr(ingest, "normalize_term", lambda raw: calls.append(raw) or normalize(raw))
        entries = [SlangEntry(term, ("m",), ("e",), related_terms=related) for term, related in
                   [("a", ("b", "C")), ("b", ("a", "C")), ("A", ("b", " \t "))]]
        vocab = build_vocabulary(entries)
        assert sorted(calls) == [" \t ", "A", "C", "a", "a", "b", "b"]
        assert vocab == {"a": ("b", "c"), "b": ("a", "c")}

    def test_one_record_term_keeps_its_record(self):
        # A term with one record keeps that record's related terms, merged;
        # a term with several pools theirs.
        entry = SlangEntry("LoL ", ("m",), ("e",), ("lol", "ROFL"), 3, 1, date(2020, 1, 1))
        vocab = build_vocabulary([entry, SlangEntry("b", ("m1",), ("e1",), ("x",)),
                                  SlangEntry("B", ("m2",), ("e2",), ("a", "x"))])
        assert list(vocab.items()) == [("lol", ("rofl",)), ("b", ("a", "x"))]

    def test_entry_term_empty_after_normalization(self):
        with pytest.raises(DataError) as caught:
            build_vocabulary([SlangEntry(" ", ("m",), ("x",))])
        assert str(caught.value) == "term is empty after normalization: ' '"

    def test_disjoint_terms_keep_count(self):
        entries = [SlangEntry(t, ("m",), ("e",)) for t in ("a", "b", "c")]
        assert len(build_vocabulary(entries)) == 3

    def test_idempotent(self):
        entries = [
            SlangEntry("a", ("m1",), ("e1",), related_terms=("b", "zz"), upvotes=4),
            SlangEntry("A", ("m2",), ("e2",), upvotes=9),
            SlangEntry("b", ("m",), ("e",), related_terms=("a",), created_date=date(2020, 5, 1)),
        ]
        vocab = build_vocabulary(entries)
        again = [SlangEntry(term, ("m",), ("e",), related) for term, related in vocab.items()]
        assert build_vocabulary(again) == vocab

    def test_term_count_bounded_by_entries(self):
        entries = [SlangEntry("x", ("m",), ("e",)) for _ in range(5)]
        assert len(build_vocabulary(entries)) <= 5

    def test_save_load_round_trip(self, tmp_path):
        entries = [
            SlangEntry("a", ("m",), ("e",), related_terms=("b",)),
            SlangEntry("b", ("m",), ("e",), upvotes=7),
        ]
        vocab = build_vocabulary(entries)
        path = tmp_path / "vocab.jsonl"
        save_vocabulary(vocab, path)
        assert load_vocabulary(path) == vocab


# Raw terms that merge under normalization, and some that normalize to nothing.
# Besides case, spacing and NFC variants, terms that `tokenize` would read
# otherwise: edge punctuation and emoticons (ROADMAP item 15).
RAW_TERMS = st.sampled_from(["a", "A", " a ", "b", "B b", "b  b", "c", "ç", "c\u0327", " ", "",
                             "lol!", "LOL!", ":D", ":d", "#yolo", "XD", "rock 'n' roll"])
ENTRIES = st.lists(st.builds(
    SlangEntry,
    term=RAW_TERMS.filter(str.strip),
    meanings=st.just(("m",)),
    examples=st.just(("e",)),
    related_terms=st.lists(RAW_TERMS, max_size=4).map(tuple),
), max_size=6)


# One-record and many-record terms: case and space variants, blank related
# terms and self-references.
MIXED_ENTRIES = [
    SlangEntry("c", ("m",), ("e",), ("C", "c", " b "), 1, 0, None),
    SlangEntry("a", ("m1",), ("e1",), ("b", "A"), 3, 1, date(2020, 5, 1)),
    SlangEntry(" A ", ("m2", "m3"), ("e2",), (" ",), 2, 0, None),
    SlangEntry("a", ("m4",), ("e4", "e5"), (), 9, 0, date(2019, 1, 1)),
    SlangEntry("B b", ("m",), ("e",), ("b b",), 0, 4, date(2021, 1, 1)),
    SlangEntry("b  b", ("n",), ("f",), ("c",), 0, 4, None),
]


@settings(max_examples=200)
@given(entries=ENTRIES)
@example(entries=MIXED_ENTRIES)
def test_build_vocabulary_equals_the_brute_oracle(entries):
    vocab = build_vocabulary(entries)
    oracle = brute_vocabulary([(entry.term, entry.related_terms) for entry in entries])
    assert list(vocab.items()) == list(oracle.items())


def row(term, related=None):
    """A vocabulary row as `save_vocabulary` writes it; without `related`,
    one with no `related_terms` key."""
    return json.dumps({"term": term} if related is None else {"related_terms": related,
                                                                "term": term})


def vocabulary_file(tmp_path, *records):
    path = tmp_path / "vocabulary.jsonl"
    path.write_text("".join(r + "\n" for r in records), encoding="utf-8")
    return path


class TestLoadVocabulary:
    @settings(max_examples=50)
    @given(entries=ENTRIES)
    def test_reads_back_what_build_vocabulary_made(self, tmp_path_factory, entries):
        vocab = build_vocabulary(entries)
        path = tmp_path_factory.mktemp("vocabulary") / "vocab.jsonl"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded == vocab and list(loaded) == sorted(vocab)

    @pytest.mark.parametrize("records, message", [
        ([row("a", ["B"])], "line 1: related terms ['B'] merge to ['b']"),
        ([row("a", [" "])], "line 1: related terms [' '] merge to []"),
        ([row("a", ["b", "b"])], "line 1: related terms ['b', 'b'] merge to ['b']"),
        ([row("a", []), row("b", ["a", "c  d"])],
         "line 2: related terms ['a', 'c  d'] merge to ['a', 'c d']"),
        ([row("a", []), row("b", []), row("a", [])], "line 3: duplicate term 'a'"),
        ([row("a b ", []), row("a b", [])], "line 1: term is not normalized: 'a b '"),
        ([row(" ", [])], "line 1: term is not normalized: ' '"),
    ])
    def test_unmerged_line_is_a_parse_error_naming_it(self, tmp_path, records, message):
        path = vocabulary_file(tmp_path, *records)
        with pytest.raises(ParseError) as caught:
            load_vocabulary(path)
        assert str(caught.value).startswith(f"{path}: {message}")

    def test_each_distinct_string_is_normalized_once(self, tmp_path, monkeypatch):
        calls = []
        normalize = ingest.normalize_term
        monkeypatch.setattr(ingest, "normalize_term", lambda raw: calls.append(raw) or normalize(raw))
        path = vocabulary_file(tmp_path, row("a", ["b", "c"]), row("b", ["a", "c"]), row("c", []))
        load_vocabulary(path)
        assert sorted(calls) == ["a", "b", "c"]

    def test_rows_holding_every_entry_field_load_as_slim_ones(self, tmp_path):
        # The rows `entry_row` writes, which vocabulary files held before they
        # kept only each term and its related terms: the other keys are ignored.
        vocab = {"a": ("b", "zz"), "b": (), "c d": ("a",)}
        full = tmp_path / "full.jsonl"
        full.write_text("".join(
            entry_row(SlangEntry(term, ("m1", "m2"), ("e",), related, 3, 1, date(2020, 5, 1)))
            for term, related in vocab.items()), encoding="utf-8")
        slim = tmp_path / "slim.jsonl"
        save_vocabulary(vocab, slim)
        assert load_vocabulary(full) == load_vocabulary(slim) == vocab

    def test_row_without_related_terms_loads_with_none(self, tmp_path):
        path = vocabulary_file(tmp_path, row("a"), row("b", ["a"]))
        assert load_vocabulary(path) == {"a": (), "b": ("a",)}


# Vocabulary records as a file may hold them: normalized terms or raw ones,
# and related lists that are merged (normalized, unique, sorted) or raw, with
# unnormalized, repeated, unsorted or blank strings. Either kind of list may
# hold the record's own term.
NORMAL_TERMS = st.sampled_from(["a", "b", "b b", "c", "ç", "lol!", ":d", "rock 'n' roll"])
MERGED_RELATED = st.lists(NORMAL_TERMS, unique=True, max_size=3).map(sorted)
VOCABULARY_RECORDS = st.lists(
    st.tuples(NORMAL_TERMS, MERGED_RELATED)
    | st.tuples(NORMAL_TERMS | RAW_TERMS, MERGED_RELATED | st.lists(RAW_TERMS, max_size=4)),
    max_size=4)


@settings(max_examples=300)
@given(records=VOCABULARY_RECORDS)
@example(records=[("a", ["b", "c"]), ("b", [":d", "a"]), ("c", ["a", "a"]), ("ç", ["ç"])])
@example(records=[("a", ["b", "c"]), ("b", ["a", "c"]), ("c", [])])
def test_load_vocabulary_accepts_what_build_vocabulary_leaves_unchanged(tmp_path_factory,
                                                                        records):
    path = vocabulary_file(tmp_path_factory.mktemp("vocabulary"),
                           *(row(term, related) for term, related in records))
    rows = [(term, tuple(related)) for term, related in records]
    try:
        vocab = build_vocabulary(SlangEntry(term, ("m",), ("e",), related) for term, related in rows)
        unchanged = list(vocab.items()) == rows
    except DataError:  # a term that normalizes to nothing
        unchanged = False
    try:
        loaded = load_vocabulary(path)
    except ParseError:
        assert not unchanged
    else:
        assert unchanged and list(loaded.items()) == rows


class TestGzipTransparency:
    def test_reads_gzip_records(self, tmp_path):
        path = tmp_path / "entries.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(record() + "\n")
        assert len(parse_entries(path)) == 1

    def test_reads_plain_records(self, tmp_path):
        path = tmp_path / "entries.jsonl"
        path.write_text(record() + "\n", encoding="utf-8")
        assert len(parse_entries(path)) == 1


def day_file(tmp_path, day, text):
    """The record file of `day` under `tmp_path`, holding `text`."""
    path = tmp_path / f"{day.isoformat()}.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


class TestFetchNewEntries:
    def test_concatenates_dates(self, tmp_path):
        for day in date_range(date(2020, 1, 1), date(2020, 1, 3)):
            day_file(tmp_path, day, record(f"w{day}") + "\n" + record(f"v{day}") + "\n")
        entries, failures = fetch_new_entries(tmp_path, date(2020, 1, 1), date(2020, 1, 3))
        assert [e.term for e in entries] == [
            f"{w}{day}" for day in ("2020-01-01", "2020-01-02", "2020-01-03") for w in "wv"]
        assert not failures

    def test_failure_recorded_and_run_continues(self, tmp_path):
        for day in date_range(date(2020, 1, 1), date(2020, 1, 3)):
            day_file(tmp_path, day, record() + "\n" + record("x") + "\n")
        unreadable = tmp_path / "2020-01-02.jsonl"
        unreadable.unlink()
        unreadable.mkdir()  # an OSError when read
        entries, failures = fetch_new_entries(tmp_path, date(2020, 1, 1), date(2020, 1, 3))
        assert len(entries) == 4
        [(day, reason)] = failures
        assert day == date(2020, 1, 2) and str(unreadable) in reason

    def test_empty_range(self, tmp_path):
        day_file(tmp_path, date(2020, 1, 1), record() + "\n")
        entries, failures = fetch_new_entries(tmp_path, date(2020, 1, 2), date(2020, 1, 1))
        assert entries == [] and failures == []

    def test_day_file_splits_as_a_record_file(self, tmp_path):
        # A byte-order mark, CRLF and CR line ends; U+2028 and U+0085 inside a
        # value are no line ends.
        line = json.dumps(json.loads(record(meanings=["a\u2028b\x85c"])), ensure_ascii=False)
        path = tmp_path / "2020-01-01.jsonl"
        path.write_bytes(("\ufeff" + line + "\r\n" + line + "\r" + line).encode("utf-8"))
        entries, failures = fetch_new_entries(tmp_path, date(2020, 1, 1), date(2020, 1, 1))
        assert not failures
        assert [e.meanings for e in entries] == [("a\u2028b\x85c",)] * 3

    def test_date_range_inclusive(self):
        days = date_range(date(2020, 2, 27), date(2020, 3, 1))
        assert days == [date(2020, 2, 27), date(2020, 2, 28), date(2020, 2, 29), date(2020, 3, 1)]

    def test_reads_gzip_day_file(self, tmp_path):
        path = tmp_path / "2020-01-01.jsonl.gz"
        path.write_bytes(gzip.compress((record() + "\n").encode("utf-8")))
        entries, failures = fetch_new_entries(tmp_path, date(2020, 1, 1), date(2020, 1, 1))
        assert [e.term for e in entries] == ["lol"] and not failures

    def test_plain_day_file_comes_before_gzip(self, tmp_path):
        day_file(tmp_path, date(2020, 1, 1), record("plain") + "\n")
        gz = tmp_path / "2020-01-01.jsonl.gz"
        gz.write_bytes(gzip.compress((record("gz") + "\n").encode("utf-8")))
        entries, failures = fetch_new_entries(str(tmp_path), date(2020, 1, 1), date(2020, 1, 1))
        assert [e.term for e in entries] == ["plain"] and not failures

    def test_missing_day_is_a_reported_failure(self, tmp_path):
        entries, failures = fetch_new_entries(tmp_path, date(2020, 1, 1), date(2020, 1, 1))
        assert entries == []
        assert failures == [(date(2020, 1, 1), f"no record file for 2020-01-01 under {tmp_path}")]

    def test_bug_while_parsing_a_day_raises(self, tmp_path, monkeypatch):
        # Only a missing, unreadable or malformed day is a failure of that
        # day: an error of the code reading it is not passed off as one.
        day_file(tmp_path, date(2020, 1, 1), record() + "\n")
        day_file(tmp_path, date(2020, 1, 2), record("boom") + "\n")
        parse = ingest._parse_record

        def failing(raw):
            if "boom" in raw:
                raise RuntimeError("a bug")
            return parse(raw)

        monkeypatch.setattr(ingest, "_parse_record", failing)
        with pytest.raises(RuntimeError, match="a bug"):
            fetch_new_entries(tmp_path, date(2020, 1, 1), date(2020, 1, 2))
