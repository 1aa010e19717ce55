from __future__ import annotations

import gzip
import json
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slangsent.errors import DataError, ParseError
from slangsent.ingest import (
    DirectoryFetcher,
    SlangEntry,
    build_vocabulary,
    date_range,
    extension_url,
    fetch_new_entries,
    load_vocabulary,
    parse_day,
    parse_entries,
    save_vocabulary,
    serialize_entry,
)
from slangsent.records import write_records


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
        assert entries[0].net_votes == 8

    def test_missing_examples_rejected(self, tmp_path):
        line = json.dumps({"term": "x", "meanings": ["m"], "upvotes": 0, "downvotes": 0})
        with pytest.raises(ParseError) as exc:
            entries_from(tmp_path, [line])
        assert exc.value.line == 1

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
        assert exc.value.line == 2

    def test_lenient_mode_skips_and_reports(self, tmp_path):
        issues = []
        entries = entries_from(tmp_path, [record("a"), "{oops", record("b")], issues=issues)
        assert [e.term for e in entries] == ["a", "b"]
        assert len(issues) == 1 and issues[0].line == 2

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
        write_records(tmp_path / "entries.jsonl", map(serialize_entry, entries))
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
    def test_vote_ordering_of_meanings(self):
        low = SlangEntry("LOL", ("second",), ("e2",), upvotes=3, downvotes=0)
        high = SlangEntry("lol", ("first",), ("e1",), upvotes=10, downvotes=0)
        vocab = build_vocabulary([low, high])
        assert list(vocab) == ["lol"]
        assert vocab["lol"].meanings == ("first", "second")
        assert vocab["lol"].upvotes == 13

    def test_self_reference_removed(self):
        entry = SlangEntry("lol", ("m",), ("e",), related_terms=("LoL", "lol"))
        vocab = build_vocabulary([entry])
        assert vocab["lol"].related_terms == ()

    def test_related_normalized_and_deduplicated(self):
        entry = SlangEntry("a", ("m",), ("e",), related_terms=("B", "b", " c ", " \t "))
        assert build_vocabulary([entry])["a"].related_terms == ("b", "c")

    def test_each_distinct_related_string_is_normalized_once(self, monkeypatch):
        import slangsent.ingest as ingest

        calls = []
        normalize = ingest.normalize_term
        monkeypatch.setattr(ingest, "normalize_term", lambda raw: calls.append(raw) or normalize(raw))
        entries = [SlangEntry(term, ("m",), ("e",), related_terms=related) for term, related in
                   [("a", ("b", "C")), ("b", ("a", "C")), ("A", ("b", " \t "))]]
        vocab = build_vocabulary(entries)
        assert sorted(calls) == [" \t ", "A", "C", "a", "a", "b", "b"]
        assert {term: vocab[term].related_terms for term in vocab} == {"a": ("b", "c"),
                                                                      "b": ("a", "c")}

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
        assert build_vocabulary(list(vocab.values())) == vocab

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
RAW_TERMS = st.sampled_from(["a", "A", " a ", "b", "B b", "b  b", "c", "ç", "c\u0327", " ", ""])
ENTRIES = st.lists(st.builds(
    SlangEntry,
    term=RAW_TERMS.filter(str.strip),
    meanings=st.lists(st.text(max_size=3), min_size=1, max_size=2).map(tuple),
    examples=st.lists(st.text(max_size=3), min_size=1, max_size=2).map(tuple),
    related_terms=st.lists(RAW_TERMS, max_size=4).map(tuple),
    upvotes=st.integers(0, 9),
    downvotes=st.integers(0, 9),
    created_date=st.none() | st.dates(date(2000, 1, 1), date(2030, 1, 1)),
), max_size=6)


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
        assert loaded == build_vocabulary(parse_entries(path)) == vocab
        assert list(loaded) == sorted(vocab)

    @pytest.mark.parametrize("records, message", [
        ([record("a", related_terms=["B"])], "line 1: related term is not normalized: 'B'"),
        ([record("a", related_terms=[" "])], "line 1: related term is not normalized: ' '"),
        ([record("a", related_terms=["b", "b"])], "line 1: related terms are not sorted and unique"),
        ([record("a"), record("b", related_terms=["a", "c  d"])],
         "line 2: related term is not normalized: 'c  d'"),
        ([record("a"), record("b"), record("a")], "line 3: duplicate term 'a'"),
        ([record("a b "), record("a b")], "line 1: term is not normalized: 'a b '"),
        ([record(" ")], "line 1: term is not normalized: ' '"),
    ])
    def test_unmerged_line_is_a_parse_error_naming_it(self, tmp_path, records, message):
        path = vocabulary_file(tmp_path, *records)
        with pytest.raises(ParseError) as caught:
            load_vocabulary(path)
        assert str(caught.value).startswith(f"{path}: {message}")

    def test_each_distinct_string_is_normalized_once(self, tmp_path, monkeypatch):
        import slangsent.text as text

        calls = []
        normalize = text.normalize_term
        monkeypatch.setattr(text, "normalize_term", lambda raw: calls.append(raw) or normalize(raw))
        path = vocabulary_file(tmp_path, record("a", related_terms=["b", "c"]),
                               record("b", related_terms=["a", "c"]), record("c"))
        load_vocabulary(path)
        assert sorted(calls) == ["a", "b", "c"]


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


class TestExtensionUrl:
    def test_reference_date(self):
        assert (
            extension_url(date(2016, 7, 14))
            == "http://www.urbandictionary.com/yesterday.php?date=2016-07-14"
        )

    def test_zero_padding(self):
        assert extension_url(date(2016, 1, 1)).endswith("?date=2016-01-01")

    def test_pre_2000(self):
        assert extension_url(date(1999, 12, 31)).endswith("?date=1999-12-31")


def day_file(tmp_path, day, text):
    """The record file of `day` under `tmp_path`, holding `text`."""
    path = tmp_path / f"{day.isoformat()}.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


class TestFetchNewEntries:
    def test_concatenates_dates(self, tmp_path):
        def fetcher(day):
            return day_file(tmp_path, day, record(f"w{day}") + "\n" + record(f"v{day}") + "\n")

        entries, report = fetch_new_entries(fetcher, date(2020, 1, 1), date(2020, 1, 3))
        assert len(entries) == 6
        assert report.requested == 3 and not report.failures

    def test_failure_recorded_and_run_continues(self, tmp_path):
        def fetcher(day):
            if day == date(2020, 1, 2):
                raise OSError("boom")
            return day_file(tmp_path, day, record() + "\n" + record("x") + "\n")

        entries, report = fetch_new_entries(fetcher, date(2020, 1, 1), date(2020, 1, 3))
        assert len(entries) == 4
        assert report.requested == 3
        assert report.failures == [(date(2020, 1, 2), "boom")]

    def test_empty_range(self, tmp_path):
        entries, report = fetch_new_entries(lambda day: day_file(tmp_path, day, ""),
                                            date(2020, 1, 2), date(2020, 1, 1))
        assert entries == [] and report.requested == 0

    def test_day_file_splits_as_a_record_file(self, tmp_path):
        # A byte-order mark, CRLF and CR line ends; U+2028 and U+0085 inside a
        # value are no line ends.
        line = json.dumps(json.loads(record(meanings=["a\u2028b\x85c"])), ensure_ascii=False)
        path = tmp_path / "2020-01-01.jsonl"
        path.write_bytes(("\ufeff" + line + "\r\n" + line + "\r" + line).encode("utf-8"))
        entries, report = fetch_new_entries(lambda day: path, date(2020, 1, 1), date(2020, 1, 1))
        assert not report.failures
        assert [e.meanings for e in entries] == [("a\u2028b\x85c",)] * 3

    def test_date_range_inclusive(self):
        days = date_range(date(2020, 2, 27), date(2020, 3, 1))
        assert days == [date(2020, 2, 27), date(2020, 2, 28), date(2020, 2, 29), date(2020, 3, 1)]


class TestDirectoryFetcher:
    def test_fetches_by_date(self, tmp_path):
        (tmp_path / "2020-01-01.jsonl").write_text(record() + "\n", encoding="utf-8")
        fetcher = DirectoryFetcher(tmp_path)
        payload = fetcher(date(2020, 1, 1))
        assert payload == tmp_path / "2020-01-01.jsonl"
        assert json.loads(payload.read_text(encoding="utf-8"))["term"] == "lol"

    def test_fetches_gzip_file(self, tmp_path):
        path = tmp_path / "2020-01-01.jsonl.gz"
        path.write_bytes(gzip.compress((record() + "\n").encode("utf-8")))
        entries, report = fetch_new_entries(
            DirectoryFetcher(tmp_path), date(2020, 1, 1), date(2020, 1, 1)
        )
        assert [e.term for e in entries] == ["lol"] and not report.failures

    def test_missing_date_raises(self, tmp_path):
        fetcher = DirectoryFetcher(tmp_path)
        with pytest.raises(FileNotFoundError):
            fetcher(date(2020, 1, 1))
