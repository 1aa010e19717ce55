from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slangsent.errors import DataError, ParseError
from slangsent.lexicon import (
    Lexicon,
    LexiconEntry,
    LinearScale,
    Polarity,
    SeedSource,
    Stage,
    classify,
    combine,
    export_idiom_table,
    export_slangsd,
    load_lexicon,
    load_seed_values,
    load_slangsd,
    mean_strength,
    merge_seed_lexicons,
    save_lexicon,
)


def entry(term, strength, stage=Stage.IMPORTED, sources=()):
    return LexiconEntry(term, strength, stage, tuple(sources))


class TestClassify:
    @pytest.mark.parametrize(
        "strength,expected",
        [(0.4, 0), (1.5, 2), (-1.5, -2), (0.5, 1), (-0.5, -1), (2.0, 2), (-2.0, -2),
         (0.0, 0), (1.49, 1), (-0.49, 0), (0.75, 1)],
    )
    def test_examples(self, strength, expected):
        assert classify(strength) == expected

    @given(st.floats(min_value=-2.0, max_value=2.0))
    def test_odd(self, s):
        assert classify(-s) == -classify(s)

    @given(st.floats(min_value=-2.0, max_value=2.0))
    def test_range(self, s):
        assert classify(s) in {-2, -1, 0, 1, 2}


class TestStrengthHelpers:
    @given(st.data())
    def test_mean_strength_is_an_order_free_float_within_its_inputs(self, data):
        # ints up to 2**53 are exact as floats; the bound keeps fsum from overflowing
        numbers = st.integers(-2**53, 2**53) | st.floats(-1e300, 1e300)
        values = data.draw(st.lists(numbers, min_size=1, max_size=50))
        mean = mean_strength(values)
        assert type(mean) is float and min(values) <= mean <= max(values)
        assert mean_strength(data.draw(st.permutations(values))) == mean

    def test_polarity_from_value(self):
        assert Polarity.from_value(0.1) is Polarity.POSITIVE
        assert Polarity.from_value(-3) is Polarity.NEGATIVE
        assert Polarity.from_value(0.0) is Polarity.NEUTRAL


def _lexicon_file(tmp_path, rows):
    """load_lexicon over a file of one record per (term, strength, stage, sources) row."""
    path = tmp_path / "lex.jsonl"
    path.write_text("".join(
        json.dumps({"term": t, "strength": s, "stage": stage, "sources": sources}) + "\n"
        for t, s, stage, sources in rows
    ), encoding="utf-8")
    return load_lexicon(path)


def _text_file(tmp_path, text):
    path = tmp_path / "slangsd.txt"
    path.write_text(text, encoding="utf-8")
    return path


def _slangsd_file(tmp_path, rows):
    """load_slangsd over a file of one `term<TAB>class` line per (term, class) row."""
    return load_slangsd(_text_file(tmp_path, "".join(f"{t}\t{cls}\n" for t, cls in rows)))


OK = ("ok", 1.0, "imported", [])

# (id, reader, rows, line the ParseError must name): LexiconEntry and Lexicon
# check nothing themselves, so the readers reject every row that would break
# one of their invariants.
MALFORMED_LEXICON_ROWS = [
    ("unnormalized-term", _lexicon_file, [OK, ("LoL", 1.0, "imported", [])], 2),
    ("empty-term", _lexicon_file, [OK, ("", 1.0, "imported", [])], 2),
    ("strength-out-of-range", _lexicon_file, [OK, ("lol", 2.5, "imported", [])], 2),
    ("seed-stage-without-sources", _lexicon_file, [OK, ("lol", 1.0, "seed_lexicon", [])], 2),
    ("sources-on-other-stage", _lexicon_file, [OK, ("lol", 1.0, "propagation", ["x"])], 2),
    ("term-not-a-string", _lexicon_file, [OK, (5, 1.0, "imported", [])], 2),
    ("sources-a-string", _lexicon_file, [OK, ("lol", 1.0, "seed_lexicon", "xy")], 2),
    ("sources-not-strings", _lexicon_file, [OK, ("lol", 1.0, "seed_lexicon", [1, 2])], 2),
    ("duplicate-term", _lexicon_file,
     [("lol", 1.0, "imported", []), OK, ("lol", 0.0, "imported", [])], 3),
    ("slangsd-unnormalized-term", _slangsd_file, [("ok", 1), ("LoL", 1)], 2),
    ("slangsd-duplicate-term", _slangsd_file, [("lol", 1), ("ok", 1), ("lol", -1)], 3),
]


@pytest.mark.parametrize(
    "read, rows, line",
    [case[1:] for case in MALFORMED_LEXICON_ROWS],
    ids=[case[0] for case in MALFORMED_LEXICON_ROWS],
)
def test_malformed_lexicon_row_names_its_line(tmp_path, read, rows, line):
    with pytest.raises(ParseError) as exc:
        read(tmp_path, rows)
    assert exc.value.line == line


class TestMergeSeedLexicons:
    def test_single_source_passthrough(self):
        merged = merge_seed_lexicons([SeedSource("a", {"great": 2.0})])
        assert merged.strength("great") == 2.0
        assert merged["great"].stage is Stage.SEED_LEXICON
        assert merged["great"].sources == ("a",)

    def test_mean_across_sources(self):
        merged = merge_seed_lexicons(
            [SeedSource("a", {"ok": 1.0}), SeedSource("b", {"ok": 2.0})]
        )
        assert merged.strength("ok") == 1.5
        assert merged["ok"].sources == ("a", "b")

    def test_empty(self):
        assert len(merge_seed_lexicons([])) == 0

    def test_scale_maps_applied(self):
        scale = LinearScale.from_ranges((-5.0, 5.0))
        merged = merge_seed_lexicons([SeedSource("five", {"love": 5.0, "meh": -2.5}, scale)])
        assert merged.strength("love") == 2.0
        assert merged.strength("meh") == -1.0

    def test_scale_error(self):
        with pytest.raises(DataError, match=r"source 'bad' maps 'x' \(3.0\) to 3.0, outside"):
            merge_seed_lexicons([SeedSource("bad", {"x": 3.0})])

    def test_term_empty_after_normalization(self):
        with pytest.raises(DataError) as caught:
            merge_seed_lexicons([SeedSource("s", {" ": 1.0})])
        assert str(caught.value) == "term is empty after normalization: ' '"

    def test_terms_normalized(self):
        merged = merge_seed_lexicons([SeedSource("a", {"  GREAT  ": 1.0})])
        assert "great" in merged

    def test_collision_within_source_averages_first(self):
        merged = merge_seed_lexicons(
            [SeedSource("a", {"LoL": 2.0, "lol": 0.0}), SeedSource("b", {"lol": -1.0})]
        )
        # a contributes mean(2, 0) = 1; cross-source mean(1, -1) = 0
        assert merged.strength("lol") == 0.0

    def test_order_independent(self):
        rng = random.Random(7)
        sources = [
            SeedSource(f"s{i}", {t: rng.uniform(-2, 2) for t in ("a", "b", "c", "d") if rng.random() < 0.8})
            for i in range(5)
        ]
        base = merge_seed_lexicons(sources)
        for _ in range(10):
            rng.shuffle(sources)
            assert merge_seed_lexicons(sources) == base

    def test_bounded_by_contributions(self):
        rng = random.Random(11)
        for _ in range(50):
            values = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 6))]
            sources = [SeedSource(f"s{i}", {"t": v}) for i, v in enumerate(values)]
            merged = merge_seed_lexicons(sources)
            assert min(values) <= merged.strength("t") <= max(values)


class TestSlangsdFormat:
    def test_export_line_format(self):
        lex = Lexicon([entry("shit hot", 2.0)])
        assert export_slangsd(lex) == "shit hot\t2\n"

    def test_sorted_by_term(self):
        lex = Lexicon([entry("zzz", 1.0), entry("aaa", -1.0)])
        assert export_slangsd(lex) == "aaa\t-1\nzzz\t1\n"

    def test_round_trip_classes(self, tmp_path):
        lex = Lexicon([entry("lol", 1.3), entry("meh", -0.2), entry("shit hot", 2.0)])
        parsed = load_slangsd(_text_file(tmp_path, export_slangsd(lex)))
        assert parsed.strength("lol") == 1.0
        assert parsed.strength("meh") == 0.0
        assert parsed.strength("shit hot") == 2.0
        assert all(parsed[t].stage is Stage.IMPORTED for t in parsed)

    def test_second_export_byte_identical(self, tmp_path):
        lex = Lexicon([entry("a", 0.6), entry("b c", -1.9), entry("d", 0.0)])
        once = export_slangsd(lex)
        assert export_slangsd(load_slangsd(_text_file(tmp_path, once))) == once

    def test_out_of_range_class_rejected(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_slangsd(_text_file(tmp_path, "lol\t7\n"))
        assert exc.value.line == 1

    def test_wrong_field_count_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_slangsd(_text_file(tmp_path, "lol\n"))
        with pytest.raises(ParseError):
            load_slangsd(_text_file(tmp_path, "lol\t1\textra\n"))

    def test_bad_line_number_reported(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_slangsd(_text_file(tmp_path, "ok\t1\nbad\tx\n"))
        assert exc.value.line == 2

    def test_duplicate_term_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_slangsd(_text_file(tmp_path, "lol\t1\nlol\t1\n"))

    def test_blank_lines_are_skipped(self, tmp_path):
        assert list(load_slangsd(_text_file(tmp_path, "lol\t1\n\n"))) == ["lol"]

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = _text_file(tmp_path, "\n \nlol\t1\nlol\t2\n")
        with pytest.raises(ParseError) as exc:
            load_slangsd(path)
        assert str(exc.value) == f"{path}: line 4: duplicate term 'lol'"

    def test_byte_order_mark_and_crlf_are_not_part_of_the_term(self, tmp_path):
        path = tmp_path / "slangsd.txt"
        path.write_bytes(b"\xef\xbb\xbfgood\t1\r\n")
        assert list(load_slangsd(path)) == ["good"]

    @pytest.mark.parametrize("text, message", [
        ("A" * 10_000, "line 1: expected 'term<TAB>class', got 'AAAAAAAAAAAA...AAAAAAAAAAAAA'"),
        ("lol\t" + "x" * 10_000, "line 1: bad class 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        ("lol\t" + "7" * 4000, "line 1: class 777777777777777777...7777777777777777777 outside -2..2"),
        ("A" * 10_000 + "\t1", "line 1: term is not normalized: 'AAAAAAAAAAAA...AAAAAAAAAAAAA'"),
        (("a" * 10_000 + "\t1\n") * 2, "line 2: duplicate term 'aaaaaaaaaaaa...aaaaaaaaaaaaa'"),
    ], ids=["line", "class-text", "class-4000-digits", "term", "duplicate-term"])
    def test_long_value_is_shortened(self, tmp_path, text, message):
        path = _text_file(tmp_path, text)
        with pytest.raises(ParseError) as exc:
            load_slangsd(path)
        assert str(exc.value).startswith(f"{path}: {message}")
        assert len(str(exc.value)) - len(f"{path}: ") < 200

    @given(
        st.dictionaries(
            st.text(alphabet="abcdefg ", min_size=1, max_size=8).map(str.strip).filter(bool),
            st.floats(min_value=-2, max_value=2),
            max_size=8,
        )
    )
    def test_export_parse_export_identity(self, tmp_path_factory, table):
        lex = Lexicon(
            entry(" ".join(t.split()), s) for t, s in table.items() if t.strip()
        )
        once = export_slangsd(lex)
        path = _text_file(tmp_path_factory.mktemp("slangsd"), once)
        assert export_slangsd(load_slangsd(path)) == once


class TestIdiomTable:
    def test_doubles_class(self):
        assert export_idiom_table(Lexicon([entry("lit", 2.0)])) == "lit\t4\n"
        assert export_idiom_table(Lexicon([entry("meh", -1.0)])) == "meh\t-2\n"

    def test_omits_neutral(self):
        lex = Lexicon([entry("meh", 0.2), entry("lit", 1.6)])
        assert export_idiom_table(lex) == "lit\t4\n"

    def test_values_in_allowed_set(self):
        rng = random.Random(3)
        lex = Lexicon([entry(f"t{i}", rng.uniform(-2, 2)) for i in range(200)])
        values = {int(line.split("\t")[1]) for line in export_idiom_table(lex).splitlines()}
        assert values <= {-4, -2, 2, 4}


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        lex = Lexicon(
            [
                entry("lol", 1.2345678901234567, Stage.CORPUS_ESTIMATE),
                entry("shit hot", 2.0, Stage.SEED_LEXICON, sources=("a", "b")),
                entry("meh", -0.125, Stage.PROPAGATION),
            ]
        )
        path = tmp_path / "lex.jsonl"
        save_lexicon(lex, path)
        assert load_lexicon(path) == lex

    def test_load_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"term": "lol", "strength": 3.0, "stage": "imported", "sources": []}\n')
        with pytest.raises(ParseError) as exc:
            load_lexicon(path)
        assert exc.value.line == 1

    def test_load_rejects_bad_stage(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"term": "lol", "strength": 1.0, "stage": "nope", "sources": []}\n')
        with pytest.raises(ParseError):
            load_lexicon(path)

    def test_null_sources_count_as_absent(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"term": "lol", "strength": 1.0, "stage": "imported", "sources": null}\n')
        assert load_lexicon(path)["lol"].sources == ()
        path.write_text('{"term": "lol", "strength": 1, "stage": "seed_lexicon", "sources": null}\n')
        with pytest.raises(ParseError, match=r"line 1: sources \[\] do not fit stage seed_lexicon"):
            load_lexicon(path)

    def test_interrupted_save_keeps_previous_file(self, tmp_path):
        class Interrupted(Lexicon):
            def entries(self):
                for index, item in enumerate(super().entries()):
                    if index == 500:
                        raise RuntimeError("interrupted")
                    yield item

        path = tmp_path / "lex.jsonl"
        save_lexicon(Lexicon([entry("old", 1.0)]), path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="interrupted"):
            save_lexicon(Interrupted(entry(f"t{i:04d}", 0.5) for i in range(1000)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["lex.jsonl"]

    def test_seed_values_file(self, tmp_path):
        path = tmp_path / "seed.tsv"
        path.write_text("# comment\ngreat\t2.0\n\nbad\t-1\n", encoding="utf-8")
        assert load_seed_values(path) == {"great": 2.0, "bad": -1.0}

    def test_seed_values_file_starting_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "seed.tsv"
        path.write_text("\ufeffgreat\t2.0\nbad\t-1\n", encoding="utf-8")
        assert load_seed_values(path) == {"great": 2.0, "bad": -1.0}

    def test_seed_values_bad_line(self, tmp_path):
        path = tmp_path / "seed.tsv"
        path.write_text("great\ttwo\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_seed_values(path)
        assert exc.value.line == 1


class TestCombine:
    def test_first_wins(self):
        a = Lexicon([entry("x", 1.0, Stage.SEED_LEXICON, ("s",))])
        b = Lexicon([entry("x", -1.0), entry("y", 0.5)])
        merged = combine(a, b)
        assert merged.strength("x") == 1.0
        assert merged["x"].stage is Stage.SEED_LEXICON
        assert merged.strength("y") == 0.5

    def test_restricted(self):
        lex = Lexicon([entry("a", 1.0), entry("b", -1.0)])
        sub = lex.restricted(["b", "zzz"])
        assert sorted(sub) == ["b"]
