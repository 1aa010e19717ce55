from __future__ import annotations

import copy
import json
import math
import pickle
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slangsent.errors import DataError, ParseError
from slangsent.lexicon import (
    Lexicon,
    LexiconEntry,
    LinearScale,
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
from slangsent.pipeline import assemble

from .oracles import brute_combine, brute_seed_merge


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

    @given(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308])
           | st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    def test_mean_strength_of_one_value_is_that_value(self, x):
        mean = mean_strength([x])
        assert type(mean) is float and mean == x
        assert math.copysign(1.0, mean) == math.copysign(1.0, x)


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
    assert f": line {line}: " in str(exc.value)


class TestMergeSeedLexicons:
    def test_single_source_passthrough(self):
        merged = merge_seed_lexicons([SeedSource("a", {"great": 2.0})])
        assert merged["great"].strength == 2.0
        assert merged["great"].stage is Stage.SEED_LEXICON
        assert merged["great"].sources == ("a",)

    def test_mean_across_sources(self):
        merged = merge_seed_lexicons(
            [SeedSource("a", {"ok": 1.0}), SeedSource("b", {"ok": 2.0})]
        )
        assert merged["ok"].strength == 1.5
        assert merged["ok"].sources == ("a", "b")

    def test_empty(self):
        assert len(merge_seed_lexicons([])) == 0

    def test_scale_maps_applied(self):
        scale = LinearScale.from_ranges((-5.0, 5.0))
        merged = merge_seed_lexicons([SeedSource("five", {"love": 5.0, "meh": -2.5}, scale)])
        assert merged["love"].strength == 2.0
        assert merged["meh"].strength == -1.0

    @pytest.mark.parametrize("ends, factor, offset", [
        ((-5.0, 5.0), 0.4, 0.0), ((-4.0, 4.0), 0.5, 0.0), ((0.0, 4.0), 1.0, -2.0),
    ])
    def test_exact_source_range_keeps_its_map(self, ends, factor, offset):
        assert LinearScale.from_ranges(ends) == LinearScale(factor, offset)

    @pytest.mark.parametrize("ends", [(1.0, 1.0), (5.0, -5.0)])
    def test_source_range_must_rise(self, ends):
        with pytest.raises(ValueError, match="must have low below high"):
            LinearScale.from_ranges(ends)

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
        assert merged["lol"].strength == 0.0

    def test_one_source_entries_share_one_sources_tuple(self):
        merged = merge_seed_lexicons(
            [SeedSource("a", {"good": 1.0, "bad": -1.0, "ok": 0.0}), SeedSource("b", {"ok": 1.0})]
        )
        assert merged["good"].sources == ("a",)
        assert merged["good"].sources is merged["bad"].sources
        assert merged["ok"].sources == ("a", "b")

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
            assert min(values) <= merged["t"].strength <= max(values)


# Integer and float `source_range` ends. Rounding carries some ranges' own end
# points off the strength scale unless `from_ranges` corrects for it: [-7, 3]
# once mapped 3 to 2.0000000000000004. A range too narrow for its magnitude,
# one that 64 one-ulp steps of the factor cannot fit, is refused.
RANGE_ENDS = st.integers(-10**6, 10**6) | st.floats(-1e300, 1e300)


@settings(max_examples=300)
@given(ends=st.tuples(RANGE_ENDS, RANGE_ENDS).map(sorted), data=st.data())
@example(ends=[-7, 3], data=None)
@example(ends=[-10, 1], data=None)
@example(ends=[-6, -1], data=None)
@example(ends=[0, 5e-324], data=None)
@example(ends=[1e15, 1e15 + 0.125], data=None)
@example(ends=[1e300, math.nextafter(1e300, math.inf)], data=None)
def test_source_range_maps_every_value_in_it_onto_the_strength_scale(ends, data):
    lo, hi = map(float, ends)
    assume(lo < hi)
    if 4.0 / (hi - lo) == math.inf:  # a subnormal width: no finite factor maps it
        with pytest.raises(ValueError, match="is too wide or too narrow"):
            LinearScale.from_ranges((lo, hi))
        return
    try:
        scale = LinearScale.from_ranges((lo, hi))
    except ValueError as error:
        assert "is too narrow for its magnitude" in str(error)
        return
    inner = hi if data is None else data.draw(st.floats(lo, hi))
    mapped = [scale.apply(value) for value in (lo, inner, hi)]
    assert -2.0 <= mapped[0] <= mapped[1] <= mapped[2] <= 2.0
    assert mapped[0] == pytest.approx(-2.0) and mapped[2] == pytest.approx(2.0)


@pytest.mark.parametrize("lo, hi", [
    (-171883.00000000003, -171883.0), (1e15, 1e15 + 0.125), (1e300, math.nextafter(1e300, math.inf)),
])
def test_narrow_source_range_far_from_zero_still_maps_onto_the_strength_scale(lo, hi):
    # The offset is too coarse here for one-ulp factor steps to find a fit,
    # and a map that fits takes the ends to one point or to part of the
    # scale ([1e15, 1e15 + 0.125] would map both to 0.0), so none is made.
    with pytest.raises(ValueError, match=r"'source_range' \[.*\] is too narrow for its magnitude"):
        LinearScale.from_ranges((lo, hi))


# Raw terms that collide under normalization, inside one source and across sources.
# Besides case and spacing variants, terms that `tokenize` would read
# otherwise: edge punctuation and emoticons (ROADMAP item 15).
SEED_TERMS = st.sampled_from(["a", "A", " a ", "b", "B", "c", "d e", "D  e",
                              "lol!", "LOL!", ":D", ":d", "#yolo", "XD"])
SEED_SOURCES = st.lists(st.builds(
    SeedSource,
    source_id=st.sampled_from(["x", "y", "z"]),
    values=st.dictionaries(SEED_TERMS, st.floats(-2.0, 2.0), max_size=5),
    scale=st.sampled_from([LinearScale(), LinearScale(0.5, 0.25)]),
), max_size=4)


@settings(max_examples=200)
@given(sources=SEED_SOURCES)
@example(sources=[
    SeedSource("x", {"a": 1.0, "A": -0.5, "b": 2.0, "c": -0.0}),
    SeedSource("y", {" a ": 0.25, "d e": -2.0, "D  e": 1.5}, LinearScale(0.5, 0.25)),
])
def test_merge_seed_lexicons_equals_the_brute_oracle(sources):
    merged = merge_seed_lexicons(sources)
    oracle = brute_seed_merge(
        [(s.source_id, s.values, s.scale.factor, s.scale.offset) for s in sources]
    )
    assert {term: (repr(e.strength), e.sources) for term, e in merged.items()} == \
        {term: (repr(strength), ids) for term, (strength, ids) in oracle.items()}
    assert {e.stage for e in merged.values()} <= {Stage.SEED_LEXICON}


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
        assert parsed["lol"].strength == 1.0
        assert parsed["meh"].strength == 0.0
        assert parsed["shit hot"].strength == 2.0
        assert all(parsed[t].stage is Stage.IMPORTED for t in parsed)

    def test_second_export_byte_identical(self, tmp_path):
        lex = Lexicon([entry("a", 0.6), entry("b c", -1.9), entry("d", 0.0)])
        once = export_slangsd(lex)
        assert export_slangsd(load_slangsd(_text_file(tmp_path, once))) == once

    def test_out_of_range_class_rejected(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_slangsd(_text_file(tmp_path, "lol\t7\n"))
        assert str(exc.value).startswith(f"{tmp_path / 'slangsd.txt'}: line 1: ")

    def test_wrong_field_count_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_slangsd(_text_file(tmp_path, "lol\n"))
        with pytest.raises(ParseError):
            load_slangsd(_text_file(tmp_path, "lol\t1\textra\n"))

    def test_bad_line_number_reported(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_slangsd(_text_file(tmp_path, "ok\t1\nbad\tx\n"))
        assert str(exc.value).startswith(f"{tmp_path / 'slangsd.txt'}: line 2: ")

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
        assert str(exc.value).startswith(f"{path}: line 1: ")

    def test_load_given_data_parses_it_not_the_file(self, tmp_path):
        path, other = tmp_path / "lex.jsonl", tmp_path / "other.jsonl"
        save_lexicon(Lexicon([entry("lol", 1.0)]), path)
        lexicon = Lexicon([entry("meh", -0.5, Stage.PROPAGATION), entry("w", 2.0)])
        save_lexicon(lexicon, other)
        assert load_lexicon(path, data=other.read_bytes()) == lexicon

    def test_load_given_data_checks_no_record(self, tmp_path):
        # The bytes of a file the run record vouches for: this version wrote them.
        path = tmp_path / "lex.jsonl"
        save_lexicon(Lexicon([entry("lol", 1.0)]), path)
        data = b'{"sources": [], "stage": "seed_lexicon", "strength": 3.0, "term": "LOL"}\n'
        assert load_lexicon(path, data=data) == Lexicon([entry("LOL", 3.0, Stage.SEED_LEXICON)])

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

    def test_seed_values_line_starting_with_a_hash_is_a_comment(self, tmp_path):
        # even one that holds a tab: a hashtag term cannot be a seed term
        path = tmp_path / "seed.tsv"
        path.write_text("#yolo\t1.5\nlol\t1\n", encoding="utf-8")
        assert load_seed_values(path) == {"lol": 1.0}

    def test_seed_values_file_starting_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "seed.tsv"
        path.write_text("\ufeffgreat\t2.0\nbad\t-1\n", encoding="utf-8")
        assert load_seed_values(path) == {"great": 2.0, "bad": -1.0}

    def test_seed_values_bad_line(self, tmp_path):
        path = tmp_path / "seed.tsv"
        path.write_text("great\ttwo\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_seed_values(path)
        assert str(exc.value).startswith(f"{path}: line 1: ")


class TestCombine:
    def test_first_wins(self):
        a = Lexicon([entry("x", 1.0, Stage.SEED_LEXICON, ("s",))])
        b = Lexicon([entry("x", -1.0), entry("y", 0.5)])
        merged = combine(a, b)
        assert merged["x"].strength == 1.0
        assert merged["x"].stage is Stage.SEED_LEXICON
        assert merged["y"].strength == 0.5

    # Few terms, so the lexicons share most of them.
    @given(st.lists(st.dictionaries(st.sampled_from("abcd"), st.sampled_from([-1.0, 0.5, 2.0]))
                    .map(lambda values: Lexicon(entry(t, s) for t, s in values.items())),
                    max_size=4))
    @example([Lexicon([entry("a", -1.0)]), Lexicon([entry("a", 2.0), entry("b", 0.5)])])
    def test_equals_the_brute_oracle(self, lexicons):
        combined, expected = combine(*lexicons), brute_combine(lexicons)
        assert type(combined) is Lexicon and combined == expected
        assert all(combined[term] is kept for term, kept in expected.items())

    def test_assemble(self):
        vocabulary = {t: () for t in ("a", "b", "c")}
        seed = Lexicon([entry("zzz", 2.0, Stage.SEED_LEXICON, ("s",)),
                        entry("b", 1.0, Stage.SEED_LEXICON, ("s",))])
        later = Lexicon([entry("b", -1.0), entry("c", 0.5)])
        final = assemble(vocabulary, seed, later)
        assert list(final) == ["b", "c"]  # "zzz" is outside the vocabulary
        assert final["b"] is seed["b"]


class TestReadOnlyLexicon:
    LEX = Lexicon([entry("a", 1.0, Stage.SEED_LEXICON, ("s",)), entry("b", -0.5)])

    @pytest.mark.parametrize("mutate", [
        lambda lex: lex.__setitem__("c", entry("c", 1.0)),
        lambda lex: lex.__delitem__("a"),
        lambda lex: lex.__ior__({"c": entry("c", 1.0)}),
        lambda lex: lex.clear(),
        lambda lex: lex.pop("a"),
        lambda lex: lex.popitem(),
        lambda lex: lex.setdefault("c", entry("c", 1.0)),
        lambda lex: lex.update(c=entry("c", 1.0)),
    ], ids=["setitem", "delitem", "ior", "clear", "pop", "popitem", "setdefault", "update"])
    def test_mutator_raises_and_changes_nothing(self, mutate):
        lex = Lexicon(self.LEX.values())
        with pytest.raises(TypeError, match="read-only"):
            mutate(lex)
        assert lex == self.LEX and list(lex) == ["a", "b"]

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda lex: pickle.loads(pickle.dumps(lex)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_duplicate_is_an_equal_lexicon(self, duplicate):
        twin = duplicate(self.LEX)
        assert type(twin) is Lexicon and twin is not self.LEX
        assert twin == self.LEX and twin.entries() == self.LEX.entries()

    def test_equals_a_dict_with_the_same_items(self):
        assert self.LEX == {e.term: e for e in self.LEX.values()}
