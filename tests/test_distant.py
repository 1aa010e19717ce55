from __future__ import annotations

import json
import unicodedata

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slangsent.corpus import Document
from slangsent.distant import (
    EmoticonSet,
    LabeledDocument,
    build_eval_corpus,
    default_emoticons,
    load_labeled_corpus,
    save_labeled_corpus,
)
from slangsent.errors import ParseError
from slangsent.lexicon import Polarity
from slangsent.text import EMOTICON_RE, chunk_token, tokenize

from .oracles import reference_label
from .test_text import texts

LABELS = "one of 'positive', 'negative', 'neutral'"
EMOTICONS = EmoticonSet(positive=frozenset({":)", ":D"}), negative=frozenset({":(", "D:"}))


def doc(text, id="d"):
    return Document.from_text(id, text)


def label_by_emoticon(document, emoticons):
    """The labeled document `build_eval_corpus` makes of one document, or
    None when it discards it."""
    labeled, _ = build_eval_corpus([document], emoticons)
    return labeled[0] if labeled else None


def swapped(emoticons):
    return EmoticonSet(positive=emoticons.negative, negative=emoticons.positive)


def emoticons_from(tmp_path, *lines):
    """The emoticon set `EmoticonSet.from_file` reads from a file of `lines`."""
    path = tmp_path / "emoticons.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return EmoticonSet.from_file(path)


class TestEmoticonSet:
    def test_rejects_overlap(self, tmp_path):
        with pytest.raises(ParseError):
            emoticons_from(tmp_path, "[positive]", ":)", "[negative]", ":)", ":(")

    def test_rejects_empty_side(self, tmp_path):
        with pytest.raises(ParseError):
            emoticons_from(tmp_path, "[positive]", "[negative]", ":(")

    def test_from_lines(self, tmp_path):
        parsed = emoticons_from(tmp_path, "# comment", "[positive]", ":)", "", "[negative]", ":(",
                                "D:")
        assert parsed.positive == {":)"} and parsed.negative == {":(", "D:"}

    def test_from_file_starting_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "emoticons.txt"
        path.write_text("\ufeff[positive]\n:)\n[negative]\n:(\n", encoding="utf-8")
        parsed = EmoticonSet.from_file(path)
        assert parsed.positive == {":)"} and parsed.negative == {":("}

    def test_from_lines_rejects_headerless_token(self, tmp_path):
        with pytest.raises(ParseError):
            emoticons_from(tmp_path, ":)")

    def test_from_lines_rejects_unknown_section(self, tmp_path):
        with pytest.raises(ParseError):
            emoticons_from(tmp_path, "[meh]", ":|")

    @pytest.mark.parametrize("token", ["Lol", ": )", ":)."])
    def test_from_lines_rejects_a_token_the_tokenizer_never_emits(self, tmp_path, token):
        with pytest.raises(ParseError) as exc:
            emoticons_from(tmp_path, "[positive]", ":)", token, "[negative]", ":(")
        assert str(exc.value).startswith(f"{tmp_path / 'emoticons.txt'}: line 3: ")

    def test_default_set_is_tokenizable(self):
        # every shipped emoticon must survive tokenization unchanged,
        # otherwise it could never label anything
        shipped = default_emoticons()
        for token in shipped.positive | shipped.negative:
            assert EMOTICON_RE.fullmatch(token) and chunk_token(token) == token

    def test_swapped(self):
        flipped = swapped(EMOTICONS)
        assert flipped.positive == EMOTICONS.negative
        assert flipped.negative == EMOTICONS.positive


class TestLabelByEmoticon:
    def test_positive(self):
        labeled = label_by_emoticon(doc(":) great day"), EMOTICONS)
        assert labeled.gold is Polarity.POSITIVE
        assert labeled.document.tokens == ("great", "day")

    def test_negative(self):
        labeled = label_by_emoticon(doc("so bad D:"), EMOTICONS)
        assert labeled.gold is Polarity.NEGATIVE
        assert labeled.document.tokens == ("so", "bad")

    def test_conflict_discarded(self):
        assert label_by_emoticon(doc("mixed :) :( feelings"), EMOTICONS) is None

    def test_no_emoticon_discarded(self):
        assert label_by_emoticon(doc("no face here"), EMOTICONS) is None

    def test_multiplicity_irrelevant(self):
        one = label_by_emoticon(doc(":) nice"), EMOTICONS)
        two = label_by_emoticon(doc(":) nice :D :)"), EMOTICONS)
        assert one.gold is two.gold is Polarity.POSITIVE
        assert one.document.tokens == two.document.tokens == ("nice",)

    def test_position_irrelevant(self):
        front = label_by_emoticon(doc(":) good stuff"), EMOTICONS)
        back = label_by_emoticon(doc("good stuff :)"), EMOTICONS)
        assert front.gold is back.gold
        assert front.document.tokens == back.document.tokens

    def test_strips_from_text_too(self):
        labeled = label_by_emoticon(doc("great :). really"), EMOTICONS)
        assert ":" not in labeled.document.text
        # re-tokenizing the stripped text gives exactly the stripped tokens
        assert labeled.document.tokens == Document.from_text("x", labeled.document.text).tokens

    def test_unlisted_emoticon_is_not_a_label_source(self):
        assert label_by_emoticon(doc("odd ;_; face"), EMOTICONS) is None

    def test_swap_symmetry(self):
        flipped = swapped(EMOTICONS)
        for text in (":) fine", "D: ugh", "both :) :(", "none at all"):
            original = label_by_emoticon(doc(text), EMOTICONS)
            mirrored = label_by_emoticon(doc(text), flipped)
            if original is None:
                assert mirrored is None
            else:
                assert mirrored is not None
                assert mirrored.document == original.document
                assert {original.gold, mirrored.gold} == {Polarity.POSITIVE, Polarity.NEGATIVE}

    def test_strips_a_listed_token_that_is_no_emoticon_shape(self):
        # "(xd)" is no emoticon chunk, but it tokenizes to "xd", which labels
        # the document, so it must be stripped like any label source
        emoticons = EmoticonSet(positive=frozenset({"xd"}), negative=frozenset({":("}))
        labeled = label_by_emoticon(doc("so fun (xd) today"), emoticons)
        assert labeled.gold is Polarity.POSITIVE
        assert labeled.document.text == "so fun today"
        assert labeled.document.tokens == ("so", "fun", "today")


# Label sources as the tokenizer emits them: emoticons, and words an
# emoticon file may list, such as "xd", which also shapes an emoticon.
_SOURCES = sorted(default_emoticons().positive | default_emoticons().negative
                  | {"xd", "lol", "caf\u00e9", "so-so", "8"})


@st.composite
def emoticon_sets(draw):
    pool = draw(st.lists(st.sampled_from(_SOURCES), min_size=2, max_size=12, unique=True))
    cut = draw(st.integers(1, len(pool) - 1))
    return EmoticonSet(positive=frozenset(pool[:cut]), negative=frozenset(pool[cut:]))


class TestBuildEvalCorpus:
    @given(st.lists(texts, max_size=4), emoticon_sets())
    @example(["so fun (xd) today", "xd :( ugh", "cafe\u0301 :)."],
             EmoticonSet(positive=frozenset({"xd", "caf\u00e9"}), negative=frozenset({":("})))
    # Every chunk makes a token, so the labeler strips by the tokens alone.
    @example([":) great day", "bad D: day :(", "no face"], EMOTICONS)
    # A punctuation-only chunk makes no token, so the chunks are tokenized again.
    @example(["... :) ok", "so fun (xd) \u2026 today"],
             EmoticonSet(positive=frozenset({"xd", ":)"}), negative=frozenset({":("})))
    # U+2000 and U+2001 are whitespace that NFC maps to other whitespace.
    @example(["cafe\u0301\u2000yum\u2001:)", "bad\u2000day :(", "nice\u2001cafe\u0301"],
             EmoticonSet(positive=frozenset({":)", "caf\u00e9"}), negative=frozenset({":("})))
    def test_labels_as_the_reference(self, raw_texts, emoticons):
        documents = [doc(text, id=str(i)) for i, text in enumerate(raw_texts)]
        labeled, report = build_eval_corpus(documents, emoticons)
        expected = [reference_label(text, emoticons.positive, emoticons.negative)
                    for text in raw_texts]
        assert [
            (item.document.id, item.gold.value, item.document.text, item.document.tokens)
            for item in labeled
        ] == [(str(i), *outcome) for i, outcome in enumerate(expected)
              if isinstance(outcome, tuple)]
        assert report.discarded_conflict == expected.count("conflict")
        assert report.discarded_unmarked == expected.count("unmarked")
        for item in labeled:
            assert tokenize(item.document.text) == list(item.document.tokens)

    def test_only_two_canonical_decompositions_hold_whitespace(self):
        # The labeler takes chunk i to have made token i when their counts
        # agree, which holds only if NFC neither joins nor splits whitespace
        # chunks: no whitespace character moves in reordering (each is a
        # starter), and the only canonical decompositions holding one map
        # whitespace to whitespace. A new Unicode database must keep this.
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
        assert [c for c in spaces if unicodedata.combining(c)] == []
        holding = {}
        for c in map(chr, range(0x110000)):
            decomposition = unicodedata.decomposition(c)
            if decomposition and not decomposition.startswith("<"):
                mapped = "".join(chr(int(code, 16)) for code in decomposition.split())
                if c.isspace() or any(m.isspace() for m in mapped):
                    holding[c] = mapped
        assert holding == {"\u2000": "\u2002", "\u2001": "\u2003"}

    def test_one_of_each_outcome(self):
        documents = [doc(":) yay", id="1"), doc(":( :) huh", id="2"), doc("plain", id="3"),
                     doc("ugh :(", id="4")]
        labeled, report = build_eval_corpus(documents, EMOTICONS)
        assert [item.document.id for item in labeled] == ["1", "4"]
        assert report.labeled + report.discarded_conflict + report.discarded_unmarked == 4
        assert report.labeled == 2
        assert report.discarded_conflict == 1 and report.discarded_unmarked == 1

    def test_empty_stream(self):
        labeled, report = build_eval_corpus([], EMOTICONS)
        assert labeled == []
        assert report.labeled + report.discarded_conflict + report.discarded_unmarked == 0

    def test_no_emoticon_tokens_in_output(self):
        documents = [doc(f"w{i} :) {'D:' if i % 2 else ':D'}", id=str(i)) for i in range(10)]
        labeled, _ = build_eval_corpus(documents, EMOTICONS)
        for item in labeled:
            assert not set(item.document.tokens) & (EMOTICONS.positive | EMOTICONS.negative)


class TestLabeledCorpusFile:
    def test_round_trip(self, tmp_path):
        labeled, _ = build_eval_corpus(
            [doc("good one :)", id="a"), doc("bad one :(", id="b")], EMOTICONS
        )
        path = tmp_path / "labeled.jsonl"
        save_labeled_corpus(labeled, path)
        assert load_labeled_corpus(path) == labeled

    @pytest.mark.parametrize("fields, message", [
        ({"label": "meh"}, f"'label' must be {LABELS}, got 'meh'"),
        ({"label": ["positive"]}, f"'label' must be {LABELS}, got ['positive']"),
        ({"label": {"a": 1}}, f"'label' must be {LABELS}, got {{'a': 1}}"),
        ({"label": None}, "missing field 'label'"),
        ({}, "missing field 'label'"),
    ], ids=["meh", "list", "object", "null", "absent"])
    def test_bad_label_rejected(self, tmp_path, fields, message):
        path = tmp_path / "labeled.jsonl"
        path.write_text(json.dumps({"id": "1", "text": "x", **fields}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_labeled_corpus(path)
        assert str(exc.value).startswith(f"{path}: line 1: ")
        assert message in str(exc.value)

    def test_neutral_label_supported(self, tmp_path):
        path = tmp_path / "labeled.jsonl"
        path.write_text('{"id": "1", "label": "neutral", "text": "x"}\n', encoding="utf-8")
        items = load_labeled_corpus(path)
        assert items[0].gold is Polarity.NEUTRAL
