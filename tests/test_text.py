from __future__ import annotations

import reprlib
import unicodedata

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slangsent.distant import default_emoticons
from slangsent.errors import ParseError
from slangsent.ingest import SlangEntry, load_vocabulary, save_vocabulary
from slangsent.lexicon import (
    Lexicon,
    LexiconEntry,
    Stage,
    load_lexicon,
    parse_slangsd,
    save_lexicon,
)
from slangsent.text import chunk_token, emoticon_token, find_occurrences, normalize_term, tokenize

from .oracles import brute_spans, reference_tokenize

# Chunk cores: words (with inner apostrophes, hyphens, digits and non-ASCII
# letters, some decomposed), the default emoticons, and near-emoticons.
_WORDS = ["lol", "shit", "hot", "life's", "so-so", "x", "xd", "8", "d", "p", "o", "t",
          "caf\u00e9", "cafe\u0301", "na\u00efve", "stra\u00dfe", "\u03c3\u03af\u03c3\u03c5",
          "\u65e5\u672c", "i\u0307", "\u212b", "2day", "_", "o_o", "^^^"]
_EMOTICONS = sorted(default_emoticons().all_tokens)
# Wrapping punctuation an emoticon sheds, and edge punctuation a word sheds.
_EDGES = ["", "", ".", ",", "!", "?", ";", '"', "'", "`", "\u2026", "\u201c", "\u201d",
          "\u2018", "\u2019", "(", ")", "[", "]", "<", ">", "-", "_", "*", "/", "...", '"(']
_CASES = [str, str.upper, str.lower, str.swapcase, str.title]
_SPACES = [" ", " ", "  ", "\t", "\n", "\u00a0", "\u3000", "\u2000"]
# Tokens and terms of 1-4 words over three words, so that repeats, adjacent
# matches and overlapping candidates occur.
_ABC = st.sampled_from(["a", "b", "c"])
abc_terms = st.lists(_ABC, min_size=1, max_size=4).map(" ".join)
# Documents hold tuples; callers may pass any sequence, lists included.
abc_tokens = st.lists(_ABC, max_size=14).flatmap(lambda t: st.sampled_from([t, tuple(t)]))

chunks = st.builds(
    lambda before, case, core, after: before + case(core) + after,
    st.sampled_from(_EDGES), st.sampled_from(_CASES),
    st.sampled_from(_WORDS + _EMOTICONS), st.sampled_from(_EDGES),
)
texts = st.one_of(
    st.builds(
        lambda parts, form: unicodedata.normalize(form, "".join(parts)) if form else "".join(parts),
        st.lists(st.one_of(chunks, st.sampled_from(_SPACES)), max_size=12),
        st.sampled_from([None, "NFC", "NFD"]),
    ),
    st.text(max_size=20),
)


class TestNormalizeTerm:
    def test_case_folding(self):
        assert normalize_term("LoL") == "lol"

    def test_whitespace_collapse(self):
        assert normalize_term("  Shit   Hot ") == "shit hot"

    def test_empty_after_normalization(self):
        assert normalize_term("   ") == ""

    def test_nfc(self):
        # decomposed e + combining acute vs precomposed
        assert normalize_term("café") == normalize_term("café")

    @given(st.text(max_size=30))
    def test_idempotent(self, raw):
        once = normalize_term(raw)
        assert normalize_term(once) == once

    @given(st.text(max_size=30))
    def test_no_outer_or_doubled_space(self, raw):
        term = normalize_term(raw)
        assert term == term.strip()
        assert "  " not in term
        assert term == term.lower()


# Terms near a normalized one: case variants, inner and outer whitespace
# (tabs, U+00A0 and U+2028 among it), NFD forms, and the empty string.
_TERM_PARTS = ["a", "A", "b", "\u00e9", "e\u0301", "\u00c9", "E\u0301",
               " ", "  ", "\t", "\u00a0", "\u2028"]
near_terms = st.lists(st.sampled_from(_TERM_PARTS), max_size=6).map("".join)


def _normalized(raw: str) -> bool:
    return raw != "" and normalize_term(raw) == raw


class TestCheckedTerm:
    @given(raw=near_terms)
    @example(raw="")
    @example(raw="a b")
    @example(raw="a  b")
    @example(raw="e\u0301")
    @example(raw="\u00e9 a")
    # Long enough that the repr of the dictionary line, and of the term, is shortened.
    @example(raw="\t\u2028\u2028\u2028\u2028")
    @example(raw="a\u00a0\u2028\u2028\u2028\u2028")
    def test_every_term_reader_takes_exactly_the_normalized_terms(self, tmp_path_factory, raw):
        directory, line = tmp_path_factory.mktemp("terms"), f"{raw}\t1"
        save_lexicon(Lexicon([LexiconEntry(raw, 1.0, Stage.IMPORTED)]), directory / "lex.jsonl")
        save_vocabulary({raw: SlangEntry(raw, ("m",), ("e",))}, directory / "vocab.jsonl")
        readers = {
            "lexicon": lambda: load_lexicon(directory / "lex.jsonl"),
            "vocabulary": lambda: load_vocabulary(directory / "vocab.jsonl"),
            # A list of lines: str.splitlines would also split the text at U+2028.
            "dictionary": lambda: parse_slangsd([line + "\n"]),
        }
        for name, read in readers.items():
            if _normalized(raw):
                assert list(read()) == [raw], name
                continue
            with pytest.raises(ParseError) as caught:
                read()
            if name == "dictionary" and "\t" in raw:  # the line has three fields
                assert str(caught.value) == (
                    f"line 1: expected 'term<TAB>class', got {reprlib.repr(line)}")
            else:
                assert str(caught.value).endswith(
                    f"line 1: term is not normalized: {reprlib.repr(raw)}"), name


class TestTokenize:
    def test_strips_trailing_punctuation(self):
        text = "Apple you knocked it out of the park!"
        assert tokenize(text) == ["apple", "you", "knocked", "it", "out", "of", "the", "park"]

    def test_keeps_internal_apostrophe(self):
        assert tokenize("battery life's shit hot") == ["battery", "life's", "shit", "hot"]

    def test_preserves_emoticon(self):
        assert tokenize(":) great") == [":)", "great"]

    def test_preserves_emoticon_next_to_punctuation(self):
        assert tokenize("nice :), really") == ["nice", ":)", "really"]

    def test_keeps_internal_hyphen(self):
        assert tokenize("so-so movie") == ["so-so", "movie"]

    def test_drops_pure_punctuation(self):
        assert tokenize("wow !!! ... --") == ["wow"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_emoticons_not_case_folded(self):
        assert tokenize("fun xD :D") == ["fun", "xD", ":D"]

    @given(st.text(max_size=60))
    def test_no_empty_tokens(self, text):
        assert all(tokenize(text))

    @given(st.text(max_size=60))
    def test_non_emoticon_tokens_are_lowercase(self, text):
        for token in tokenize(text):
            if emoticon_token(token) is None:
                assert token == token.lower()

    @given(texts)
    @example("nice :), really")
    @example("(xd) ;_; Lol...")
    def test_tokenize_equals_the_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @given(texts)
    def test_each_chunk_yields_its_chunk_token(self, text):
        chunk_tokens = [chunk_token(chunk) for chunk in text.split()]
        assert tokenize(text) == [token for token in chunk_tokens if token is not None]

    @given(st.text(max_size=60))
    @example("love this caf\u00e9")
    def test_canonically_equal_texts_tokenize_alike(self, text):
        nfd, nfc = (unicodedata.normalize(form, text) for form in ("NFD", "NFC"))
        assert tokenize(nfd) == tokenize(nfc)


class TestFindOccurrences:
    def test_phrase(self):
        assert find_occurrences(["a", "shit", "hot", "b"], "shit hot") == [(1, 2)]

    def test_repeated_single_token(self):
        assert find_occurrences(["lol", "x", "lol"], "lol") == [(0, 0), (2, 2)]

    def test_no_match(self):
        assert find_occurrences(["a", "b"], "c") == []

    def test_non_overlapping_leftmost_first(self):
        assert find_occurrences(["a", "a", "a"], "a a") == [(0, 1)]

    def test_adjacent_matches(self):
        assert find_occurrences(["a", "a", "a", "a"], "a a") == [(0, 1), (2, 3)]

    def test_term_longer_than_tokens(self):
        assert find_occurrences(["a"], "a b") == []

    @given(abc_tokens, abc_terms)
    @example(["a", "a", "a"], "a")
    @example(["a", "b", "a", "b", "a"], "a b a")
    @example(("a", "a", "a", "b"), "a a b")
    @example(["a", "b", "a", "b", "a", "b"], "a b a b")
    def test_equals_the_oracle(self, tokens, term):
        assert find_occurrences(tokens, term) == brute_spans(tokens, term.split(" "))
