"""Text plumbing: term normalization, tokenization, phrase occurrence search.

Tokenization is deliberately simple (whitespace split, edge punctuation
stripped) with one twist: whole chunks that look like ASCII emoticons are
kept verbatim as single tokens, so downstream emoticon-based labeling and
lexicon matching can see them.
"""

from __future__ import annotations

import functools
import re
import reprlib
import unicodedata
from collections.abc import Sequence

from .errors import ParseError

# Classic ASCII emoticons: eyes+nose+mouth, reversed variants, hearts, and a
# few fixed faces. Applied to whole whitespace-delimited chunks only.
_EMOTICON = r"""
    (?:
        [<>]?                                   # optional brow
        [:;=8xX]                                # eyes
        [-o*']?                                 # optional nose
        [)(\]\[dDpP/\\|}{@3*]+                  # mouth (repeats: ":)))")
      |
        [)(\]\[dDpP/\\|}{@]                     # mouth-first (reversed) face
        [-o*']?
        [:;=8]
        [<>]?
      |
        <+/?3+                                  # hearts, broken hearts
      |
        \^_*\^ | [xX][dD]+ | [oO][._][oO] | -_+- | [tT][._][tT] | ;_; | \\o/
    )
"""
EMOTICON_RE = re.compile(_EMOTICON, re.VERBOSE)

# Quote-like punctuation that may wrap an emoticon chunk (":)." or '":)"').
# Deliberately excludes brackets, slashes and pipes, which are mouth glyphs.
_WRAPPING_PUNCT = ".,!?;\"'`\u2026\u201c\u201d\u2018\u2019"

_EDGE_RE = re.compile(r"^[\W_]+|[\W_]+$")


def normalize_term(raw: str) -> str:
    """Canonical form of a dictionary term.

    Unicode NFC, lowercase, outer whitespace stripped, inner whitespace runs
    collapsed to single spaces; "" if nothing is left, for the caller to judge.
    """
    return " ".join(unicodedata.normalize("NFC", raw).lower().split())


def checked_term(text: str, what: str = "term") -> str:
    """`text`, a term read from a file, which must already be normalized; an
    empty or unnormalized one is a ParseError."""
    if text and normalize_term(text) == text:
        return text
    raise ParseError(f"{what} is not normalized: {reprlib.repr(text)}")


def emoticon_token(chunk: str) -> str | None:
    """The emoticon token a whitespace-delimited chunk yields, if any.

    Emoticons are preserved verbatim (no case folding): the mouth/eye glyphs
    are meaning-bearing, so ":D" must survive as written.
    """
    if EMOTICON_RE.fullmatch(chunk):
        return chunk
    trimmed = chunk.strip(_WRAPPING_PUNCT)
    if trimmed != chunk and EMOTICON_RE.fullmatch(trimmed):
        return trimmed
    return None


# Short text repeats its chunks, so each distinct chunk is tokenized once per
# process. The bound keeps a long tail of one-off chunks from growing the memo
# without limit; the memo also hands out one shared string per token.
@functools.lru_cache(maxsize=1 << 14)
def _token(chunk: str) -> str | None:
    return emoticon_token(chunk) or _EDGE_RE.sub("", chunk).lower() or None


def chunk_token(chunk: str) -> str | None:
    """The token `tokenize` makes of one whitespace-delimited chunk, or None
    when it makes none. A chunk never yields more than one token."""
    return _token(unicodedata.normalize("NFC", chunk))


def tokenize(text: str) -> list[str]:
    """Split text into lowercase tokens, at most one per chunk (`chunk_token`).

    The text is put in Unicode NFC first, the form terms are stored in.
    Whitespace-delimited chunks are stripped of leading/trailing punctuation
    (word-internal apostrophes and hyphens survive); chunks recognized as
    emoticons are kept whole and verbatim; empty leftovers are dropped.
    """
    # `_token` never returns "", so filtering out falsy results drops only None.
    return list(filter(None, map(_token, unicodedata.normalize("NFC", text).split())))


def find_occurrences(tokens: Sequence[str], term: str) -> list[tuple[int, int]]:
    """All non-overlapping spans where the term's token sequence appears.

    Spans are inclusive (start, end) token indexes, found leftmost-first; the
    cursor jumps past each match so occurrences never overlap.
    """
    pattern = tuple(term.split(" "))
    width = len(pattern)
    if width == 1:
        return [(i, i) for i, token in enumerate(tokens) if token == term]
    tokens = tuple(tokens)  # a list slice never equals the tuple pattern
    first = pattern[0]
    spans: list[tuple[int, int]] = []
    i = 0
    limit = len(tokens) - width
    while i <= limit:
        if tokens[i] == first and tokens[i:i + width] == pattern:
            spans.append((i, i + width - 1))
            i += width
        else:
            i += 1
    return spans
