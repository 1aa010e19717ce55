"""Independent brute-force oracles for cross-checking the package.

Everything here is deliberately written from the rules themselves, in the
most literal style possible (explicit double loops, plain sum, Fractions for
metrics), and never calls into the slangsent implementation. The point is a
second, independent path to the same numbers.
"""

from __future__ import annotations

import math
import re
import unicodedata
from fractions import Fraction


# --- nearest-sentiment-word rule --------------------------------------------


def brute_spans(tokens, term_tokens):
    """All non-overlapping leftmost-first matches, inclusive spans."""
    spans = []
    i = 0
    while i <= len(tokens) - len(term_tokens):
        window = tokens[i : i + len(term_tokens)]
        if list(window) == list(term_tokens):
            spans.append((i, i + len(term_tokens) - 1))
            i += len(term_tokens)
        else:
            i += 1
    return spans


def brute_nearest_values(tokens, term, seed_values):
    """Strengths of the seed tokens at minimal gap to any term occurrence, in
    token order; empty when the document has no usable seed token."""
    term_tokens = term.split(" ")
    spans = brute_spans(tokens, term_tokens)
    assert spans, "oracle misuse: term not in document"
    inside = set()
    for start, end in spans:
        for i in range(start, end + 1):
            inside.add(i)

    scored = []  # (gap, strength)
    for i, token in enumerate(tokens):
        if i in inside or token not in seed_values:
            continue
        gaps = []
        for start, end in spans:
            if i < start:
                gaps.append(start - i)
            else:
                gaps.append(i - end)
        scored.append((min(gaps), seed_values[token]))
    if not scored:
        return []
    smallest = min(gap for gap, _ in scored)
    return [value for gap, value in scored if gap == smallest]


def brute_document_strength(tokens, term, seed_values):
    """Mean strength of seed tokens at minimal gap to any term occurrence;
    0 when the document has no usable seed token."""
    chosen = brute_nearest_values(tokens, term, seed_values)
    if not chosen:
        return 0.0
    return sum(chosen) / len(chosen)


def brute_estimate(doc_token_lists, term, seed_values, max_docs):
    """Mean document strength over the docs containing the term (assumes at
    most max_docs matches, so no sampling is involved); None when none do."""
    term_tokens = term.split(" ")
    matching = [t for t in doc_token_lists if brute_spans(t, term_tokens)]
    assert len(matching) <= max_docs, "oracle misuse: sampling would kick in"
    if not matching:
        return None
    values = [brute_document_strength(t, term, seed_values) for t in matching]
    return sum(values) / len(values)


# --- layered graph averaging -------------------------------------------------


def brute_propagate(nodes, edges, seed_values):
    """Freeze-once layered averaging, full-scan style.

    Returns (labels-for-non-seed-nodes, iterations, unreached). Iteration
    counting matches the contract: the final round that assigns nothing
    counts, and a graph with no unlabeled node reports 0 rounds.
    """
    adjacency = {node: set() for node in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    labels = {node: seed_values[node] for node in nodes if node in seed_values}
    seed_nodes = set(labels)
    iterations = 0
    if len(labels) < len(adjacency):
        while True:
            iterations += 1
            fresh = {}
            for node in sorted(adjacency):
                if node in labels:
                    continue
                neighbor_values = [labels[n] for n in sorted(adjacency[node]) if n in labels]
                if neighbor_values:
                    fresh[node] = sum(neighbor_values) / len(neighbor_values)
            if not fresh:
                break
            labels.update(fresh)
    propagated = {node: v for node, v in labels.items() if node not in seed_nodes}
    unreached = set(adjacency) - set(labels)
    return propagated, iterations, unreached


# --- vocabulary and seed merging ---------------------------------------------


def brute_term(raw):
    """A term's canonical form: NFC, lowercase, whitespace runs collapsed to
    one space and stripped at both ends."""
    return " ".join(unicodedata.normalize("NFC", raw).lower().split())


def brute_vocabulary(records):
    """Each canonical term of `records`, (raw term, raw related terms) pairs,
    mapped to the related terms of all its records: canonical, distinct,
    sorted, never empty and never the term itself."""
    vocabulary = {}
    for raw_term, raw_related in records:
        term = brute_term(raw_term)
        related = set(vocabulary.get(term, ()))
        for raw in raw_related:
            related.add(brute_term(raw))
        related.discard(term)
        related.discard("")
        vocabulary[term] = tuple(sorted(related))
    return vocabulary


def brute_mean(values):
    """The correctly rounded sum over the count, kept within the values'
    own range."""
    mean = math.fsum(values) / len(values)
    return float(min(max(values), max(min(values), mean)))


def brute_seed_merge(sources):
    """{term: (strength, source ids)} of (source id, {raw term: native},
    factor, offset) sources: each native value maps to factor * native +
    offset; a source's values for one canonical term are averaged first, and
    the term's strength is the mean of those per-source means, taken over
    the ids in sorted order, which are also its source ids."""
    contributions = {}
    for source_id, values, factor, offset in sources:
        for raw, native in values.items():
            per_source = contributions.setdefault(brute_term(raw), {})
            per_source.setdefault(source_id, []).append(factor * float(native) + offset)
    merged = {}
    for term, per_source in contributions.items():
        ids = tuple(sorted(per_source))
        merged[term] = (brute_mean([brute_mean(per_source[i]) for i in ids]), ids)
    return merged


def brute_combine(lexicons):
    """{term: entry} over every term of the lexicons, each entry taken from
    the first lexicon that holds its term."""
    terms = {term for lexicon in lexicons for term in lexicon}
    return {term: next(lexicon[term] for lexicon in lexicons if term in lexicon)
            for term in terms}


# --- greedy longest-match scoring -------------------------------------------


def brute_longest_match(tokens, values):
    """(term, (start, end), strength) of each scorer match: at each position
    try every term, keep the longest that matches there and jump past it."""
    matches = []
    i = 0
    while i < len(tokens):
        best = None
        for term in values:
            words = term.split(" ")
            if list(tokens[i : i + len(words)]) == words:
                if best is None or len(words) > len(best.split(" ")):
                    best = term
        if best is None:
            i += 1
            continue
        end = i + len(best.split(" ")) - 1
        matches.append((best, (i, end), values[best]))
        i = end + 1
    return matches


# --- evaluation metrics -------------------------------------------------------


def brute_metrics(pairs):
    """Exact rational accuracy and one-vs-all P/R/F from (gold, predicted)
    label pairs (labels are plain strings)."""
    total = len(pairs)
    correct = sum(1 for gold, predicted in pairs if gold == predicted)
    out = {"accuracy": Fraction(correct, total), "classes": {}}
    for cls in ("positive", "negative"):
        tp = sum(1 for g, p in pairs if g == cls and p == cls)
        fp = sum(1 for g, p in pairs if g != cls and p == cls)
        fn = sum(1 for g, p in pairs if g == cls and p != cls)
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        if precision + recall:
            f_score = 2 * precision * recall / (precision + recall)
        else:
            f_score = Fraction(0)
        out["classes"][cls] = (precision, recall, f_score)
    return out


# --- tokenizing and distant labeling ------------------------------------------
#
# The tokenizer and the emoticon labeler as they stood before `chunk_token`
# became the one per-chunk rule, copied verbatim (labels as plain strings).
# `reference_label` tokenizes each chunk on its own, so it does not rely on a
# chunk yielding at most one token.

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
_WRAPPING_PUNCT = ".,!?;\"'`\u2026\u201c\u201d\u2018\u2019"
_EDGE_RE = re.compile(r"^[\W_]+|[\W_]+$")


def reference_emoticon_token(chunk):
    if EMOTICON_RE.fullmatch(chunk):
        return chunk
    trimmed = chunk.strip(_WRAPPING_PUNCT)
    if trimmed and EMOTICON_RE.fullmatch(trimmed):
        return trimmed
    return None


def reference_tokenize(text):
    tokens = []
    for chunk in unicodedata.normalize("NFC", text).split():
        emo = reference_emoticon_token(chunk)
        if emo is not None:
            tokens.append(emo)
            continue
        word = _EDGE_RE.sub("", chunk).lower()
        if word:
            tokens.append(word)
    return tokens


def _reference_strip_emoticons(text, emoticons):
    chunks, tokens = [], []
    for chunk in text.split():
        chunk_tokens = reference_tokenize(chunk)
        if emoticons.isdisjoint(chunk_tokens):
            chunks.append(chunk)
            tokens += chunk_tokens
    return " ".join(chunks), tuple(tokens)


def reference_label(text, positive, negative):
    """("positive" or "negative", kept text, kept tokens) of a labeled text,
    or why it is discarded: "conflict" or "unmarked"."""
    tokens = reference_tokenize(text)
    has_positive = any(t in positive for t in tokens)
    has_negative = any(t in negative for t in tokens)
    if has_positive == has_negative:
        return "conflict" if has_positive else "unmarked"
    gold = "positive" if has_positive else "negative"
    return (gold, *_reference_strip_emoticons(text, positive | negative))
