"""Memory guards for the three structures that grow with the inputs: the
related-word graph keeps a tuple of neighbours per node, the corpus index
an ascending list of document positions per token, and the loaded
vocabulary a tuple of related terms per term.

Each bound lies about halfway between the bytes the former containers (a
set per node, a set per token, a whole entry per term) kept and the bytes
the compact ones keep, measured with `tracemalloc` on CPython 3.11.7 for
these generated inputs. `retained` measures from emptied free lists, so each
figure reads the same on every call in a process.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

from slangsent.corpus import FileCorpusProvider, load_corpus
from slangsent.ingest import SlangEntry, build_vocabulary, load_vocabulary, save_vocabulary
from slangsent.propagate import build_graph

NODES = 2000
CHAIN = 3  # each term lists the next three, so most nodes have six neighbours
DOCS = 2000
WORDS = 500
TOKENS_PER_DOC = 8

GRAPH_BYTES_PER_NODE = 461  # sets: 809; tuples: 119
INDEX_BYTES_PER_POSTING = 44  # sets: 75; lists: 13.4
VOCABULARY_BYTES_PER_TERM = 387  # entries: 566; related-term tuples: 208


def retained(build):
    """What `build()` returns and the bytes still allocated once it returns.
    A `gc.collect()` first empties CPython's free lists, so every tuple, list
    and dict `build` makes counts, whatever earlier calls freed."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = build()
        return value, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def chained_vocabulary():
    # Every term also lists itself (dropped by `build_vocabulary`) and the
    # one before it, so each edge to the next term is listed from both ends
    # and must be kept once.
    terms = [f"t{i}" for i in range(NODES)]
    return build_vocabulary(
        SlangEntry(term, ("m",), ("e",), related_terms=tuple(terms[max(i - 1, 0):i + CHAIN + 1]))
        for i, term in enumerate(terms)
    )


def chained_corpus(path):
    # Document i holds a run of consecutive words starting at word i, one of
    # them twice, so every word's postings are long and a token repeats.
    lines = []
    for i in range(DOCS):
        words = [f"w{(i + k) % WORDS}" for k in range(TOKENS_PER_DOC)]
        lines.append(json.dumps({"id": str(i), "text": " ".join(words + words[:1])}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def graph_bytes_per_node():
    vocabulary = chained_vocabulary()
    graph, size = retained(lambda: build_graph(vocabulary))
    return graph, size / len(graph)


def index_bytes_per_posting(path):
    load_corpus(path)  # fill the token cache, so neither measurement grows it
    documents, documents_size = retained(lambda: load_corpus(path))
    postings = sum(len(set(document.tokens)) for document in documents)
    del documents
    _, provider_size = retained(lambda: FileCorpusProvider(path))
    return (provider_size - documents_size) / postings


def test_graph_keeps_a_tuple_of_distinct_neighbours_per_node():
    graph, per_node = graph_bytes_per_node()
    # The last three terms list two, one and no terms after them: 6 fewer.
    assert len(graph) == NODES and graph.edge_count() == NODES * CHAIN - 6
    for neighbours in graph.values():
        assert type(neighbours) is tuple and len(set(neighbours)) == len(neighbours)
    assert per_node < GRAPH_BYTES_PER_NODE


def vocabulary_bytes_per_term(path):
    save_vocabulary(chained_vocabulary(), path)
    vocabulary, size = retained(lambda: load_vocabulary(path))
    return vocabulary, size / len(vocabulary)


def test_loaded_vocabulary_keeps_a_tuple_of_related_terms_per_term(tmp_path):
    vocabulary, per_term = vocabulary_bytes_per_term(tmp_path / "vocabulary.jsonl")
    assert len(vocabulary) == NODES and vocabulary["t1"] == ("t0", "t2", "t3", "t4")
    assert all(type(related) is tuple for related in vocabulary.values())
    assert per_term < VOCABULARY_BYTES_PER_TERM


def test_corpus_index_keeps_few_bytes_per_posting(tmp_path):
    assert index_bytes_per_posting(chained_corpus(tmp_path / "corpus.jsonl")) < INDEX_BYTES_PER_POSTING
