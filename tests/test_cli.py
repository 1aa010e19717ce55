from __future__ import annotations

import gzip
import json
import logging
import re
import shlex
from pathlib import Path

import pytest

from slangsent.cli import main
from slangsent.corpus import FileCorpusProvider, estimate_all
from slangsent.ingest import load_vocabulary
from slangsent.lexicon import Lexicon, LexiconEntry, Stage, combine, load_lexicon, save_lexicon
from slangsent.scoring import score_text

from .fixtures import write_golden_fixture

README = Path(__file__).resolve().parent.parent / "README.md"


def lexicon_file(tmp_path, values, name="lex.jsonl"):
    path = tmp_path / name
    save_lexicon(
        Lexicon(LexiconEntry(t, s, Stage.IMPORTED) for t, s in values.items()), path
    )
    return path


@pytest.fixture()
def golden(tmp_path):
    return write_golden_fixture(tmp_path / "fixture")


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self, capsys):
        assert main(["score"]) == 1

    def test_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"term": "lol", "strength": 99, "stage": "imported", "sources": []}\n')
        assert main(["report", "--lexicon", str(bad)]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def _run_with(golden, **changes):
    raw = {**json.loads(golden.read_text()), **changes}
    golden.write_text(json.dumps(raw), encoding="utf-8")
    return ["run", "--config", str(golden)]


def _run_with_source(golden, **changes):
    raw = json.loads(golden.read_text())
    raw["seed_lexicons"][0].update(changes)
    return _run_with(golden, seed_lexicons=raw["seed_lexicons"])


def _run_with_seed_ids(golden, *ids):
    sources = json.loads(golden.read_text())["seed_lexicons"]
    for source, source_id in zip(sources, ids):
        source["id"] = source_id
    return _run_with(golden, seed_lexicons=sources)


def _seed_with(golden, tmp_path, **changes):
    sources = json.loads(golden.read_text())["seed_lexicons"]
    sources[0].update(changes)
    (golden.parent / "sources.json").write_text(json.dumps(sources), encoding="utf-8")
    return ["seed", "--sources", str(golden.parent / "sources.json"),
            "--output", str(tmp_path / "seed.jsonl")]


def _label_with_emoticons(tmp_path, text):
    (tmp_path / "emoticons.txt").write_text(text, encoding="utf-8")
    (tmp_path / "corpus.jsonl").write_text('{"id": "1", "text": "hi :)"}\n', encoding="utf-8")
    return ["label", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--output", str(tmp_path / "labeled.jsonl"),
            "--emoticons", str(tmp_path / "emoticons.txt")]


def _label_record(tmp_path, record):
    (tmp_path / "corpus.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    return ["label", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--output", str(tmp_path / "labeled.jsonl")]


def _latin1_input(tmp_path, command, option, record, *rest):
    """`command` reading a JSON file whose "é" is one Latin-1 byte, which is
    not UTF-8."""
    path = tmp_path / "input.jsonl"
    path.write_bytes((json.dumps(record, ensure_ascii=False) + "\n").encode("latin-1"))
    return [command, option, str(path), *rest]


def _ingest_latin1_second_input(tmp_path):
    record = json.dumps({"term": "é", "meanings": ["m"], "examples": ["x"]}, ensure_ascii=False)
    (tmp_path / "good.jsonl").write_text(record + "\n", encoding="utf-8")
    (tmp_path / "latin1.jsonl").write_bytes((record + "\n").encode("latin-1"))
    return ["ingest", "--input", str(tmp_path / "good.jsonl"), str(tmp_path / "latin1.jsonl"),
            "--output", str(tmp_path / "out.jsonl")]


def _seed_with_latin1_tsv(golden, tmp_path):
    (golden.parent / "latin1.tsv").write_bytes("é\t1.0\n".encode("latin-1"))
    return _seed_with(golden, tmp_path, path="latin1.tsv")


def _seed_with_repeated_term(golden, tmp_path):
    (golden.parent / "repeat.tsv").write_text("good\t1\ngood\t2\n", encoding="utf-8")
    return _seed_with(golden, tmp_path, path="repeat.tsv")


def _estimate_with_bad_corpus_record(tmp_path):
    vocabulary = tmp_path / "vocabulary.jsonl"
    vocabulary.write_text(
        json.dumps({"term": "lit", "meanings": ["m"], "examples": ["x"]}) + "\n", encoding="utf-8"
    )
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "1", "text": "lit :)"}\n{"id": 2, "text": "lit"}\n', encoding="utf-8")
    return ["estimate", "--vocabulary", str(vocabulary),
            "--seed", str(lexicon_file(tmp_path, {"good": 1.0})), "--corpus", str(corpus),
            "--output", str(tmp_path / "estimates.jsonl")]


def _ingest_record(tmp_path, **changes):
    record = {"term": "lit", "meanings": ["m"], "examples": ["x"], **changes}
    return _ingest_text(tmp_path, json.dumps(record) + "\n")


def _ingest_text(tmp_path, text):
    (tmp_path / "entries.jsonl").write_text(text, encoding="utf-8")
    return ["ingest", "--input", str(tmp_path / "entries.jsonl"),
            "--output", str(tmp_path / "out.jsonl")]


def _score_corpus_text(tmp_path, text):
    (tmp_path / "corpus.jsonl").write_text(text, encoding="utf-8")
    return ["score", "--lexicon", str(lexicon_file(tmp_path, {"hi": 1.0})),
            "--corpus", str(tmp_path / "corpus.jsonl")]


def _seed_with_sources_text(golden, tmp_path, text):
    (golden.parent / "sources.json").write_text(text, encoding="utf-8")
    return ["seed", "--sources", str(golden.parent / "sources.json"),
            "--output", str(tmp_path / "seed.jsonl")]


def _seed_with_tsv(golden, tmp_path, text):
    (golden.parent / "bad.tsv").write_text(text, encoding="utf-8")
    return _seed_with(golden, tmp_path, path="bad.tsv")


def _evaluate_with_label(tmp_path, label, doc_id="1"):
    corpus = tmp_path / "labeled.jsonl"
    corpus.write_text(json.dumps({"id": doc_id, "text": "hi", "label": label}) + "\n",
                      encoding="utf-8")
    return ["evaluate", "--lexicon", str(lexicon_file(tmp_path, {"hi": 1.0})),
            "--corpus", str(corpus)]


def _damaged_gzip_input(tmp_path, damage, command, option, record, *rest):
    """`command` reading a gzip-compressed JSON file that `damage` cut short
    or corrupted."""
    path = tmp_path / "damaged.jsonl"
    path.write_bytes(damage(gzip.compress((json.dumps(record) + "\n").encode("utf-8"))))
    return [command, option, str(path), *rest]


def _unmerged_vocabulary(tmp_path, command, *records):
    """`command` reading a vocabulary file of one entry per record, with
    inputs that are otherwise good."""
    vocabulary = tmp_path / "vocabulary.jsonl"
    vocabulary.write_text("".join(
        json.dumps({"meanings": ["m"], "examples": ["x"], **record}) + "\n" for record in records
    ), encoding="utf-8")
    seed = str(lexicon_file(tmp_path, {"good": 1.0}))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "1", "text": "lit :)"}\n', encoding="utf-8")
    rest = {
        "estimate": ["--seed", seed, "--corpus", str(corpus)],
        "assemble": ["--seed", seed, "--estimates", seed, "--propagated", seed],
    }[command]
    return [command, "--vocabulary", str(vocabulary), *rest, "--output", str(tmp_path / "o.jsonl")]


# (id, records, what the error line names): vocabulary files that are not
# merged, as `build_vocabulary` would leave them.
UNMERGED_VOCABULARIES = [
    ("duplicate-term", [{"term": "lit"}, {"term": "lit"}],
     "vocabulary.jsonl: line 2: duplicate term 'lit'"),
    ("term-not-normalized", [{"term": "Foo"}],
     "vocabulary.jsonl: line 1: term is not normalized: 'Foo'"),
    ("related-unsorted", [{"term": "lit", "related_terms": ["b", "a"]}],
     "vocabulary.jsonl: line 1: related terms are not sorted and unique"),
    ("related-is-the-term", [{"term": "lit", "related_terms": ["fire", "lit"]}],
     "vocabulary.jsonl: line 1: related terms include the term 'lit'"),
]


def _run_over_its_entries(golden):
    """`run` whose entries file is the vocabulary file it writes."""
    golden.with_name("entries.jsonl").rename(golden.with_name("vocabulary.jsonl"))
    return _run_with(golden, entries=["vocabulary.jsonl"], output_dir=".")


def _extend_over_prior_output(tmp_path, start, end):
    (tmp_path / "days").mkdir()
    (tmp_path / "out.jsonl").write_bytes(b"keep me\n")
    return ["extend", "--from", start, "--to", end, "--fetch-dir", str(tmp_path / "days"),
            "--output", str(tmp_path / "out.jsonl")]


def _run_with_config_text(golden, text):
    golden.write_text(text, encoding="utf-8")
    return ["run", "--config", str(golden)]


# An integer with more digits than int() converts from text (4,300 by
# default), written as raw text: json.dumps of it would hit the same limit.
TOO_MANY_DIGITS = "1" * 5000
# An integer that reads as JSON but is too large for a float.
HUGE_INTEGER = 10**400


# (id, argv builder, exit code, word the error line must name): values too
# long to repeat whole, which the error line shortens.
LONG_VALUES = [
    ("report-lexicon-strength-too-large-for-a-float",
     lambda g, t: _report_on_lexicon(t, lambda data: data.replace(
         b'"strength": 1.0', b'"strength": ' + str(HUGE_INTEGER).encode())),
     2, "lex.jsonl: line 1: 'strength' must be a finite number, got 1000"),
    ("scale-factor-too-large-for-a-float",
     lambda g, t: _run_with_source(g, scale={"factor": HUGE_INTEGER}), 1,
     "'factor' must be a finite number, got 1000"),
    # The longest integer JSON reads; one of more digits is bad JSON (the
    # too-many-digits rows below).
    ("entries-term-4300-digits", lambda g, t: _ingest_record(t, term=10**4299), 2,
     "entries.jsonl: line 1: 'term' must be a string, got 1000"),
    ("report-lexicon-term-10000-characters",
     lambda g, t: _report_on_lexicon(t, lambda data: data.replace(
         b'"term": "lol"', b'"term": "' + b"A" * 10_000 + b'"')),
     2, "lex.jsonl: line 1: term is not normalized: 'AAAAAAAAAAAA...AAAAAAAAAAAAA'"),
    ("report-lexicon-sources-3000-items",
     lambda g, t: _report_on_lexicon(t, lambda data: data.replace(
         b'"sources": []', b'"sources": ' + json.dumps(["x"] * 3000).encode(), 1)),
     2, "lex.jsonl: line 1: sources ['x', 'x', 'x', 'x', 'x', 'x', ...] do not fit stage imported"),
    ("sources-tsv-line-10000-characters", lambda g, t: _seed_with_tsv(g, t, "A" * 10_000 + "\n"),
     2, "bad.tsv: line 1: expected 'term<TAB>value', got 'AAAAAAAAAAAA...AAAAAAAAAAAAA'"),
    ("entries-created_date-10000-characters",
     lambda g, t: _ingest_record(t, created_date="2" * 10_000), 2,
     "line 1: 'created_date' must be YYYY-MM-DD, got '222222222222...2222222222222'"),
    ("vocabulary-related-3000-items",
     lambda g, t: _unmerged_vocabulary(
         t, "estimate", {"term": "lit", "related_terms": [f"w{i}" for i in range(3000, 0, -1)]}),
     2, "line 1: related terms are not sorted and unique: ['w3000', 'w2999', 'w2998', 'w2997', "
        "'w2996', 'w2995', ...]"),
    ("emoticons-token-10000-characters",
     lambda g, t: _label_with_emoticons(t, "[positive]\n:)\n[negative]\n" + "A" * 10_000 + "\n"),
     2, "line 4: emoticon 'AAAAAAAAAAAA...AAAAAAAAAAAAA' is not a token tokenize emits"),
    ("extend-from-10000-characters",
     lambda g, t: ["extend", "--from", "9" * 10_000, "--to", "2023-04-01",
                   "--fetch-dir", str(t), "--output", str(t / "out.jsonl")], 1,
     "argument --from: not a YYYY-MM-DD date: '999999999999...9999999999999'"),
    ("estimate-max-docs-10000-characters",
     lambda g, t: ["estimate", "--vocabulary", "v", "--seed", "s", "--corpus", "c",
                   "--max-docs", "x" * 10_000, "--output", str(t / "out.jsonl")], 1,
     "argument --max-docs: not a positive integer: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ("estimate-max-docs-5000-digits",
     lambda g, t: ["estimate", "--vocabulary", "v", "--seed", "s", "--corpus", "c",
                   "--max-docs", "9" * 5_000, "--output", str(t / "out.jsonl")], 1,
     "argument --max-docs: not a positive integer: '999999999999...9999999999999'"),
    ("estimate-sample-seed-10000-characters",
     lambda g, t: ["estimate", "--vocabulary", "v", "--seed", "s", "--corpus", "c",
                   "--sample-seed", "x" * 10_000, "--output", str(t / "out.jsonl")], 1,
     "argument --sample-seed: not an integer: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ("evaluate-subset-10000-characters",
     lambda g, t: ["evaluate", "--lexicon", "l", "--corpus", "c", "--subset", "x" * 10_000], 1,
     "argument --subset: not one of 'all', 'slang': 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
]


# (id, argv builder, exit code, word the error line must name): each bad
# input from outside ends in one error line with its documented exit code,
# never in a traceback.
BAD_INPUTS = LONG_VALUES + [
    ("max_docs-string", lambda g, t: _run_with(g, max_docs="abc"), 1, "max_docs"),
    ("max_docs-bool", lambda g, t: _run_with(g, max_docs=True), 1, "max_docs"),
    ("max_docs-float", lambda g, t: _run_with(g, max_docs=1.5), 1, "max_docs"),
    ("sample_seed-string", lambda g, t: _run_with(g, sample_seed="abc"), 1, "sample_seed"),
    ("sample_seed-bool", lambda g, t: _run_with(g, sample_seed=False), 1, "sample_seed"),
    ("sample_seed-float", lambda g, t: _run_with(g, sample_seed=7.0), 1, "sample_seed"),
    ("strict-string", lambda g, t: _run_with(g, strict="false"), 1, "strict"),
    ("entries-string", lambda g, t: _run_with(g, entries="entries.jsonl"), 1, "entries"),
    ("source_range-short",
     lambda g, t: _run_with_source(g, scale={"source_range": [1]}), 1, "source_range"),
    ("source_range-degenerate",
     lambda g, t: _run_with_source(g, scale={"source_range": [1, 1]}), 1, "source_range"),
    ("scale-factor-string", lambda g, t: _run_with_source(g, scale={"factor": "x"}), 1, "factor"),
    ("source_range-end-null",
     lambda g, t: _run_with_source(g, scale={"source_range": [None, 1]}), 1,
     "'source_range' must be a [low, high] pair, got [None, 1]"),
    ("sources-source_range-short",
     lambda g, t: _seed_with(g, t, scale={"source_range": [1]}), 1, "source_range"),
    ("sources-source_range-degenerate",
     lambda g, t: _seed_with(g, t, scale={"source_range": [1, 1]}), 1, "source_range"),
    ("scale-target_range-outside-the-strength-scale",
     lambda g, t: _run_with_source(g, scale={"source_range": [-2, 2], "target_range": [-4, 4]}),
     1, "'target_range' [-4.0, 4.0] reaches outside the strength scale"),
    ("sources-scale-target_range-outside-the-strength-scale",
     lambda g, t: _seed_with(g, t, scale={"source_range": [-2, 2], "target_range": [-4, 4]}),
     1, "'target_range' [-4.0, 4.0] reaches outside the strength scale"),
    ("sources-missing-seed-file", lambda g, t: _seed_with(g, t, path="nope.tsv"), 1, "nope.tsv"),
    ("seed_lexicons-id-repeated", lambda g, t: _run_with_seed_ids(g, "core", "core"), 1, "'id'"),
    ("seed_lexicons-id-number", lambda g, t: _run_with_seed_ids(g, 5), 1, "'id'"),
    ("sources-id-null", lambda g, t: _seed_with(g, t, id=None), 1, "'id'"),
    ("sources-id-empty", lambda g, t: _seed_with(g, t, id=""), 1, "'id'"),
    ("sources-id-repeated", lambda g, t: _seed_with(g, t, id="wide"), 1, "'id'"),
    ("estimate-max-docs-zero",
     lambda g, t: ["estimate", "--vocabulary", "v", "--seed", "s", "--corpus", "c",
                   "--max-docs", "0", "--output", str(t / "out.jsonl")], 1, "--max-docs"),
    ("emoticons-empty-negative",
     lambda g, t: _label_with_emoticons(t, "[positive]\n:)\n[negative]\n"), 2, "emoticon"),
    ("emoticons-in-both-sections",
     lambda g, t: _label_with_emoticons(t, "[positive]\n:)\n[negative]\n:)\n:(\n"), 2,
     "emoticon"),
    ("label-corpus-not-utf8",
     lambda g, t: _latin1_input(t, "label", "--corpus", {"id": "1", "text": "é :)"},
                                "--output", str(t / "out.jsonl")), 2, "utf-8"),
    ("ingest-entries-not-utf8",
     lambda g, t: _latin1_input(t, "ingest", "--input",
                                {"term": "é", "meanings": ["m"], "examples": ["x"]},
                                "--output", str(t / "out.jsonl")), 2, "utf-8"),
    ("label-corpus-truncated-gzip",
     lambda g, t: _damaged_gzip_input(t, lambda data: data[:20], "label", "--corpus",
                                      {"id": "1", "text": "hi :)"},
                                      "--output", str(t / "out.jsonl")), 2,
     "damaged.jsonl: not a complete gzip file"),
    ("ingest-entries-truncated-gzip",
     lambda g, t: _damaged_gzip_input(t, lambda data: data[:20], "ingest", "--input",
                                      {"term": "lit", "meanings": ["m"], "examples": ["x"]},
                                      "--output", str(t / "out.jsonl")), 2,
     "damaged.jsonl: not a complete gzip file"),
    ("label-corpus-corrupt-gzip",
     lambda g, t: _damaged_gzip_input(t, lambda data: data[:10] + b"\xff" * 8 + data[18:],
                                      "label", "--corpus", {"id": "1", "text": "hi :)"},
                                      "--output", str(t / "out.jsonl")), 2,
     "damaged.jsonl: not a complete gzip file: Error -3"),
    ("report-lexicon-nested-too-deep",
     lambda g, t: _report_on_lexicon(t, lambda data: data + b"[" * 100_000 + b"\n"), 2,
     "lex.jsonl: line 3: bad JSON: maximum recursion depth exceeded"),
    ("report-lexicon-not-utf8",
     lambda g, t: _latin1_input(t, "report", "--lexicon",
                                {"term": "é", "strength": 1.0, "stage": "imported"}), 2, "utf-8"),
    ("report-lexicon-unknown-stage",
     lambda g, t: _report_on_lexicon(t, lambda data: data.replace(b'"imported"', b'"nope"')), 2,
     "'stage' must be one of 'seed_lexicon', 'corpus_estimate', 'propagation', 'imported', "
     "got 'nope'"),
    ("config-not-utf8",
     lambda g, t: _latin1_input(t, "run", "--config", {"entries": ["é.jsonl"]}), 1, "config"),
    ("ingest-second-input-not-utf8", lambda g, t: _ingest_latin1_second_input(t), 2,
     "latin1.jsonl"),
    ("seed-tsv-not-utf8", _seed_with_latin1_tsv, 2, "latin1.tsv"),
    ("seed-tsv-repeated-term", _seed_with_repeated_term, 2, "line 2: duplicate term 'good'"),
    ("estimate-corpus-bad-record", lambda g, t: _estimate_with_bad_corpus_record(t), 2,
     "corpus.jsonl: line 2: 'id' must be a string, got 2"),
    ("seed-tsv-repeated-term-names-file", _seed_with_repeated_term, 2,
     "repeat.tsv: line 2: duplicate term 'good'"),
    ("emoticons-empty-section-names-file",
     lambda g, t: _label_with_emoticons(t, "[positive]\n:)\n[negative]\n"), 2,
     "emoticons.txt: both emoticon sets must be non-empty"),
    ("emoticons-token-never-emitted",
     lambda g, t: _label_with_emoticons(t, "[positive]\n:)\nLol\n[negative]\n:(\n"), 2,
     "emoticons.txt: line 3: emoticon 'Lol'"),
    ("evaluate-label-list", lambda g, t: _evaluate_with_label(t, ["positive"]), 2,
     "labeled.jsonl: line 1: 'label' must be one of 'positive', 'negative', 'neutral', "
     "got ['positive']"),
    ("entries-term-number", lambda g, t: _ingest_record(t, term=5), 2,
     "entries.jsonl: line 1: 'term' must be a string, got 5"),
    ("entries-term-blank", lambda g, t: _ingest_record(t, term=" \t"), 2,
     "line 1: term ' \\t' normalizes to nothing"),
    ("entries-meanings-empty", lambda g, t: _ingest_record(t, meanings=[]), 2,
     "line 1: entry must have at least one meaning"),
    ("entries-related_terms-not-strings", lambda g, t: _ingest_record(t, related_terms=[1]), 2,
     "line 1: 'related_terms' must be a list of strings"),
    ("entries-upvotes-float", lambda g, t: _ingest_record(t, upvotes=1.5), 2,
     "line 1: 'upvotes' must be an integer"),
    ("entries-created_date-basic-format", lambda g, t: _ingest_record(t, created_date="20230401"),
     2, "line 1: 'created_date' must be YYYY-MM-DD, got '20230401'"),
    ("ingest-output-directory-missing",
     lambda g, t: _ingest_record(t)[:-1] + [str(t / "nodir" / "v.jsonl")], 2,
     "nodir/v.jsonl'"),
    ("seed-tsv-no-tab", lambda g, t: _seed_with_tsv(g, t, "good 1\n"), 2,
     "bad.tsv: line 1: expected 'term<TAB>value'"),
    ("seed-tsv-two-tabs", lambda g, t: _seed_with_tsv(g, t, "good\t1\n\nbad\t-1\t2\n"), 2,
     "bad.tsv: line 3: expected 'term<TAB>value'"),
    ("report-lexicon-missing-field",
     lambda g, t: _report_on_lexicon(t, lambda data: data.replace(b', "stage": "imported"', b"")),
     2, "line 1: missing field 'stage'"),
    ("report-lexicon-strength-string",
     lambda g, t: _report_on_lexicon(
         t, lambda data: data.replace(b'"strength": 1.0', b'"strength": "1.0"')),
     2, "line 1: 'strength' must be a finite number, got '1.0'"),
    ("report-lexicon-record-not-object",
     lambda g, t: _report_on_lexicon(t, lambda data: data + b"[1]\n"), 2,
     "line 3: record is not an object"),
    ("entries-empty-list", lambda g, t: _run_with(g, entries=[]), 1, "no entry files"),
    ("entries-named-as-an-output-file", lambda g, t: _run_over_its_entries(g), 1,
     "fixture/vocabulary.jsonl"),
    ("corpus-number", lambda g, t: _run_with(g, corpus=5), 1, "'corpus' must be a string, got 5"),
    ("scale-string", lambda g, t: _run_with_source(g, scale="x"), 1,
     "scale must be a JSON object, got 'x'"),
    ("seed_lexicons-without-id",
     lambda g, t: _run_with(g, seed_lexicons=[{"path": "seed_core.tsv"}]), 1,
     "missing field 'id'"),
    ("seed_lexicons-without-path", lambda g, t: _run_with(g, seed_lexicons=[{"id": "core"}]), 1,
     "missing field 'path'"),
    ("config-not-object", lambda g, t: _run_with_config_text(g, "[]"), 1,
     "config must be a JSON object"),
    ("config-unknown-key", lambda g, t: _run_with(g, max_doc=1), 1, "unknown key 'max_doc'"),
    ("scale-mixes-factor-and-source_range",
     lambda g, t: _run_with_source(g, scale={"source_range": [-4, 4], "factor": 9.0}), 1,
     "unknown key 'factor'"),
    ("scale-unknown-key",
     lambda g, t: _run_with_source(g, scale={"factor": 2.0, "ofset": 0.0}), 1,
     "unknown key 'ofset'"),
    ("scale-target_range-without-source_range",
     lambda g, t: _run_with_source(g, scale={"target_range": [-1, 1]}), 1,
     "unknown key 'target_range'"),
    ("seed_lexicons-unknown-key",
     lambda g, t: _run_with_source(g, scael={"factor": 2.0}), 1, "unknown key 'scael'"),
    ("sources-unknown-key", lambda g, t: _seed_with(g, t, scael={"factor": 2.0}), 1,
     "unknown key 'scael'"),
    ("sources-scale-mixes-factor-and-source_range",
     lambda g, t: _seed_with(g, t, scale={"source_range": [-4, 4], "factor": 9.0}), 1,
     "unknown key 'factor'"),
    ("extend-fetch-dir-is-file",
     lambda g, t: ["extend", "--from", "2023-04-01", "--to", "2023-04-01",
                   "--fetch-dir", str(g), "--output", str(t / "out.jsonl")], 1,
     "not a directory"),
    ("extend-from-basic-format",
     lambda g, t: ["extend", "--from", "20230401", "--to", "2023-04-01",
                   "--fetch-dir", str(t), "--output", str(t / "out.jsonl")], 1,
     "argument --from: not a YYYY-MM-DD date: '20230401'"),
    # Neither case touches an earlier output.
    ("extend-no-day-read",
     lambda g, t: _extend_over_prior_output(t, "2023-04-01", "2023-04-02"), 2,
     "no requested day could be read"),
    ("extend-from-after-to",
     lambda g, t: _extend_over_prior_output(t, "2023-04-03", "2023-04-01"), 1,
     "--from 2023-04-03 is after --to 2023-04-01"),
    ("score-corpus-id-with-line-break",
     lambda g, t: _score_corpus_text(t, json.dumps({"id": "a\tb\nc", "text": "hi"}) + "\n"), 2,
     "corpus.jsonl: line 1: 'id' has a tab or line break: 'a\\tb\\nc'"),
    ("evaluate-corpus-id-with-line-break",
     lambda g, t: _evaluate_with_label(t, "positive", doc_id="a\u2028b"), 2,
     "labeled.jsonl: line 1: 'id' has a tab or line break: 'a\\u2028b'"),
    ("score-corpus-field-too-many-digits",
     lambda g, t: _score_corpus_text(t, f'{{"id": "1", "text": "hi", "n": {TOO_MANY_DIGITS}}}\n'),
     2, "corpus.jsonl: line 1: bad JSON: Exceeds the limit (4300 digits)"),
    ("report-lexicon-strength-too-many-digits",
     lambda g, t: _report_on_lexicon(t, lambda data: data.replace(
         b'"strength": 1.0', b'"strength": ' + TOO_MANY_DIGITS.encode())),
     2, "lex.jsonl: line 1: bad JSON: Exceeds the limit (4300 digits)"),
    ("ingest-upvotes-too-many-digits",
     lambda g, t: _ingest_text(t, '{"term": "lit", "meanings": ["m"], "examples": ["x"], '
                                  f'"upvotes": {TOO_MANY_DIGITS}}}\n'),
     2, "entries.jsonl: line 1: bad JSON: Exceeds the limit (4300 digits)"),
    ("config-too-many-digits",
     lambda g, t: _run_with_config_text(g, f'{{"max_docs": {TOO_MANY_DIGITS}}}'), 1,
     "config is not valid JSON: Exceeds the limit (4300 digits)"),
    ("config-nested-too-deep", lambda g, t: _run_with_config_text(g, "[" * 100_000), 1,
     "config is not valid JSON: maximum recursion depth exceeded"),
    ("sources-too-many-digits",
     lambda g, t: _seed_with_sources_text(g, t, f"[{TOO_MANY_DIGITS}]"), 1,
     "sources is not valid JSON: Exceeds the limit (4300 digits)"),
    ("sources-nested-too-deep", lambda g, t: _seed_with_sources_text(g, t, "[" * 100_000), 1,
     "sources is not valid JSON: maximum recursion depth exceeded"),
    ("scale-factor-nan", lambda g, t: _run_with_source(g, scale={"factor": float("nan")}), 1,
     "'factor' must be a finite number, got nan"),
    ("scale-offset-infinity",
     lambda g, t: _run_with_source(g, scale={"offset": float("inf")}), 1,
     "'offset' must be a finite number, got inf"),
    ("scale-source_range-nan",
     lambda g, t: _run_with_source(g, scale={"source_range": [float("nan"), 1]}), 1,
     "'source_range' must be a finite number, got nan"),
    ("sources-scale-factor-nan",
     lambda g, t: _seed_with(g, t, scale={"factor": float("nan")}), 1,
     "'factor' must be a finite number, got nan"),
    ("config-is-a-directory", lambda g, t: ["run", "--config", str(t)], 1,
     "cannot read config file: "),
    ("sources-is-a-directory",
     lambda g, t: ["seed", "--sources", str(t), "--output", str(t / "seed.jsonl")], 1,
     "cannot read sources file: "),
    ("sources-not-a-list", lambda g, t: _seed_with_sources_text(g, t, "{}"), 1,
     "sources must be a JSON list, got {}"),
    ("seed-tsv-nan", lambda g, t: _seed_with_tsv(g, t, "good\tnan\n"), 2,
     "bad.tsv: line 1: bad strength value 'nan'"),
    ("seed-tsv-inf", lambda g, t: _seed_with_tsv(g, t, "# scale\ngood\t1\nbad\t-inf\n"), 2,
     "bad.tsv: line 3: bad strength value '-inf'"),
    # A lone surrogate reads as JSON, but no UTF-8 output file could hold it.
    ("entries-term-lone-surrogate", lambda g, t: _ingest_record(t, term="ab\ud800"), 2,
     "entries.jsonl: line 1: 'term' holds a lone surrogate: 'ab\\ud800'"),
    ("entries-meanings-item-lone-surrogate",
     lambda g, t: _ingest_record(t, meanings=["m", "n\udfff"]), 2,
     "entries.jsonl: line 1: 'meanings' holds a lone surrogate: ['m', 'n\\udfff']"),
    ("label-corpus-id-lone-surrogate",
     lambda g, t: _label_record(t, {"id": "d\ud800", "text": "hi :)"}), 2,
     "corpus.jsonl: line 1: 'id' holds a lone surrogate: 'd\\ud800'"),
    ("label-corpus-text-lone-surrogate",
     lambda g, t: _label_record(t, {"id": "1", "text": "hi \udc00 :)"}), 2,
     "corpus.jsonl: line 1: 'text' holds a lone surrogate: 'hi \\udc00 :)'"),
    ("export-lexicon-term-lone-surrogate",
     lambda g, t: _export_lexicon(t, lambda data: data.replace(b'"lol"', b'"lo\\ud800l"')), 2,
     "lex.jsonl: line 1: 'term' holds a lone surrogate: 'lo\\ud800l'"),
] + [
    (f"{command}-vocabulary-{case}",
     lambda g, t, command=command, records=records: _unmerged_vocabulary(t, command, *records),
     2, names)
    for command in ("estimate", "assemble")
    for case, records, names in UNMERGED_VOCABULARIES
]


@pytest.mark.parametrize(
    "build_argv, code, names", [case[1:] for case in BAD_INPUTS], ids=[c[0] for c in BAD_INPUTS]
)
def test_bad_input_exits_with_one_error_line(golden, tmp_path, capsys, build_argv, code, names):
    argv = build_argv(golden, tmp_path)
    before = _file_bytes(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and names in errors[0], err
    after = _file_bytes(tmp_path)  # and each file it found is as it was
    assert {path: after.get(path) for path in before} == before


def _file_bytes(root):
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize(
    "build_argv, code, names", [case[1:] for case in LONG_VALUES],
    ids=[c[0] for c in LONG_VALUES]
)
def test_long_value_is_shortened(golden, tmp_path, capsys, build_argv, code, names):
    assert main(build_argv(golden, tmp_path)) == code
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and names in errors[0]
    assert len(errors[0].replace(str(tmp_path), "<tmp>")) < 200, errors[0]


def _report_on_lexicon(tmp_path, transform):
    path = lexicon_file(tmp_path, {"lol": 1.0, "meh": -1.0})
    path.write_bytes(transform(path.read_bytes()))
    return ["report", "--lexicon", str(path)]


def _export_lexicon(tmp_path, transform):
    return ["export", *_report_on_lexicon(tmp_path, transform)[1:],
            "--slangsd", str(tmp_path / "slangsd.txt")]


# (id, argv builder): record-file variants every reader accepts.
ACCEPTED_INPUTS = [
    ("lexicon-gzip", lambda t: _report_on_lexicon(t, gzip.compress)),
    ("lexicon-trailing-blank-line", lambda t: _report_on_lexicon(t, lambda data: data + b"\n")),
]


@pytest.mark.parametrize(
    "build_argv", [case[1] for case in ACCEPTED_INPUTS], ids=[c[0] for c in ACCEPTED_INPUTS]
)
def test_record_file_variant_is_read(tmp_path, capsys, build_argv):
    assert main(build_argv(tmp_path)) == 0
    assert "total entries: 2" in capsys.readouterr().out


class TestRunCommand:
    def test_full_run(self, golden, capsys):
        assert main(["run", "--config", str(golden)]) == 0
        out = capsys.readouterr().out
        assert "total entries: 13" in out

    def test_rerun_resume(self, golden, capsys):
        assert main(["run", "--config", str(golden)]) == 0
        assert main(["run", "--config", str(golden), "--resume"]) == 0

    def test_retrieval_error_stops_the_run(self, golden, monkeypatch):
        # A bug in retrieval raises; it must not pass as a term left to propagation.
        query = FileCorpusProvider.query

        def broken_query(self, term, max_docs):
            if term.startswith("s"):
                raise AttributeError("broken query")
            return query(self, term, max_docs)

        monkeypatch.setattr("slangsent.corpus.FileCorpusProvider.query", broken_query)
        with pytest.raises(AttributeError, match="^broken query$"):
            main(["run", "--config", str(golden)])


def _lenient_ingest(golden, tmp_path):
    entry_files = [str(golden.parent / name) for name in ("e1.jsonl", "e2.jsonl")]
    return ["ingest", "--lenient", "--input", *entry_files,
            "--output", str(tmp_path / "vocabulary.jsonl")]


def _lenient_run(golden, tmp_path):
    return _run_with(golden, entries=["entries.jsonl", "e1.jsonl", "e2.jsonl"], strict=False)


@pytest.mark.parametrize("build_argv", [_lenient_ingest, _lenient_run], ids=["ingest", "run"])
def test_lenient_skip_is_reported_once_with_its_file(golden, tmp_path, capsys, caplog,
                                                     build_argv):
    good = json.dumps({"term": "lit", "meanings": ["m"], "examples": ["x"]})
    for name in ("e1.jsonl", "e2.jsonl"):
        (golden.parent / name).write_text(f"{good}\n{{broken\n", encoding="utf-8")
    assert main(build_argv(golden, tmp_path)) == 0
    reports = [line for line in capsys.readouterr().err.splitlines() if "line 2" in line]
    reports += [record.getMessage() for record in caplog.records if "line 2" in record.getMessage()]
    assert len(reports) == 2, reports
    assert reports[0].startswith(f"skipped: {golden.parent / 'e1.jsonl'}: line 2: bad JSON")
    assert reports[1].startswith(f"skipped: {golden.parent / 'e2.jsonl'}: line 2: bad JSON")


def staged_commands(readme: str) -> list[list[str]]:
    """The argv, less `slangsent`, of each command in the CLI section's
    stage-by-stage block, with continuation lines joined and the
    `[--strict|--lenient]` alternative dropped."""
    cli = readme.split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^Stage-by-stage equivalents.*?^```sh\n(.*?)^```", cli,
                      re.MULTILINE | re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").replace("[--strict|--lenient]", "").splitlines()
    commands = [shlex.split(line) for line in lines]
    assert all(argv[0] == "slangsent" for argv in commands), commands
    return [argv[1:] for argv in commands]


class TestStageCommands:
    def test_ingest_estimate_propagate_assemble_export(self, golden, tmp_path, capsys):
        def stdout(argv):
            assert main(argv) == 0, argv
            return capsys.readouterr().out

        fixture_dir = golden.parent
        vocab = tmp_path / "vocab.jsonl"
        assert stdout(["ingest", "--input", str(fixture_dir / "entries.jsonl"),
                       "--output", str(vocab)]) == f"20 entries -> 15 terms -> {vocab}\n"

        sources = tmp_path / "sources.json"
        config = json.loads(golden.read_text())
        sources.write_text(json.dumps([
            {**item, "path": str(fixture_dir / item["path"])}
            for item in config["seed_lexicons"]
        ]))
        seed = tmp_path / "seed.jsonl"
        assert stdout(["seed", "--sources", str(sources), "--output", str(seed)]) == (
            f"10 seed terms -> {seed}\n")

        estimates = tmp_path / "estimates.jsonl"
        assert stdout(["estimate", "--vocabulary", str(vocab), "--seed", str(seed),
                       "--corpus", str(fixture_dir / "corpus.jsonl"),
                       "--sample-seed", "7", "--output", str(estimates),
                       "--report", str(tmp_path / "est.json")]) == (
            f"6 estimated, 7 unlabelable -> {estimates}\n")

        propagated = tmp_path / "propagated.jsonl"
        assert stdout(["propagate", "--graph-from", str(vocab), "--seeds", str(seed),
                       str(estimates), "--output", str(propagated)]) == (
            f"5 labeled in 3 iterations, 2 unreached -> {propagated}\n")

        final = tmp_path / "final.jsonl"
        assert stdout(["assemble", "--vocabulary", str(vocab), "--seed", str(seed),
                       "--estimates", str(estimates), "--propagated", str(propagated),
                       "--output", str(final)]) == f"13 terms -> {final}\n"

        slangsd = tmp_path / "slangsd.txt"
        idioms = tmp_path / "idioms.txt"
        assert stdout(["export", "--lexicon", str(final), "--slangsd", str(slangsd),
                       "--idiom-table", str(idioms)]) == (
            f"dictionary -> {slangsd}\nidiom table -> {idioms}\n")

        # staged run must equal the one-shot pipeline's exports
        from slangsent.pipeline import load_config, run_pipeline
        result = run_pipeline(load_config(golden))
        assert slangsd.read_bytes() == result.paths["slangsd"].read_bytes()
        assert idioms.read_bytes() == result.paths["idiom_table"].read_bytes()

    def test_readme_staged_block_reproduces_run(self, golden, monkeypatch, capsys):
        fixture_dir = golden.parent
        config = json.loads(golden.read_text())
        (fixture_dir / "sources.json").write_text(json.dumps(config["seed_lexicons"]))
        monkeypatch.chdir(fixture_dir)
        commands = staged_commands(README.read_text(encoding="utf-8"))
        assert commands[-1][0] == "report"
        for argv in commands:
            assert main(argv) == 0, argv

        assert main(["run", "--config", str(golden)]) == 0
        out = fixture_dir / config["output_dir"]
        for staged, ran in [("slangsd.txt", "slangsd.txt"), ("idioms.txt", "idiom_additions.txt"),
                            ("final.jsonl", "final_lexicon.jsonl"),
                            ("report.json", "stage_report.json")]:
            assert (fixture_dir / staged).read_bytes() == (out / ran).read_bytes(), staged

    def test_staged_block_reader(self):
        readme = (
            "## CLI\n\nStage-by-stage equivalents (same):\n\n```sh\n"
            "slangsent ingest --input a.jsonl [--strict|--lenient]\n"
            "slangsent propagate --seeds s.jsonl \\\n    e.jsonl --output 'p q.jsonl'\n```\n\n"
            "```sh\nslangsent later\n```\n\n## Library\n"
        )
        assert staged_commands(readme) == [
            ["ingest", "--input", "a.jsonl"],
            ["propagate", "--seeds", "s.jsonl", "e.jsonl", "--output", "p q.jsonl"],
        ]

    def test_propagate_reads_one_preassembled_seed_file_as_two_stage_files(
        self, golden, tmp_path, capsys
    ):
        assert main(["run", "--config", str(golden)]) == 0
        out = golden.parent / "out"
        vocabulary, seed, estimates = (
            out / name for name in ("vocabulary.jsonl", "seed_lexicon.jsonl",
                                    "corpus_estimates.jsonl"))
        assembled = tmp_path / "assembled.jsonl"
        save_lexicon(combine(load_lexicon(seed), load_lexicon(estimates)), assembled)
        for name, seeds in (("one.jsonl", [assembled]), ("two.jsonl", [seed, estimates])):
            assert main(["propagate", "--graph-from", str(vocabulary), "--seeds", *map(str, seeds),
                         "--output", str(tmp_path / name)]) == 0
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()
        assert (tmp_path / "two.jsonl").read_bytes() == (out / "propagated.jsonl").read_bytes()

    def test_estimate_samples_max_docs_documents(self, golden, tmp_path, capsys):
        vocabulary, corpus = tmp_path / "vocabulary.jsonl", golden.parent / "corpus.jsonl"
        assert main(["ingest", "--input", str(golden.parent / "entries.jsonl"),
                     "--output", str(vocabulary)]) == 0
        seed = lexicon_file(tmp_path, {"great": 2.0, "good": 1.0, "bad": -1.0}, "seed.jsonl")
        estimates = tmp_path / "estimates.jsonl"
        assert main(["estimate", "--vocabulary", str(vocabulary), "--seed", str(seed),
                     "--corpus", str(corpus), "--max-docs", "1", "--output", str(estimates)]) == 0

        def estimates_with(max_docs):
            return estimate_all(load_vocabulary(vocabulary), FileCorpusProvider(corpus),
                                load_lexicon(seed), max_docs=max_docs)[0]

        assert load_lexicon(estimates) == estimates_with(1) != estimates_with(150)

    def test_seed_source_without_scale_is_taken_as_is(self, golden, tmp_path, capsys):
        sources = json.loads(golden.read_text())["seed_lexicons"]
        core = next(source for source in sources if source["id"] == "core")
        del core["scale"]
        (golden.parent / "sources.json").write_text(json.dumps([core]), encoding="utf-8")
        seed = tmp_path / "seed.jsonl"
        assert main(["seed", "--sources", str(golden.parent / "sources.json"),
                     "--output", str(seed)]) == 0
        native = dict(line.split("\t") for line in
                      (golden.parent / core["path"]).read_text().splitlines())
        assert {term: load_lexicon(seed).strength(term) for term in native} == {
            term: float(value) for term, value in native.items()
        }

    def test_export_requires_a_target(self, tmp_path, capsys):
        lex = lexicon_file(tmp_path, {"lol": 1.0})
        assert main(["export", "--lexicon", str(lex)]) == 1


class TestScoreCommand:
    def test_score_text(self, tmp_path, capsys):
        lex = lexicon_file(tmp_path, {"shit hot": 2.0, "shit": -2.0})
        assert main(["score", "--lexicon", str(lex), "--text", "battery life's shit hot"]) == 0
        out = capsys.readouterr().out
        assert "positive" in out and "shit hot" in out

    def test_score_corpus(self, tmp_path, capsys):
        lex = lexicon_file(tmp_path, {"lit": 1.5})
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "a", "text": "that was lit"}\n{"id": "b", "text": "nope"}\n',
            encoding="utf-8",
        )
        assert main(["score", "--lexicon", str(lex), "--corpus", str(corpus)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("a\t+1.5\tpositive")
        assert lines[1].startswith("b\t+0\tneutral")

    def test_score_corpus_prints_the_score_text_results(self, tmp_path, capsys):
        values = {"shit hot": 2.0, "shit": -2.0, "lit": 1.5, ":(": -1.0}
        lex = lexicon_file(tmp_path, values)
        texts = ["Battery life's SHIT hot!", '"lit," :( ...', "shit", "(lit) :(.", "nothing"]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(json.dumps({"id": str(i), "text": t}) + "\n" for i, t in enumerate(texts)),
            encoding="utf-8",
        )
        assert main(["score", "--lexicon", str(lex), "--corpus", str(corpus)]) == 0
        lexicon = load_lexicon(lex)
        expected = [
            f"{i}\t{b.total:+g}\t{b.polarity.value}"
            for i, b in enumerate(score_text(t, lexicon) for t in texts)
        ]
        assert capsys.readouterr().out.splitlines() == expected


class TestLabelAndEvaluate:
    def test_label_then_evaluate(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "\n".join(
                [
                    json.dumps({"id": "1", "text": "lit stuff :)"}),
                    json.dumps({"id": "2", "text": "meh day :("}),
                    json.dumps({"id": "3", "text": "mixed :) :("}),
                    json.dumps({"id": "4", "text": "no face"}),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        labeled = tmp_path / "labeled.jsonl"
        assert main(["label", "--corpus", str(corpus), "--output", str(labeled)]) == 0
        assert "2 labeled, 1 conflicting, 1 without emoticons" in capsys.readouterr().out

        lex = lexicon_file(tmp_path, {"lit": 1.5, "meh": -1.0})
        report_json = tmp_path / "report.json"
        assert main(["evaluate", "--lexicon", str(lex), "--corpus", str(labeled),
                     "--subset", "slang", "--json", str(report_json)]) == 0
        payload = json.loads(report_json.read_text())
        assert payload["accuracy"] == 1.0 and payload["size"] == 2

    def test_custom_emoticon_file(self, tmp_path, capsys):
        emoticons = tmp_path / "emoticons.txt"
        emoticons.write_text("[positive]\n<3\n[negative]\n</3\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "1", "text": "love this <3"}\n', encoding="utf-8")
        labeled = tmp_path / "labeled.jsonl"
        assert main(["label", "--corpus", str(corpus), "--output", str(labeled),
                     "--emoticons", str(emoticons)]) == 0
        record = json.loads(labeled.read_text())
        assert record["label"] == "positive"
        assert "<3" not in record["text"]


class TestExtendCommand:
    def test_extend_from_directory(self, tmp_path, capsys):
        fetch_dir = tmp_path / "days"
        fetch_dir.mkdir()
        record = {"term": "newword", "meanings": ["m"], "examples": ["e"],
                  "upvotes": 1, "downvotes": 0}
        (fetch_dir / "2023-04-01.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "new_entries.jsonl"
        assert main(["extend", "--from", "2023-04-01", "--to", "2023-04-02",
                     "--fetch-dir", str(fetch_dir), "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert "1 entries from 1/2 days" in captured.out
        assert "2023-04-02" in captured.err

    def test_fetch_failure_is_reported_once(self, tmp_path, capsys, caplog):
        assert main(["extend", "--from", "2023-04-01", "--to", "2023-04-01",
                     "--fetch-dir", str(tmp_path), "--output", str(tmp_path / "out.jsonl")]) == 2
        reports = [line for line in capsys.readouterr().err.splitlines() if "2023-04-01" in line]
        reports += [record.getMessage() for record in caplog.records
                    if "2023-04-01" in record.getMessage()]
        assert reports == [f"fetch failed for 2023-04-01: no record file for 2023-04-01 "
                           f"under {tmp_path}"]

    def test_bad_record_is_reported_once_with_its_file(self, tmp_path, capsys, caplog):
        day = tmp_path / "2023-04-01.jsonl"
        day.write_text(json.dumps({"term": 5, "meanings": ["m"], "examples": ["e"]}) + "\n",
                       encoding="utf-8")
        assert main(["extend", "--from", "2023-04-01", "--to", "2023-04-01",
                     "--fetch-dir", str(tmp_path), "--output", str(tmp_path / "out.jsonl")]) == 2
        reports = [line for line in capsys.readouterr().err.splitlines() if "line 1" in line]
        reports += [record.getMessage() for record in caplog.records
                    if "line 1" in record.getMessage()]
        assert reports == [f"fetch failed for 2023-04-01: {day}: line 1: "
                           f"'term' must be a string, got 5"]

    def test_lone_surrogate_fails_its_day(self, tmp_path, capsys):
        # A bad day file is a reported failure of its day; with no day read,
        # one error line follows and no output is written.
        day = tmp_path / "2023-04-01.jsonl"
        day.write_text(json.dumps({"term": "ab\ud800", "meanings": ["m"], "examples": ["e"]})
                       + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["extend", "--from", "2023-04-01", "--to", "2023-04-01",
                     "--fetch-dir", str(tmp_path), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"fetch failed for 2023-04-01: {day}: line 1: "
                                "'term' holds a lone surrogate: 'ab\\ud800'\n"
                                f"data error: no requested day could be read; {out} is left "
                                "as it was\n")
        assert captured.out == "" and not out.exists()

    def test_bad_date_is_usage_error(self, tmp_path, capsys):
        assert main(["extend", "--from", "yesterday", "--to", "2023-04-02",
                     "--fetch-dir", str(tmp_path), "--output", str(tmp_path / "o")]) == 1


class TestReportCommand:
    def test_report_text_and_json(self, tmp_path, capsys):
        lex = lexicon_file(tmp_path, {"a": 2.0, "b": -1.0, "c": 0.0})
        out_json = tmp_path / "report.json"
        assert main(["report", "--lexicon", str(lex), "--json", str(out_json)]) == 0
        assert "total entries: 3" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload["classes"]["2"] == 1


@pytest.mark.parametrize("first, second", [([], ["-v"]), (["-v"], [])],
                         ids=["quiet-then-verbose", "verbose-then-quiet"])
def test_each_call_sets_its_own_log_level(tmp_path, capsys, first, second):
    # Effective levels, not captured records: pytest's own handlers on the
    # root logger would make the package log whatever level a call asked for.
    lex = lexicon_file(tmp_path, {"a": 2.0})
    package = logging.getLogger("slangsent")
    saved = package.level
    try:
        for flags in (first, second):
            assert main([*flags, "report", "--lexicon", str(lex)]) == 0
            want = logging.INFO if flags else logging.WARNING
            assert [logging.getLogger(f"slangsent.{name}").getEffectiveLevel()
                    for name in ("pipeline", "corpus")] == [want, want]
    finally:
        package.setLevel(saved)
