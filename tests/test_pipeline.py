from __future__ import annotations

import json
import logging
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slangsent.ingest
import slangsent.lexicon
import slangsent.records
from slangsent.cli import main
from slangsent.errors import ConfigError
from slangsent.ingest import load_vocabulary
from slangsent.lexicon import LinearScale, Stage, load_lexicon
from slangsent.pipeline import OUTPUT_FILES, load_config, run_pipeline

from .fixtures import (
    GOLDEN_CORPUS,
    GOLDEN_ENTRIES,
    GOLDEN_SEEDS,
    _entry,
    write_golden_fixture,
    write_synthetic_fixture,
)
from .oracles import brute_seed_merge, brute_spans, brute_vocabulary
from .reference import reference_slangsd


STAGES = ["vocabulary", "seed", "estimates", "propagated"]  # the persisted stages, in build order
README = Path(__file__).resolve().parent.parent / "README.md"


def read_exports(out_dir):
    """The bytes of each output file but the run record, whose seconds differ
    from run to run."""
    return {
        name: (out_dir / filename).read_bytes()
        for name, filename in OUTPUT_FILES.items() if name != "run"
    }


STAGE_LINE = re.compile(rf"({'|'.join(STAGES)}): (built|loaded) because .* \(\d+\.\d{{3}} s\)")


def built_stages(result):
    """The stages that the run record of `result`'s run says it built."""
    record = json.loads(result.paths["run"].read_text(encoding="utf-8"))
    return [entry["stage"] for entry in record["stages"] if entry["how"] == "built"]


def walk_messages(caplog):
    """The line logged for each stage, in order, without its seconds."""
    return [record.getMessage().rsplit(" (", 1)[0] for record in caplog.records
            if STAGE_LINE.fullmatch(record.getMessage())]


class TestLoadConfig:
    def test_golden_config_loads(self, tmp_path):
        config = load_config(write_golden_fixture(tmp_path))
        assert config.max_docs == 150
        assert config.sample_seed == 7
        assert len(config.seed_sources) == 2

    def test_missing_corpus_file_fails_validation(self, tmp_path):
        config_path = write_golden_fixture(tmp_path)
        (tmp_path / "corpus.jsonl").unlink()
        with pytest.raises(ConfigError):
            load_config(config_path)

    def test_config_starting_with_a_byte_order_mark(self, tmp_path):
        config_path = write_golden_fixture(tmp_path)
        config = load_config(config_path)
        config_path.write_text("\ufeff" + config_path.read_text(), encoding="utf-8")
        assert load_config(config_path) == config

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_max_docs(self, tmp_path):
        config_path = write_golden_fixture(tmp_path)
        raw = json.loads(config_path.read_text())
        raw["max_docs"] = 0
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(config_path)

    def test_relative_paths_resolved_against_config_dir(self, tmp_path):
        config = load_config(write_golden_fixture(tmp_path))
        assert config.corpus_file.parent == tmp_path

    def test_readme_config_example_loads(self, tmp_path):
        cli = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1]
        block = re.search(r"^`config\.json`.*?^```json\n(.*?)^```", cli,
                          re.MULTILINE | re.DOTALL).group(1)
        raw = json.loads(block)
        for name in [*raw["entries"], *(s["path"] for s in raw["seed_lexicons"]), raw["corpus"]]:
            (tmp_path / name).touch()
        config_path = tmp_path / "config.json"
        config_path.write_text(block, encoding="utf-8")
        config = load_config(config_path)
        assert config.max_docs == 150
        assert config.sample_seed == 7
        assert config.seed_sources[1].scale == LinearScale.from_ranges((-5, 5))


class TestRunPipeline:
    def test_stage_precedence_and_disjointness(self, tmp_path):
        result = run_pipeline(load_config(write_golden_fixture(tmp_path)))
        by_stage = {stage: set() for stage in Stage}
        for entry in result.final.entries():
            by_stage[entry.stage].add(entry.term)
        assert by_stage[Stage.SEED_LEXICON] == {"epic", "meh"}
        assert by_stage[Stage.CORPUS_ESTIMATE] == {
            "lit", "fire", "dope", "salty", "sus", "cringe"
        }
        assert by_stage[Stage.PROPAGATION] == {"yeet", "pog", "based", "mid", "w"}
        sizes = [len(v) for v in by_stage.values()]
        assert sum(sizes) == len(result.final) == 13

    def test_unreached_terms_excluded(self, tmp_path):
        result = run_pipeline(load_config(write_golden_fixture(tmp_path)))
        vocabulary = load_vocabulary(result.paths["vocabulary"])
        assert set(vocabulary) - set(result.final) == {"ghosted", "ratio"}
        record = json.loads(result.paths["run"].read_text(encoding="utf-8"))
        assert record["stages"][-1]["counts"]["unreached"] == 2

    def test_all_outputs_written(self, tmp_path):
        result = run_pipeline(load_config(write_golden_fixture(tmp_path)))
        for path in result.paths.values():
            assert path.is_file(), path

    def test_reruns_byte_identical(self, tmp_path):
        config = load_config(write_golden_fixture(tmp_path))
        run_pipeline(config)
        first = read_exports(config.output_dir)
        run_pipeline(config)
        assert read_exports(config.output_dir) == first

    @pytest.mark.parametrize("write_fixture", [
        write_golden_fixture,
        lambda root: write_synthetic_fixture(root, random.Random(14), n_terms=60, n_docs=150),
    ], ids=["golden", "synthetic"])
    def test_processes_with_other_hash_seeds_write_identical_files(self, tmp_path,
                                                                   write_fixture):
        """String hashing, and so the order of a set of strings, differs from
        one process to the next; the output directory must not."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(README.with_name("src")), os.environ.get("PYTHONPATH")]))}
        outputs = []
        for hash_seed in ("1", "2"):
            config = write_fixture(tmp_path / hash_seed)
            subprocess.run([sys.executable, "-m", "slangsent.cli", "run", "--config", str(config)],
                           env={**env, "PYTHONHASHSEED": hash_seed}, check=True,
                           capture_output=True)
            out = config.parent / "out"
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert set(outputs[0]) == set(OUTPUT_FILES.values())
        # The run record holds the seconds each stage took, and nothing else that differs.
        records = [json.loads(files.pop("run.json")) for files in outputs]
        for record in records:
            for entry in record["stages"]:
                del entry["seconds"]
        assert outputs[0] == outputs[1]
        assert records[0] == records[1]

    def test_resume_from_intermediates_identical(self, tmp_path):
        config = load_config(write_golden_fixture(tmp_path))
        run_pipeline(config)
        baseline = read_exports(config.output_dir)
        # drop the final artifacts but keep stage intermediates
        for name in ("final", "slangsd", "idiom_table", "report_text", "report_json"):
            (config.output_dir / OUTPUT_FILES[name]).unlink()
        run_pipeline(config, resume=True)
        assert read_exports(config.output_dir) == baseline

    def test_resume_reuses_persisted_stage_output(self, tmp_path, caplog):
        config = load_config(write_golden_fixture(tmp_path))
        run_pipeline(config)
        baseline = read_exports(config.output_dir)
        caplog.set_level(logging.INFO, logger="slangsent.pipeline")
        caplog.clear()
        result = run_pipeline(config, resume=True)
        # no stage was built: each was loaded
        assert built_stages(result) == []
        assert walk_messages(caplog) == [
            f"{name}: loaded because its file matches the run record" for name in STAGES]
        assert read_exports(config.output_dir) == baseline

    @pytest.mark.parametrize("stage", STAGES)
    def test_resume_builds_only_the_missing_stage(self, tmp_path, caplog, stage):
        # ... and every stage after it, which was made from the missing one
        config = load_config(write_golden_fixture(tmp_path))
        run_pipeline(config)
        baseline = read_exports(config.output_dir)
        (config.output_dir / OUTPUT_FILES[stage]).unlink()
        caplog.set_level(logging.INFO, logger="slangsent.pipeline")
        caplog.clear()
        result = run_pipeline(config, resume=True)
        missing = STAGES.index(stage)
        assert built_stages(result) == STAGES[missing:]
        assert walk_messages(caplog) == [
            *(f"{name}: loaded because its file matches the run record"
              for name in STAGES[:missing]),
            f"{stage}: built because its file is missing",
            *(f"{name}: built because an earlier stage was built" for name in STAGES[missing + 1:]),
        ]
        assert read_exports(config.output_dir) == baseline

    @pytest.mark.parametrize("write_fixture", [
        write_golden_fixture, lambda root: write_synthetic_fixture(root, random.Random(202)),
    ], ids=["golden", "synthetic-202"])
    def test_resume_after_a_rebuilt_stage_equals_a_fresh_run(self, tmp_path, write_fixture):
        config_path = write_fixture(tmp_path / "resumed")
        run_pipeline(load_config(config_path))
        raw = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**raw, "max_docs": 1}), encoding="utf-8")
        config = load_config(config_path)
        (config.output_dir / OUTPUT_FILES["estimates"]).unlink()
        result = run_pipeline(config, resume=True)
        # The edited config changes the fingerprint, so every stage is built.
        assert built_stages(result) == STAGES
        fresh_path = write_fixture(tmp_path / "fresh")
        fresh_path.write_text(json.dumps({**raw, "max_docs": 1}), encoding="utf-8")
        fresh = load_config(fresh_path)
        run_pipeline(fresh)
        assert read_exports(config.output_dir) == read_exports(fresh.output_dir)

    def test_lenient_ingest_reports_issues(self, tmp_path):
        config_path = write_golden_fixture(tmp_path)
        entries_path = tmp_path / "entries.jsonl"
        entries_path.write_text(
            entries_path.read_text(encoding="utf-8") + "{broken\n", encoding="utf-8"
        )
        raw = json.loads(config_path.read_text())
        raw["strict"] = False
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        result = run_pipeline(load_config(config_path))
        skipped = result.skipped
        assert len(skipped) == 1
        assert str(skipped[0]).startswith(f"{entries_path}: line ")
        assert len(result.final) == 13

    def test_synthetic_fixture_stage_additivity(self, tmp_path):
        config = load_config(write_synthetic_fixture(tmp_path, random.Random(202)))
        result = run_pipeline(config)
        stage_sets = {stage: set() for stage in Stage}
        for entry in result.final.entries():
            stage_sets[entry.stage].add(entry.term)
        non_empty = [s for s in (Stage.SEED_LEXICON, Stage.CORPUS_ESTIMATE, Stage.PROPAGATION)]
        for stage in non_empty:
            assert stage_sets[stage], f"stage {stage} unexpectedly empty"
        total = sum(len(stage_sets[s]) for s in Stage)
        assert total == len(result.final)


# --- a run interrupted partway through a write -------------------------------


class Interrupted(BaseException):
    """Stands in for a kill or a Ctrl-C partway through a write."""


def _interrupting(k, calls):
    """`records.write_lines`, except that its k-th call raises Interrupted
    after half its rows. `calls` collects the path of every call."""
    write_lines = slangsent.records.write_lines

    def interrupting_write_lines(path, lines):
        calls.append(path)
        if len(calls) != k:
            return write_lines(path, lines)
        rows = list(lines)

        def cut_short():
            yield from rows[:len(rows) // 2]
            raise Interrupted(path)

        write_lines(path, cut_short())

    return interrupting_write_lines


def _run_with_writes(monkeypatch, config_path, k):
    """`run` with the k-th write interrupted (none when k is 0); returns the
    paths written to, in order."""
    calls = []
    with monkeypatch.context() as patch:
        # each module that calls write_lines looks it up in its own namespace
        for module in (slangsent.ingest, slangsent.lexicon, slangsent.records):
            patch.setattr(module, "write_lines", _interrupting(k, calls))
        assert main(["run", "--config", str(config_path)]) == 0
    return calls


GOLDEN_RUN_WRITES = 13  # vocabulary, four lexicons, four exports, the run record after each stage


def _outputs_but_the_run_record(config_path):
    out = config_path.parent / "out"
    return {path.name: path.read_bytes() for path in out.iterdir() if path.name != "run.json"}


def _append_entry(config_path):
    """Add an entry record to the golden fixture's entries: it links `ratio`,
    unreached in the golden run, to `lit`, so every stage from the
    vocabulary on changes."""
    with open(config_path.with_name("entries.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(_entry("ratio", related=["lit"])) + "\n")


@pytest.mark.parametrize("k", range(1, GOLDEN_RUN_WRITES + 1))
def test_resume_after_an_interrupted_write_equals_a_fresh_run(tmp_path, monkeypatch, capsys, k):
    fresh = write_golden_fixture(tmp_path / "fresh")
    assert len(_run_with_writes(monkeypatch, fresh, 0)) == GOLDEN_RUN_WRITES
    interrupted = write_golden_fixture(tmp_path / "interrupted")
    with pytest.raises(Interrupted):
        _run_with_writes(monkeypatch, interrupted, k)
    assert main(["run", "--config", str(interrupted), "--resume"]) == 0
    assert _outputs_but_the_run_record(interrupted) == _outputs_but_the_run_record(fresh)
    assert not list(interrupted.parent.rglob("*.tmp"))


@pytest.mark.parametrize("k", range(1, GOLDEN_RUN_WRITES + 1))
def test_resume_after_an_interrupted_write_over_edited_inputs_equals_a_fresh_run(
        tmp_path, monkeypatch, capsys, k):
    # The run stopped over the complete output of the inputs before the edit.
    fresh = write_golden_fixture(tmp_path / "fresh")
    _append_entry(fresh)
    assert main(["run", "--config", str(fresh)]) == 0
    interrupted = write_golden_fixture(tmp_path / "interrupted")
    assert main(["run", "--config", str(interrupted)]) == 0
    _append_entry(interrupted)
    with pytest.raises(Interrupted):
        _run_with_writes(monkeypatch, interrupted, k)
    assert main(["run", "--config", str(interrupted), "--resume"]) == 0
    assert _outputs_but_the_run_record(interrupted) == _outputs_but_the_run_record(fresh)
    assert not list(interrupted.parent.rglob("*.tmp"))


# --- the run record guards a resume ----------------------------------------


def _edit_run_record(out, edit):
    path = out / OUTPUT_FILES["run"]
    record = json.loads(path.read_text(encoding="utf-8"))
    edit(record)
    path.write_text(json.dumps(record), encoding="utf-8")


def _truncate(path):
    path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])


def _replace_once(path, old, new):
    data = path.read_bytes()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))


# (id, damage to the output directory of a complete golden run, the first
# stage a resume must build, and why): each damaged file is rebuilt.
DAMAGED_OUTPUTS = [
    ("stage-file-truncated", lambda out: _truncate(out / OUTPUT_FILES["seed"]),
     "seed", "its file changed"),
    ("stage-file-edited-by-one-byte",
     lambda out: _replace_once(out / OUTPUT_FILES["estimates"], b'"strength": 1.0, "term": "dope"',
                               b'"strength": 1.5, "term": "dope"'),
     "estimates", "its file changed"),
    ("run-record-stage-hash-edited",
     lambda out: _edit_run_record(out, lambda record: record["stages"][3].update(sha256="0" * 64)),
     "propagated", "its file changed"),
    ("run-record-stage-left-out",
     lambda out: _edit_run_record(out, lambda record: record["stages"].pop(1)),
     "seed", "the run record holds no hash of it"),
    ("run-record-fingerprint-edited",
     lambda out: _edit_run_record(out, lambda record: record.update(fingerprint="0" * 64)),
     "vocabulary", "the inputs, config or version changed"),
    ("run-record-missing", lambda out: (out / OUTPUT_FILES["run"]).unlink(),
     "vocabulary", "no run record could be read"),
    ("run-record-truncated", lambda out: _truncate(out / OUTPUT_FILES["run"]),
     "vocabulary", "no run record could be read"),
    ("run-record-stages-not-a-list",
     lambda out: _edit_run_record(out, lambda record: record.update(stages={})),
     "vocabulary", "no run record could be read"),
]


@pytest.mark.parametrize("damage, first, reason", [case[1:] for case in DAMAGED_OUTPUTS],
                         ids=[case[0] for case in DAMAGED_OUTPUTS])
def test_resume_rebuilds_from_a_damaged_output(tmp_path, caplog, damage, first, reason):
    config = load_config(write_golden_fixture(tmp_path))
    run_pipeline(config)
    baseline = read_exports(config.output_dir)
    damage(config.output_dir)
    caplog.set_level(logging.INFO, logger="slangsent.pipeline")
    result = run_pipeline(config, resume=True)
    built = STAGES.index(first)
    assert built_stages(result) == STAGES[built:]
    assert walk_messages(caplog)[built] == f"{first}: built because {reason}"
    assert read_exports(config.output_dir) == baseline


def test_resume_from_another_directory_loads_every_stage(tmp_path, monkeypatch, caplog):
    # The config's paths are spelled from another directory; they name the same files.
    config_path = write_golden_fixture(tmp_path / "fixture")
    assert main(["run", "--config", str(config_path)]) == 0
    monkeypatch.chdir(config_path.parent)
    caplog.set_level(logging.INFO, logger="slangsent.pipeline")
    assert main(["run", "--config", config_path.name, "--resume"]) == 0
    assert walk_messages(caplog) == [
        f"{name}: loaded because its file matches the run record" for name in STAGES]


def test_resume_writes_a_run_record_equal_to_the_fresh_one_but_its_timing(tmp_path):
    config = load_config(write_golden_fixture(tmp_path))
    run_pipeline(config)
    path = config.output_dir / OUTPUT_FILES["run"]
    fresh = json.loads(path.read_text(encoding="utf-8"))
    run_pipeline(config, resume=True)
    resumed = json.loads(path.read_text(encoding="utf-8"))
    for record in (fresh, resumed):
        for entry in record["stages"]:
            del entry["seconds"], entry["how"], entry["reason"]
    assert resumed == fresh


# --- the counts of the run record --------------------------------------------


# Lines appended to the golden entries for a lenient run, and the kind under
# which the run record counts each skip.
BAD_ENTRY_LINES = {
    "{broken\n": "bad JSON",
    '{"term": 5, "meanings": ["m"], "examples": ["x"]}\n': "'term' must be a string",
    '{"term": "x", "meanings": [], "examples": ["x"]}\n': "entry must have at least one meaning",
    "[1, 2]\n": "record is not an object",
    '{"term": "x", "meanings": ["m"]\n': "bad JSON",
}


def _brute_counts():
    """The counts of a run on the golden fixture (`max_docs` 150: no term is
    sampled), computed from the fixture's data alone."""
    vocabulary = brute_vocabulary((e["term"], e["related_terms"]) for e in GOLDEN_ENTRIES)
    seed = brute_seed_merge((source_id, values, factor, offset)
                            for source_id, values, (factor, offset) in GOLDEN_SEEDS)
    retrieved = {term: sum(1 for text in GOLDEN_CORPUS
                           if brute_spans(text.split(), term.split(" ")))
                 for term in sorted(vocabulary) if term not in seed}
    edges = {tuple(sorted((term, other))) for term, related in vocabulary.items()
             for other in related if other in vocabulary}
    labeled = {term for term in vocabulary if term in seed or retrieved.get(term)}
    rounds = []
    while len(labeled) < len(vocabulary):
        fresh = {term for term in vocabulary if term not in labeled
                 and any(term in edge and set(edge) & labeled for edge in edges)}
        rounds.append(len(fresh))
        if not fresh:
            break
        labeled |= fresh
    skipped = {}
    for kind in BAD_ENTRY_LINES.values():
        skipped[kind] = skipped.get(kind, 0) + 1
    return {
        "vocabulary": {"records": len(GOLDEN_ENTRIES), "skipped": skipped,
                       "terms": len(vocabulary)},
        "seed": {"terms": len(seed)},
        "estimates": {
            "estimated": sum(1 for count in retrieved.values() if count),
            "unlabelable": sum(1 for count in retrieved.values() if not count),
            "terms": sum(1 for count in retrieved.values() if count),
            "documents_per_term": {"min": min(retrieved.values()),
                                   "median": statistics.median(retrieved.values()),
                                   "max": max(retrieved.values())},
        },
        "propagated": {"labels_per_round": rounds, "edges": len(edges),
                       "unreached": len(vocabulary) - len(labeled), "terms": sum(rounds)},
    }


def test_run_record_counts_equal_brute_counts(tmp_path):
    config_path = write_golden_fixture(tmp_path)
    with open(tmp_path / "entries.jsonl", "a", encoding="utf-8") as handle:
        handle.writelines(BAD_ENTRY_LINES)
    config_path.write_text(json.dumps({**json.loads(config_path.read_text()), "strict": False}),
                           encoding="utf-8")
    result = run_pipeline(load_config(config_path))
    record = json.loads(result.paths["run"].read_text(encoding="utf-8"))
    assert [entry["stage"] for entry in record["stages"]] == STAGES
    assert {entry["stage"]: entry["counts"] for entry in record["stages"]} == _brute_counts()
    assert all(entry["how"] == "built" for entry in record["stages"])


# --- the pipeline against the independent reference on drawn fixtures -------

TERM_WORDS = ["lit", "fire", "sus", "mid", "cap", "yeet"]
SEED_WORDS = ["good", "bad", "great", "awful", *TERM_WORDS[:3]]
FILLER = ["the", "day", "so"]

TERMS = st.lists(st.sampled_from(TERM_WORDS), min_size=1, max_size=2).map(" ".join)
CASED_TERMS = st.tuples(TERMS, st.sampled_from([str.lower, str.upper, str.title])).map(
    lambda pair: pair[1](pair[0]))
RECORDS = st.lists(
    st.tuples(CASED_TERMS, st.lists(CASED_TERMS, max_size=3)), min_size=1, max_size=10
).map(lambda pairs: [_entry(term, related=related) for term, related in pairs])


@st.composite
def seed_sources(draw):
    """One or two sources on a quarter-step grid that scales into [-2, 2]."""
    sources = []
    for index in range(draw(st.integers(1, 2))):
        factor = draw(st.sampled_from([1.0, 0.5]))
        quarters = st.integers(-8, 8).map(lambda q, f=factor: q / 4 / f)
        values = draw(st.dictionaries(st.sampled_from(SEED_WORDS), quarters, max_size=6))
        sources.append((f"s{index}", values, (factor, 0.0)))
    return sources


DOCUMENTS = st.lists(
    st.lists(st.sampled_from(TERM_WORDS + SEED_WORDS + FILLER), min_size=1, max_size=8)
    .map(" ".join),
    max_size=25,
)


def _write_fixture(root, entry_files, sources, documents, max_docs=150):
    """The config path of a run over `entry_files` (lists of records, one file
    each), `sources` as `seed_sources` draws them, and `documents`."""
    root.mkdir(parents=True, exist_ok=True)
    for index, records in enumerate(entry_files):
        (root / f"entries{index}.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    seed_items = []
    for source_id, values, (factor, offset) in sources:
        (root / f"{source_id}.tsv").write_text(
            "".join(f"{term}\t{value}\n" for term, value in values.items()), encoding="utf-8")
        seed_items.append({"id": source_id, "path": f"{source_id}.tsv",
                           "scale": {"factor": factor, "offset": offset}})
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps({"id": f"d{i}", "text": text}) + "\n"
                for i, text in enumerate(documents)), encoding="utf-8")
    config = {"entries": [f"entries{index}.jsonl" for index in range(len(entry_files))],
              "seed_lexicons": seed_items, "corpus": "corpus.jsonl", "output_dir": "out",
              "max_docs": max_docs}
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return root / "config.json"


@settings(max_examples=100, deadline=None)
@given(records=RECORDS, sources=seed_sources(), documents=DOCUMENTS)
def test_pipeline_equals_reference(records, sources, documents):
    with tempfile.TemporaryDirectory() as root:
        result = run_pipeline(load_config(_write_fixture(Path(root), [records], sources, documents)))
        exported = result.paths["slangsd"].read_text(encoding="utf-8")
    text, stages = reference_slangsd(records, sources, documents)
    for stage, key in ((Stage.SEED_LEXICON, "stage1"), (Stage.CORPUS_ESTIMATE, "stage2"),
                       (Stage.PROPAGATION, "stage3")):
        expected = stages[key]
        got = {e.term: e.strength for e in result.final.entries() if e.stage is stage}
        assert got.keys() == expected.keys(), stage
        for term, value in expected.items():
            assert got[term] == pytest.approx(value, abs=1e-9), (stage, term)
    assert exported == text


# --- whole-pipeline metamorphic relations ------------------------------------


class Inputs(NamedTuple):
    """A run's inputs: entry files of records, seed sources as `seed_sources`
    draws them (every scale a factor with offset 0), and corpus texts."""

    entry_files: list[list[dict]]
    sources: list[tuple[str, dict[str, float], tuple[float, float]]]
    documents: list[str]
    max_docs: int


@st.composite
def run_inputs(draw):
    """The reference property's records cut into one to three entry files,
    and a `max_docs` that is often low enough to sample terms down to it."""
    records = draw(RECORDS)
    cuts = sorted(draw(st.lists(st.integers(1, len(records)), max_size=2)))
    bounds = [0, *cuts, len(records)]
    entry_files = [records[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]
    return Inputs(entry_files, draw(seed_sources()), draw(DOCUMENTS),
                  draw(st.sampled_from([1, 2, 150])))


def _negated_seeds(inputs):
    return inputs._replace(sources=[(source_id, {term: -value for term, value in values.items()},
                                     scale) for source_id, values, scale in inputs.sources])


def _documents_without_vocabulary_words_appended(inputs):
    # Each document again without its term words: the new positions come after
    # every match, so no query, sampled or not, retrieves another document.
    stripped = (" ".join(w for w in text.split(" ") if w not in TERM_WORDS)
                for text in inputs.documents)
    return inputs._replace(documents=inputs.documents + [text for text in stripped if text])


# A filler word and the fresh word it becomes: in no seed source, term or
# emoticon set, and a token of its own.
RENAMED_FILLER = ("the", "zed")

# name -> the transform of a run's inputs. The seed-sign flip negates each
# strength of the final lexicon; every other transform leaves each output
# file byte-identical.
RELATIONS = {
    "seed-sign-flip": _negated_seeds,
    "seed-source-order": lambda inputs: inputs._replace(sources=inputs.sources[::-1]),
    "entry-file-order": lambda inputs: inputs._replace(entry_files=inputs.entry_files[::-1]),
    "duplicated-entry-records": lambda inputs: inputs._replace(
        entry_files=[records + records for records in inputs.entry_files]),
    "appended-documents-without-vocabulary-words": _documents_without_vocabulary_words_appended,
    "filler-word-renamed": lambda inputs: inputs._replace(documents=[
        " ".join(RENAMED_FILLER[1] if w == RENAMED_FILLER[0] else w for w in text.split(" "))
        for text in inputs.documents]),
}


def _run_on(root, inputs):
    """The final lexicon and the bytes of each output file of a run on `inputs`."""
    result = run_pipeline(load_config(_write_fixture(root, *inputs)))
    return result.final, read_exports(result.paths["final"].parent)


@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=10, deadline=None)
@given(inputs=run_inputs())
@example(inputs=Inputs(
    entry_files=[[_entry("lit", related=["yeet"]), _entry("sus", related=["mid"])],
                 [_entry("Lit", related=["cap"]), _entry("fire"), _entry("mid")]],
    sources=[("s0", {"good": 1.0, "bad": -1.5, "lit": 0.25}, (1.0, 0.0)),
             ("s1", {"great": 4.0, "awful": -2.0, "lit": -1.0}, (0.5, 0.0))],
    documents=["the day was lit good", "fire so bad", "so fire great the",
               "sus awful the day", "fire the good", "cap lit bad so"],
    max_docs=1))
def test_pipeline_metamorphic_relations(relation, inputs):
    with tempfile.TemporaryDirectory() as root:
        final, outputs = _run_on(Path(root) / "before", inputs)
        changed, changed_outputs = _run_on(Path(root) / "after", RELATIONS[relation](inputs))
    if relation != "seed-sign-flip":
        assert changed_outputs == outputs
        return
    assert {term: (e.stage, e.strength) for term, e in changed.items()} == {
        term: (e.stage, -e.strength) for term, e in final.items()}
    classes, changed_classes = (
        dict(line.split("\t") for line in files["slangsd"].decode().splitlines())
        for files in (outputs, changed_outputs))
    assert {term: -int(cls) for term, cls in classes.items()} == {
        term: int(cls) for term, cls in changed_classes.items()}


# --- a resume after an edit --------------------------------------------------


def _edited(inputs, edit):
    """`inputs` after one edit: (what, value) appends the records `value` to
    the first entry file, or else puts `value` in place of the sources, the
    documents or `max_docs`."""
    what, value = edit
    if what == "entries":
        return inputs._replace(entry_files=[inputs.entry_files[0] + value,
                                            *inputs.entry_files[1:]])
    return inputs._replace(**{what: value})


EDITS = st.one_of(
    st.tuples(st.just("entries"), RECORDS),
    st.tuples(st.just("sources"), seed_sources()),
    st.tuples(st.just("documents"), DOCUMENTS),
    st.tuples(st.just("max_docs"), st.sampled_from([1, 2, 150])),
)
EDITED_INPUTS = Inputs(
    entry_files=[[_entry("lit", related=["yeet"]), _entry("sus", related=["mid"])],
                 [_entry("fire"), _entry("mid", related=["cap"])]],
    sources=[("s0", {"good": 1.0, "bad": -1.5, "sus": -0.5}, (1.0, 0.0))],
    documents=["the day was lit good", "fire so bad", "so fire great the", "lit bad so",
               "cap the good"],
    max_docs=150)


@settings(max_examples=20, deadline=None)
@given(inputs=run_inputs(), edit=EDITS)
@example(inputs=EDITED_INPUTS, edit=("entries", [_entry("cap", related=["fire"])]))
@example(inputs=EDITED_INPUTS, edit=("sources", [("s0", {"good": 2.0, "bad": -1.5}, (1.0, 0.0))]))
@example(inputs=EDITED_INPUTS, edit=("documents", ["lit bad", "fire good", "cap so bad"]))
@example(inputs=EDITED_INPUTS, edit=("max_docs", 1))
def test_resume_after_an_edit_writes_what_a_fresh_run_writes(inputs, edit):
    edited = _edited(inputs, edit)
    with tempfile.TemporaryDirectory() as root:
        config_path = _write_fixture(Path(root) / "resumed", *inputs)
        run_pipeline(load_config(config_path))
        _write_fixture(Path(root) / "resumed", *edited)
        resumed = run_pipeline(load_config(config_path), resume=True)
        fresh = run_pipeline(load_config(_write_fixture(Path(root) / "fresh", *edited)))
        assert read_exports(resumed.paths["run"].parent) == read_exports(fresh.paths["run"].parent)
