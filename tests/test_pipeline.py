from __future__ import annotations

import json
import logging
import os
import random
import re
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
from slangsent.lexicon import LinearScale, Stage, load_lexicon
from slangsent.pipeline import OUTPUT_FILES, load_config, run_pipeline

from .fixtures import _entry, write_golden_fixture, write_synthetic_fixture
from .reference import reference_slangsd


STAGES = ["vocabulary", "seed", "estimates", "propagated"]  # the persisted stages, in build order
README = Path(__file__).resolve().parent.parent / "README.md"


def read_exports(out_dir):
    return {
        name: (out_dir / filename).read_bytes()
        for name, filename in OUTPUT_FILES.items()
    }


def walk_messages(caplog):
    """The `resuming:` and `building:` lines logged, in order."""
    return [record.getMessage() for record in caplog.records
            if record.getMessage().startswith(("resuming:", "building:"))]


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
        assert result.built["propagated"].unreached == frozenset({"ghosted", "ratio"})
        assert "ghosted" not in result.final and "ratio" not in result.final

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
        assert outputs[0] == outputs[1]

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
        assert result.built == {}
        assert walk_messages(caplog) == [
            f"resuming: {name} from {config.output_dir / OUTPUT_FILES[name]}" for name in STAGES]
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
        assert list(result.built) == STAGES[missing:]
        assert walk_messages(caplog) == [
            *(f"resuming: {name} from {config.output_dir / OUTPUT_FILES[name]}"
              for name in STAGES[:missing]),
            f"building: {stage} (no stage file)",
            *(f"building: {name} (an earlier stage was built)" for name in STAGES[missing + 1:]),
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
        assert list(result.built) == ["estimates", "propagated"]
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
        skipped = result.built["vocabulary"].skipped
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


GOLDEN_RUN_WRITES = 9  # vocabulary, four lexicons, four exports


@pytest.mark.parametrize("k", range(1, GOLDEN_RUN_WRITES + 1))
def test_resume_after_an_interrupted_write_equals_a_fresh_run(tmp_path, monkeypatch, capsys, k):
    fresh = write_golden_fixture(tmp_path / "fresh")
    assert len(_run_with_writes(monkeypatch, fresh, 0)) == GOLDEN_RUN_WRITES
    interrupted = write_golden_fixture(tmp_path / "interrupted")
    with pytest.raises(Interrupted):
        _run_with_writes(monkeypatch, interrupted, k)
    assert main(["run", "--config", str(interrupted), "--resume"]) == 0
    out, fresh_out = interrupted.parent / "out", fresh.parent / "out"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in fresh_out.iterdir()}
    assert not list(interrupted.parent.rglob("*.tmp"))


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
