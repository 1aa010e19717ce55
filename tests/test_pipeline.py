from __future__ import annotations

import json
import random

import pytest

from slangsent.errors import ConfigError
from slangsent.lexicon import LinearScale, Stage, load_lexicon
from slangsent.pipeline import OUTPUT_FILES, load_config, run_pipeline

from .fixtures import write_golden_fixture, write_synthetic_fixture


def read_exports(out_dir):
    return {
        name: (out_dir / filename).read_bytes()
        for name, filename in OUTPUT_FILES.items()
    }


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

    def test_null_target_range_maps_onto_the_strength_scale(self, tmp_path):
        config_path = write_golden_fixture(tmp_path)
        raw = json.loads(config_path.read_text())
        raw["seed_lexicons"][1]["scale"] = {"source_range": [-4, 4], "target_range": None}
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        scale = load_config(config_path).seed_sources[1].scale
        assert scale == LinearScale.from_ranges((-4, 4))

    def test_relative_paths_resolved_against_config_dir(self, tmp_path):
        config = load_config(write_golden_fixture(tmp_path))
        assert config.corpus_file.parent == tmp_path


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
        assert result.propagation.unreached == frozenset({"ghosted", "ratio"})
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

    def test_resume_from_intermediates_identical(self, tmp_path):
        config = load_config(write_golden_fixture(tmp_path))
        run_pipeline(config)
        baseline = read_exports(config.output_dir)
        # drop the final artifacts but keep stage intermediates
        for name in ("final", "slangsd", "idiom_table", "report_text", "report_json"):
            (config.output_dir / OUTPUT_FILES[name]).unlink()
        run_pipeline(config, resume=True)
        assert read_exports(config.output_dir) == baseline

    def test_resume_reuses_persisted_stage_output(self, tmp_path):
        config = load_config(write_golden_fixture(tmp_path))
        run_pipeline(config)
        baseline = read_exports(config.output_dir)
        result = run_pipeline(config, resume=True)
        # estimation report absent because the stage was loaded, not recomputed
        assert result.estimation is None
        assert read_exports(config.output_dir) == baseline

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
        assert len(result.ingest_issues) == 1
        assert str(result.ingest_issues[0]).startswith(f"{entries_path}: line ")
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
