"""The benchmark's span tracer must still find and see every function it
traces. It patches functions by the module name their callers look them up
under, so moving a traced call to another module breaks it; this test runs
one small pass of each traced path so that such a move fails here."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from slangsent.cli import main
from slangsent.pipeline import load_config, run_pipeline

from .fixtures import write_golden_fixture

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_records_calls(tmp_path, capsys):
    spans = load_spans()
    config = load_config(write_golden_fixture(tmp_path / "fixture"))
    out = Path(config.output_dir)
    corpus = tmp_path / "apply.jsonl"
    texts = ["lit night :)", "so salty :(", "mid :) :(", "fire love :)", "no face"]
    corpus.write_text(
        "".join(json.dumps({"id": str(i), "text": t}) + "\n" for i, t in enumerate(texts)),
        encoding="utf-8",
    )
    lexicon, labeled = str(out / "final_lexicon.jsonl"), str(out / "labeled.jsonl")

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.wrap(spans.BUILD_SPAN, run_pipeline)(config)
        tracer.wrap(spans.RESUME_SPAN, run_pipeline)(config, resume=True)
        assert main(["label", "--corpus", str(corpus), "--output", labeled]) == 0
        assert main(["evaluate", "--lexicon", lexicon, "--corpus", labeled]) == 0
        assert main(["score", "--lexicon", lexicon, "--corpus", str(corpus)]) == 0
        tracer.check_coverage()
    finally:
        tracer.uninstall()

    metrics = tracer.layer_metrics()
    assert metrics["ingest.terms"] == 15
    assert metrics["propagate.labeled"] == 5
    assert metrics["distant.labeled"] == 3
