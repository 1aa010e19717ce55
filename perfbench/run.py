"""The slangsent benchmark: one command per workload run.

    python3 perfbench/run.py --workload build-corpus --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. A run generates its seeded inputs (untimed), runs the
golden smoke check, then repeats one pass of a user session until
`--seconds` have passed: build (`run_pipeline`), resume, the `label`
command, set-up, the `evaluate` and `score --corpus` commands, and one
`score_text` library call per scored document. Every operation's output is
checked, and timings are scaled to a reference speed of the host (see
`Session.end_pass`). The last line of standard output is a JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import math
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import gen
from spans import BUILD_SPAN, RESUME_SPAN, Tracer, TraceError

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
GOLDEN_FIXTURE = ROOT / "tests" / "fixtures.py"
GOLDEN_EXPORT = ROOT / "tests" / "data" / "golden_slangsd.txt"
HASHES = Path(__file__).resolve().parent / "expected_hashes.json"
MIN_PASSES = 3
# Nominal duration of one reference task; see `reference_task`.
REFERENCE_S = 0.008


def _reference_lines() -> list[str]:
    rng = random.Random(0)
    words = ["".join(rng.choice("bcdfghjklmnprstvwz") + rng.choice("aeiou") for _ in range(3))
             for _ in range(500)]
    return [
        json.dumps({"id": f"r{i}", "text": " ".join(
            rng.choice(words) + rng.choice(("", "", ",", "!")) for _ in range(12))})
        for i in range(400)
    ]


_REFERENCE_LINES = _reference_lines()
_EDGE = re.compile(r"^[\W_]+|[\W_]+$")


def reference_task() -> float:
    """Time one fixed task of the kind slangsent does (JSON records,
    tokenizing, an inverted index). Its time measures how fast the host runs
    Python right now; it never touches the package."""
    start = time.perf_counter()
    index: dict[str, set[int]] = {}
    for number, line in enumerate(_REFERENCE_LINES):
        for chunk in json.loads(line)["text"].split():
            index.setdefault(_EDGE.sub("", chunk).lower(), set()).add(number)
    sorted(index.items(), key=lambda item: len(item[1]))
    return time.perf_counter() - start


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import slangsent
        import slangsent.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import slangsent from {src}: {exc}") from None
    if Path(slangsent.__file__).resolve().parent != (src / "slangsent").resolve():
        raise SystemExit(f"slangsent was imported from {slangsent.__file__}, not from {src}")
    return slangsent


def tail_percentile(count: int) -> float | None:
    """The highest of the usual percentiles with at least ten samples above it."""
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - percentile) / 100.0 >= 10:
            return percentile
    return None


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


class Session:
    """One workload run: its inputs, its operations and what they measured."""

    def __init__(self, pkg, workload: str, seed: int, work: Path, tracer: Tracer | None):
        self.pkg = pkg
        self.workload = workload
        self.work = work
        self.manifest = gen.generate(workload, seed, work / "inputs")
        self.config = pkg.load_config(self.manifest.config)
        self.out = Path(self.config.output_dir)
        self.tracer = tracer
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}  # normalized to the reference speed
        self.raw: dict[str, list[float]] = {}  # as measured
        self.pass_samples: dict[str, list[float]] = {}
        self.reference: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.exports: dict[str, bytes] | None = None
        self.final = None
        self.scores: list[tuple[str, str]] = []
        self.emoticons = frozenset(gen.POSITIVE_EMOTICONS + gen.NEGATIVE_EMOTICONS)

    # -- bookkeeping -------------------------------------------------------

    def attempt(self, what: str, operation) -> None:
        """Run one operation; it fails if it raises or returns problems."""
        self.attempted += 1
        try:
            problems = operation()
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {what}: {problem}", file=sys.stderr)

    def sample(self, name: str, value: float) -> None:
        self.pass_samples.setdefault(name, []).append(value)

    def end_pass(self) -> None:
        """Scale the pass's samples to the speed at which the reference task
        takes REFERENCE_S. The host's speed drifts; the pass's median
        reference time says how fast it ran during the pass."""
        slowdown = statistics.median(self.reference) / REFERENCE_S
        for name, values in self.pass_samples.items():
            self.raw.setdefault(name, []).extend(values)
            scale = slowdown if name.endswith("_per_s") else 1.0 / slowdown
            self.samples.setdefault(name, []).extend(value * scale for value in values)
        self.pass_samples.clear()
        self.reference.clear()

    def timed(self, span: str, fn, *args, **kwargs):
        if self.tracing:
            fn = self.tracer.wrap(span, fn)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start

    def command(self, span: str, argv: list[str]) -> tuple[str, float, list[str]]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code, seconds = self.timed(span, self.pkg.cli.main, argv)
        problems = [f"exit code {code}"] if code != 0 else []
        return buffer.getvalue(), seconds, problems

    # -- operations --------------------------------------------------------

    def build(self, sample: str = "build_s") -> list[str]:
        result, seconds = self.timed(BUILD_SPAN, self.pkg.run_pipeline, self.config)
        self.sample(sample, seconds)
        self.final = result.final
        exports = checks.read_exports(self.out)
        problems = checks.check_build(self.out)
        if self.exports is None:
            self.exports = exports
        elif exports != self.exports:
            problems.append("build exports differ from the first build's")
        return problems

    def resume(self) -> list[str]:
        _, seconds = self.timed(RESUME_SPAN, self.pkg.run_pipeline, self.config, resume=True)
        self.sample("resume_s", seconds)
        return checks.check_resume(self.exports, self.out)

    def label(self) -> list[str]:
        m = self.manifest
        _, seconds, problems = self.command("cli.label", [
            "label", "--corpus", str(m.apply_corpus), "--output", str(self.out / "labeled.jsonl"),
            "--emoticons", str(m.emoticons),
        ])
        self.sample("label_docs_per_s", m.apply_docs / seconds)
        return problems or checks.check_labels(
            self.out / "labeled.jsonl", m.expected_labels, self.emoticons)

    def setup(self) -> list[str]:
        """Build workloads: corpus load and index. Apply: loading the lexicon
        and both corpora before the first document is scored."""
        pkg, m = self.pkg, self.manifest
        if self.workload == "apply":
            def load():
                return (pkg.load_lexicon(self.out / "final_lexicon.jsonl"),
                        pkg.load_corpus(m.apply_corpus),
                        pkg.load_labeled_corpus(self.out / "labeled.jsonl"))
            (lexicon, corpus, labeled), seconds = self.timed("bench.setup", load)
            problems = [] if (len(lexicon), len(corpus), len(labeled)) == (
                len(self.final), m.apply_docs, len(m.expected_labels)) else ["wrong sizes loaded"]
        else:
            provider, seconds = self.timed(
                "bench.setup", pkg.FileCorpusProvider, self.config.corpus_file,
                sample_seed=self.config.sample_seed)
            problems = [] if len(provider) == gen.SHAPES[self.workload].docs else ["wrong size"]
        self.sample("setup_s", seconds)
        return problems

    def evaluate(self) -> list[str]:
        labeled = len(self.manifest.expected_labels)
        _, seconds, problems = self.command("cli.evaluate", [
            "evaluate", "--lexicon", str(self.out / "final_lexicon.jsonl"),
            "--corpus", str(self.out / "labeled.jsonl"), "--json", str(self.out / "evaluation.json"),
        ])
        self.sample("evaluate_docs_per_s", labeled / seconds)
        return problems or checks.check_evaluation(self.out / "evaluation.json", labeled)

    def score(self) -> list[str]:
        m = self.manifest
        self.scores = []
        output, seconds, problems = self.command("cli.score", [
            "score", "--lexicon", str(self.out / "final_lexicon.jsonl"),
            "--corpus", str(m.score_corpus),
        ])
        self.sample("score_docs_per_s", len(m.score_ids) / seconds)
        (self.out / "score.txt").write_text(output, encoding="utf-8", newline="\n")
        if problems:
            return problems
        self.scores, problems = checks.parse_scores(output, m.score_ids)
        return problems

    def score_text(self, index: int) -> list[str]:
        text = self.manifest.score_texts[index]
        breakdown, seconds = self.timed("bench.score_text", self.pkg.score_text, text, self.final)
        self.sample("score_text_ms", seconds * 1e3)
        got = (f"{breakdown.total:+g}", breakdown.polarity.value)
        if self.scores and got != self.scores[index]:
            return [f"library score {got} != command score {self.scores[index]}"]
        return []

    # -- passes ------------------------------------------------------------

    def step(self, what: str, operation) -> None:
        # Each operation starts without garbage left by the one before, and
        # right after a reference task.
        gc.collect()
        self.reference.append(reference_task())
        self.attempt(what, operation)

    def run_pass(self) -> None:
        self.step("build", self.build)
        self.run_after_build()

    def run_after_build(self) -> None:
        for what, operation in (("resume", self.resume), ("label", self.label),
                                ("setup", self.setup), ("evaluate", self.evaluate),
                                ("score", self.score)):
            self.step(what, operation)
        gc.collect()
        self.reference.append(reference_task())
        for index in range(len(self.manifest.score_texts)):
            self.attempt("score_text", lambda: self.score_text(index))

    def set_tracing(self, on: bool) -> None:
        if on != self.tracing:
            self.tracer.install() if on else self.tracer.uninstall()
            self.tracing = on

    def run_traced_pass(self) -> None:
        """A traced pass, with one untraced build next to the traced build
        for the overhead figure: before it on even passes, after it on odd
        ones, so that the order of the two cancels out."""
        self.tracer.reset()
        builds = [("untraced_build_s", False), ("build_s", True)]
        if len(self.layers) % 2:
            builds.reverse()
        try:
            for sample, traced in builds:
                self.set_tracing(traced)
                self.step("build", lambda: self.build(sample))
            self.set_tracing(True)
            self.run_after_build()
        finally:
            self.set_tracing(False)
        self.tracer.check_coverage()
        self.layers.append(self.tracer.layer_metrics())

    def artifacts(self) -> dict[str, Path]:
        names = ("slangsd.txt", "idiom_additions.txt", "final_lexicon.jsonl",
                 "stage_report.json", "labeled.jsonl", "evaluation.json", "score.txt")
        return {name: self.out / name for name in names}


def golden_smoke(pkg, session: Session) -> None:
    """Build the golden fixture's inputs the same way as every build and
    compare the export with the frozen golden file."""
    def run() -> list[str]:
        spec = importlib.util.spec_from_file_location("golden_fixtures", GOLDEN_FIXTURE)
        fixtures = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fixtures)
        config = pkg.load_config(fixtures.write_golden_fixture(session.work / "golden"))
        pkg.run_pipeline(config)
        return checks.check_golden(Path(config.output_dir), GOLDEN_EXPORT)

    session.attempt("golden smoke", run)


def hash_check(session: Session, seed: int, write: bool) -> None:
    recorded = json.loads(HASHES.read_text(encoding="utf-8")) if HASHES.exists() else {}
    artifacts = session.artifacts()
    if write:
        if recorded.setdefault("seed", seed) != seed:
            raise SystemExit(f"hashes are recorded for seed {recorded['seed']}, not {seed}")
        recorded.setdefault("artifacts", {})[session.workload] = {
            name: checks.sha256(path) for name, path in sorted(artifacts.items())}
        HASHES.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    elif recorded.get("seed") == seed:
        expected = recorded["artifacts"].get(session.workload, {})
        session.attempt("artifact hashes", lambda: checks.check_hashes(artifacts, expected))


def end_to_end(session: Session) -> dict[str, float]:
    s = session.samples
    latencies = s["score_text_ms"]
    return {
        "build_s": statistics.median(s["build_s"]),
        "resume_s": statistics.median(s["resume_s"]),
        "setup_s": statistics.median(s["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "label_docs_per_s": statistics.median(s["label_docs_per_s"]),
        "evaluate_docs_per_s": statistics.median(s["evaluate_docs_per_s"]),
        "score_docs_per_s": statistics.median(s["score_docs_per_s"]),
        "score_text_p50_ms": percentile(latencies, 50.0),
    }


def per_layer(session: Session) -> dict[str, float]:
    metrics = {
        name: statistics.median_low(layer[name] for layer in session.layers)
        for name in session.layers[0]
    }
    # Each traced pass made one traced and one untraced build, in turns of
    # order: pair them, and average over the two orders.
    s = session.raw
    paired = [traced - untraced for traced, untraced in zip(s["build_s"], s["untraced_build_s"])]
    metrics["trace.overhead_s"] = (
        statistics.median(paired[0::2]) + statistics.median(paired[1::2])) / 2
    return metrics


def describe(session: Session) -> None:
    """Human-readable lines: each timing's median and tail with its count."""
    for name, values in sorted(session.samples.items()):
        count = len(values)
        line = (f"# {name}: median {statistics.median(values):.6g} at reference speed, "
                f"{statistics.median(session.raw[name]):.6g} as measured")
        tail = tail_percentile(count)
        if tail is None:
            line += f", n={count} (too few for a tail percentile)"
        else:
            low = name.endswith("_per_s")  # for a rate the slow tail is the low one
            value = percentile(values, 100.0 - tail if low else tail)
            line += f", p{tail:g}{' (slow side)' if low else ''} {value:.6g}, n={count}"
        print(line)
    latencies = session.samples["score_text_ms"]
    beyond = len(latencies) - math.ceil(0.99 * len(latencies))
    print(f"# score_text_p99_ms: {percentile(latencies, 99.0):.6g} ms at reference speed "
          f"({beyond} of {len(latencies)} samples beyond it)")
    share = session.failed / session.attempted
    print(f"# failed_share: {share:g} ({session.failed} of {session.attempted} operations)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--write-hashes", action="store_true",
                        help="record this run's artifact hashes as the committed ones")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pkg = import_package()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    session = Session(pkg, args.workload, args.seed, work, tracer)
    golden_smoke(pkg, session)

    start = time.perf_counter()
    passes = 0
    while True:
        try:
            session.run_traced_pass() if tracer else session.run_pass()
        except TraceError as exc:
            raise SystemExit(f"tracing failed: {exc}") from None
        session.end_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed + elapsed / passes / 2 >= args.seconds:
            break
    print(f"# {args.workload} seed {args.seed}: {passes} passes in {elapsed:.1f} s")
    hash_check(session, args.seed, args.write_hashes)
    describe(session)

    metrics = per_layer(session) if tracer else end_to_end(session)
    listed = spec["per_layer"] if tracer else spec["end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        raise SystemExit(f"measured metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
