"""Span tracing around slangsent's public functions, for per-layer metrics.

`Tracer.install()` replaces each function named in TARGETS, in the module
namespace its caller looks it up in, with a wrapper that records a span;
`uninstall()` puts the originals back. Spans nest: a span's self time is its
duration minus the time of the spans it encloses. Per-span totals are kept
in memory and turned into the per-layer metrics by `layer_metrics()`.

The tracer fails loudly: a target that no longer exists stops `install()`,
and a span that recorded no call during a traced pass stops
`check_coverage()`, so a renamed function can never show up as a zero.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter


class TraceError(RuntimeError):
    """A traced name is missing or was never called."""


def _count_len(key):
    def observe(tracer, result, args):
        tracer.counts[key] = tracer.counts.get(key, 0) + len(result)

    return observe


def _keep(key):
    def observe(tracer, result, args):
        tracer.kept[key] = result

    return observe


def _query(tracer, documents, args):
    counts = tracer.counts
    counts["docs_retrieved"] = counts.get("docs_retrieved", 0) + len(documents)
    if len(documents) == args[2]:  # (provider, term, max_docs)
        counts["queries_at_cap"] = counts.get("queries_at_cap", 0) + 1


def _evidence(tracer, value, args):
    if value == 0.0:
        tracer.counts["neutral"] = tracer.counts.get("neutral", 0) + 1


@dataclass(frozen=True)
class Target:
    module: str
    attribute: str  # "name" or "Class.method"
    span: str
    leaf: bool = False  # encloses no other traced span: skip the frame push
    observe: Callable | None = None  # (tracer, result, args) -> None, records counts


# Names as run_pipeline (slangsent.pipeline) and the CLI commands
# (slangsent.cli) look them up, plus the inner calls of the corpus and
# scoring layers. A function imported into several modules is patched in
# each module that calls it.
TARGETS = (
    Target("slangsent.pipeline", "parse_entries", "ingest.parse", observe=_count_len("records")),
    Target("slangsent.pipeline", "build_vocabulary", "ingest.vocab", observe=_keep("vocabulary")),
    Target("slangsent.pipeline", "save_vocabulary", "ingest.save"),
    Target("slangsent.pipeline", "load_vocabulary", "ingest.load"),
    Target("slangsent.pipeline", "merge_seed_lexicons", "lexicon.seed_merge", observe=_keep("seed")),
    Target("slangsent.pipeline", "combine", "lexicon.combine"),
    Target("slangsent.pipeline", "save_lexicon", "lexicon.save"),
    Target("slangsent.pipeline", "load_lexicon", "lexicon.load"),
    Target("slangsent.cli", "load_lexicon", "lexicon.load"),
    Target("slangsent.pipeline", "export_slangsd", "lexicon.export"),
    Target("slangsent.pipeline", "export_idiom_table", "lexicon.export"),
    Target("slangsent.pipeline", "FileCorpusProvider", "corpus.load_index", observe=_keep("provider")),
    Target("slangsent.corpus", "FileCorpusProvider.query", "corpus.query", observe=_query),
    Target("slangsent.pipeline", "estimate_all", "corpus.estimate", observe=_keep("estimation")),
    Target("slangsent.corpus", "document_strength", "corpus.evidence", observe=_evidence),
    Target("slangsent.corpus", "find_occurrences", "text.find_occurrences", leaf=True),
    Target("slangsent.corpus", "tokenize", "text.tokenize", leaf=True),
    Target("slangsent.scoring", "tokenize", "text.tokenize", leaf=True),
    Target("slangsent.pipeline", "build_graph", "propagate.graph", observe=_keep("graph")),
    Target("slangsent.pipeline", "propagate", "propagate.propagate", observe=_keep("propagation")),
    Target("slangsent.pipeline", "stage_report", "propagate.report"),
    Target("slangsent.cli", "load_corpus", "corpus.load"),
    Target("slangsent.cli", "build_eval_corpus", "distant.label", observe=_keep("distant")),
    Target("slangsent.cli", "save_labeled_corpus", "distant.save"),
    Target("slangsent.cli", "load_labeled_corpus", "distant.load"),
    Target("slangsent.cli", "evaluate", "scoring.evaluate"),
    Target("slangsent.scoring", "PhraseMatcher", "scoring.matcher_build"),
    Target("slangsent.scoring", "PhraseMatcher.match", "scoring.match", observe=_count_len("matches")),
)

# Spans the benchmark opens around its own calls into the package.
BUILD_SPAN = "pipeline.build"
RESUME_SPAN = "pipeline.resume"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.kept: dict[str, object] = {}
        self._stack: list[list[float]] = [[0.0]]  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.kept.clear()

    def wrap(self, span: str, fn, *, leaf: bool = False, observe=None):
        stat = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        tracer = self

        if leaf:
            def traced(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack[-1][0] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed
            return traced

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
            if observe is not None:
                observe(tracer, result, args)
            return result

        return traced

    def install(self) -> None:
        resolved = []
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            *path, name = target.attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if not callable(original):
                raise TraceError(f"trace target {target.module}.{target.attribute} is missing")
            resolved.append((owner, name, original, target))
        # Patch only after resolving everything: "PhraseMatcher.match" must be
        # found on the class before "PhraseMatcher" itself is replaced.
        for owner, name, original, target in resolved:
            setattr(owner, name, self.wrap(target.span, original, leaf=target.leaf,
                                           observe=target.observe))
            self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def check_coverage(self) -> None:
        silent = sorted(span for span, stat in self.stats.items() if stat[0] == 0)
        if silent:
            raise TraceError(f"traced spans recorded no call: {', '.join(silent)}")

    def _total(self, span: str) -> float:
        return self.stats[span][1]

    def _self(self, span: str) -> float:
        return self.stats[span][2]

    def _calls(self, span: str) -> int:
        return self.stats[span][0]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass. `_s` values are inclusive
        span times unless the name says `self`."""
        t, c, k = self._total, self._calls, self.kept
        counts = self.counts
        estimation, propagation, distant = k["estimation"], k["propagation"], k["distant"]
        graph = k["graph"]
        return {
            "ingest.parse_s": t("ingest.parse"),
            "ingest.records": counts.get("records", 0),
            "ingest.vocab_s": t("ingest.vocab"),
            "ingest.terms": len(k["vocabulary"]),
            "ingest.save_s": t("ingest.save"),
            "ingest.load_s": t("ingest.load"),
            "lexicon.seed_merge_s": t("lexicon.seed_merge"),
            "lexicon.seed_terms": len(k["seed"]),
            "lexicon.combine_s": t("lexicon.combine"),
            "lexicon.save_s": t("lexicon.save"),
            "lexicon.load_s": t("lexicon.load"),
            "lexicon.export_s": t("lexicon.export"),
            "corpus.load_index_s": t("corpus.load_index"),
            "corpus.docs": len(k["provider"]),
            "corpus.load_s": t("corpus.load"),
            "corpus.query_s": t("corpus.query"),
            "corpus.queries": c("corpus.query"),
            "corpus.docs_retrieved": counts.get("docs_retrieved", 0),
            "corpus.queries_at_cap": counts.get("queries_at_cap", 0),
            "corpus.evidence_s": t("corpus.evidence"),
            "corpus.evidence_calls": c("corpus.evidence"),
            "corpus.neutral_share": counts.get("neutral", 0) / c("corpus.evidence"),
            "corpus.estimate_self_s": self._self("corpus.estimate"),
            "corpus.estimated": estimation[1].estimated,
            "corpus.unlabelable": len(estimation[1].unlabelable),
            "corpus.failures": len(estimation[1].failures),
            "text.find_occurrences_calls": c("text.find_occurrences"),
            "text.find_occurrences_s": t("text.find_occurrences"),
            "text.tokenize_calls": c("text.tokenize"),
            "text.tokenize_s": t("text.tokenize"),
            "propagate.graph_s": t("propagate.graph"),
            "propagate.nodes": len(graph),
            "propagate.edges": graph.edge_count(),
            "propagate.propagate_s": t("propagate.propagate"),
            "propagate.iterations": propagation.iterations,
            "propagate.labeled": len(propagation.labeled),
            "propagate.unreached": len(propagation.unreached),
            "propagate.report_s": t("propagate.report"),
            "scoring.matcher_builds": c("scoring.matcher_build"),
            "scoring.matcher_build_s": t("scoring.matcher_build"),
            "scoring.docs_per_matcher_build": c("scoring.match") / c("scoring.matcher_build"),
            "scoring.match_s": t("scoring.match"),
            "scoring.matches": counts.get("matches", 0),
            "scoring.evaluate_s": t("scoring.evaluate"),
            "distant.label_s": t("distant.label"),
            "distant.labeled": distant[1].labeled,
            "distant.discarded_conflict": distant[1].discarded_conflict,
            "distant.discarded_unmarked": distant[1].discarded_unmarked,
            "distant.save_s": t("distant.save"),
            "distant.load_s": t("distant.load"),
            "pipeline.self_s": self._self(BUILD_SPAN) + self._self(RESUME_SPAN),
            "pipeline.span_coverage": 1.0 - self._self(BUILD_SPAN) / t(BUILD_SPAN),
        }
