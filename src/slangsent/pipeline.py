"""End-to-end lexicon construction pipeline.

Stages: ingest entries -> build vocabulary -> merge seed lexicons ->
corpus-estimate the rest -> propagate over the related-word graph ->
assemble with stage precedence (seed > corpus estimate > propagation) ->
export. Each stage is one function here, shared by `run_pipeline` and the
stage subcommands of the CLI. Every stage's output is persisted in the
output directory, so a run can resume from any intermediate, and identical
configs produce byte-identical exports.
"""

from __future__ import annotations

import json
import logging
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import DEFAULT_MAX_DOCS, EstimationReport, FileCorpusProvider, estimate_all
from .errors import ConfigError, ParseError
from .ingest import Vocabulary, build_vocabulary, load_vocabulary, parse_entries, save_vocabulary
from .lexicon import (
    Lexicon,
    LinearScale,
    SeedSource,
    combine,
    export_idiom_table,
    export_slangsd,
    load_lexicon,
    load_seed_values,
    merge_seed_lexicons,
    save_lexicon,
)
from .propagate import PropagationResult, StageReport, build_graph, propagate, stage_report
from .records import in_file, naming, read_lines, write_json, write_text

log = logging.getLogger(__name__)

OUTPUT_FILES = {
    "vocabulary": "vocabulary.jsonl",
    "seed": "seed_lexicon.jsonl",
    "estimates": "corpus_estimates.jsonl",
    "propagated": "propagated.jsonl",
    "final": "final_lexicon.jsonl",
    "slangsd": "slangsd.txt",
    "idiom_table": "idiom_additions.txt",
    "report_text": "stage_report.txt",
    "report_json": "stage_report.json",
}


# --- config: every value from outside is checked here ------------------------


@dataclass(frozen=True)
class SeedSourceConfig:
    source_id: str
    path: Path
    scale: LinearScale = LinearScale()


@dataclass
class PipelineConfig:
    """A validated run configuration; construction checks ranges and that
    every input file exists."""

    entry_files: list[Path]
    seed_sources: list[SeedSourceConfig]
    corpus_file: Path
    output_dir: Path
    max_docs: int = DEFAULT_MAX_DOCS
    sample_seed: int = 0
    strict: bool = True

    def __post_init__(self) -> None:
        if self.max_docs < 1:
            raise ConfigError(f"max_docs must be >= 1, got {self.max_docs}")
        if not self.entry_files:
            raise ConfigError("no entry files configured")
        _require_files([*self.entry_files, *(s.path for s in self.seed_sources), self.corpus_file])


def _require_files(paths: Iterable[Path]) -> None:
    missing = [str(path) for path in paths if not Path(path).is_file()]
    if missing:
        raise ConfigError(f"missing input files: {', '.join(missing)}")


def _read_json(path: Path, what: str) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits or too deep
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _resolve(base: Path, value: object, name: str) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"'{name}' must be a path string, got {value!r}")
    return base / value


def _typed(value: object, name: str, kind: type):
    """`value` as a `kind`, where a float may be given as an int but a bool is
    neither, and a float is finite."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"'{name}' must be of type {kind.__name__}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"'{name}' must be a finite number, got {value!r}")
    return kind(value)


def _known_keys(raw: dict, known: tuple[str, ...], what: str) -> list[str]:
    """The keys of `known` that `raw` has, in that order; any other key is an error."""
    unknown = sorted(raw.keys() - set(known))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {what}; known keys: {', '.join(known)}")
    return [key for key in known if key in raw]


def _parse_scale(raw: object) -> LinearScale:
    if raw is None:
        return LinearScale()
    if not isinstance(raw, dict):
        raise ConfigError(f"scale must be an object, got {raw!r}")
    if "source_range" not in raw:
        _known_keys(raw, ("factor", "offset"), "a scale without 'source_range'")
        factor, offset = raw.get("factor", 1.0), raw.get("offset", 0.0)
        return LinearScale(_typed(factor, "factor", float), _typed(offset, "offset", float))
    ranges = []  # without a 'target_range', from_ranges maps onto the strength scale
    for name in _known_keys(raw, ("source_range", "target_range"), "a scale with 'source_range'"):
        pair = raw[name]
        if len(_typed(pair, name, list)) != 2:
            raise ConfigError(f"'{name}' must be a [low, high] pair, got {pair!r}")
        ranges.append(tuple(_typed(value, name, float) for value in pair))
    try:
        return LinearScale.from_ranges(*ranges)
    except ValueError as exc:
        raise ConfigError(f"bad scale: {exc}") from None


def parse_seed_sources(raw: object, base: Path) -> list[SeedSourceConfig]:
    """Parse a `[{id, path, scale}]` seed-source list, the format of both the
    config's `seed_lexicons` and the `seed --sources` file. Each id is a
    distinct non-empty string. Paths are resolved against `base`."""
    sources = []
    for item in _typed(raw, "seed_lexicons", list):
        if not isinstance(item, dict) or "id" not in item or "path" not in item:
            raise ConfigError(f"seed source needs 'id' and 'path': {item!r}")
        _known_keys(item, ("id", "path", "scale"), "a seed source")
        source_id = item["id"]
        if not isinstance(source_id, str) or not source_id:
            raise ConfigError(f"seed source 'id' must be a non-empty string, got {source_id!r}")
        if any(source.source_id == source_id for source in sources):
            raise ConfigError(f"seed source 'id' {source_id!r} is repeated")
        path = _resolve(base, item["path"], "seed_lexicons.path")
        sources.append(SeedSourceConfig(source_id, path, _parse_scale(item.get("scale"))))
    return sources


def load_seed_sources(path: Path) -> list[SeedSourceConfig]:
    sources = parse_seed_sources(_read_json(path, "sources"), path.parent)
    _require_files(source.path for source in sources)
    return sources


def load_config(path: str | Path) -> PipelineConfig:
    """Read a pipeline config file (JSON). Relative paths are resolved
    against the config file's directory."""
    path = Path(path)
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _known_keys(raw, ("entries", "seed_lexicons", "corpus", "output_dir", "max_docs",
                      "sample_seed", "strict"), "the config")
    base, entries = path.parent, raw.get("entries")
    return PipelineConfig(
        entry_files=[_resolve(base, p, "entries") for p in _typed(entries, "entries", list)],
        seed_sources=parse_seed_sources(raw.get("seed_lexicons", []), base),
        corpus_file=_resolve(base, raw.get("corpus"), "corpus"),
        output_dir=_resolve(base, raw.get("output_dir"), "output_dir"),
        max_docs=_typed(raw.get("max_docs", DEFAULT_MAX_DOCS), "max_docs", int),
        sample_seed=_typed(raw.get("sample_seed", 0), "sample_seed", int),
        strict=_typed(raw.get("strict", True), "strict", bool),
    )


# --- stages: each computes its output and persists it ------------------------


def ingest_entries(
    entry_files: Iterable[Path], output: Path, *, issues: list[ParseError] | None = None
) -> tuple[Vocabulary, int]:
    """Parse entry files into a vocabulary; returns it with the entry count.
    Without an `issues` list the first bad record raises; with one, bad
    records are skipped and appended to it. Each error names its file."""
    entries = []
    for entry_file in entry_files:
        skipped = None if issues is None else []
        with naming(entry_file):
            entries.extend(parse_entries(read_lines(entry_file), issues=skipped))
        if skipped:
            issues.extend(in_file(issue, entry_file) for issue in skipped)
    vocabulary = build_vocabulary(entries)
    save_vocabulary(vocabulary, output)
    log.info("vocabulary: %d terms from %d entries", len(vocabulary), len(entries))
    return vocabulary, len(entries)


def merge_seeds(sources: Iterable[SeedSourceConfig], output: Path) -> Lexicon:
    """The full merged seed lexicon: labels for vocabulary terms and
    sentiment evidence for estimation."""
    seed = merge_seed_lexicons(
        SeedSource(s.source_id, load_seed_values(s.path), s.scale) for s in sources
    )
    save_lexicon(seed, output)
    log.info("seed lexicon: %d terms", len(seed))
    return seed


def estimate_terms(
    vocabulary: Vocabulary, seed: Lexicon, corpus_file: Path, output: Path, *,
    max_docs: int, sample_seed: int,
) -> tuple[Lexicon, EstimationReport]:
    """Corpus estimates for the vocabulary terms the seeds do not cover."""
    provider = FileCorpusProvider(corpus_file, sample_seed=sample_seed)
    estimates, report = estimate_all(vocabulary, provider, seed, max_docs=max_docs)
    save_lexicon(estimates, output)
    log.info("corpus estimates: %d labeled, %d unlabelable, %d failures",
             report.estimated, len(report.unlabelable), len(report.failures))
    return estimates, report


def propagate_terms(vocabulary: Vocabulary, stages: Sequence[Lexicon],
                    output: Path) -> PropagationResult:
    """Propagate the stages, assembled by precedence, over the related-word graph."""
    result = propagate(build_graph(vocabulary), assemble(vocabulary, *stages))
    save_lexicon(result.labeled, output)
    log.info("propagation: %d labeled in %d iterations, %d unreached",
             len(result.labeled), result.iterations, len(result.unreached))
    return result


def assemble(vocabulary: Vocabulary, seed: Lexicon, *later: Lexicon) -> Lexicon:
    """Stage precedence: the seed terms in the vocabulary, then each later
    stage's lexicon in order, first label wins. Terms no stage labeled stay
    out."""
    return combine(seed.restricted(vocabulary.keys()), *later)


def write_exports(lexicon: Lexicon, slangsd: Path | None, idiom_table: Path | None) -> None:
    if slangsd:
        write_text(slangsd, export_slangsd(lexicon))
    if idiom_table:
        write_text(idiom_table, export_idiom_table(lexicon))


def write_report(lexicon: Lexicon, text_path: Path | None, json_path: Path | None) -> StageReport:
    """The stage/class report of a lexicon, written to whichever paths are given."""
    report = stage_report(lexicon)
    if text_path:
        write_text(text_path, report.format_text())
    if json_path:
        write_json(json_path, report.to_dict())
    return report


# --- the whole run -----------------------------------------------------------


@dataclass
class PipelineResult:
    final: Lexicon
    report: StageReport
    paths: dict[str, Path]
    ingest_issues: list[ParseError] = field(default_factory=list)
    estimation: EstimationReport | None = None
    propagation: PropagationResult | None = None


def run_pipeline(config: PipelineConfig, *, resume: bool = False) -> PipelineResult:
    """Run the full construction pipeline, persisting every stage output.

    With resume=True, stages whose output file already exists are loaded
    instead of recomputed; rerunning from any persisted intermediate yields
    the same final exports.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / filename for name, filename in OUTPUT_FILES.items()}
    issues: list[ParseError] = []
    estimation = propagation = None

    def reuse(name, load):
        if resume and paths[name].exists():
            log.info("resuming: %s from %s", name, paths[name])
            return load(paths[name])
        return None

    vocabulary = reuse("vocabulary", load_vocabulary)
    if vocabulary is None:
        vocabulary, _ = ingest_entries(
            config.entry_files, paths["vocabulary"], issues=None if config.strict else issues
        )
    seed = reuse("seed", load_lexicon)
    if seed is None:
        seed = merge_seeds(config.seed_sources, paths["seed"])
    estimates = reuse("estimates", load_lexicon)
    if estimates is None:
        estimates, estimation = estimate_terms(
            vocabulary, seed, config.corpus_file, paths["estimates"],
            max_docs=config.max_docs, sample_seed=config.sample_seed,
        )
    propagated = reuse("propagated", load_lexicon)
    if propagated is None:
        propagation = propagate_terms(vocabulary, (seed, estimates), paths["propagated"])
        propagated = propagation.labeled

    final = assemble(vocabulary, seed, estimates, propagated)
    save_lexicon(final, paths["final"])
    write_exports(final, paths["slangsd"], paths["idiom_table"])
    report = write_report(final, paths["report_text"], paths["report_json"])
    log.info("final lexicon: %d terms -> %s", len(final), paths["slangsd"])

    return PipelineResult(
        final=final,
        report=report,
        paths=paths,
        ingest_issues=issues,
        estimation=estimation,
        propagation=propagation,
    )
