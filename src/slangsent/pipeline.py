"""End-to-end lexicon construction pipeline.

Stages: ingest entries -> build vocabulary -> merge seed lexicons ->
corpus-estimate the rest -> propagate over the related-word graph ->
assemble with stage precedence (seed > corpus estimate > propagation) ->
export. Each stage is one function here, and each output file's format one
function (`export_slangsd`, `export_idiom_table`, `StageReport.format_text`
and `to_dict`); `run_pipeline` and the CLI's subcommands share them. Each
stage's output is persisted in the output directory, where a resumed run
loads the stage files before the first missing one (`run_pipeline`), and
identical configs produce byte-identical exports.
"""

from __future__ import annotations

import json
import logging
import reprlib
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
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
from .records import value_of, write_json, write_text

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
    """A validated run configuration; construction checks ranges, that every
    input file exists and that no output file of the run would replace one."""

    entry_files: list[Path]
    seed_sources: list[SeedSourceConfig]
    corpus_file: Path
    output_dir: Path
    max_docs: int = DEFAULT_MAX_DOCS
    sample_seed: int = 0
    strict: bool = True

    def __post_init__(self) -> None:
        if self.max_docs < 1:
            raise ConfigError(f"max_docs must be >= 1, got {reprlib.repr(self.max_docs)}")
        if not self.entry_files:
            raise ConfigError("no entry files configured")
        inputs = [*self.entry_files, *(s.path for s in self.seed_sources), self.corpus_file]
        _require_files(inputs)
        outputs = {(Path(self.output_dir) / name).resolve() for name in OUTPUT_FILES.values()}
        if clashes := [str(path) for path in inputs if Path(path).resolve() in outputs]:
            raise ConfigError(f"input files would be overwritten by the run: {', '.join(clashes)}")


def _require_files(paths: Iterable[Path]) -> None:
    missing = [str(path) for path in paths if not Path(path).is_file()]
    if missing:
        raise ConfigError(f"missing input files: {', '.join(missing)}")


@contextmanager
def _reading(path: Path, what: str) -> Iterator[object]:
    """The JSON value in a config or sources file. A read error, and a field
    that breaks the field rule (`value_of`) within the block, is a ConfigError."""
    try:
        yield json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read {what} file: {exc}") from None
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits or too deep
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _string(raw: dict, key: str) -> str:
    if not (value := value_of(raw, key, str)):
        raise ConfigError(f"'{key}' must not be empty")
    return value


def _object(raw: object, what: str, known: tuple[str, ...]) -> None:
    """Check that `raw` is a JSON object with no key outside `known`."""
    if type(raw) is not dict:
        raise ConfigError(f"{what} must be a JSON object, got {reprlib.repr(raw)}")
    if unknown := sorted(raw.keys() - set(known)):
        raise ConfigError(f"unknown key {reprlib.repr(unknown[0])} in {what}; "
                          f"known keys: {', '.join(known)}")


def _range(raw: dict, key: str) -> tuple[float, float]:
    """The `[low, high]` pair at `key`, each end read by the field rule."""
    pair = raw.get(key)
    if type(pair) is not list or len(pair) != 2 or None in pair:
        raise ConfigError(f"'{key}' must be a [low, high] pair, got {reprlib.repr(pair)}")
    return tuple(value_of({key: end}, key, float) for end in pair)


def _parse_scale(raw: object) -> LinearScale:
    if raw is None:
        return LinearScale()
    if type(raw) is not dict or "source_range" not in raw:
        _object(raw, "scale", ("factor", "offset"))
        return LinearScale(value_of(raw, "factor", float, default=1.0),
                           value_of(raw, "offset", float, default=0.0))
    _object(raw, "a scale with 'source_range'", ("source_range", "target_range"))
    ranges = [_range(raw, "source_range")]
    if raw.get("target_range") is not None:  # without one, from_ranges maps onto the strength scale
        ranges.append(_range(raw, "target_range"))
    try:
        return LinearScale.from_ranges(*ranges)
    except ValueError as exc:
        raise ConfigError(f"bad scale: {exc}") from None


def _parse_seed_sources(raw: object, base: Path, what: str = "sources") -> list[SeedSourceConfig]:
    """Parse a `[{id, path, scale}]` seed-source list, the format of both the
    config's `seed_lexicons` and the `seed --sources` file. Each id is a
    distinct non-empty string. Paths are resolved against `base`."""
    if type(raw) is not list:
        raise ConfigError(f"{what} must be a JSON list, got {reprlib.repr(raw)}")
    sources = []
    for item in raw:
        _object(item, "a seed source", ("id", "path", "scale"))
        source_id = _string(item, "id")
        if any(source.source_id == source_id for source in sources):
            raise ConfigError(f"seed source 'id' {reprlib.repr(source_id)} is repeated")
        path = base / _string(item, "path")
        sources.append(SeedSourceConfig(source_id, path, _parse_scale(item.get("scale"))))
    return sources


def load_seed_sources(path: Path) -> list[SeedSourceConfig]:
    with _reading(path, "sources") as raw:
        sources = _parse_seed_sources(raw, path.parent)
    _require_files(source.path for source in sources)
    return sources


def load_config(path: str | Path) -> PipelineConfig:
    """Read a pipeline config file (JSON). Relative paths are resolved
    against the config file's directory."""
    path = Path(path)
    with _reading(path, "config") as raw:
        _object(raw, "config", ("entries", "seed_lexicons", "corpus", "output_dir", "max_docs",
                                "sample_seed", "strict"))
        base, sources = path.parent, raw.get("seed_lexicons")
        return PipelineConfig(
            entry_files=[base / _string({"entries": entry}, "entries")
                         for entry in value_of(raw, "entries", list)],
            seed_sources=_parse_seed_sources([] if sources is None else sources, base,
                                             "'seed_lexicons'"),
            corpus_file=base / _string(raw, "corpus"),
            output_dir=base / _string(raw, "output_dir"),
            max_docs=value_of(raw, "max_docs", int, default=DEFAULT_MAX_DOCS),
            sample_seed=value_of(raw, "sample_seed", int, default=0),
            strict=value_of(raw, "strict", bool, default=True),
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
        entries.extend(parse_entries(entry_file, issues=issues))
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
    log.info("corpus estimates: %d labeled, %d unlabelable",
             report.estimated, len(report.unlabelable))
    return estimates, report


def propagate_terms(vocabulary: Vocabulary, stages: Sequence[Lexicon],
                    output: Path) -> tuple[Lexicon, PropagationResult]:
    """Propagate the stages, assembled by precedence, over the related-word graph."""
    result = propagate(build_graph(vocabulary), assemble(vocabulary, *stages))
    save_lexicon(result.labeled, output)
    log.info("propagation: %d labeled in %d iterations, %d unreached",
             len(result.labeled), result.iterations, len(result.unreached))
    return result.labeled, result


def assemble(vocabulary: Vocabulary, seed: Lexicon, *later: Lexicon) -> Lexicon:
    """Stage precedence: the seed terms in the vocabulary, then each later
    stage's lexicon in order, first label wins. Terms no stage labeled stay
    out."""
    return combine(seed.restricted(vocabulary.keys()), *later)


# --- the whole run -----------------------------------------------------------

# The persisted stages in build order: (name in OUTPUT_FILES, build, load).
# `build(config, done, path, issues)` makes a stage from the config and the
# stages `done` before it, saves it to `path` and returns (value, report). Rows
# look this module's functions up when they run, so a patched name takes effect.
_STAGES = (
    ("vocabulary",
     lambda config, done, path, issues: ingest_entries(
         config.entry_files, path, issues=None if config.strict else issues),
     lambda path: load_vocabulary(path)),
    ("seed",
     lambda config, done, path, issues: (merge_seeds(config.seed_sources, path), None),
     lambda path: load_lexicon(path)),
    ("estimates",
     lambda config, done, path, issues: estimate_terms(
         done["vocabulary"], done["seed"], config.corpus_file, path,
         max_docs=config.max_docs, sample_seed=config.sample_seed),
     lambda path: load_lexicon(path)),
    ("propagated",
     lambda config, done, path, issues: propagate_terms(
         done["vocabulary"], (done["seed"], done["estimates"]), path),
     lambda path: load_lexicon(path)),
)


@dataclass
class PipelineResult:
    final: Lexicon
    report: StageReport
    paths: dict[str, Path]
    ingest_issues: list[ParseError]
    built: dict[str, object]  # the report of each stage built in this run, by name


def run_pipeline(config: PipelineConfig, *, resume: bool = False) -> PipelineResult:
    """Run the full construction pipeline, persisting every stage output.

    With resume=True, the stage files are loaded up to the first one that is
    missing; that stage and every later one are built again. A loaded file is
    never compared with the current inputs or config.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / filename for name, filename in OUTPUT_FILES.items()}
    issues: list[ParseError] = []
    done: dict[str, object] = {}
    built: dict[str, object] = {}
    for name, build, load in _STAGES:
        if resume and paths[name].exists():
            log.info("resuming: %s from %s", name, paths[name])
            done[name] = load(paths[name])
        else:  # a later stage file was made from the old version of this one
            resume = False
            done[name], built[name] = build(config, done, paths[name], issues)

    final = assemble(*done.values())  # vocabulary, seed, estimates, propagated
    save_lexicon(final, paths["final"])
    write_text(paths["slangsd"], export_slangsd(final))
    write_text(paths["idiom_table"], export_idiom_table(final))
    report = stage_report(final)
    write_text(paths["report_text"], report.format_text())
    write_json(paths["report_json"], report.to_dict())
    log.info("final lexicon: %d terms -> %s", len(final), paths["slangsd"])
    return PipelineResult(final, report, paths, issues, built)
