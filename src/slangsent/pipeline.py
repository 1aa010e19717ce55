"""End-to-end lexicon construction pipeline.

Stages: ingest entries -> build vocabulary -> merge seed lexicons ->
corpus-estimate the rest -> propagate over the related-word graph ->
assemble with stage precedence (seed > corpus estimate > propagation) ->
export. Each stage is one function here, and each output file's format one
function (`save_vocabulary`, `save_lexicon`, `export_slangsd`,
`export_idiom_table`, `StageReport.format_text` and `to_dict`);
`run_pipeline` and the CLI's subcommands share them. Each stage's output is
persisted in the output directory beside the run record, `run.json`, which
holds the run's fingerprint and each stage file's sha256, timing and counts.
A resumed run loads a stage file only when the record vouches for it
(`run_pipeline`), and identical configs produce byte-identical exports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import reprlib
import statistics
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence, Sized
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from time import perf_counter

from . import __version__
from .corpus import DEFAULT_MAX_DOCS, EstimationReport, FileCorpusProvider, estimate_all
from .errors import ConfigError, DataError, ParseError
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
from .records import read_json, value_of, write_json, write_text

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
    "run": "run.json",
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
        output_dir = Path(self.output_dir)
        try:
            if any(path.is_file() for path in (output_dir, *output_dir.parents)):
                raise ConfigError(f"'output_dir' is not a directory: {output_dir}")
            refuse_overwrite(inputs, _outputs(output_dir), "the run")
        except (OSError, ValueError) as exc:  # a name too long to check, a NUL
            raise ConfigError(f"'output_dir' cannot be checked: {exc}") from None


def _outputs(output_dir: Path) -> list[Path]:
    return [output_dir / name for name in OUTPUT_FILES.values()]


def refuse_overwrite(inputs: Iterable[Path], outputs: Iterable[Path], writer: str) -> None:
    """Raise a ConfigError naming each file that two of `writer`'s `outputs`
    name, or else each input file that is one of the `outputs`."""
    written = Counter(Path(path).resolve() for path in outputs)
    if twice := [str(path) for path, count in written.items() if count > 1]:
        raise ConfigError(f"{writer} would write one file twice: {', '.join(twice)}")
    if clashes := [str(path) for path in inputs if Path(path).resolve() in written]:
        raise ConfigError(f"input files would be overwritten by {writer}: {', '.join(clashes)}")


def _require_files(paths: Iterable[Path]) -> None:
    # os.path.isfile, unlike Path.is_file, is False for a path the OS cannot check.
    missing = [str(path) for path in paths if not os.path.isfile(path)]
    if missing:
        raise ConfigError(f"missing input files: {', '.join(missing)}")


@contextmanager
def _reading(path: Path, what: str) -> Iterator[object]:
    """The JSON value in a config or sources file. A read error, and a field
    that breaks the field rule (`value_of`) within the block, is a ConfigError:
    the block reads fields and checks no path."""
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
        if (factor := value_of(raw, "factor", float, default=1.0)) <= 0:  # would flip or flatten
            raise ConfigError(f"bad scale: 'factor' must be above 0, got {factor!r}")
        return LinearScale(factor, value_of(raw, "offset", float, default=0.0))
    _object(raw, "a scale with 'source_range'", ("source_range",))
    try:
        return LinearScale.from_ranges(_range(raw, "source_range"))
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
    against the config file's directory, and no output file of the run may
    be the config file itself."""
    path = Path(path)
    with _reading(path, "config") as raw:
        _object(raw, "config", ("entries", "seed_lexicons", "corpus", "output_dir", "max_docs",
                                "sample_seed", "strict"))
        base, sources = path.parent, raw.get("seed_lexicons")
        fields = dict(
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
    config = PipelineConfig(**fields)
    refuse_overwrite([path], _outputs(config.output_dir), "the run")
    return config


# --- stages: each computes its output and persists it ------------------------


@dataclass
class IngestReport:
    entries: int  # the records read, the skipped ones not counted
    skipped: list[ParseError]  # each names its file and line


def ingest_entries(
    entry_files: Iterable[Path], *, strict: bool = True
) -> tuple[Vocabulary, IngestReport]:
    """Parse entry files into a vocabulary; returns it with the ingest report.
    When `strict`, the first bad record raises; otherwise each bad record is
    skipped and its error listed in the report."""
    skipped = None if strict else []
    entries = []
    for entry_file in entry_files:
        entries.extend(parse_entries(entry_file, issues=skipped))
    return build_vocabulary(entries), IngestReport(len(entries), skipped or [])


def merge_seeds(sources: Iterable[SeedSourceConfig]) -> Lexicon:
    """The full merged seed lexicon: labels for vocabulary terms and
    sentiment evidence for estimation."""
    return merge_seed_lexicons(
        SeedSource(s.source_id, load_seed_values(s.path), s.scale) for s in sources
    )


def estimate_terms(
    vocabulary: Vocabulary, seed: Lexicon, corpus_file: Path, *, max_docs: int, sample_seed: int,
) -> tuple[Lexicon, EstimationReport]:
    """Corpus estimates for the vocabulary terms the seeds do not cover."""
    provider = FileCorpusProvider(corpus_file, sample_seed=sample_seed)
    return estimate_all(vocabulary, provider, seed, max_docs=max_docs)


def propagate_terms(vocabulary: Vocabulary,
                    stages: Sequence[Lexicon]) -> tuple[Lexicon, PropagationResult]:
    """Propagate the stages, assembled by precedence, over the related-word graph."""
    result = propagate(build_graph(vocabulary), assemble(vocabulary, *stages))
    return result.labeled, result


def assemble(vocabulary: Vocabulary, seed: Lexicon, *later: Lexicon) -> Lexicon:
    """Stage precedence: the seed terms in the vocabulary, then each later
    stage's lexicon in order, first label wins. Terms no stage labeled stay
    out."""
    return combine(Lexicon(e for t, e in seed.items() if t in vocabulary), *later)


# --- the run record: one file that records the run and guides a resume -----


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@cache
def _package_hashes() -> tuple[str, ...]:
    """The sha256 of each module of the package, read once per process."""
    return tuple(map(_sha256, sorted(Path(__file__).parent.glob("*.py"))))


def _fingerprint(config: PipelineConfig) -> str:
    """The sha256 (hex) of what a run's stage files follow from: every config
    field but `output_dir`, each input path standing for the bytes of its
    file (so the same inputs named from another directory match), and the
    package: its version and the bytes of its modules, so that a changed rule
    or row format is a changed fingerprint even where the version stays."""
    fields = dataclasses.asdict(config)
    del fields["output_dir"]
    fields["entry_files"] = [*map(_sha256, config.entry_files)]
    fields["corpus_file"] = _sha256(config.corpus_file)
    for source, path in zip(fields["seed_sources"], (s.path for s in config.seed_sources)):
        source["path"] = _sha256(path)
    return hashlib.sha256(repr((__version__, _package_hashes(), fields)).encode()).hexdigest()


def read_run_record(path: str | Path) -> dict:
    """The run record `run_pipeline` wrote at `path`, its shape checked: a
    JSON object with a string `fingerprint` and `version` and a list
    `stages` of one object per stage done, in build order, each with a
    string `stage`, `sha256`, `how` and `reason` and a number `seconds`. A
    file of another shape is a DataError naming it."""
    record = read_json(path)
    stages = record.get("stages") if type(record) is dict else None
    if type(stages) is not list or not all(type(entry) is dict for entry in stages):
        raise DataError(f"{path}: not a run record")
    try:
        value_of(record, "fingerprint", str)
        value_of(record, "version", str)
        for entry in stages:
            for key, kind in (("stage", str), ("sha256", str), ("how", str), ("reason", str),
                              ("seconds", float)):
                value_of(entry, key, kind)
    except ParseError as exc:
        raise DataError(f"{path}: {exc}") from None
    return record


def stage_lines(entry: dict) -> Iterator[str]:
    """How a stage was made, from its entry in a run record, then its counts:
    the lines `-v` logs for the stage and `report --run` prints."""
    yield (f"{entry['stage']}: {entry['how']} because {entry['reason']} "
           f"({entry['seconds']:.3f} s)")
    yield from _count_lines(entry.get("counts"), "  ")


def _count_lines(counts: object, indent: str) -> Iterator[str]:
    """One `name: value` line for each count of `counts`, by name as the run
    record sorts them, an object's counts on lines of their own one level
    deeper, a list's items joined by commas."""
    if type(counts) is not dict:
        return
    for name, value in sorted(counts.items()):
        if type(value) is dict:
            yield f"{indent}{name}:"
            yield from _count_lines(value, indent + "  ")
        else:
            yield f"{indent}{name}: {', '.join(map(str, value)) if type(value) is list else value}"


def _recorded_stages(path: Path, fingerprint: str) -> tuple[dict, str | None]:
    """The stage entries of the run record at `path` by stage name, when it
    holds `fingerprint`; otherwise no entries and why not."""
    try:
        previous = read_run_record(path)
    except (OSError, DataError):  # missing, unreadable or malformed: nothing is reused
        return {}, "no run record could be read"
    if previous["fingerprint"] != fingerprint:
        return {}, "the inputs, config or version changed"
    return {entry["stage"]: entry for entry in previous["stages"]}, None


def _stage_file(path: Path, entry: dict | None) -> tuple[str | None, bytes | None]:
    """(None, the bytes of the stage file at `path`) when they hash to the
    sha256 its run-record `entry` holds; otherwise (why not, None). The file
    is read once, so the bytes hashed are the bytes parsed."""
    if entry is None:
        return "the run record holds no hash of it", None
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return "its file is missing", None
    if hashlib.sha256(data).hexdigest() != entry["sha256"]:
        return "its file changed", None
    return None, data


def _counts(value: Sized, report: object) -> dict:
    """The counts the run record keeps for a stage built into `value`, with
    the stage's `report`."""
    counts = {"terms": len(value)}
    if isinstance(report, IngestReport):
        counts["records"] = report.entries
        counts["skipped"] = dict(Counter(error.kind for error in report.skipped))
    elif isinstance(report, EstimationReport):
        counts["estimated"] = report.estimated
        counts["unlabelable"] = len(report.unlabelable)
        retrieved = report.retrieved
        counts["documents_per_term"] = {
            "min": min(retrieved), "median": statistics.median(retrieved), "max": max(retrieved),
        } if retrieved else None
    elif isinstance(report, PropagationResult):
        counts["labels_per_round"] = list(report.rounds)
        counts["edges"] = report.edges
        counts["unreached"] = len(report.unreached)
    return counts


# --- the whole run -----------------------------------------------------------


@dataclass
class PipelineResult:
    """What `run_pipeline` made: the final lexicon, its stage report, each
    output file's path by `OUTPUT_FILES` name, and the error of each entry
    record a lenient ingest skipped in this run."""

    final: Lexicon
    report: StageReport
    paths: dict[str, Path]
    skipped: list[ParseError]


def run_pipeline(config: PipelineConfig, *, resume: bool = False) -> PipelineResult:
    """Run the full construction pipeline, persisting every stage output and
    the run record, `run.json`.

    The run record holds the run's fingerprint (`_fingerprint`) and, for
    each stage done so far, its file's sha256, the seconds it took, whether
    it was built or loaded and why, and its counts. It is written again
    after each stage, so a run that stops between a stage file and the
    record leaves a hash that the new file does not match.

    With resume=True, a stage file is loaded when the previous run record
    holds the current fingerprint and the file's sha256 as it is now, and no
    earlier stage was built. Such a file holds the bytes this version wrote
    from these inputs, so its rows are not checked again. Every other stage
    is built, and every stage after it. A missing, unreadable or malformed
    run record means that every stage is built; it is never an error.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / filename for name, filename in OUTPUT_FILES.items()}
    fingerprint = _fingerprint(config)
    recorded, why = (_recorded_stages(paths["run"], fingerprint) if resume
                     else ({}, "the run does not resume"))
    record = {"fingerprint": fingerprint, "version": __version__, "stages": []}
    built: dict[str, object] = {}  # the report of each stage built, by name

    def stage(name: str, load, save, build):
        """Load stage `name`'s file when the run record vouches for it, or
        else save `build()`'s value and keep its report; once a stage is
        built, so is every later one (its file was made from the old version
        of this one). Then record the stage and rewrite the run record."""
        start = perf_counter()
        reason = "an earlier stage was built" if built else why
        data = None
        if reason is None:
            reason, data = _stage_file(paths[name], recorded.get(name))
        if reason is None:
            value = load(paths[name], data=data)
            entry = {**recorded[name], "how": "loaded", "reason": "its file matches the run record"}
        else:
            value, built[name] = build()
            entry = {"stage": name, "sha256": save(value, paths[name]), "how": "built",
                     "reason": reason, "counts": _counts(value, built[name])}
        entry["seconds"] = perf_counter() - start
        record["stages"].append(entry)
        write_json(paths["run"], record)
        for line in stage_lines(entry):
            log.info("%s", line)
        return value

    vocabulary = stage("vocabulary", load_vocabulary, save_vocabulary, lambda: ingest_entries(
        config.entry_files, strict=config.strict))
    seed = stage("seed", load_lexicon, save_lexicon,
                 lambda: (merge_seeds(config.seed_sources), None))
    estimates = stage("estimates", load_lexicon, save_lexicon, lambda: estimate_terms(
        vocabulary, seed, config.corpus_file,
        max_docs=config.max_docs, sample_seed=config.sample_seed))
    propagated = stage("propagated", load_lexicon, save_lexicon,
                       lambda: propagate_terms(vocabulary, (seed, estimates)))

    final = assemble(vocabulary, seed, estimates, propagated)
    save_lexicon(final, paths["final"])
    write_text(paths["slangsd"], export_slangsd(final))
    write_text(paths["idiom_table"], export_idiom_table(final))
    report = stage_report(final)
    write_text(paths["report_text"], report.format_text())
    write_json(paths["report_json"], report.to_dict())
    log.info("final lexicon: %d terms -> %s", len(final), paths["slangsd"])
    ingest = built.get("vocabulary")
    return PipelineResult(final, report, paths, ingest.skipped if ingest else [])
