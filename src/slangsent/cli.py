"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error. A command fails
only by raising; `main` maps a ConfigError to 1 and a data or OS error to 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import reprlib
import sys
from collections.abc import Callable
from pathlib import Path

from .corpus import DEFAULT_MAX_DOCS, load_corpus
from .distant import (
    EmoticonSet,
    build_eval_corpus,
    default_emoticons,
    load_labeled_corpus,
    save_labeled_corpus,
)
from .errors import ConfigError, DataError, SlangSentError
from .ingest import date_range, day_files, entry_row, fetch_new_entries, load_vocabulary, parse_day
from .lexicon import export_idiom_table, export_slangsd, load_lexicon, save_lexicon
from .pipeline import (
    assemble,
    estimate_terms,
    ingest_entries,
    load_config,
    load_seed_sources,
    merge_seeds,
    propagate_terms,
    refuse_overwrite,
    run_pipeline,
)
from .propagate import stage_report
from .records import write_json, write_lines, write_text
from .scoring import EvalSubset, evaluate, score_text, score_tokens
from .text import LINE_BREAKS

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2

_ESCAPES = {ord(c): repr(c)[1:-1] for c in LINE_BREAKS}


def _write(*lines: str, stream=None) -> None:
    """Write each line to `stream`, or to stdout as it is at the call, each
    character at which str.splitlines breaks escaped as repr escapes it."""
    for line in lines:
        print(line.translate(_ESCAPES), file=stream)


class _OneLineFormatter(logging.Formatter):
    """Formats a log record as one line, escaped as `_write` escapes its lines."""

    def format(self, record: logging.LogRecord) -> str:
        return super().format(record).translate(_ESCAPES)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error; this tool reserves 2 for data errors and exits 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        _write(f"{self.prog}: error: {message}", stream=sys.stderr)
        self.exit(EXIT_CONFIG)


def _arg(read: Callable[[str], object], what: str) -> Callable[[str], object]:
    """An argparse type: `read(text)`, or `not <what>: <text>` on a ValueError."""
    def parse(text: str) -> object:
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {what}: {reprlib.repr(text)}") from None
    return parse


def _positive_int(text: str) -> int:
    if not text.isdecimal() or (value := int(text)) < 1:  # int() fails past 4,300 digits
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slangsent", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse entry records into a vocabulary file")
    p.add_argument("--input", nargs="+", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--lenient", dest="strict", action="store_false")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("seed", help="merge external seed lexicons")
    p.add_argument("--sources", required=True, type=Path, help="JSON list of {id, path, scale}")
    p.add_argument("--output", required=True, type=Path)
    p.set_defaults(func=_cmd_seed)

    p = sub.add_parser("estimate", help="corpus-estimate strengths for uncovered terms")
    p.add_argument("--vocabulary", required=True, type=Path)
    p.add_argument("--seed", required=True, type=Path)
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--max-docs", type=_arg(_positive_int, "a positive integer"),
                   default=DEFAULT_MAX_DOCS)
    p.add_argument("--sample-seed", type=_arg(int, "an integer"), default=0)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--report", type=Path)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("propagate", help="propagate strengths over the related-word graph")
    p.add_argument("--graph-from", required=True, type=Path, help="vocabulary file")
    p.add_argument("--seeds", nargs="+", required=True, type=Path,
                   help="the earlier stages' lexicon files, in stage order")
    p.add_argument("--output", required=True, type=Path)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("assemble", help="combine stage lexicons with stage precedence")
    p.add_argument("--vocabulary", required=True, type=Path)
    p.add_argument("--seed", required=True, type=Path)
    p.add_argument("--estimates", required=True, type=Path)
    p.add_argument("--propagated", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("export", help="write the dictionary and/or idiom-table files")
    p.add_argument("--lexicon", required=True, type=Path)
    p.add_argument("--slangsd", type=Path)
    p.add_argument("--idiom-table", type=Path)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("score", help="score a text or a corpus file")
    p.add_argument("--lexicon", required=True, type=Path)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--text")
    what.add_argument("--corpus", type=Path)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evaluate", help="evaluate against a gold-labeled corpus")
    p.add_argument("--lexicon", required=True, type=Path)
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--subset", type=_arg(EvalSubset, "one of 'all', 'slang'"),
                   default=EvalSubset.ALL, metavar="{all,slang}")
    p.add_argument("--json", type=Path, help="also write the machine-readable report here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("label", help="distant-label a corpus via emoticons")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--emoticons", type=Path, help="emoticon set file (default: built-in)")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("extend", help="collect the new entries of each day in a date range")
    day = _arg(parse_day, "a YYYY-MM-DD date")
    p.add_argument("--from", dest="start", required=True, type=day)
    p.add_argument("--to", dest="end", required=True, type=day)
    p.add_argument("--fetch-dir", required=True, type=Path,
                   help="directory of <YYYY-MM-DD>.jsonl(.gz) day files; a bad day is "
                        "reported, and with no day read --output is left as it was (exit 2)")
    p.add_argument("--output", required=True, type=Path)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("report", help="stage/class report for a lexicon file")
    p.add_argument("--lexicon", required=True, type=Path)
    p.add_argument("--json", type=Path)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--resume", action="store_true",
                   help="load the stage files up to the first missing one and build the rest; "
                        "a loaded file is not checked against inputs and config")
    p.set_defaults(func=_cmd_run)

    return parser


def _cmd_ingest(args) -> None:
    vocabulary, report = ingest_entries(args.input, args.output, strict=args.strict)
    _write(*(f"skipped: {error}" for error in report.skipped), stream=sys.stderr)
    _write(f"{report.entries} entries -> {len(vocabulary)} terms -> {args.output}")


def _cmd_seed(args) -> None:
    sources = load_seed_sources(args.sources)
    refuse_overwrite((source.path for source in sources), [args.output], "the seed command")
    lexicon = merge_seeds(sources, args.output)
    _write(f"{len(lexicon)} seed terms -> {args.output}")


def _cmd_estimate(args) -> None:
    _, report = estimate_terms(
        load_vocabulary(args.vocabulary), load_lexicon(args.seed), args.corpus, args.output,
        max_docs=args.max_docs, sample_seed=args.sample_seed,
    )
    if args.report:
        write_json(args.report, dataclasses.asdict(report))
    _write(f"{report.estimated} estimated, {len(report.unlabelable)} unlabelable -> {args.output}")


def _cmd_propagate(args) -> None:
    stages = [load_lexicon(path) for path in args.seeds]
    labeled, result = propagate_terms(load_vocabulary(args.graph_from), stages, args.output)
    _write(f"{len(labeled)} labeled in {result.iterations} iterations, "
           f"{len(result.unreached)} unreached -> {args.output}")


def _cmd_assemble(args) -> None:
    stages = [load_lexicon(path) for path in (args.seed, args.estimates, args.propagated)]
    final = assemble(load_vocabulary(args.vocabulary), *stages)
    save_lexicon(final, args.output)
    _write(f"{len(final)} terms -> {args.output}")


def _cmd_export(args) -> None:
    if not args.slangsd and not args.idiom_table:
        raise ConfigError("nothing to export: pass --slangsd and/or --idiom-table")
    lexicon = load_lexicon(args.lexicon)
    if args.slangsd:
        write_text(args.slangsd, export_slangsd(lexicon))
        _write(f"dictionary -> {args.slangsd}")
    if args.idiom_table:
        write_text(args.idiom_table, export_idiom_table(lexicon))
        _write(f"idiom table -> {args.idiom_table}")


def _cmd_score(args) -> None:
    lexicon = load_lexicon(args.lexicon)
    if args.text is not None:
        _write(*score_text(args.text, lexicon).format_text().splitlines())
        return
    for doc in load_corpus(args.corpus):
        breakdown = score_tokens(doc.tokens, lexicon)
        _write(f"{doc.id}\t{breakdown.total:+g}\t{breakdown.polarity.value}")


def _cmd_evaluate(args) -> None:
    lexicon = load_lexicon(args.lexicon)
    report = evaluate(load_labeled_corpus(args.corpus), lexicon, args.subset)
    _write(f"subset: {args.subset.value}", *report.format_table().splitlines())
    if args.json:
        write_json(args.json, report.to_dict())


def _cmd_label(args) -> None:
    emoticons = EmoticonSet.from_file(args.emoticons) if args.emoticons else default_emoticons()
    labeled, report = build_eval_corpus(load_corpus(args.corpus), emoticons)
    save_labeled_corpus(labeled, args.output)
    _write(f"{report.labeled} labeled, {report.discarded_conflict} conflicting, "
           f"{report.discarded_unmarked} without emoticons -> {args.output}")


def _cmd_extend(args) -> None:
    if not args.fetch_dir.is_dir():
        raise ConfigError(f"not a directory: {args.fetch_dir}")
    if args.start > args.end:
        raise ConfigError(f"--from {args.start} is after --to {args.end}")
    days = date_range(args.start, args.end)
    # Only the day file named like --output can be it; resolving them all costs more than the fetch.
    if args.output.name in {path.name for day in days for path in day_files(args.fetch_dir, day)}:
        refuse_overwrite([args.fetch_dir / args.output.name], [args.output], "the extend command")
    entries, failures = fetch_new_entries(args.fetch_dir, args.start, args.end)
    _write(*(f"fetch failed for {day}: {reason}" for day, reason in failures), stream=sys.stderr)
    if len(failures) == len(days):
        raise DataError(f"no requested day could be read; {args.output} is left as it was")
    write_lines(args.output, map(entry_row, entries))
    _write(f"{len(entries)} entries from {len(days) - len(failures)}/{len(days)} days "
           f"-> {args.output}")


def _cmd_report(args) -> None:
    report = stage_report(load_lexicon(args.lexicon))
    if args.json:
        write_json(args.json, report.to_dict())
    _write(*report.format_text().splitlines())


def _cmd_run(args) -> None:
    result = run_pipeline(load_config(args.config), resume=args.resume)
    if ingest := result.built.get("vocabulary"):
        _write(*(f"skipped: {error}" for error in ingest.skipped), stream=sys.stderr)
    _write(*result.report.format_text().splitlines(),
           f"exports under {result.paths['slangsd'].parent}")


# The options that name a file a command writes. Every other path option names
# a file or directory it reads.
_OUTPUT_OPTIONS = ("output", "slangsd", "idiom_table", "json", "report")


def _refuse_overwrite(args) -> None:
    options = vars(args)
    outputs = [options[key] for key in _OUTPUT_OPTIONS if options.get(key)]
    inputs = [path for key, value in options.items() if key not in _OUTPUT_OPTIONS
              for path in (value if type(value) is list else [value]) if isinstance(path, Path)]
    refuse_overwrite(inputs, outputs, f"the {args.command} command")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # basicConfig adds the root handler only once per process, so each call
    # sets the level of the package's loggers itself.
    handler = logging.StreamHandler()
    handler.setFormatter(_OneLineFormatter("%(levelname)s %(name)s: %(message)s"))
    logging.basicConfig(handlers=[handler])
    logging.getLogger(__package__).setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        _refuse_overwrite(args)
        args.func(args)
    except ConfigError as exc:
        _write(f"error: {exc}", stream=sys.stderr)
        return EXIT_CONFIG
    except (SlangSentError, OSError) as exc:
        _write(f"data error: {exc}", stream=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
