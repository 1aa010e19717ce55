"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error. A command fails
only by raising; `main` maps a ConfigError to 1 and a data or OS error to 2.
"""

from __future__ import annotations

import argparse
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
from .ingest import date_range, entry_row, fetch_new_entries, load_vocabulary, parse_day
from .lexicon import export_idiom_table, export_slangsd, load_lexicon, save_lexicon
from .pipeline import (
    assemble,
    estimate_terms,
    ingest_entries,
    load_config,
    load_seed_sources,
    merge_seeds,
    propagate_terms,
    run_pipeline,
)
from .propagate import stage_report
from .records import write_json, write_lines, write_text
from .scoring import EvalSubset, evaluate, score_text, score_tokens

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # data errors and reports usage problems as 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


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
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="strict", action="store_true", default=True)
    mode.add_argument("--lenient", dest="strict", action="store_false")
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


def _print_skipped(issues) -> None:
    for issue in issues:
        print(f"skipped: {issue}", file=sys.stderr)


def _cmd_ingest(args) -> None:
    issues = None if args.strict else []
    vocabulary, count = ingest_entries(args.input, args.output, issues=issues)
    _print_skipped(issues or ())
    print(f"{count} entries -> {len(vocabulary)} terms -> {args.output}")


def _cmd_seed(args) -> None:
    lexicon = merge_seeds(load_seed_sources(args.sources), args.output)
    print(f"{len(lexicon)} seed terms -> {args.output}")


def _cmd_estimate(args) -> None:
    _, report = estimate_terms(
        load_vocabulary(args.vocabulary), load_lexicon(args.seed), args.corpus, args.output,
        max_docs=args.max_docs, sample_seed=args.sample_seed,
    )
    if args.report:
        write_json(args.report, {
            "estimated": report.estimated,
            "unlabelable": report.unlabelable,
        })
    print(f"{report.estimated} estimated, {len(report.unlabelable)} unlabelable -> {args.output}")


def _cmd_propagate(args) -> None:
    stages = [load_lexicon(path) for path in args.seeds]
    labeled, result = propagate_terms(load_vocabulary(args.graph_from), stages, args.output)
    print(f"{len(labeled)} labeled in {result.iterations} iterations, "
          f"{len(result.unreached)} unreached -> {args.output}")


def _cmd_assemble(args) -> None:
    stages = [load_lexicon(path) for path in (args.seed, args.estimates, args.propagated)]
    final = assemble(load_vocabulary(args.vocabulary), *stages)
    save_lexicon(final, args.output)
    print(f"{len(final)} terms -> {args.output}")


def _cmd_export(args) -> None:
    if not args.slangsd and not args.idiom_table:
        raise ConfigError("nothing to export: pass --slangsd and/or --idiom-table")
    lexicon = load_lexicon(args.lexicon)
    if args.slangsd:
        write_text(args.slangsd, export_slangsd(lexicon))
        print(f"dictionary -> {args.slangsd}")
    if args.idiom_table:
        write_text(args.idiom_table, export_idiom_table(lexicon))
        print(f"idiom table -> {args.idiom_table}")


def _cmd_score(args) -> None:
    lexicon = load_lexicon(args.lexicon)
    if args.text is not None:
        print(score_text(args.text, lexicon).format_text(), end="")
        return
    for doc in load_corpus(args.corpus):
        breakdown = score_tokens(doc.tokens, lexicon)
        print(f"{doc.id}\t{breakdown.total:+g}\t{breakdown.polarity.value}")


def _cmd_evaluate(args) -> None:
    lexicon = load_lexicon(args.lexicon)
    corpus = load_labeled_corpus(args.corpus)
    report = evaluate(corpus, lexicon, args.subset)
    print(f"subset: {args.subset.value}")
    print(report.format_table(), end="")
    if args.json:
        write_json(args.json, report.to_dict())


def _cmd_label(args) -> None:
    emoticons = EmoticonSet.from_file(args.emoticons) if args.emoticons else default_emoticons()
    labeled, report = build_eval_corpus(load_corpus(args.corpus), emoticons)
    save_labeled_corpus(labeled, args.output)
    print(f"{report.labeled} labeled, {report.discarded_conflict} conflicting, "
          f"{report.discarded_unmarked} without emoticons -> {args.output}")


def _cmd_extend(args) -> None:
    if not args.fetch_dir.is_dir():
        raise ConfigError(f"not a directory: {args.fetch_dir}")
    if args.start > args.end:
        raise ConfigError(f"--from {args.start} is after --to {args.end}")
    entries, failures = fetch_new_entries(args.fetch_dir, args.start, args.end)
    for day, reason in failures:
        print(f"fetch failed for {day}: {reason}", file=sys.stderr)
    requested = len(date_range(args.start, args.end))
    if len(failures) == requested:
        raise DataError(f"no requested day could be read; {args.output} is left as it was")
    write_lines(args.output, map(entry_row, entries))
    print(f"{len(entries)} entries from {requested - len(failures)}/{requested} days "
          f"-> {args.output}")


def _cmd_report(args) -> None:
    report = stage_report(load_lexicon(args.lexicon))
    if args.json:
        write_json(args.json, report.to_dict())
    print(report.format_text(), end="")


def _cmd_run(args) -> None:
    result = run_pipeline(load_config(args.config), resume=args.resume)
    _print_skipped(result.ingest_issues)
    print(result.report.format_text(), end="")
    print(f"exports under {result.paths['slangsd'].parent}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # basicConfig adds the root handler only once per process, so each call
    # sets the level of the package's loggers itself.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger(__package__).setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SlangSentError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
