"""Committed mutants that the tests must kill.

Each mutant names a file under `src/slangsent/`, an exact text in it, the
text that replaces it, and the tests that must fail once it is replaced.
Run with `python tests/mutants.py`: for each mutant it copies `src/` to a
temporary directory, applies the mutant there and runs the named tests on
that copy in a subprocess with `-x`. It prints each mutant that survives (or
whose tests cannot run) and exits 1 if any does, or if the named tests do
not pass on `src/` as it is. Stdlib only.

`tests/test_mutants.py` checks, in the ordinary suite, only that each old
text occurs exactly once under `src/`: a change that removes or rewrites one
updates this list with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "slangsent"


class Mutant(NamedTuple):
    file: str  # under src/slangsent/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


_STRENGTH_ORACLE = ("tests/test_corpus.py::TestDocumentStrength::"
                    "test_equals_the_mean_of_the_values_the_oracle_chooses")
_MERGE_ORACLE = "tests/test_lexicon.py::test_merge_seed_lexicons_equals_the_brute_oracle"
_BAD_INPUT = "tests/test_cli.py::test_bad_input_exits_with_one_error_line"
_LABEL_REFERENCE = "tests/test_distant.py::TestBuildEvalCorpus::test_labels_as_the_reference"

MUTANTS = [
    # A tie between the two sides of a lone occurrence returns only the left value.
    Mutant("corpus.py",
           "return mean_strength([left.strength, right.strength] if right else [left.strength])",
           "return mean_strength([left.strength])",
           (_STRENGTH_ORACLE,)),
    # The walk outward from a lone occurrence stops one gap short.
    Mutant("corpus.py",
           "for gap in range(1, max(start + 1, len(tokens) - end)):",
           "for gap in range(1, max(start, len(tokens) - end - 1)):",
           (_STRENGTH_ORACLE,)),
    # A seed token inside an occurrence counts as a candidate.
    Mutant("corpus.py", "if gap <= 0:", "if gap < 0:",
           (_STRENGTH_ORACLE,)),
    # The index appends a document again for each repeat of a token.
    Mutant("corpus.py", "elif postings[-1] != position:", "else:",
           ("tests/test_corpus.py::TestFileCorpusProvider::"
            "test_postings_list_each_holding_document_once_in_order",)),
    # One source's colliding terms take the first value, not their mean.
    Mutant("lexicon.py",
           "            strength = mean_strength(values)\n",
           "            strength = values[0]\n",
           (_MERGE_ORACLE,)),
    # Every source's own terms share the first source's `(source_id,)` tuple.
    Mutant("lexicon.py",
           "source_ids = alone.setdefault(source_id, (source_id,))",
           'source_ids = alone.setdefault("", (source_id,))',
           (_MERGE_ORACLE,)),
    # A term read from a file passes if it normalizes to anything.
    Mutant("text.py",
           "if text and normalize_term(text) == text:",
           "if normalize_term(text):",
           ("tests/test_text.py::TestCheckedTerm::"
            "test_every_term_reader_takes_exactly_the_normalized_terms",)),
    # An emoticon is kept only when no punctuation wraps it.
    Mutant("text.py",
           "if trimmed != chunk and EMOTICON_RE.fullmatch(trimmed):",
           "if trimmed == chunk and EMOTICON_RE.fullmatch(trimmed):",
           ("tests/test_text.py::TestTokenize::test_tokenize_equals_the_reference",)),
    # `chunk_token` skips the NFC that `tokenize` applies.
    Mutant("text.py",
           'return _token(unicodedata.normalize("NFC", chunk))',
           "return _token(chunk)",
           ("tests/test_text.py::TestTokenize::test_each_chunk_yields_its_chunk_token",)),
    # The chunk rule lowercases an emoticon. The shipped emoticon file then
    # fails to load (":D" is no token), which `test_text.py` and
    # `test_distant.py` do on import, so a test that loads it when it runs is named.
    Mutant("text.py",
           "    if EMOTICON_RE.fullmatch(chunk):\n        return chunk\n",
           "    if EMOTICON_RE.fullmatch(chunk):\n        return chunk.lower()\n",
           ("tests/test_acceptance.py::test_distant_labeler",)),
    # The labeler strips by the tokens even when a chunk made no token.
    Mutant("distant.py", "if len(chunks) == len(doc.tokens):", "if True:",
           (_LABEL_REFERENCE,)),
    # The labeler keeps the label sources and drops every other chunk.
    Mutant("distant.py", "keep = [token not in sources for token in doc.tokens]",
           "keep = [token in sources for token in doc.tokens]",
           (_LABEL_REFERENCE,)),
    # `combine` lets a later lexicon's entry win.
    Mutant("lexicon.py", "for lexicon in reversed(lexicons)", "for lexicon in lexicons",
           ("tests/test_lexicon.py::TestCombine::test_equals_the_brute_oracle",)),
    # A total of exactly zero reads positive.
    Mutant("scoring.py", "if total > 0 else", "if total >= 0 else",
           ("tests/test_scoring.py::TestScoreText::test_polarity_is_the_sign_of_the_total",)),
    # A line the CLI writes, to stderr or stdout, keeps its line breaks as they are.
    Mutant("cli.py", "print(line.translate(_ESCAPES), file=stream)",
           "print(line, file=stream)",
           (f"{_BAD_INPUT}[corpus-path-with-line-break]",
            f"{_BAD_INPUT}[sources-path-with-line-break]",
            f"{_BAD_INPUT}[score-corpus-named-with-line-break]",
            "tests/test_cli.py::test_each_summary_line_is_one_line[ingest]")),
    # The writer binds stdout when it is defined, so a redirected stdout gets no line.
    Mutant("cli.py", "def _write(*lines: str, stream=None) -> None:",
           "def _write(*lines: str, stream=sys.stdout) -> None:",
           ("tests/test_cli.py::test_score_corpus_writes_to_stdout_as_redirected",)),
    # A located error names its file but not its line.
    Mutant("records.py",
           'where = "" if self.number is None else f"line {self.number}: "',
           'where = ""',
           ("tests/test_ingest.py::TestParseEntries::test_bad_json_line_number",
            "tests/test_records.py::test_a_failing_reader_closes_its_file")),
    # An input path the OS cannot check raises OSError out of the config check.
    Mutant("pipeline.py",
           "if not os.path.isfile(path)]",
           "if not Path(path).is_file()]",
           (f"{_BAD_INPUT}[corpus-path-too-long]", f"{_BAD_INPUT}[sources-path-too-long]")),
    # An `output_dir` holding a NUL raises ValueError out of the config check.
    Mutant("pipeline.py",
           "except (OSError, ValueError) as exc:  # a name too long to check, a NUL",
           "except OSError as exc:",
           (f"{_BAD_INPUT}[output_dir-null-byte]",)),
]


def _pytest(tests: Iterable[str], source: Path) -> subprocess.CompletedProcess:
    """`tests` run with `-x` on the package under `source`."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(source)}, capture_output=True, text=True)


def survives(mutant: Mutant) -> bool:
    """Whether the mutant's tests pass (or cannot run) on a mutated copy of `src/`."""
    with tempfile.TemporaryDirectory() as work:
        source = Path(work) / "src"
        shutil.copytree(ROOT / "src", source, ignore=shutil.ignore_patterns("__pycache__"))
        target = source / "slangsent" / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            print(f"{mutant.file}: old text does not occur exactly once: {mutant.old!r}")
            return True
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        run = _pytest(mutant.tests, source)
    # pytest exits 1 when a test failed; any other code means the tests
    # passed (0) or did not run (an unknown id, a collection error).
    if run.returncode == 1:
        return False
    outcome = "survives" if run.returncode == 0 else "cannot run"
    print(f"{mutant.file}: {mutant.new.strip()!r} {outcome} (pytest exit {run.returncode})\n"
          f"{run.stdout[-2000:]}")
    return True


def main() -> int:
    # A kill counts only if the named tests pass on the code as it is.
    baseline = _pytest(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests),
                       ROOT / "src")
    if baseline.returncode != 0:
        print(f"the named tests do not pass on src/ as it is:\n{baseline.stdout[-2000:]}")
        return 1
    survivors = [mutant for mutant in MUTANTS if survives(mutant)]
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
