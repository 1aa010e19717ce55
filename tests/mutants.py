"""Committed mutants that the tests must kill.

Each mutant names a file under `src/slangsent/`, an exact text in it, the
text that replaces it, and the tests that must fail once it is replaced.
Run with `python tests/mutants.py`: for each mutant it copies `src/` to a
temporary directory, applies the mutant there and runs the named tests on
that copy in a subprocess with `-x`, under the `explicit` Hypothesis profile
of `tests/conftest.py`: a property runs only its `@example`s, so a kill never
depends on the random search. It prints each mutant that survives (or whose
tests cannot run), then the count, then one line naming each survivor, and
exits 1 if any survives, or if the named tests do not pass on `src/` as it
is. Stdlib only.

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
    # A propagation round reads the labels set earlier in the same round.
    Mutant("propagate.py", "fresh[candidate] = mean_strength(values)",
           "fresh[candidate] = labeled[candidate] = mean_strength(values)",
           ("tests/test_propagate.py::TestPropagate::test_labels_frozen_and_rounds_synchronous",
            "tests/test_propagate.py::TestPropagate::test_matches_oracle_on_random_graphs")),
    # A term's related terms keep the term itself.
    Mutant("ingest.py", 'related -= {term, ""}', 'related -= {""}',
           ("tests/test_ingest.py::TestBuildVocabulary::test_self_reference_removed",
            "tests/test_propagate.py::TestBuildGraph::"
            "test_self_reference_already_removed_at_ingestion")),
    # The resume walk loads a stage file after an earlier stage was built.
    Mutant("pipeline.py", "if resume and not built and paths[name].exists():",
           "if resume and paths[name].exists():",
           ("tests/test_pipeline.py::TestRunPipeline::"
            "test_resume_builds_only_the_missing_stage[vocabulary]",
            "tests/test_pipeline.py::TestRunPipeline::"
            "test_resume_after_a_rebuilt_stage_equals_a_fresh_run[golden]")),
    # The matcher tries the shortest phrase at a position first.
    Mutant("scoring.py",
           "for end in range(min(position + widths[term], len(tokens)) - 1, position, -1):",
           "for end in range(position + 1, min(position + widths[term], len(tokens))):",
           ("tests/test_scoring.py::test_matcher_equals_brute_longest_match",)),
    # `evaluate --subset slang` keeps the documents without a lexicon term.
    Mutant("scoring.py", "if subset is EvalSubset.SLANG_ONLY and not matches:",
           "if subset is EvalSubset.SLANG_ONLY and matches:",
           ("tests/test_scoring.py::TestEvaluate::test_slang_subset_filters",)),
    # `classify` rounds exact halves toward zero.
    Mutant("lexicon.py", "magnitude = int(math.floor(abs(strength) + 0.5))",
           "magnitude = int(math.ceil(abs(strength) - 0.5))",
           ("tests/test_lexicon.py::TestClassify::test_examples",)),
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
    """`tests` run with `-x` on the package under `source`, explicit examples only."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=explicit", *tests],
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
    for mutant in survivors:  # again after the count, so a cut-off tail still names each
        print(f"survivor: {mutant.file}: {mutant.new.strip()!r}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
