"""Never a traceback: one damaged input file, read by any command that reads
it through `cli.main`, ends in exit code 0, 1 or 2, and a 1 or 2 prints
exactly one error line.

Each example copies a fixture built from the golden one (its inputs, the
files a `run` writes, a labeled corpus, a seed-sources file, an emoticon
file and one day file for `extend`), damages one file in one way and runs
one command that reads it."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slangsent
from slangsent.cli import main
from slangsent.lexicon import Stage

from .fixtures import GOLDEN_ENTRIES, write_golden_fixture

# Each command as an argv template, `{}` standing for the fixture directory.
COMMANDS = {
    "run": ["run", "--config", "{}/config.json"],
    "run --resume": ["run", "--config", "{}/config.json", "--resume"],
    "ingest": ["ingest", "--input", "{}/entries.jsonl", "--output", "{}/new.jsonl"],
    "seed": ["seed", "--sources", "{}/sources.json", "--output", "{}/new.jsonl"],
    "estimate": ["estimate", "--vocabulary", "{}/build/vocabulary.jsonl",
                 "--seed", "{}/build/seed_lexicon.jsonl", "--corpus", "{}/corpus.jsonl",
                 "--output", "{}/new.jsonl"],
    "propagate": ["propagate", "--graph-from", "{}/build/vocabulary.jsonl",
                  "--seeds", "{}/build/seed_lexicon.jsonl", "{}/build/corpus_estimates.jsonl",
                  "--output", "{}/new.jsonl"],
    "assemble": ["assemble", "--vocabulary", "{}/build/vocabulary.jsonl",
                 "--seed", "{}/build/seed_lexicon.jsonl",
                 "--estimates", "{}/build/corpus_estimates.jsonl",
                 "--propagated", "{}/build/propagated.jsonl", "--output", "{}/new.jsonl"],
    "export": ["export", "--lexicon", "{}/build/final_lexicon.jsonl", "--slangsd", "{}/new.txt"],
    "report": ["report", "--lexicon", "{}/build/final_lexicon.jsonl"],
    "score": ["score", "--lexicon", "{}/build/final_lexicon.jsonl", "--corpus", "{}/corpus.jsonl"],
    "label": ["label", "--corpus", "{}/corpus.jsonl", "--emoticons", "{}/emoticons.txt",
              "--output", "{}/new.jsonl"],
    "evaluate": ["evaluate", "--lexicon", "{}/build/final_lexicon.jsonl",
                 "--corpus", "{}/labeled.jsonl"],
    "extend": ["extend", "--from", "2023-04-01", "--to", "2023-04-01",
               "--fetch-dir", "{}/days", "--output", "{}/new.jsonl"],
}
# Each file of the fixture and the commands that read it.
READERS = {
    "config.json": ["run", "run --resume"],
    "entries.jsonl": ["run", "ingest"],
    "seed_core.tsv": ["run", "seed"],
    "sources.json": ["seed"],
    "corpus.jsonl": ["run", "estimate", "score", "label"],
    "emoticons.txt": ["label"],
    "labeled.jsonl": ["evaluate"],
    "build/vocabulary.jsonl": ["run --resume", "estimate", "propagate", "assemble"],
    "build/seed_lexicon.jsonl": ["run --resume", "estimate", "propagate", "assemble"],
    "build/corpus_estimates.jsonl": ["run --resume", "propagate", "assemble"],
    "build/propagated.jsonl": ["run --resume", "assemble"],
    "build/final_lexicon.jsonl": ["export", "report", "score", "evaluate"],
    "days/2023-04-01.jsonl": ["extend"],
}
# What the damage inserts: a JSON null, a number too large for a float, an
# integer too long for int(), nesting too deep for the decoder, a byte-order
# mark, a character some line splitters take for a line end, a NUL, a lone
# surrogate as a JSON string and bare, which inside a string keeps the JSON
# valid, and the words that name a stage.
TOKENS = [b"null", b"1e999", b"9" * 5000, b"[" * 3000, "\ufeff".encode(), "\u2028".encode(),
          b"\x00", b'"\\ud800"', b"\\ud800", *(stage.value.encode() for stage in Stage)]

DAMAGE = st.one_of(
    st.tuples(st.just("delete"), st.integers(1, 64)),
    st.tuples(st.just("flip"), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.none()),
    st.tuples(st.just("duplicate line"), st.none()),
    st.tuples(st.just("insert"), st.sampled_from(TOKENS)),
)
FILE_AND_COMMAND = st.sampled_from(sorted(READERS)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(READERS[name])))


def damaged(data: bytes, damage: tuple[str, object], at: int) -> bytes:
    """`data` with one `damage` done at offset `at` (taken modulo the size)."""
    kind, arg = damage
    i = at % (len(data) + 1)
    if kind == "delete":
        return data[:i] + data[i + arg:]
    if kind == "flip":  # one bit of the byte at i
        return data[:i] + bytes([data[i] ^ 1 << arg]) + data[i + 1:] if i < len(data) else data
    if kind == "truncate":
        return data[:i]
    if kind == "duplicate line":
        start = data.rfind(b"\n", 0, i) + 1
        end = data.find(b"\n", i) + 1 or len(data)
        return data[:end] + data[start:end] + data[end:]
    return data[:i] + arg + data[i:]  # insert


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("mutated")
    config = write_golden_fixture(root)
    raw = json.loads(config.read_text(encoding="utf-8"))
    # No flip of one bit makes "build" an absolute path, as it would "out".
    config.write_text(json.dumps({**raw, "output_dir": "build"}, indent=2), encoding="utf-8")
    (root / "sources.json").write_text(json.dumps(raw["seed_lexicons"]), encoding="utf-8")
    shutil.copy(Path(slangsent.__file__).parent / "data" / "emoticons.txt", root)
    (root / "days").mkdir()
    (root / "days" / "2023-04-01.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in GOLDEN_ENTRIES[:5]), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config)]) == 0
        assert main(["label", "--corpus", str(root / "corpus.jsonl"),
                     "--output", str(root / "labeled.jsonl")]) == 0
    return root


@settings(max_examples=200, deadline=None)
@given(file_and_command=FILE_AND_COMMAND, damage=DAMAGE, at=st.integers(0, 1 << 16))
@example(file_and_command=("entries.jsonl", "ingest"), damage=("insert", b"[" * 3000), at=0)
@example(file_and_command=("build/final_lexicon.jsonl", "report"),
         damage=("insert", b"[" * 3000), at=0)
@example(file_and_command=("config.json", "run"), damage=("insert", b"[" * 3000), at=0)
@example(file_and_command=("entries.jsonl", "ingest"), damage=("insert", b"9" * 5000), at=10)
@example(file_and_command=("days/2023-04-01.jsonl", "extend"),
         damage=("insert", b"9" * 5000), at=10)
@example(file_and_command=("sources.json", "seed"), damage=("insert", b"9" * 5000), at=1)
@example(file_and_command=("entries.jsonl", "run"), damage=("insert", b"\\ud800"),
         at=json.dumps(GOLDEN_ENTRIES[0], sort_keys=True).index('"term": "') + 9)  # into its term
def test_damaged_input_never_ends_in_a_traceback(fixture_dir, file_and_command, damage, at):
    name, command = file_and_command
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "fixture"
        shutil.copytree(fixture_dir, root)
        path = root / name
        path.write_bytes(damaged(path.read_bytes(), damage, at))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.format(root) for arg in COMMANDS[command]])
    errors = [line for line in stderr.getvalue().splitlines()
              if line.startswith(("error:", "data error:"))]
    assert code in (0, 1, 2)
    assert len(errors) == (code != 0), stderr.getvalue()


def test_damage_is_done_where_asked():
    data = b'{"a": 1}\n{"b": 2}\n'
    assert damaged(data, ("delete", 3), 1) == b'{: 1}\n{"b": 2}\n'
    assert damaged(data, ("flip", 6), 0) == b';"a": 1}\n{"b": 2}\n'
    assert damaged(data, ("flip", 0), len(data)) == data
    assert damaged(data, ("truncate", None), 4) == b'{"a"'
    assert damaged(data, ("duplicate line", None), 12) == b'{"a": 1}\n{"b": 2}\n{"b": 2}\n'
    assert damaged(b"x\ny", ("duplicate line", None), 3) == b"x\nyy"
    assert damaged(data, ("insert", b"null"), len(data) + 1) == b"null" + data
