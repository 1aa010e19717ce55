"""The record format, text decoding, string escaping and the file writer live
in slangsent.records alone; each record file's row shape sits beside that
file's reader.

Any other module that serializes JSON, escapes a JSON string, opens gzip,
decodes text, reads lines or writes a file itself bypasses the shared
format, the gzip,
byte-order-mark, line-end and UTF-8 rules of `read_lines`, the line numbers,
blank-line rule and error locations of `Lines`, and the atomic write; this
test names each such call. A second guard keeps term normalization where outside data enters
the package, a third keeps the scorer's matcher compiled in one place, once
per lexicon, a fourth keeps an exception class only where some caller
handles it apart from its family, a fifth keeps text tokenized only where
raw text becomes tokens, a sixth keeps the kind of a JSON scalar checked by
the field rule alone, and a seventh keeps every `except` clause naming what
it handles, so that a bug raises instead of passing as a failure of the
input.

The last two tables check the one field rule, `records.value_of`, through
the CLI for every typed field of every record reader, and of the config and
`seed --sources` files. Two properties pin the record codec to the json
module: each line reads as json.loads reads it, and each row of the three
row writers (`save_lexicon`, `save_vocabulary` through `entry_row`, and
`save_labeled_corpus`) is written as json.dumps writes it."""

from __future__ import annotations

import ast
import gzip
import json
from datetime import date
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import slangsent
from slangsent import records
from slangsent.cli import main
from slangsent.corpus import Document, load_corpus
from slangsent.distant import EmoticonSet, LabeledDocument, load_labeled_corpus, save_labeled_corpus
from slangsent.errors import ParseError
from slangsent.ingest import SlangEntry, load_vocabulary, parse_entries, save_vocabulary
from slangsent.lexicon import (
    Lexicon,
    LexiconEntry,
    Polarity,
    Stage,
    load_lexicon,
    load_seed_values,
    load_slangsd,
    save_lexicon,
)
from slangsent.records import parse_record, read_lines

from .fixtures import write_golden_fixture

PACKAGE = Path(slangsent.__file__).resolve().parent
GOLDEN_FILE = Path(__file__).parent / "data" / "golden_slangsd.txt"
FORMAT_CALLS = {"json.dumps", "json.loads", "gzip.open", "io.StringIO", "io.TextIOWrapper"}
# The JSON string escaping the row writers share, named by records.py alone.
CODEC_NAMES = {"json.encoder", "encode_basestring"}
# Methods that write a file, or decode text or split it into lines.
METHODS = {"write_text", "write_bytes", "read_text", "splitlines", "decode"}
# Every reader takes its lines from `records.Lines`, never from the decoder under it.
LINE_SOURCES = {"read_lines"}
# Config and seed-source files are single JSON documents, not records: each
# is read whole, a byte-order mark allowed, and an error in it exits 1.
ALLOWED = {("pipeline.py", "json.loads"), ("pipeline.py", "path.read_text")}
# The functions that turn outside data into terms; every other function
# trusts the terms it is given.
NORMALIZERS = {
    ("ingest.py", "parse_entries"),
    ("ingest.py", "build_vocabulary"),
    ("lexicon.py", "merge_seed_lexicons"),
    ("text.py", "checked_term"),
}
# Outside text.py, the only calls of tokenize: a Document's tokens and
# score_text's. Everything else reads Document.tokens, or `chunk_token` for
# one chunk.
TOKENIZERS = {("corpus.py", "Document.from_text"), ("scoring.py", "score_text")}
# The kinds of a JSON scalar, and the one function that may check a value
# against one: the field rule.
SCALARS = {"str", "int", "float", "bool"}
SCALAR_CHECKS = {("records.py", "value_of")}
# The only handler that may catch every exception: the writer removes its
# temporary file and raises again.
BROAD_EXCEPTS = {("records.py", "write_lines")}
# The error families that map onto exit codes; the CLI catches them whole.
ERROR_FAMILIES = {"SlangSentError", "ConfigError", "DataError"}


def _mode(call: ast.Call) -> ast.expr | None:
    position = 0 if isinstance(call.func, ast.Attribute) else 1  # Path.open(mode)
    if len(call.args) > position:
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def _opens_for_writing(call: ast.Call) -> bool:
    mode = _mode(call)
    if mode is None:
        return False
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return True  # a mode computed at run time may write
    return bool(set(mode.value) & set("wax+"))


def _codec_name(node: ast.AST) -> str | None:
    """The name in CODEC_NAMES that `node` refers to or imports, if any."""
    if isinstance(node, ast.alias):
        name = node.name
    elif isinstance(node, ast.ImportFrom):
        name = node.module
    elif isinstance(node, ast.Attribute):
        name = ast.unparse(node) if node.attr == "encoder" else node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    return name if name in CODEC_NAMES else None


def record_format_uses(source: str) -> list[tuple[int, str]]:
    """(line, call or name) of every call in `source` that only records.py may
    make, and of every use of a name in CODEC_NAMES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (codec := _codec_name(node)) is not None:
            found.append((node.lineno, codec))
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        method = node.func.attr if isinstance(node.func, ast.Attribute) else None
        if (
            name in FORMAT_CALLS
            or method in METHODS
            or {name, method} & LINE_SOURCES
            or "open" in (name, method) and _opens_for_writing(node)
        ):
            found.append((node.lineno, name))
    return found


def test_only_records_module_knows_the_file_format():
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "records.py"
        for line, name in record_format_uses(path.read_text(encoding="utf-8"))
        if (path.name, name) not in ALLOWED
    ]
    assert offenders == []


def test_guard_sees_each_kind_of_call():
    source = "\n".join([
        "json.dumps(x)",
        "gzip.open(p, 'rt')",
        "path.write_text(s)",
        "open(p, 'w')",
        "open(p, mode='a', encoding='utf-8')",
        "Path(p).open(mode)",
        "open(p)",
        "open(p, 'rb')",
        "json.loads(s)",
        "io.StringIO(text, newline=None)",
        "io.TextIOWrapper(binary, encoding='utf-8')",
        "path.read_text('utf-8')",
        "text.splitlines()",
        "payload.decode('utf-8')",
        "read_lines(path)",
        "records.read_lines(path)",
        "import json.encoder",
        "from json.encoder import encode_basestring as escape",
        "escape = encoder.encode_basestring",
        "json.encoder.c_encode_basestring(s)",
        "json_string(s)",
        "json.encoding",
    ])
    assert sorted(line for line, _ in record_format_uses(source)) == [
        1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 18, 19, 20]


def _scoped_nodes(source: str, wanted) -> list[tuple[int, str]]:
    """(line, qualified name of the enclosing function or class, "" at module
    level) of every node of `source` for which `wanted(node)` holds."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if wanted(child):
                found.append((child.lineno, scope))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def _refers_to(node: ast.AST, name: str) -> bool:
    return (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
    )


def _catches_everything(node: ast.AST) -> bool:
    if not isinstance(node, ast.ExceptHandler):
        return False
    kinds = [] if node.type is None else getattr(node.type, "elts", [node.type])
    return not kinds or any(_name(kind) in {"Exception", "BaseException"} for kind in kinds)


def broad_excepts(source: str) -> list[tuple[int, str]]:
    """(line, scope) of every bare `except` in `source`, and of every `except`
    that names Exception or BaseException, alone or in a tuple."""
    return _scoped_nodes(source, _catches_everything)


def test_every_except_names_what_it_handles():
    offenders = [
        f"{path.name}:{line}: {scope or '<module>'}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, scope in broad_excepts(path.read_text(encoding="utf-8"))
        if (path.name, scope) not in BROAD_EXCEPTS
    ]
    assert offenders == []


def test_except_guard_sees_each_broad_form():
    source = "\n".join([
        "def fetch_new_entries(fetcher, start, end):",
        "    for day in date_range(start, end):",
        "        try:",
        "            entries.extend(parse_entries(fetcher(day)))",
        "        except Exception as exc:",
        "            failures.append((day, str(exc)))",
        "try: run()",
        "except: pass",
        "try: run()",
        "except (OSError, builtins.BaseException): pass",
        "try: run()",
        "except (DataError, OSError): pass",
        "try: run()",
        "except ExceptionGroup: pass",
    ])
    assert broad_excepts(source) == [(5, "fetch_new_entries"), (8, ""), (10, "")]


def normalize_term_uses(source: str) -> list[tuple[int, str]]:
    """(line, scope) of every use of normalize_term in `source`, called or passed."""
    return _scoped_nodes(source, lambda node: _refers_to(node, "normalize_term"))


def phrase_matcher_builds(source: str) -> list[tuple[int, str]]:
    """(line, scope) of every call that builds a PhraseMatcher in `source`."""
    return _scoped_nodes(
        source, lambda node: isinstance(node, ast.Call) and _refers_to(node.func, "PhraseMatcher")
    )


def test_terms_are_normalized_only_where_data_enters():
    offenders = [
        f"{path.name}:{line}: {scope or '<module>'}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, scope in normalize_term_uses(path.read_text(encoding="utf-8"))
        if (path.name, scope) not in NORMALIZERS
    ]
    assert offenders == []


def test_normalize_guard_names_the_enclosing_function():
    source = "\n".join([
        "from .text import normalize_term",
        "class Entry:",
        "    def check(self):",
        "        return normalize_term(self.term)",
        "terms = map(text.normalize_term, raw)",
    ])
    assert normalize_term_uses(source) == [(4, "Entry.check"), (5, "")]


def test_phrase_matcher_is_built_only_by_the_scoring_cache():
    offenders = [
        f"{path.name}:{line}: {scope or '<module>'}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, scope in phrase_matcher_builds(path.read_text(encoding="utf-8"))
        if (path.name, scope) != ("scoring.py", "_compiled_matcher")
    ]
    assert offenders == []


def test_matcher_guard_sees_calls_only():
    source = "\n".join([
        "def score(lexicon) -> PhraseMatcher:",
        "    return PhraseMatcher(lexicon)",
        "matcher = scoring.PhraseMatcher(lexicon)",
        "kind: type = PhraseMatcher",
    ])
    assert phrase_matcher_builds(source) == [(2, "score"), (3, "")]


def tokenize_calls(source: str) -> list[tuple[int, str]]:
    """(line, scope) of every call of tokenize in `source`."""
    return _scoped_nodes(
        source, lambda node: isinstance(node, ast.Call) and _refers_to(node.func, "tokenize")
    )


def test_text_is_tokenized_only_where_it_becomes_tokens():
    offenders = [
        f"{path.name}:{line}: {scope or '<module>'}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "text.py"
        for line, scope in tokenize_calls(path.read_text(encoding="utf-8"))
        if (path.name, scope) not in TOKENIZERS
    ]
    assert offenders == []


def test_tokenize_guard_sees_calls_in_each_scope():
    source = "\n".join([
        "from .text import tokenize",
        "def _strip_emoticons(doc, emoticons):",
        "    return [chunk for chunk in doc.text.split() if emoticons.isdisjoint(tokenize(chunk))]",
        "class Document:",
        "    def from_text(cls, id, text):",
        "        return cls(id, text, tuple(text.tokenize(text)))",
        "rule: Callable = tokenize",
    ])
    assert tokenize_calls(source) == [(3, "_strip_emoticons"), (6, "Document.from_text")]


def _checks_a_scalar_kind(node: ast.AST) -> bool:
    """Whether `node` is `isinstance(x, K)` or `type(x) <op> K` for a scalar
    kind K, alone or in a tuple."""
    if isinstance(node, ast.Call) and _refers_to(node.func, "isinstance") and len(node.args) == 2:
        kinds = node.args[1]
    elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Call) \
            and _refers_to(node.left.func, "type"):
        kinds = node.comparators[0]
    else:
        return False
    elements = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(ast.unparse(element) in SCALARS for element in elements)


def scalar_kind_checks(source: str) -> list[tuple[int, str]]:
    """(line, scope) of every check of a value against a JSON scalar kind."""
    return _scoped_nodes(source, _checks_a_scalar_kind)


def test_scalar_kinds_are_checked_only_by_the_field_rule():
    offenders = [
        f"{path.name}:{line}: {scope or '<module>'}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, scope in scalar_kind_checks(path.read_text(encoding="utf-8"))
        if (path.name, scope) not in SCALAR_CHECKS
    ]
    assert offenders == []


def test_scalar_guard_sees_each_form_of_check():
    source = "\n".join([
        "def _typed(value, name, kind):",
        "    if isinstance(value, bool) or not isinstance(value, (int, float)):",
        "        return type(value) is not str",
        "    return type(value) in (list, int)",
        "ok = isinstance(record, dict) or type(record) is dict or type(value) is kind",
    ])
    assert scalar_kind_checks(source) == [(2, "_typed"), (2, "_typed"), (3, "_typed"),
                                          (4, "_typed")]


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def error_model_faults(errors_source: str, sources: list[str]) -> list[str]:
    """Each class of `errors_source` that no source raises, itself or through
    a subclass, and each one outside ERROR_FAMILIES that no `except` clause
    of the sources names."""
    bases = {
        node.name: {_name(base) for base in node.bases}
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    }
    raised, caught = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.append(_name(getattr(node.exc, "func", node.exc)))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(map(_name, getattr(node.type, "elts", [node.type])))
    covered: set[str] = set()
    while raised:
        name = raised.pop()
        if name in bases and name not in covered:
            covered.add(name)
            raised.extend(bases[name])
    return [
        fault
        for name in bases
        for fault, holds in (
            (f"{name}: never raised", name not in covered),
            (f"{name}: never caught by name", name not in ERROR_FAMILIES | caught),
        )
        if holds
    ]


def test_each_error_class_is_raised_and_handled_by_name():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert error_model_faults((PACKAGE / "errors.py").read_text(encoding="utf-8"), sources) == []


def test_error_guard_follows_subclasses_and_except_tuples():
    errors = "\n".join([
        "class SlangSentError(Exception): pass",
        "class ConfigError(SlangSentError): pass",
        "class DataError(SlangSentError): pass",
        "class ParseError(DataError): pass",
        "class Unused(DataError): pass",
        "class Uncaught(DataError): pass",
        "class Leaf(ParseError): pass",
    ])
    source = "\n".join([
        "try:",
        "    raise errors.ConfigError('x')",
        "except (ParseError, errors.Unused):",
        "    raise Leaf('y') from None",
        "except Leaf as exc:",
        "    raise Uncaught",
        "except Exception:",
        "    raise",
    ])
    assert error_model_faults(errors, [source]) == [
        "Unused: never raised",
        "Uncaught: never caught by name",
    ]


# --- the field rule, for every reader and every typed field ------------------


def _lexicon_file(path: Path) -> Path:
    record = {"term": "a", "strength": 1.0, "stage": "imported", "sources": []}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


# reader: (the good record on line 1, a good record with every typed field,
# which each case changes on line 2, and the argv that reads the file)
READERS = {
    "entries": (
        {"term": "a", "meanings": ["m"], "examples": ["x"]},
        {"term": "b", "meanings": ["m"], "examples": ["x"], "related_terms": ["a"],
         "upvotes": 1, "downvotes": 0, "created_date": "2023-04-01"},
        lambda path: ["ingest", "--input", str(path), "--output", str(path.with_name("v.jsonl"))],
    ),
    "lexicon": (
        {"term": "a", "strength": -1.0, "stage": "imported"},
        {"term": "b", "strength": 1, "stage": "imported", "sources": []},
        lambda path: ["report", "--lexicon", str(path)],
    ),
    "corpus": (
        {"id": "1", "text": "a"},
        {"id": "2", "text": "b"},
        lambda path: ["score", "--lexicon", str(_lexicon_file(path.with_name("lex.jsonl"))),
                      "--corpus", str(path)],
    ),
    "labeled": (
        {"id": "1", "label": "positive", "text": "a"},
        {"id": "2", "label": "negative", "text": "b"},
        lambda path: ["evaluate", "--lexicon", str(_lexicon_file(path.with_name("lex.jsonl"))),
                      "--corpus", str(path)],
    ),
}
STAGES = "one of 'seed_lexicon', 'corpus_estimate', 'propagation', 'imported'"
LABELS = "one of 'positive', 'negative', 'neutral'"
# (reader, key, the kind its errors name, whether it is required)
FIELDS = [
    ("entries", "term", "a string", True),
    ("entries", "meanings", "a list of strings", True),
    ("entries", "examples", "a list of strings", True),
    ("entries", "related_terms", "a list of strings", False),
    ("entries", "upvotes", "an integer", False),
    ("entries", "downvotes", "an integer", False),
    ("entries", "created_date", "a string", False),
    ("lexicon", "term", "a string", True),
    ("lexicon", "strength", "a finite number", True),
    ("lexicon", "stage", STAGES, True),
    ("lexicon", "sources", "a list of strings", False),
    ("corpus", "id", "a string", True),
    ("corpus", "text", "a string", True),
    ("labeled", "id", "a string", True),
    ("labeled", "label", LABELS, True),
    ("labeled", "text", "a string", True),
]
# Values of another kind: a bool is no number, a number is finite, a list
# holds strings only, and a fixed set of strings matches case and all.
WRONG = {
    "a string": [5, ["b"]],
    "an integer": [1.5, True, "1"],
    "a finite number": ["1.0", True, float("nan"), float("inf")],
    "true or false": ["true", 1],
    "a list of strings": ["m", [1]],
    STAGES: [5, ["b"], "nope", "Imported"],
    LABELS: [5, ["positive"], "meh", "Positive"],
}
ABSENT = object()


def _field_cases():
    for reader, key, kind, required in FIELDS:
        for value, case in ((ABSENT, "absent"), (None, "null")):
            expected = f"missing field '{key}'" if required else None
            yield pytest.param(reader, key, value, expected, id=f"{reader}-{key}-{case}")
        for value in WRONG[kind]:
            yield pytest.param(reader, key, value, f"'{key}' must be {kind}, got {value!r}",
                               id=f"{reader}-{key}-{json.dumps(value)}")


@pytest.mark.parametrize("reader, key, value, expected", _field_cases())
def test_each_field_follows_the_one_rule(tmp_path, capsys, reader, key, value, expected):
    """A bad field ends in one error line naming the file, the line and the
    key; an optional field may be absent or null."""
    first, second, argv = READERS[reader]
    case = {k: v for k, v in second.items() if k != key}
    if value is not ABSENT:
        case[key] = value
    path = tmp_path / f"{reader}.jsonl"
    path.write_text(f"{json.dumps(first)}\n{json.dumps(case)}\n", encoding="utf-8")
    code = main(argv(path))
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    if expected is None:
        assert (code, errors) == (0, [])
    else:
        assert code == 2 and errors == [f"data error: {path}: line 2: {expected}"]


# (place, key, the kind its errors name, whether it is required): a key of
# config.json ("config"), of its first seed source ("source"), of that
# source's scale ("scale"), or the low end of a `source_range` pair ("range"),
# which cannot be absent. A "sources-" place is the same key in a
# `seed --sources` file.
CONFIG_FIELDS = [
    ("config", "entries", "a list of strings", True),
    ("config", "corpus", "a string", True),
    ("config", "output_dir", "a string", True),
    ("config", "max_docs", "an integer", False),
    ("config", "sample_seed", "an integer", False),
    ("config", "strict", "true or false", False),
] + [
    (prefix + place, key, kind, required)
    for prefix in ("", "sources-")
    for place, key, kind, required in [
        ("source", "id", "a string", True),
        ("source", "path", "a string", True),
        ("scale", "factor", "a finite number", False),
        ("scale", "offset", "a finite number", False),
        ("range", "source_range", "a finite number", None),
    ]
]


def _config_field_cases():
    for place, key, kind, required in CONFIG_FIELDS:
        if required is not None:
            for value, case in ((ABSENT, "absent"), (None, "null")):
                expected = f"missing field '{key}'" if required else None
                yield pytest.param(place, key, value, expected, id=f"{place}-{key}-{case}")
        for value in WRONG[kind]:
            yield pytest.param(place, key, value, f"'{key}' must be {kind}, got {value!r}",
                               id=f"{place}-{key}-{json.dumps(value)}")


def _golden_argv(root: Path, place: str, key: str | None = None,
                 value: object = ABSENT) -> tuple[list[str], Path]:
    """The argv that reads the golden config, or its seed sources as a
    `seed --sources` file, with `key` at `place` set to `value` (dropped when
    ABSENT; no key changes no field), and the file that argv writes."""
    config = write_golden_fixture(root)
    raw = json.loads(config.read_text(encoding="utf-8"))
    source = raw["seed_lexicons"][0]
    if key == "source_range":
        source["scale"] = {"source_range": [value, 2]}
    elif key is not None:
        target = {"config": raw, "source": source, "scale": source["scale"]}
        fields = target[place.removeprefix("sources-")]
        del fields[key]
        if value is not ABSENT:
            fields[key] = value
    if place.startswith("sources-"):
        (root / "sources.json").write_text(json.dumps(raw["seed_lexicons"]), encoding="utf-8")
        output = root / "seed.jsonl"
        return ["seed", "--sources", str(root / "sources.json"), "--output", str(output)], output
    config.write_text(json.dumps(raw), encoding="utf-8")
    return ["run", "--config", str(config)], root / "out" / "slangsd.txt"


@pytest.mark.parametrize("place, key, value, expected", _config_field_cases())
def test_each_config_field_follows_the_one_rule(tmp_path, capsys, place, key, value, expected):
    """The config and sources readers take each field through the same rule:
    a bad field ends in one error line naming the key (exit 1), and an
    optional field that is absent or null takes its default."""
    argv, output = _golden_argv(tmp_path / "changed", place, key, value)
    code = main(argv)
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    if expected is not None:
        assert code == 1 and errors == [f"error: {expected}"]
        return
    assert (code, errors) == (0, [])
    # The golden config gives the first seed source the default scale and
    # every optional config key its default (or, for sample_seed, one that
    # does not change the export).
    if place.startswith("sources-"):
        reference_argv, reference = _golden_argv(tmp_path / "golden", place)
        assert main(reference_argv) == 0
        assert output.read_bytes() == reference.read_bytes()
    else:
        assert output.read_bytes() == GOLDEN_FILE.read_bytes()


def reference_parse(raw: str) -> dict:
    """parse_record as one json.loads per line."""
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ParseError("record is not an object")
    return record


def _outcome(parse, raw: str) -> tuple[str, str]:
    try:
        return "record", repr(parse(raw))  # repr: NaN is not equal to itself
    except ParseError as exc:
        return "error", str(exc)


# Fragments of JSON lines, and of what is almost JSON: whitespace that JSON
# has and whitespace that only str.isspace has, a BOM, and text after the object.
FRAGMENTS = st.sampled_from([
    "{", "}", "[", "]", ":", ",", '"', "\\", '"k"', '"é"', "1", "-0.0", "5e-324", "1e999",
    "NaN", "Infinity", "null", "true", '{"a": 1}', "{}", " ", "\t", "\r", "\n", "\x0c",
    "\x0b", "\x85", "\u2028", "\xa0", "\ufeff", "x",
])
LINES = st.lists(FRAGMENTS, max_size=12).map("".join) | st.text(max_size=20) | st.builds(
    "{}{}{}\n".format,
    st.sampled_from(["", " ", "\t ", "\ufeff", "\x0c"]),
    st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=3)
    .map(json.dumps),
    st.sampled_from(["", " ", "\r", " \t", "{}", "\x0c", "\xa0", ",", "\u2028"]),
)


@given(LINES)
@example(' {"a": 1}\n')
@example('{"a": 1} \t\r\n')
@example("{}{}")
@example("\ufeff{}")
@example("[1]")
@example("5")
@example('{"a": NaN}')
@example("[")
@example("{}\x0c")
def test_parse_record_reads_each_line_as_json_loads(raw):
    assert _outcome(parse_record, raw) == _outcome(reference_parse, raw)


# The row writers' strings: quotes, backslashes, control characters, what
# some line splitters take for a line end, non-ASCII and astral characters.
ROW_TEXT = st.text(st.sampled_from([
    '"', "\\", "\x00", "\x1f", "\t", "\n", "\x7f", "\u2028", "\u2029", "\x85", "é", "漢",
    "\U0001f600", "a", " ",
]), max_size=8) | st.text(max_size=8)
STRENGTHS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-07, 2.0, -2.0]) | st.floats(-2.0, 2.0)
SOURCES = st.lists(ROW_TEXT, max_size=3) | st.lists(st.sampled_from(["a", "é"]), min_size=100,
                                                     max_size=100)
LEXICONS = st.lists(st.builds(
    LexiconEntry, ROW_TEXT, STRENGTHS, st.sampled_from(Stage), SOURCES.map(tuple),
), max_size=4).map(Lexicon)
VOTES = st.sampled_from([0, 10**30]) | st.integers(0, 10**6)
VOCABULARIES = st.lists(st.builds(
    SlangEntry, ROW_TEXT, SOURCES.map(tuple), SOURCES.map(tuple), SOURCES.map(tuple), VOTES,
    VOTES, st.none() | st.dates(),
), max_size=4).map(lambda entries: {entry.term: entry for entry in entries})
LABELED = st.lists(st.builds(
    LabeledDocument, st.builds(Document, ROW_TEXT, ROW_TEXT, st.just(())),
    st.sampled_from([Polarity.POSITIVE, Polarity.NEGATIVE]),
), max_size=4)


def _dumped(rows) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in rows).encode()


@given(LEXICONS, VOCABULARIES, LABELED)
@example(Lexicon([LexiconEntry('say "hi"', -0.0, Stage.SEED_LEXICON,
                               ("back\\slash", "\x00\x1f\t\n\x7f"))]),
         {'say "hi"': SlangEntry('say "hi"', ("back\\slash",), ("\x00\x1f\t\n\x7f",),
                                 upvotes=10**30)},
         [LabeledDocument(Document('say "hi"', "back\\slash \x00\x1f\t\n\x7f", ()),
                          Polarity.NEGATIVE)])
@example(Lexicon([LexiconEntry("é ü 漢字 \U0001f600", 5e-324, Stage.IMPORTED),
                  LexiconEntry("a\u2028b\u2029c\x85", 1.0, Stage.PROPAGATION)]),
         {"é ü 漢字 \U0001f600": SlangEntry("é ü 漢字 \U0001f600", ("a\u2028b\u2029c\x85",),
                                            ("x",))},
         [LabeledDocument(Document("é ü 漢字 \U0001f600", "a\u2028b\u2029c\x85", ()),
                          Polarity.POSITIVE)])
@example(Lexicon([LexiconEntry("t", 1e-07, Stage.SEED_LEXICON, ("a", "\u2028")),
                  LexiconEntry("u", -2.0, Stage.CORPUS_ESTIMATE)]),
         {"t": SlangEntry("t", ("a",), ("\u2028",), ("a", "\u2028"), 0, 7, date(999, 12, 31))},
         [])
@example(Lexicon(), {}, [])
def test_row_writers_write_each_row_as_json_dumps(tmp_path_factory, lexicon, vocabulary, labeled):
    root = tmp_path_factory.mktemp("rows")
    save_lexicon(lexicon, root / "lexicon.jsonl")
    assert (root / "lexicon.jsonl").read_bytes() == _dumped(
        {"term": e.term, "strength": e.strength, "stage": e.stage.value, "sources": list(e.sources)}
        for e in lexicon.entries()
    )
    save_vocabulary(vocabulary, root / "vocabulary.jsonl")
    assert (root / "vocabulary.jsonl").read_bytes() == _dumped(
        {"term": e.term, "meanings": list(e.meanings), "examples": list(e.examples),
         "related_terms": list(e.related_terms), "upvotes": e.upvotes, "downvotes": e.downvotes,
         **({} if e.created_date is None else {"created_date": e.created_date.isoformat()})}
        for e in map(vocabulary.get, sorted(vocabulary))
    )
    save_labeled_corpus(labeled, root / "labeled.jsonl")
    assert (root / "labeled.jsonl").read_bytes() == _dumped(
        {"id": item.document.id, "label": item.gold.value, "text": item.document.text}
        for item in labeled
    )


@pytest.mark.parametrize("data, lines", [
    (b"", []),
    (b"\xef\xbb\xbf", []),
    (b"\xef\xbb\xbfa\n\xef\xbb\xbfb\n", ["a\n", "\ufeffb\n"]),
    (gzip.compress(b"\xef\xbb\xbfa\nb"), ["a\n", "b"]),
], ids=["empty", "mark-only", "mark-on-first-line-only", "gzip"])
def test_read_lines_drops_a_leading_byte_order_mark(tmp_path, data, lines):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    assert list(read_lines(path)) == lines


# reader: a file it fails on at line 1, with a line after that one, so the
# reader stops while the file is open.
FAILING_READS = {
    "load_lexicon": (load_lexicon, "{oops\n{}\n"),
    "load_vocabulary": (load_vocabulary, "{oops\n{}\n"),
    "parse_entries": (parse_entries, "{oops\n{}\n"),
    "load_seed_values": (load_seed_values, "a\tb\tc\nlol\t1\n"),
    "load_slangsd": (load_slangsd, "lol\nlol\t1\n"),
    "load_corpus": (load_corpus, "{oops\n{}\n"),
    "load_labeled_corpus": (load_labeled_corpus, "{oops\n{}\n"),
    "EmoticonSet.from_file": (EmoticonSet.from_file, ":)\n[positive]\n"),
}


@pytest.mark.parametrize("reader, text", FAILING_READS.values(), ids=FAILING_READS)
def test_a_failing_reader_closes_its_file(tmp_path, monkeypatch, reader, text):
    """A reader's file is closed when the reader raises, not when the
    collector finds it: the kept error's traceback holds the reader's frame."""
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(records, "open", recording_open, raising=False)
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        reader(path)
    assert caught.value.line == 1 and opened
    assert [handle.closed for handle in opened] == [True] * len(opened)
