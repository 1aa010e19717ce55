"""Input and output files. Every input file is read through `Lines`, which
opens and decodes it itself, skips blank lines and is where a file's errors
get their file and line: the line is in the message. Record files hold one
JSON object per line, UTF-8, LF: each line the bytes json.dumps(record,
ensure_ascii=False, sort_keys=True) writes.
Readers take every field through `value_of`, the one field rule, which the
config and sources readers use too. String escaping (`json_string`,
`json_strings`) and the writer live here; each record file's row shape is
one f-string beside that file's reader, and a property in
tests/test_records.py pins its bytes to json.dumps'. Every output file is
written beside its target and renamed over it, atomically."""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import json.scanner
import os
import re
import reprlib
import secrets
import sys
import zlib
from collections.abc import Iterable, Iterator
from enum import Enum
from itertools import islice
from pathlib import Path

from .errors import DataError, ParseError


class Lines:
    """The non-blank lines of the file at `path`, gzip or not, line ends kept,
    which `Lines` opens and decodes itself: without a byte-order mark at the
    file's start, and bytes that are not UTF-8 a DataError naming the file.
    `number` is the 1-based number of the line last handed out, blank lines
    counted, and None once the file has been read. `data`, when given, is
    the file's bytes, already read and not gzip: they are read instead of the
    file. As a context manager it closes the file on exit and puts the file
    and line in front of a ParseError raised inside the block."""

    def __init__(self, path: str | Path, data: bytes | None = None):
        self.path = path
        self.number: int | None = None
        if data is None:
            with open(path, "rb") as probe:
                magic = probe.read(2)
            binary = gzip.open(path, "rb") if magic == b"\x1f\x8b" else open(path, "rb")
        else:
            binary = io.BytesIO(data)
        self._handle = io.TextIOWrapper(binary, encoding="utf-8-sig")

    def __iter__(self) -> Iterator[str]:
        try:
            for self.number, raw in enumerate(self._handle, start=1):
                if raw.strip():
                    yield raw
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: not UTF-8 text: {exc}") from None
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise DataError(f"{self.path}: not a complete gzip file: {exc}") from None
        self.number = None

    def __enter__(self) -> Lines:
        return self

    def __exit__(self, kind, error, traceback) -> None:
        # Closed here, not when the collector finds it: a traceback that is
        # kept would otherwise keep the file open.
        self._handle.close()
        if isinstance(error, ParseError):
            self.locate(error)

    def locate(self, error: ParseError) -> ParseError:
        """`error`, its message now starting with `<path>: line N: `, or
        `<path>: ` when no line is being read."""
        where = "" if self.number is None else f"line {self.number}: "
        error.args = (f"{self.path}: {where}{error}",)
        return error


# One scanner for every record: the one json.loads runs, called at index 0
# without the Python frames and whitespace matching json.loads wraps around it.
# It raises StopIteration when no JSON value starts there.
_scan = json.scanner.make_scanner(json.JSONDecoder())

# A str as json.dumps(..., ensure_ascii=False) writes it: quoted, with `"`,
# `\` and the control characters escaped.
json_string = json.encoder.encode_basestring


def json_strings(items: Iterable[str]) -> str:
    """A list of strings as json.dumps(..., ensure_ascii=False) writes it."""
    return f"[{', '.join(map(json_string, items))}]"


def parse_record(raw: str) -> dict:
    """The JSON object on one line, or a ParseError."""
    try:
        record, end = _scan(raw, 0)
        # JSON's whitespace only: json.loads calls anything else extra data.
        if type(record) is dict and not raw[end:].strip(" \t\n\r"):
            return record
    except (StopIteration, ValueError, RecursionError):
        pass
    # Not one object alone on the line, or not at its start (leading
    # whitespace, a BOM): json.loads words the error as before. Too deep a
    # nesting, or an integer too long for int() (a ValueError), is bad JSON too.
    try:
        record = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ParseError("record is not an object")
    return record


REQUIRED = object()  # the default of a field that must be present
_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number",
               bool: "true or false", list: "a list of strings"}
_FLOAT_MAX = sys.float_info.max
_BY_VALUE: dict[type, dict[str, Enum]] = {}  # each Enum kind's members by value, on first use
# A code point JSON can escape but UTF-8 cannot encode, so no file can hold it.
_SURROGATE = re.compile("[\ud800-\udfff]")


def value_of(record: dict, key: str, kind: type, *, default: object = REQUIRED):
    """`record[key]` checked to be a `kind`: str, int, float (finite), bool,
    list (of strings), or an Enum of strings, whose member it returns. An
    absent or null field takes `default`; without one, or of another kind, it
    is a ParseError naming the key. So is a string, or a list item, holding a
    lone surrogate (U+D800 to U+DFFF), which no output file could hold.
    A list's items are checked by joining them: the join fails on an item
    that is no str, and json.loads makes no str subclass."""
    value = record.get(key)
    # Types match exactly, as json.loads makes them: a bool is no number, and
    # a float field takes an int that a float can hold, as a float.
    if type(value) is kind:
        if kind is float:
            if -_FLOAT_MAX <= value <= _FLOAT_MAX:  # NaN and the infinities are not
                return value
        elif kind is str or kind is list:
            try:
                text = value if kind is str else "".join(value)
            except TypeError:  # a list item that is no str: the kind error below
                pass
            else:
                if text.isascii() or not _SURROGATE.search(text):  # ASCII pays no search
                    return value
                raise ParseError(f"'{key}' holds a lone surrogate: {reprlib.repr(value)}")
        else:
            return value
    elif type(value) is str and kind not in _KIND_NAMES:
        members = _BY_VALUE.get(kind) or _BY_VALUE.setdefault(kind, {m.value: m for m in kind})
        if (member := members.get(value)) is not None:
            return member
    elif kind is float and type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    elif value is None:
        if default is REQUIRED:
            raise ParseError(f"missing field '{key}'")
        return default
    name = _KIND_NAMES.get(kind) or "one of " + ", ".join(repr(m.value) for m in kind)
    raise ParseError(f"'{key}' must be {name}, got {reprlib.repr(value)}")


def write_lines(path: str | Path, lines: Iterable[str]) -> str:
    """Write `lines`, each with its line end, to a temporary file beside
    `path` and rename it over `path`; returns the sha256 (hex) of the bytes
    written. The lines are taken a batch at a time, so a record file's rows
    are never all in memory at once."""
    path = Path(path)
    # Not mkstemp, whose files are 0600; a fixed-length name fits wherever the target's does.
    temporary = path.with_name(f".{secrets.token_hex(8)}.tmp")
    digest = hashlib.sha256()
    rows = iter(lines)
    handle = None
    try:
        with open(temporary, "xb") as handle:
            while batch := list(islice(rows, 4096)):
                data = "".join(batch).encode("utf-8")
                digest.update(data)
                handle.write(data)
        os.replace(temporary, path)
    except BaseException as exc:
        if handle is not None:  # open made the temporary, so remove it
            temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temporary):  # name the target alone
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise
    return digest.hexdigest()


def write_text(path: str | Path, text: str) -> str:
    return write_lines(path, [text])


def write_json(path: str | Path, payload: object) -> str:
    return write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> object:
    """The JSON value of the file `write_json` wrote at `path`; a file that
    holds none is a DataError naming it."""
    try:
        return json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
        raise DataError(f"{path}: not valid JSON: {exc}") from None
