"""Record files: one JSON object per line, UTF-8, LF, keys sorted. Readers
accept gzip, skip blank lines and name the file and line of a malformed
record, and take every field through `value_of`, the one field rule, which
the config and sources readers use too. Every output file is written beside
its target and renamed over it, atomically."""

from __future__ import annotations

import gzip
import io
import json
import os
import reprlib
import secrets
import sys
import zlib
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from enum import Enum
from pathlib import Path

from .errors import DataError, ParseError


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of a text file, gzip or not, without a byte-order mark at its
    start; bytes that are not UTF-8 are a DataError naming the file."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    binary = gzip.open(path, "rb") if magic == b"\x1f\x8b" else open(path, "rb")
    with io.TextIOWrapper(binary, encoding="utf-8") as handle:
        try:
            if first := handle.readline().removeprefix("\ufeff"):
                yield first
            yield from handle
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise DataError(f"{path}: not a complete gzip file: {exc}") from None


def record_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """1-based number and text of each non-blank line."""
    return ((number, raw) for number, raw in enumerate(lines, start=1) if raw.strip())


def in_file(error: ParseError, path: str | Path) -> ParseError:
    """`error`, its message now starting with the file it came from."""
    error.args = (f"{path}: {error}",)
    return error


@contextmanager
def naming(path: str | Path) -> Iterator[None]:
    """Name `path` in a ParseError raised inside the block. Only the outermost
    reader of a file uses it, so no message names its file twice."""
    try:
        yield
    except ParseError as exc:
        in_file(exc, path)
        raise


# One decoder and one encoder for every record. raw_decode runs the scanner
# json.loads runs, without the checks and whitespace matching json.loads
# wraps around it; the encoder is the one json.dumps builds again on every
# call with these arguments, so the bytes are the same.
_decode = json.JSONDecoder().raw_decode
_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def parse_record(raw: str, number: int) -> dict:
    """The JSON object on one line, or a ParseError naming the line."""
    try:
        record, end = _decode(raw)
        # JSON's whitespace only: json.loads calls anything else extra data.
        if type(record) is dict and not raw[end:].strip(" \t\n\r"):
            return record
    except (ValueError, RecursionError):
        pass
    # Not one object alone on the line, or not at its start (leading
    # whitespace, a BOM): json.loads words the error as before. Too deep a
    # nesting, or an integer too long for int() (a ValueError), is bad JSON too.
    try:
        record = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}", line=number) from None
    if not isinstance(record, dict):
        raise ParseError("record is not an object", line=number)
    return record


REQUIRED = object()  # the default of a field that must be present
_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number",
               bool: "true or false", list: "a list of strings"}
_FLOAT_MAX = sys.float_info.max
_BY_VALUE: dict[type, dict[str, Enum]] = {}  # each Enum kind's members by value, on first use


def value_of(record: dict, key: str, kind: type, line: int | None, default: object = REQUIRED):
    """`record[key]` checked to be a `kind`: str, int, float (finite), bool,
    list (of strings), or an Enum of strings, whose member it returns. An
    absent or null field takes `default`; without one, or of another kind, it
    is a ParseError naming the line (when there is one) and the key."""
    value = record.get(key)
    # Types match exactly, as json.loads makes them: a bool is no number, and
    # a float field takes an int that a float can hold, as a float.
    if type(value) is kind:
        if kind is float:
            if -_FLOAT_MAX <= value <= _FLOAT_MAX:  # NaN and the infinities are not
                return value
        elif kind is not list or all(type(item) is str for item in value):
            return value
    elif type(value) is str and kind not in _KIND_NAMES:
        members = _BY_VALUE.get(kind) or _BY_VALUE.setdefault(kind, {m.value: m for m in kind})
        if (member := members.get(value)) is not None:
            return member
    elif kind is float and type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    elif value is None:
        if default is REQUIRED:
            raise ParseError(f"missing field '{key}'", line=line)
        return default
    name = _KIND_NAMES.get(kind) or "one of " + ", ".join(repr(m.value) for m in kind)
    raise ParseError(f"'{key}' must be {name}, got {reprlib.repr(value)}", line=line)


def read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Line number and JSON object of each non-blank line of a record file."""
    for number, raw in record_lines(read_lines(path)):
        yield number, parse_record(raw, number)


def _write(path: str | Path, chunks: Iterable[str]) -> None:
    path = Path(path)
    # Not mkstemp: its files are private (0600); open(..., "x") applies the umask.
    temporary = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temporary, "x", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(temporary, path)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temporary):
            exc.filename, exc.filename2 = str(path), None  # name the target, not the temporary
        raise


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    _write(path, (_encode(r) + "\n" for r in records))


def write_text(path: str | Path, text: str) -> None:
    _write(path, [text])


def write_json(path: str | Path, payload: object) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
