"""Serialization of sweep results to CSV and JSON.

Columns and keys come from the record fields, in field order, under one
rename table: ``lam`` is written ``lambda``; in CSV only,
``implied_constant`` is written ``implied_c`` and ``exponent`` is left
out.  Exact rationals never lose precision: the Rational fields of a
record and the Fractions of a summary are carried in JSON as
{"num": "...", "den": "..."} decimal strings, and CSV splits a record's
Rationals into ``_num``/``_den`` columns.  Booleans are written
true/false, and None (an unasserted row) as an empty CSV cell or null.
One function, _fill, writes both formats from a per-type ``%`` template
with one slot per written field, a batch column by column.  The bytes
are those of csv.writer rows (every cell holding CR or LF quoted, as RFC
4180 asks and Python 3.13 does) ended by "\n", and of
json.dumps(..., indent=2) of the document: the tests keep both as
oracles, csv.writer rows and a JSON document read from the record
fields, which share no layout code with the templates.

A writer takes a SweepResult or a SweepStream and writes each of its
batches in one call as it arrives, so at most one shape's records are
held: CSV sections each to their own file, JSON and single-stream CSV
with every section after the first spooled to a temporary file.  A file
writer that fails removes the files it opened.
"""

from __future__ import annotations

import io
import json
import shutil
import tempfile
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from functools import cache, lru_cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple, get_type_hints

from .harness import SWEEPS, Rational, SweepResult, SweepStream

# field name -> JSON key and CSV column; None leaves the CSV column out
JSON_NAMES = {"lam": "lambda"}
CSV_NAMES = {**JSON_NAMES, "implied_constant": "implied_c", "exponent": None}

_RECORDS = frozenset(sweep.record for sweep in SWEEPS.values())


def _csv_text(text: str) -> str:
    """A text cell as RFC 4180 asks: quoted around a comma, quote, CR or LF, each quote doubled."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"%s"' % text.replace('"', '""')
    return text


# The indentation of json.dumps(..., indent=2) for a record inside a section.
_RECORD_OPEN = "      {\n        "
_RECORD_SEP = ",\n        "
_RECORD_CLOSE = "\n      }"
_RATIONAL = '{\n          "num": "%d",\n          "den": "%d"\n        }'

_WORDS = {True: "true", False: "false"}
# format -> the quoting of a text field, the words of a bool | None field, and a Rational's text
_FORMATS = {
    "csv": (_csv_text, {**_WORDS, None: ""}, "%s,%s"),
    "json": (json.dumps, {**_WORDS, None: "null"}, _RATIONAL),
}
# a _fill call empties its Rational memo once the memo holds more than this many texts
_MEMO_CAP = 1024


class _Layout(NamedTuple):
    """Everything the emitter needs about one record type in one format."""

    header: str  # the CSV header line; empty in JSON
    template: str  # one record, a %s slot per written field
    fields: tuple[int, ...]  # the written fields' positions in the record, in order
    roles: tuple[str, ...]  # per written field: "rational", "text", "flag", or "" as it is


@lru_cache(maxsize=8)  # three record types in two formats
def _layout(kind: type, fmt: str) -> _Layout:
    """The layout of a record type in fmt, from one walk over its fields."""
    if kind not in _RECORDS:
        raise TypeError(f"unknown record type {kind.__name__}")
    as_json = fmt == "json"
    names = JSON_NAMES if as_json else CSV_NAMES
    hints = get_type_hints(kind)
    columns, items, fields, roles = [], [], [], []
    for index, name in enumerate(kind._fields):
        hint, key = hints[name], names.get(name, name)
        if key is None:
            continue
        fields.append(index)
        if hint is Rational:
            columns += [f"{key}_num", f"{key}_den"]
            roles.append("rational")
        else:
            columns.append(key)
            roles.append("flag" if hint in (bool, bool | None) else "text" if hint is str else "")
        items.append(f"{json.dumps(key)}: %s" if as_json else "%s")
    if as_json:
        header, template = "", _RECORD_OPEN + _RECORD_SEP.join(items) + _RECORD_CLOSE
    else:
        header, template = ",".join(columns) + "\n", ",".join(items) + "\n"
    return _Layout(header, template, tuple(fields), tuple(roles))


class _Memo(dict):
    """A Rational's text in one format, formatted the first time the Rational is looked up."""

    __slots__ = ("slot",)

    def __init__(self, slot: str):
        self.slot = slot

    def __missing__(self, value):
        # a Fraction in a Rational field is written too, so read the two ints by name
        text = self[value] = self.slot % (value.numerator, value.denominator)
        return text


def _fill(batches, kind: type, fmt: str, writes: dict) -> dict[str, int]:
    """Write each (section, records) batch in fmt by one writes[section] call; the count per section.

    This one function writes both formats.  JSON records are separated
    by ",\n" and a section's list is opened by "[\n".  An empty batch
    writes nothing.  A batch holding a record that is not of type kind is
    refused with a TypeError before anything of it is written.

    A batch is filled column by column: its records are transposed into
    one tuple per written field, each column is mapped to its text (a
    Rational through the memo, a label through a cached quote, a flag
    through its word), and the template is applied to each row of texts.
    Records share Rationals (compression's pl and bound per mu, a bound
    sweep's rhs per key), so each distinct Rational is formatted once,
    into a memo local to this call.  The memo is emptied before a batch
    once it holds more than _MEMO_CAP texts, so it never holds more than
    _MEMO_CAP plus one batch's Rational cells.
    """
    _, template, fields, roles = _layout(kind, fmt)
    quote, words, slot = _FORMATS[fmt]
    memo = _Memo(slot)
    # a label recurs on every record of its shape
    to_text = {"rational": memo.__getitem__, "text": cache(quote), "flag": words.__getitem__}
    first, sep = ("[\n", ",\n") if fmt == "json" else ("", "")
    counts = dict.fromkeys(writes, 0)
    for section, records in batches:
        if not records:
            continue
        if set(map(type, records)) != {kind}:
            stray = next(rec for rec in records if type(rec) is not kind)
            raise TypeError(f"a {type(stray).__name__} in a table of {kind.__name__}")
        if len(memo) > _MEMO_CAP:
            memo.clear()
        columns = tuple(zip(*records))
        cells = [map(to_text[role], columns[i]) if role else columns[i] for i, role in zip(fields, roles)]
        writes[section]((sep if counts[section] else first) + sep.join(map(template.__mod__, zip(*cells))))
        counts[section] += len(records)
    return counts


def frac_json(value: Fraction | Rational) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _jsonable(value):
    # a Rational is a tuple, so it is tested for before the lists
    if isinstance(value, (Rational, Fraction)):
        return frac_json(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


@contextmanager
def _created(paths: list[Path], newline: str | None):
    """Open each path to write; on any exception, remove the files opened, then re-raise.

    Only regular files are removed: a target such as /dev/stdout stays.
    """
    opened: list[Path] = []
    try:
        with ExitStack() as stack:
            streams = []
            for path in paths:
                streams.append(stack.enter_context(open(path, "w", newline=newline)))
                opened.append(path)
            yield streams
    except BaseException:
        for path in opened:
            if path.is_file():
                path.unlink()
        raise


def write_result_csv(source: SweepResult | SweepStream, out_path: Path) -> list[Path]:
    """One CSV per section, written as the batches arrive; extra sections get suffixed names.

    If the sweep or a write fails, no file is left behind.
    """
    out_path = Path(out_path)
    kind = SWEEPS[source.command].record
    paths = [
        out_path if name == "records" else out_path.with_name(f"{out_path.stem}_{name}{out_path.suffix}")
        for name in source.sections
    ]
    header = _layout(kind, "csv").header
    with _created(paths, "") as streams:
        for stream in streams:
            stream.write(header)
        _fill(source.batches(), kind, "csv", {name: s.write for name, s in zip(source.sections, streams)})
    return paths


def write_result(source: SweepResult | SweepStream, fmt: str, stream) -> None:
    """The text of render_result(source, fmt), written on stream as the batches arrive.

    JSON is the text json.dumps(..., indent=2) gives for the document
    {"command", "n", "sections", "summary"}, each record an object of its
    fields; CSV is every section in turn, separated by a blank line and,
    but for "records", headed by a "# section:" line.  The first section
    is written straight to stream; each later one goes to a temporary
    file, copied after the last record, so no section is held in memory.
    """
    kind = SWEEPS[source.command].record
    as_json = fmt == "json"
    names = list(source.sections)
    header = _layout(kind, fmt).header

    def opening(index: int, name: str) -> str:
        if as_json:
            return f"{',' if index else ''}\n    {json.dumps(name)}: "
        return ("\n" if index else "") + ("" if name == "records" else f"# section: {name}\n") + header

    write = stream.write
    if as_json:
        write(f'{{\n  "command": {json.dumps(source.command)},\n  "n": {json.dumps(source.n)},\n')
        write('  "sections": {')
    with ExitStack() as stack:
        spools = {
            name: stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            for name in names[1:]
        }
        if names:
            write(opening(0, names[0]))
        writes = {name: spools[name].write if name in spools else write for name in names}
        counts = _fill(source.batches(), kind, fmt, writes)
        for index, name in enumerate(names):
            if name in spools:
                write(opening(index, name))
                spools[name].seek(0)
                shutil.copyfileobj(spools[name], stream)
            if as_json:
                write("\n    ]" if counts[name] else "[]")
    if as_json:
        write("\n  }" if names else "}")
        summary = json.dumps(_jsonable(source.summary), indent=2).replace("\n", "\n  ")
        write(f',\n  "summary": {summary}\n}}')


def write_result_json(source: SweepResult | SweepStream, out_path: Path) -> list[Path]:
    """The JSON document in one file; if the sweep or a write fails, no file is left behind."""
    out_path = Path(out_path)
    with _created([out_path], None) as (stream,):
        write_result(source, "json", stream)
        stream.write("\n")
    return [out_path]


def render_result(result: SweepResult | SweepStream, fmt: str) -> str:
    """Single-string form of a result."""
    buffer = io.StringIO()
    write_result(result, fmt, buffer)
    return buffer.getvalue()


def summary_lines(result: SweepResult | SweepStream) -> list[str]:
    lines = [f"{result.command}: n={result.n}"]
    for key, value in result.summary.items():
        if isinstance(value, dict) and "ratio" in value:
            approx = value.get("approx")
            lines.append(
                f"  {key}: ({value['ratio']})^(1/{value['exponent']})"
                + (f" ~ {approx:.6g}" if approx else "")
            )
        else:
            lines.append(f"  {key}: {value}")
    return lines


def schema_path() -> Path:
    return Path(resources.files("hookchar") / "schemas" / "verify.schema.json")
