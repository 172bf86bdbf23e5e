"""Serialization of sweep results to CSV and JSON.

Columns and keys come from the record fields, in field order, under one
rename table: ``lam`` is written ``lambda``; in CSV only,
``implied_constant`` is written ``implied_c`` and ``exponent`` is left
out.  Exact rationals never lose precision: the Rational fields of a
record and the Fractions of a summary are carried in JSON as
{"num": "...", "den": "..."} decimal strings, and CSV splits a record's
Rationals into ``_num``/``_den`` columns.  Booleans are written
true/false, and None (an unasserted row) as an empty CSV cell or null.
One loop writes both formats, filling a per-type ``%`` template record
by record, with the bytes of csv.writer rows (every cell holding CR or
LF quoted, as RFC 4180 asks and Python 3.13 does) ended by "\n", and of
json.dumps(result_json(result), indent=2): the tests keep both as
oracles, and ``record_json`` shares no layout code with the templates.

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
from functools import cache
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, get_type_hints

from .harness import SWEEPS, BoundRecord, Rational, SweepResult, SweepStream

# field name -> JSON key and CSV column; None leaves the CSV column out
JSON_NAMES = {"lam": "lambda"}
CSV_NAMES = {**JSON_NAMES, "implied_constant": "implied_c", "exponent": None}

_RECORDS = frozenset(sweep.record for sweep in SWEEPS.values())


def _csv_text(text: str) -> str:
    """A text cell as RFC 4180 asks: quoted around a comma, quote, CR or LF, each quote doubled."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"%s"' % text.replace('"', '""')
    return text


_WORDS = {True: "true", False: "false"}
# format -> the quoting of a text slot and the words of a bool | None slot
_FORMATS = {"csv": (_csv_text, {**_WORDS, None: ""}), "json": (json.dumps, {**_WORDS, None: "null"})}


class _Layout(NamedTuple):
    """Everything the emitter needs about one record type in one format."""

    header: str  # the CSV header line; empty in JSON
    template: str  # one record, a %-slot per slots item
    slots: attrgetter  # record -> slots, each Rational as numerator, denominator
    texts: tuple[int, ...]  # slot positions holding str
    flags: tuple[int, ...]  # slot positions holding bool | None


# The indentation of json.dumps(..., indent=2) for a record inside a section.
_RECORD_OPEN = "      {\n        "
_RECORD_SEP = ",\n        "
_RECORD_CLOSE = "\n      }"
_RATIONAL = '{\n          "num": "%d",\n          "den": "%d"\n        }'


@cache
def _layout(kind: type, fmt: str) -> _Layout:
    """The layout of a record type in fmt, from one walk over its fields."""
    if kind not in _RECORDS:
        raise TypeError(f"unknown record type {kind.__name__}")
    as_json = fmt == "json"
    names = JSON_NAMES if as_json else CSV_NAMES
    hints = get_type_hints(kind)
    columns, items, paths, texts, flags = [], [], [], [], []
    for name in kind._fields:
        hint, key = hints[name], names.get(name, name)
        if key is None:
            continue
        if hint in (bool, bool | None):
            flags.append(len(paths))
        elif hint is str:
            texts.append(len(paths))
        if hint is Rational:
            columns += [f"{key}_num", f"{key}_den"]
            paths += [f"{name}.numerator", f"{name}.denominator"]
            slot = _RATIONAL if as_json else "%s,%s"
        else:
            columns.append(key)
            paths.append(name)
            slot = "%s"
        items.append(f"{json.dumps(key)}: {slot}" if as_json else slot)
    if as_json:
        header, template = "", _RECORD_OPEN + _RECORD_SEP.join(items) + _RECORD_CLOSE
    else:
        header, template = ",".join(columns) + "\n", ",".join(items) + "\n"
    return _Layout(header, template, attrgetter(*paths), tuple(texts), tuple(flags))


def _fill(batches, kind: type, fmt: str, writes: dict) -> dict[str, int]:
    """Write each (section, records) batch in fmt by one writes[section] call; the count per section.

    This loop writes both formats.  JSON records are separated by ",\n"
    and a section's list is opened by "[\n".  An empty batch writes
    nothing.  A record that is not of type kind is refused.
    """
    _, template, slots, texts, flags = _layout(kind, fmt)
    quote, words = _FORMATS[fmt]
    quote = cache(quote)  # a label recurs on every record of its shape
    first, sep = ("[\n", ",\n") if fmt == "json" else ("", "")
    counts = dict.fromkeys(writes, 0)
    for section, records in batches:
        filled = []
        for rec in records:
            if type(rec) is not kind:
                raise TypeError(f"a {type(rec).__name__} in a table of {kind.__name__}")
            values = list(slots(rec))
            for index in texts:
                values[index] = quote(values[index])
            for index in flags:
                values[index] = words[values[index]]
            filled.append(template % tuple(values))
        if filled:
            writes[section]((sep if counts[section] else first) + sep.join(filled))
            counts[section] += len(filled)
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


def record_json(rec) -> dict:
    """A record as a JSON object, read from its own fields.

    It shares no code with the templates of _layout, so result_json is the
    oracle the direct emitter is checked against.
    """
    if type(rec) not in _RECORDS:
        raise TypeError(f"not a sweep record: {rec!r}")
    return {JSON_NAMES.get(name, name): _jsonable(value) for name, value in zip(rec._fields, rec)}


def result_json(result: SweepResult) -> dict:
    return {
        "command": result.command,
        "n": result.n,
        "sections": {
            name: [record_json(rec) for rec in records]
            for name, records in result.sections.items()
        },
        "summary": _jsonable(result.summary),
    }


def write_csv(records, stream, kind: type | None = None) -> None:
    """One table of records of one type; kind sets the header of an empty table."""
    if kind is None:
        kind = type(records[0]) if records else BoundRecord
    stream.write(_layout(kind, "csv").header)
    _fill((("", records),), kind, "csv", {"": stream.write})


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

    JSON is json.dumps(result_json(result), indent=2); CSV is every
    section in turn, separated by a blank line and, but for "records",
    headed by a "# section:" line.  The first section is written straight
    to stream; each later one goes to a temporary file, copied after the
    last record, so no section is held in memory.
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
