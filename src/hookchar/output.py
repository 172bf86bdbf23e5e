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
by record, with the bytes of csv.writer(stream, lineterminator="\n")
and of json.dumps(result_json(result), indent=2): the tests keep both
as oracles, and ``record_json`` shares no layout code with the templates.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from functools import cache
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, get_type_hints

from .harness import SWEEPS, BoundRecord, Rational, SweepResult

# field name -> JSON key and CSV column; None leaves the CSV column out
JSON_NAMES = {"lam": "lambda"}
CSV_NAMES = {**JSON_NAMES, "implied_constant": "implied_c", "exponent": None}

_RECORDS = frozenset(sweep.record for sweep in SWEEPS.values())


def _csv_text(text: str) -> str:
    """A text cell as csv.writer writes it: quoted around a comma, quote or newline."""
    if "," in text or '"' in text or "\n" in text:
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


def _texts(records, kind: type | None, fmt: str):
    """A section in fmt: the CSV header, then each record filled into its template.

    This loop writes both formats.  kind names the record type of an empty
    section, and a section of mixed record types is refused.
    """
    kinds = {kind, *map(type, records)} - {None}
    if len(kinds) > 1:
        raise TypeError(f"mixed record types in one table: {kinds}")
    header, template, slots, texts, flags = _layout(kinds.pop() if kinds else BoundRecord, fmt)
    quote, words = _FORMATS[fmt]
    if header:
        yield header
    for rec in records:
        values = list(slots(rec))
        for index in texts:
            values[index] = quote(values[index])
        for index in flags:
            values[index] = words[values[index]]
        yield template % tuple(values)


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
    stream.writelines(_texts(records, kind, "csv"))


def write_result_csv(result: SweepResult, out_path: Path) -> list[Path]:
    """One CSV per section; extra sections get suffixed file names."""
    out_path = Path(out_path)
    kind = SWEEPS[result.command].record
    written = []
    for name, records in result.sections.items():
        if name == "records":
            target = out_path
        else:
            target = out_path.with_name(f"{out_path.stem}_{name}{out_path.suffix}")
        with open(target, "w", newline="") as stream:
            write_csv(records, stream, kind)
        written.append(target)
    return written


def _write_json(result: SweepResult, stream) -> None:
    """Write json.dumps(result_json(result), indent=2) section by section."""
    kind = SWEEPS[result.command].record
    write = stream.write
    write(f'{{\n  "command": {json.dumps(result.command)},\n  "n": {json.dumps(result.n)},\n')
    write('  "sections": {')
    separator = "\n"
    for name, records in result.sections.items():
        write(f"{separator}    {json.dumps(name)}: ")
        separator = ",\n"
        if records:
            write("[\n")
            write(",\n".join(_texts(records, kind, "json")))
            write("\n    ]")
        else:
            write("[]")
    write("\n  }" if result.sections else "}")
    summary = json.dumps(_jsonable(result.summary), indent=2).replace("\n", "\n  ")
    write(f',\n  "summary": {summary}\n}}')


def write_result_json(result: SweepResult, out_path: Path) -> list[Path]:
    out_path = Path(out_path)
    with open(out_path, "w") as stream:
        _write_json(result, stream)
        stream.write("\n")
    return [out_path]


def render_result(result: SweepResult, fmt: str) -> str:
    """Single-string form of a result, for stdout."""
    if fmt == "json":
        buffer = io.StringIO()
        _write_json(result, buffer)
        return buffer.getvalue()
    kind = SWEEPS[result.command].record
    return "\n".join(
        ("" if name == "records" else f"# section: {name}\n") + "".join(_texts(records, kind, "csv"))
        for name, records in result.sections.items()
    )


def summary_lines(result: SweepResult) -> list[str]:
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
