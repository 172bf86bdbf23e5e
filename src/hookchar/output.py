"""Serialization of sweep results to CSV and JSON.

Columns and keys come from the record dataclass fields, in field order,
under one rename table: ``lam`` is written ``lambda``; in CSV only,
``implied_constant`` is written ``implied_c`` and ``exponent`` is left
out.  Exact rationals never lose precision: the Rational fields of a
record and the Fractions of a summary are carried in JSON as
{"num": "...", "den": "..."} decimal strings, and CSV splits a record's
Rationals into ``_num``/``_den`` columns.  Booleans are written
true/false, and None (an unasserted row) as an empty cell.  A result's
JSON document is written record by record from a per-type template,
with the bytes of ``json.dumps(result_json(result), indent=2)``;
``record_json`` reads the record fields itself, so ``result_json`` is an
oracle that shares no layout code with the templates.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
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

_BOOL_TEXT = {True: "true", False: "false", None: ""}
_BOOL_JSON = {True: "true", False: "false", None: "null"}


class _Layout(NamedTuple):
    """Everything the writers need about one record type, worked out once."""

    columns: list[str]
    cells: attrgetter  # record -> CSV cells, each Rational as numerator, denominator
    bool_cells: tuple[int, ...]  # cell positions holding bool | None
    json_template: str  # one record as indented JSON, a %-slot per json_cells item
    json_cells: attrgetter  # record -> JSON slots, each Rational as numerator, denominator
    json_text_cells: tuple[int, ...]  # slot positions holding str
    json_bool_cells: tuple[int, ...]  # slot positions holding bool | None


# The indentation of json.dumps(..., indent=2) for a record inside a section.
_RECORD_OPEN = "      {\n        "
_RECORD_SEP = ",\n        "
_RECORD_CLOSE = "\n      }"
_RATIONAL = '{\n          "num": "%d",\n          "den": "%d"\n        }'


@cache
def _layout(kind: type) -> _Layout:
    """The CSV and JSON layouts of a record type, in one walk over its fields."""
    if kind not in {sweep.record for sweep in SWEEPS.values()}:
        raise TypeError(f"unknown record type {kind.__name__}")
    hints = get_type_hints(kind)
    columns: list[str] = []
    paths: list[str] = []
    bool_cells: list[int] = []
    items: list[str] = []
    json_paths: list[str] = []
    text_cells: list[int] = []
    json_bools: list[int] = []
    for field in fields(kind):
        name, hint = field.name, hints[field.name]
        rational = hint is Rational
        flag = hint in (bool, bool | None)
        cells = [f"{name}.numerator", f"{name}.denominator"] if rational else [name]
        if flag:
            json_bools.append(len(json_paths))
        elif hint is str:
            text_cells.append(len(json_paths))
        items.append(f"{json.dumps(JSON_NAMES.get(name, name))}: {_RATIONAL if rational else '%s'}")
        json_paths += cells
        column = CSV_NAMES.get(name, name)
        if column is None:
            continue
        if flag:
            bool_cells.append(len(paths))
        columns += [f"{column}_num", f"{column}_den"] if rational else [column]
        paths += cells
    return _Layout(
        columns, attrgetter(*paths), tuple(bool_cells),
        _RECORD_OPEN + _RECORD_SEP.join(items) + _RECORD_CLOSE, attrgetter(*json_paths),
        tuple(text_cells), tuple(json_bools),
    )


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
    """A record as a JSON object, read from its dataclass fields.

    It shares no code with the templates of _layout, so result_json is the
    oracle the direct emitter is checked against.
    """
    return {JSON_NAMES.get(f.name, f.name): _jsonable(getattr(rec, f.name)) for f in fields(rec)}


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
    kinds = {type(rec) for rec in records}
    if kind is not None:
        kinds.add(kind)
    if len(kinds) > 1:
        raise TypeError(f"mixed record types in one table: {kinds}")
    layout = _layout(kinds.pop() if kinds else BoundRecord)
    cells, bool_cells = layout.cells, layout.bool_cells
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(layout.columns)
    writerow = writer.writerow
    for rec in records:
        row = list(cells(rec))
        for index in bool_cells:
            row[index] = _BOOL_TEXT[row[index]]
        writerow(row)


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


def _record_texts(records):
    """Each record as json.dumps(record_json(rec), indent=2) would indent it in a section."""
    dumps = json.dumps
    for rec in records:
        layout = _layout(type(rec))
        slots = list(layout.json_cells(rec))
        for index in layout.json_text_cells:
            slots[index] = dumps(slots[index])
        for index in layout.json_bool_cells:
            slots[index] = _BOOL_JSON[slots[index]]
        yield layout.json_template % tuple(slots)


def _write_json(result: SweepResult, stream) -> None:
    """Write json.dumps(result_json(result), indent=2) section by section."""
    write = stream.write
    write(f'{{\n  "command": {json.dumps(result.command)},\n  "n": {json.dumps(result.n)},\n')
    write('  "sections": {')
    separator = "\n"
    for name, records in result.sections.items():
        write(f"{separator}    {json.dumps(name)}: ")
        separator = ",\n"
        if records:
            write("[\n")
            write(",\n".join(_record_texts(records)))
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
    chunks = []
    for name, records in result.sections.items():
        buffer = io.StringIO()
        write_csv(records, buffer, kind)
        header = "" if name == "records" else f"# section: {name}\n"
        chunks.append(header + buffer.getvalue())
    return "\n".join(chunks)


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
