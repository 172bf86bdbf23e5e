"""Serialization of sweep results to CSV and JSON.

Columns and keys come from the record dataclass fields, in field order,
under one rename table: ``lam`` is written ``lambda``; in CSV only,
``implied_constant`` is written ``implied_c`` and ``exponent`` is left
out.  Exact rationals never lose precision: JSON carries them as
{"num": "...", "den": "..."} decimal strings and CSV splits them into
``_num``/``_den`` columns.  Booleans are written true/false, and None
(an unasserted row) as an empty cell.
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

from .harness import SWEEPS, BoundRecord, SweepResult

# field name -> JSON key and CSV column; None leaves the CSV column out
JSON_NAMES = {"lam": "lambda"}
CSV_NAMES = {**JSON_NAMES, "implied_constant": "implied_c", "exponent": None}

_BOOL_TEXT = {True: "true", False: "false", None: ""}


class _Layout(NamedTuple):
    """Everything the writers need about one record type, worked out once."""

    columns: list[str]
    cells: attrgetter  # record -> CSV cells, each Fraction as numerator, denominator
    bool_cells: tuple[int, ...]  # cell positions holding bool | None
    keys: tuple[str, ...]
    values: attrgetter  # record -> JSON values, in key order


@cache
def _layout(kind: type) -> _Layout:
    if kind not in {sweep.record for sweep in SWEEPS.values()}:
        raise TypeError(f"unknown record type {kind.__name__}")
    hints = get_type_hints(kind)
    names = [f.name for f in fields(kind)]
    columns: list[str] = []
    paths: list[str] = []
    bool_cells: list[int] = []
    for name in names:
        column = CSV_NAMES.get(name, name)
        if column is None:
            continue
        if hints[name] is Fraction:
            columns += [f"{column}_num", f"{column}_den"]
            paths += [f"{name}.numerator", f"{name}.denominator"]
            continue
        if hints[name] in (bool, bool | None):
            bool_cells.append(len(columns))
        columns.append(column)
        paths.append(name)
    keys = tuple(JSON_NAMES.get(name, name) for name in names)
    return _Layout(columns, attrgetter(*paths), tuple(bool_cells), keys, attrgetter(*names))


def frac_json(value: Fraction) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _jsonable(value):
    if isinstance(value, Fraction):
        return frac_json(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def record_json(rec) -> dict:
    layout = _layout(type(rec))
    return dict(zip(layout.keys, map(_jsonable, layout.values(rec))))


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


def write_result_json(result: SweepResult, out_path: Path) -> list[Path]:
    out_path = Path(out_path)
    with open(out_path, "w") as stream:
        json.dump(result_json(result), stream, indent=2)
        stream.write("\n")
    return [out_path]


def render_result(result: SweepResult, fmt: str) -> str:
    """Single-string form of a result, for stdout."""
    if fmt == "json":
        return json.dumps(result_json(result), indent=2)
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
