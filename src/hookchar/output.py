"""Serialization of sweep results to CSV and JSON.

Columns and keys come from the record fields, in field order, under one
rename table: ``lam`` is written ``lambda``; in CSV only,
``implied_constant`` is written ``implied_c`` and ``exponent`` is left
out.  Exact rationals never lose precision: the Rational fields of a
record and the Fractions of a summary are carried in JSON as
{"num": "...", "den": "..."} decimal strings, and CSV splits a record's
Rationals into ``_num``/``_den`` columns.  Booleans are written
true/false, and None (an unasserted row) as an empty CSV cell or null.
One function, _fill, writes both formats, a batch column by column:
each written field becomes a column of cell texts, and then a CSV row
is its cells joined by ",", and a JSON record is a per-type ``%``
template filled with one slot per written field.  The bytes are those
of csv.writer rows (every cell holding CR or LF quoted, as RFC 4180
asks and Python 3.13 does) ended by "\n", and of
json.dumps(..., indent=2) of the document: the tests keep both as
oracles, csv.writer rows and a JSON document read from the record
fields, which share no layout code with the writer.

A writer takes a SweepResult or a SweepStream and writes each of its
batches in one call as it arrives, CSV sections each to their own file,
JSON and single-stream CSV with every section after the first spooled
to a temporary file.  Of a batch once written it keeps only what the
conjugate-pair replay needs (see harness): the texts of the current
compression level's base rows, which each _Patched batch of that level
is spliced from, and what a _Held batch lends it, the batch's text in
CSV or its columns in JSON, after which it empties the lent list, so a
waiting first member is held once, not also as records.  The _Relabeled
batch of that list is written from what was kept, and that is dropped.
A file writer that fails removes the files it opened.
"""

from __future__ import annotations

import io
import json
import shutil
import tempfile
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from functools import cache, lru_cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple, get_type_hints

from .harness import SWEEPS, Rational, SweepResult, SweepStream, _Held, _Patched, _Relabeled

# field name -> JSON key and CSV column; None leaves the CSV column out
JSON_NAMES = {"lam": "lambda"}
CSV_NAMES = {**JSON_NAMES, "implied_constant": "implied_c", "exponent": None}


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
    """Everything the emitter needs about one record type in one format.

    A batch's text is its rows' texts joined by sep, then end.
    """

    header: str  # the CSV header line; empty in JSON
    # a row's text from its cell texts: a CSV row's cells joined by ",", a JSON record filled from a template
    row: Callable[[tuple[str, ...]], str]
    sep: str  # between two rows of a batch
    end: str  # after a batch's last row
    lead: str  # a row's text before its first cell
    fields: tuple[int, ...]  # the written fields' positions in the record, in order
    roles: tuple[str, ...]  # per written field: "rational", "text", "flag", "int", or "" as it is


@lru_cache(maxsize=8)  # three record types in two formats
def _layout(kind: type, fmt: str) -> _Layout:
    """The layout of a record type in fmt, from one walk over its fields; a ValueError for another fmt."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}: expected {' or '.join(_FORMATS)}")
    as_json = fmt == "json"
    names = JSON_NAMES if as_json else CSV_NAMES
    hints = get_type_hints(kind)
    # an int is joined into a CSV row as its str, and left as it is to a JSON template's %s
    int_role = "" if as_json else "int"
    columns, keys, fields, roles = [], [], [], []
    for index, name in enumerate(kind._fields):
        hint, key = hints[name], names.get(name, name)
        if key is None:
            continue
        fields.append(index)
        keys.append(key)
        if hint is Rational:
            columns += [f"{key}_num", f"{key}_den"]
            roles.append("rational")
        else:
            columns.append(key)
            roles.append("flag" if hint in (bool, bool | None) else "text" if hint is str else int_role)
    if not as_json:
        return _Layout(",".join(columns) + "\n", ",".join, "\n", "\n", "", tuple(fields), tuple(roles))
    slots = [f"{json.dumps(key)}: %s" for key in keys]
    fill = (_RECORD_OPEN + _RECORD_SEP.join(slots) + _RECORD_CLOSE).__mod__
    return _Layout("", fill, ",\n", "", f"{_RECORD_OPEN}{json.dumps(keys[0])}: ", tuple(fields), tuple(roles))


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
    through its word, a CSV int through str), and the layout turns each
    row into its text: a CSV row is its cells joined by ",", a JSON
    record is the type's template filled with them.
    Records share Rationals (compression's pl and bound per mu, a bound
    sweep's rhs per key), so each distinct Rational is formatted once,
    into a memo local to this call.  The memo is emptied before a batch
    once it holds more than _MEMO_CAP texts, so it never holds more than
    _MEMO_CAP plus one batch's Rational cells.

    A compression batch is a _Patched one, whose lam is its records'
    first field: the rows of its level's base are filled once per level,
    with an empty lam, and each is cut after lam's cell.  Each batch is
    then a copy of those texts, with its patch rows, filled the same way
    and cut, in their places, joined with lam's cell before each row; no
    record of it is built.

    A _Held batch lends its list.  The writer keeps what the _Relabeled
    batch of that list needs and empties the list: in CSV the batch's text
    and the length of the cells each row begins with, if each row is one
    line (no cell holds a line break), in JSON the columns it filled the
    batch from.  Text with more line breaks than records is not kept, and
    the list is left as it is.  The _Relabeled batch is written from what
    was kept, by _relabeled or from the relabeled columns, or else (its
    first member came as a plain pair, or its text was not kept) from its
    columns; no record of it is built.  A _Held batch that comes up empty,
    or a _Relabeled one whose first member was emptied and nothing kept,
    was emptied by an earlier write of the same batches: it is refused
    with a RuntimeError rather than written short.
    """
    _, row, sep, end, lead, fields, roles = _layout(kind, fmt)
    quote, words, slot = _FORMATS[fmt]
    memo = _Memo(slot)
    label = cache(quote)  # a label recurs on every record of its shape
    to_text = {"rational": memo.__getitem__, "text": label, "flag": words.__getitem__, "int": str}
    as_json = fmt == "json"
    first, between = ("[\n", ",\n") if as_json else ("", "")
    counts = dict.fromkeys(writes, 0)
    lam_at = kind._fields.index("lam")
    # the written CSV fields before lam, whose cells begin a row, each with its text (JSON holds no row text)
    before = [(i, to_text[role]) for i, role in zip(fields, roles) if i < lam_at and not as_json]
    # what each emptied _Held list lent, by its id, kept with the list so the id stays its own
    held: dict[int, tuple[list, tuple]] = {}
    level, tails = None, []  # the level of the last _Patched batch, and its base rows' texts after lam's cell

    def texts(columns: tuple) -> Iterator[str]:
        """Each row's text, from the records' fields as columns."""
        cells = [map(to_text[role], columns[i]) if role else columns[i] for i, role in zip(fields, roles)]
        return map(row, zip(*cells))

    for batch in batches:
        section, records = batch
        if len(memo) > _MEMO_CAP:
            memo.clear()
        if type(records) is _Patched:
            if records.kind is not kind:
                raise TypeError(f"a {records.kind.__name__} in a table of {kind.__name__}")
            if records.level is not level:
                level, base = records.level, records.level.base
                cut = len(lead) + len(label(""))
                tails = [text[cut:] for text in texts((("",) * len(base), *zip(*base)))]
            head = lead + label(records.lam)
            rows = tails.copy()
            for j, text in zip(records.at, texts(tuple(zip(*records.patches)))):
                rows[j] = text[len(head) :]
            writes[section]((between if counts[section] else first) + head + (sep + head).join(rows) + end)
            counts[section] += records.size
            continue
        if not records and not isinstance(batch, _Held):  # a _Held list is empty only once a writer emptied it
            continue
        relabeled = type(records) is _Relabeled
        _, kept = held.pop(id(records.first), (None, None)) if relabeled else (None, None)
        if kept is None:
            # a _Relabeled batch's records are its first member's, moved and relabeled
            checked = records.first if relabeled else records
            if set(map(type, checked)) != {kind}:
                if not checked:  # a _Held list, or a _Relabeled batch's first member, an earlier write emptied
                    raise RuntimeError("a held batch written again after a writer emptied its records")
                stray = next(rec for rec in checked if type(rec) is not kind)
                raise TypeError(f"a {type(stray).__name__} in a table of {kind.__name__}")
        if kept is not None and not as_json:
            text = _relabeled(*kept, records, label)
        else:
            columns = records.relabel(kept) if kept else records.columns() if relabeled else tuple(zip(*records))
            text = sep.join(texts(columns)) + end
        writes[section]((between if counts[section] else first) + text)
        counts[section] += len(records)
        if isinstance(batch, _Held):  # JSON keeps the columns, CSV the text if each row is one line
            if as_json:
                kept = columns
            elif text.count("\n") == len(records):
                rec = records[0]  # every row leads with its cells up to lam's, each ended by ","
                prefix = sum([len(cell(rec[i])) + 1 for i, cell in before])
                kept = text, prefix, prefix + len(label(rec[lam_at])) + 1
            if kept is not None:
                held[id(records)] = records, kept
                records.clear()
    return counts


def _relabeled(text: str, prefix: int, lead: int, records: _Relabeled, label: Callable[[str], str]) -> str:
    """records' CSV rows, from text, its first member's, one line per row, each led by text[:lead].

    text[:lead] is the first member's cells up to lam's, each ended by
    ",", and text[:prefix] those before lam's.  Each row's lead becomes
    text[:prefix] and records' own lam cell.  With a flip, row j is then
    the first member's row flip[j], with its own mu cell, olds[flip[j]],
    replaced by mus[j].  A label and its conjugate's differ in length and
    in quoting ([3] against "[1,1,1]"), so each row is cut after the
    length of its own cell.
    """
    head = text[:prefix] + label(records.lam) + ","
    if records.flip is None:
        return head + text[lead:].replace("\n" + text[:lead], "\n" + head)
    rows = text[lead:-1].split("\n" + text[:lead])
    tails = [row[cut:] for row, cut in zip(rows, map(len, map(label, records.olds)), strict=True)]
    return head + ("\n" + head).join([mu + tails[i] for mu, i in zip(map(label, records.mus), records.flip)]) + "\n"


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
                opened.append(path)  # before the open, which may create the file and then be interrupted
                try:
                    streams.append(stack.enter_context(open(path, "w", newline=newline)))
                except OSError:
                    opened.pop()  # the open failed, so the file, if any, is not ours
                    raise
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
    A format other than csv or json is refused before anything is written.
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
