"""The test-only oracles of the writer and the max-constant fold.

record_json and result_json build the JSON document from the record
fields themselves and share no layout code with the emitter's
templates, so json.dumps(result_json(result), indent=2) checks the JSON
the program writes.  write_csv writes one table of records through the
emitter, for the tests that read it back with csv.  _max_record and
_max_constant fold a whole list at once, where a sweep folds batch by
batch.
"""

from functools import reduce

from hookchar.harness import SWEEPS, BoundRecord, SweepResult, _max_entry, _max_step
from hookchar.output import JSON_NAMES, _fill, _jsonable, _layout

_RECORDS = frozenset(sweep.record for sweep in SWEEPS.values())


def record_json(rec) -> dict:
    """A record as a JSON object, read from its own fields."""
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


def _max_record(records) -> BoundRecord | None:
    """The first record with the largest implied_constant**(1/exponent); None if every ratio is zero."""
    best = reduce(_max_step, records, None)
    return None if best is None else best[0]


def _max_constant(records) -> dict:
    """The summary entry of _max_record."""
    return _max_entry(_max_record(records))
