"""CSV and JSON serialization: exact rationals, headers, schema."""

import builtins
import csv
import io
import json
from collections.abc import Callable
from fractions import Fraction

import jsonschema
import pytest

from hookchar import (
    harness,
    output,
    sweep_compression,
    sweep_excited_bounds,
    sweep_sharpness,
    sweep_thm_main,
    verify_orthogonality,
)
from hookchar.harness import Rational
from hookchar.output import (
    frac_json,
    render_result,
    schema_path,
    summary_lines,
    write_result_csv,
    write_result_json,
)
from hookchar.partitions import young_lattice
from oracles import record_json, result_json, write_csv
from test_golden import EMPTY_SECTIONS

BOUND_HEADER = (
    "n,lambda,alpha_or_mu,lhs_num,lhs_den,rhs_num,rhs_den,"
    "implied_c_num,implied_c_den,satisfied"
)
COMPRESSION_HEADER = (
    "lambda,mu,k,p_num,p_den,pl_num,pl_den,a_num,a_den,"
    "bound_num,bound_den,contained,satisfied"
)
SHARPNESS_HEADER = (
    "s_tilde,h,k,case,lambda,mu,ratio_num,ratio_den,rhs_num,rhs_den,satisfied"
)


def _load_schema():
    with open(schema_path()) as stream:
        return json.load(stream)


def test_bound_csv_columns_and_roundtrip():
    result = verify_orthogonality(4)
    buffer = io.StringIO()
    write_csv(result.records, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == BOUND_HEADER
    assert len(lines) == 1 + len(result.records)
    rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
    for row, rec in zip(rows, result.records):
        assert Fraction(int(row["lhs_num"]), int(row["lhs_den"])) == Fraction(*rec.lhs)
        assert Fraction(int(row["rhs_num"]), int(row["rhs_den"])) == Fraction(*rec.rhs)
        assert row["satisfied"] == ("true" if rec.satisfied else "false")
        assert row["lambda"] == rec.lam


def test_compression_csv_columns():
    result = sweep_compression(4)
    buffer = io.StringIO()
    write_csv(result.records, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == COMPRESSION_HEADER
    rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
    assert {row["contained"] for row in rows} <= {"true", "false"}


def test_sharpness_csv_blank_for_unasserted():
    result = sweep_sharpness(8)
    buffer = io.StringIO()
    write_csv(result.sections["case2"], buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == SHARPNESS_HEADER
    rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
    assert all(row["satisfied"] == "" for row in rows)


def test_mixed_record_types_rejected():
    """A stray record first, in the middle or last of a batch stops the write before that batch.

    Every batch before it is written in full, by one call each.
    """
    bounds = verify_orthogonality(3).records
    comp = sweep_compression(2).records[0]
    with pytest.raises(TypeError):
        write_csv([bounds[0], comp], io.StringIO())
    before = [("records", bounds[:2]), ("records", bounds[2:3])]
    for fmt in ("csv", "json"):
        expected = []
        output._fill(before, harness.BoundRecord, fmt, {"records": expected.append})
        for at in (0, 1, 2):
            stray = bounds[3:5]
            stray.insert(at, comp)
            batches = before + [("records", stray), ("records", bounds[5:])]
            written = []
            with pytest.raises(TypeError, match="a CompressionRecord in a table of BoundRecord"):
                output._fill(batches, harness.BoundRecord, fmt, {"records": written.append})
            assert len(written) == 2 and written == expected, (fmt, at)


def test_empty_section_header_follows_sibling_sections(tmp_path):
    result = sweep_excited_bounds(1)
    assert result.sections["rows_edge"] == []
    paths = write_result_csv(result, tmp_path / "eb.csv")
    assert sorted(p.name for p in paths) == [
        "eb.csv",
        "eb_general.csv",
        "eb_rows_edge.csv",
        "eb_skew_sum.csv",
    ]
    edge_text = (tmp_path / "eb_rows_edge.csv").read_text()
    assert edge_text.strip() == BOUND_HEADER


def test_result_csv_files_roundtrip(tmp_path):
    result = sweep_sharpness(8)
    paths = write_result_csv(result, tmp_path / "sharp.csv")
    assert [p.name for p in paths] == ["sharp.csv", "sharp_case2.csv"]
    with open(tmp_path / "sharp.csv") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == len(result.records)
    assert all(row["case"] == "1" for row in rows)


def _patch_open(monkeypatch, at: int, fail) -> None:
    """Make output's open number `at` (0-based) call fail(path); the other opens are the builtin's."""
    calls = []

    def patched(path, *args, **kwargs):
        calls.append(path)
        if len(calls) == at + 1:
            fail(path)
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(output, "open", patched, raising=False)


def _write(fmt: str, tmp_path):
    """Write excited-bounds n=3, four sections, as four CSV files or one JSON file."""
    writer = write_result_csv if fmt == "csv" else write_result_json
    return writer(sweep_excited_bounds(3), tmp_path / f"eb.{fmt}")


# The files _write opens, in order of opening
OPENED = {"csv": ["eb.csv", "eb_rows_edge.csv", "eb_general.csv", "eb_skew_sum.csv"], "json": ["eb.json"]}
# (format, which open fails): three of the four CSV sections, and the one JSON file
OPEN_CASES = [("csv", 0), ("csv", 1), ("csv", 3), ("json", 0)]


def test_opened_lists_the_files_written(tmp_path):
    for fmt, names in OPENED.items():
        assert [path.name for path in _write(fmt, tmp_path)] == names


@pytest.mark.parametrize("fmt,at", OPEN_CASES)
def test_an_interrupt_inside_an_open_that_created_the_file_leaves_no_file(fmt, at, tmp_path, monkeypatch):
    def created_then_interrupted(path):
        builtins.open(path, "w").close()
        raise KeyboardInterrupt

    _patch_open(monkeypatch, at, created_then_interrupted)
    with pytest.raises(KeyboardInterrupt):
        _write(fmt, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt,at", OPEN_CASES)
def test_a_refused_open_keeps_the_file_and_removes_the_sections_opened_before(fmt, at, tmp_path, monkeypatch):
    def refused(path):
        raise PermissionError(13, "Permission denied", str(path))

    existing = tmp_path / OPENED[fmt][at]
    existing.write_bytes(b"not ours\n")
    _patch_open(monkeypatch, at, refused)
    with pytest.raises(PermissionError):
        _write(fmt, tmp_path)
    assert list(tmp_path.iterdir()) == [existing]
    assert existing.read_bytes() == b"not ours\n"


def test_frac_json_is_decimal_strings():
    assert frac_json(Fraction(-41, 9724)) == {"num": "-41", "den": "9724"}


def test_record_json_shapes():
    bound = record_json(verify_orthogonality(2).records[0])
    assert set(bound) == {
        "n", "lambda", "alpha_or_mu", "lhs", "rhs",
        "implied_constant", "exponent", "satisfied",
    }
    comp = record_json(sweep_compression(2).records[0])
    assert set(comp) == {
        "lambda", "mu", "k", "p", "pl", "a", "bound", "contained", "satisfied",
    }
    sharp = record_json(sweep_sharpness(4).records[0])
    assert set(sharp) == {
        "s_tilde", "h", "k", "case", "lambda", "mu", "ratio", "rhs", "satisfied",
    }
    with pytest.raises(TypeError):
        record_json("not a record")


@pytest.mark.parametrize(
    "result_factory",
    [
        lambda: verify_orthogonality(3),
        lambda: sweep_excited_bounds(4),
        lambda: sweep_compression(3),
        lambda: sweep_sharpness(6),
    ],
)
def test_result_json_validates_against_schema(result_factory):
    document = result_json(result_factory())
    jsonschema.validate(document, _load_schema())


def test_write_result_json(tmp_path):
    result = verify_orthogonality(3)
    paths = write_result_json(result, tmp_path / "orth.json")
    assert [p.name for p in paths] == ["orth.json"]
    with open(tmp_path / "orth.json") as stream:
        document = json.load(stream)
    jsonschema.validate(document, _load_schema())
    assert document["command"] == "orthogonality"
    assert len(document["sections"]["records"]) == 9


# (sweep, n): every sweep at small sizes, and each sweep of an EMPTY_SECTIONS pin
JSON_CASES = sorted(
    {(name, n) for name in harness.SWEEPS for n in (1, 2, 3, 5, 6)}
    | {(name, n) for name, n, *_ in EMPTY_SECTIONS}
)


@pytest.mark.parametrize("name,n", JSON_CASES)
def test_json_emitter_matches_json_dumps(name, n, tmp_path):
    result = getattr(harness, harness.SWEEPS[name].function)(n)
    expected = json.dumps(result_json(result), indent=2)
    assert render_result(result, "json") == expected
    write_result_json(result, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_text() == expected + "\n"


def test_json_emitter_handles_unusual_sections_and_text():
    records = verify_orthogonality(2).records
    odd = harness.BoundRecord(2, 'λ"\\', "é\n", Fraction(-3, 7), Fraction(1), Fraction(0), 1, False)
    cases = [
        harness.SweepResult("orthogonality", 2, {}, {}),
        harness.SweepResult("orthogonality", 2, {"records": [], "extra": []}, {"nested": {"a": []}}),
        harness.SweepResult("orthogonality", 2, {"records": records + [odd]}, {"x": Fraction(1, 3)}),
    ]
    for result in cases:
        assert render_result(result, "json") == json.dumps(result_json(result), indent=2)


CSV_HEADERS = {
    harness.BoundRecord: BOUND_HEADER,
    harness.CompressionRecord: COMPRESSION_HEADER,
    harness.SharpnessRecord: SHARPNESS_HEADER,
}


def _csv_row(row) -> str:
    """One row as csv.writer writes it with CR LF line ends, the terminator cut to LF.

    A cell holding a character of the terminator is quoted, so with CR LF
    every Python from 3.10 on quotes a cell holding CR or LF, as RFC 4180 asks.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(row)
    text = buffer.getvalue()
    assert text.endswith("\r\n")
    return text[:-2] + "\n"


def _csv_oracle(records, kind) -> str:
    """A table as csv.writer writes it, with rows built here from the record fields."""
    lines = [_csv_row(CSV_HEADERS[kind].split(","))]
    for rec in records:
        row = []
        for name, value in rec._asdict().items():
            if name == "exponent":
                continue
            if isinstance(value, (harness.Rational, Fraction)):
                row += [value.numerator, value.denominator]
            elif isinstance(value, bool):
                row.append("true" if value else "false")
            else:
                row.append(value)  # None is written as an empty cell
        lines.append(_csv_row(row))
    return "".join(lines)


def _render_csv_oracle(result) -> str:
    kind = harness.SWEEPS[result.command].record
    return "\n".join(
        ("" if name == "records" else f"# section: {name}\n") + _csv_oracle(records, kind)
        for name, records in result.sections.items()
    )


@pytest.mark.parametrize("name,n", JSON_CASES)
def test_csv_emitter_matches_csv_writer(name, n):
    result = getattr(harness, harness.SWEEPS[name].function)(n)
    kind = harness.SWEEPS[name].record
    for records in result.sections.values():
        buffer = io.StringIO()
        write_csv(records, buffer, kind)
        assert buffer.getvalue() == _csv_oracle(records, kind)
    assert render_result(result, "csv") == _render_csv_oracle(result)


def test_csv_emitter_quotes_unusual_text():
    texts = [",", '"', "\n", "\r", "", " lead", "λé", 'a,"b"\nc\r', "plain"]
    bound = [
        harness.BoundRecord(2, lam, other, Rational(-3, 7), Rational(1, 1), Rational(0, 1), 1, False)
        for lam in texts
        for other in texts
    ]
    sharp = [
        harness.SharpnessRecord(1, 2, 3, 2, lam, "é,\n", Rational(1, 2), Rational(5, 1), None)
        for lam in texts
    ]
    compression = [
        harness.CompressionRecord(
            lam, mu, 3, Rational(1, 3), Rational(2, 3), Rational(1, 2), Rational(7, 1), True, lam < mu
        )
        for lam in texts
        for mu in texts[::-1]
    ]
    # n is a CSV column and exponent is not; both are written into JSON
    huge = [
        harness.BoundRecord(n, "[2]", "(1,1)", Rational(1, 2), Rational(1, 1), Rational(1, 2), exponent, True)
        for n, exponent in ((-1, -5), (2**64 + 1, -(2**70)), (-(2**65), 2**64), (0, 3))
    ]
    tables = [
        ("orthogonality", bound),
        ("sharpness", sharp),
        ("compression", compression),
        ("orthogonality", huge),
        ("compression", compression[-1:]),
    ]
    for command, records in tables:
        kind = harness.SWEEPS[command].record
        buffer = io.StringIO()
        write_csv(records, buffer, kind)
        assert buffer.getvalue() == _csv_oracle(records, kind)
        result = harness.SweepResult(command, 2, {"records": records}, {})
        assert render_result(result, "csv") == _render_csv_oracle(result)
        assert render_result(result, "json") == json.dumps(result_json(result), indent=2)
    result = harness.SweepResult("sharpness", 2, {"records": sharp, "case2": sharp[:2]}, {})
    assert render_result(result, "csv") == _render_csv_oracle(result)
    result = harness.SweepResult("orthogonality", 2, {"records": bound, "extra": []}, {})
    assert render_result(result, "csv") == _render_csv_oracle(result)


@pytest.mark.parametrize("fmt", ["xml", "CSV", ""])
def test_an_unknown_format_is_refused_before_anything_is_written(fmt):
    result = verify_orthogonality(3)
    layouts = output._layout.cache_info().currsize
    stream = io.StringIO()
    message = rf"^unknown format '{fmt}': expected csv or json$"
    with pytest.raises(ValueError, match=message):
        output.write_result(result, fmt, stream)
    assert stream.getvalue() == ""
    with pytest.raises(ValueError, match=message):
        render_result(result, fmt)
    assert output._layout.cache_info().currsize == layouts


@pytest.mark.parametrize("name,n", JSON_CASES)
def test_writers_match_the_oracles_when_the_memo_is_emptied_mid_stream(name, n, monkeypatch):
    """A memo emptied before most batches of a stream changes no byte."""
    monkeypatch.setattr(output, "_MEMO_CAP", 2)
    sweep = harness.SWEEPS[name]
    result = getattr(harness, sweep.function)(n)
    stream = getattr(harness, sweep.stream)
    assert render_result(stream(n), "csv") == _render_csv_oracle(result)
    assert render_result(stream(n), "json") == json.dumps(result_json(result), indent=2)


def test_the_memo_writes_each_rational_from_its_own_fields(monkeypatch):
    """Equal Rationals, a Fraction beside its Rational twin, and a Rational repeated across batches."""
    monkeypatch.setattr(output, "_MEMO_CAP", 2)
    big = 10**40 + 1
    twin, other = Rational(-big, 3), Rational(-big, 3)
    assert twin == other and twin is not other
    shared = Rational(5, 7)
    lhs = [twin, other, Fraction(5, 7), shared, Fraction(-big, 3), Rational(big, big + 2), shared]
    records = [
        harness.BoundRecord(2, f"[{i}]", "(1)", value, shared, Rational(i, 1), 1, i % 2 == 0)
        for i, value in enumerate(lhs)
    ]
    sections = {"records": records[:3], "extra": records[3:5], "more": records[5:] + records[:2]}
    result = harness.SweepResult("orthogonality", 2, sections, {})
    assert render_result(result, "csv") == _render_csv_oracle(result)
    assert render_result(result, "json") == json.dumps(result_json(result), indent=2)
    batches = [("records", [rec]) for rec in records + records[::-1]]
    for fmt in ("csv", "json"):
        written = []
        output._fill(batches, harness.BoundRecord, fmt, {"records": written.append})
        text = "".join(written)
        if fmt == "csv":
            assert text == _csv_oracle(records + records[::-1], harness.BoundRecord).split("\n", 1)[1]
        else:
            document = json.loads(text + "\n]")
            assert document == [record_json(rec) for rec in records + records[::-1]]


@pytest.mark.parametrize("name,n,cap", [("compression", 6, 2), ("thm-main", 8, 64), ("compression", 11, None)])
def test_the_memo_holds_at_most_its_cap_and_one_batch(name, n, cap, monkeypatch):
    """Each insert leaves the memo at most _MEMO_CAP plus the Rational cells of the batch being filled."""
    if cap is not None:
        monkeypatch.setattr(output, "_MEMO_CAP", cap)
    cap = output._MEMO_CAP
    sizes, cells = [], [0]
    missing = output._Memo.__missing__

    def recording(memo, value):
        text = missing(memo, value)
        sizes.append((len(memo), cells[0]))
        return text

    def counted(batches):
        for section, records in batches:
            cells[0] = sum(type(value) is Rational for rec in records for value in rec)
            yield section, records

    monkeypatch.setattr(output._Memo, "__missing__", recording)
    sweep = harness.SWEEPS[name]
    for fmt in ("csv", "json"):
        sizes.clear()
        stream = getattr(harness, sweep.stream)(n, n)
        output._fill(counted(stream.batches()), sweep.record, fmt, dict.fromkeys(stream.sections, len))
        assert all(size <= cap + batch for size, batch in sizes)
        assert max(size for size, _ in sizes) > cap  # within a batch it outgrows the cap
        assert any(b < a for (a, _), (b, _) in zip(sizes, sizes[1:]))  # and the memo was emptied


def _written(batches, fmt: str, kind: type = harness.CompressionRecord) -> list[str]:
    """The text of each writes call _fill makes for these batches of kind, in turn, whatever their section."""
    texts: list[str] = []
    output._fill(batches, kind, fmt, dict.fromkeys(harness._excited_bounds(0).sections, texts.append))
    return texts


def _replay_predicate(n: int) -> Callable[[tuple], bool]:
    """Whether a batch of a sweep of n replays an earlier batch's records.

    A replay is a _Relabeled batch, or a compression batch of the member
    of a conjugate pair that comes later in rank order.
    """
    lattice = young_lattice(n)
    rank, conjugate, node = lattice.rank, lattice.conjugate, {text: i for i, text in enumerate(lattice.text)}

    def is_replay(batch: tuple) -> bool:
        records = batch[1]
        if type(records) is harness._Patched:
            return rank[conjugate[node[records.lam]]] < rank[node[records.lam]]
        return type(records) is harness._Relabeled

    return is_replay


def _replaying_stream(name: str, n: int, balanced):
    options = {} if balanced is None else {"balanced": balanced}
    return getattr(harness, harness.SWEEPS[name].stream)(n, n, **options)


# --balanced 1 keeps no shape of 2 to 11, so --balanced 2 is the one that replays
_REPLAYING = [
    ("compression", None), ("thm-main", None), ("thm-main", Fraction(1)), ("thm-main", Fraction(2)),
    ("thm-diag", None), ("skew-bound", None), ("excited-bounds", None),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name,balanced", _REPLAYING)
def test_each_replayed_batch_is_written_as_its_built_records(name, balanced, fmt, monkeypatch):
    """A replayed batch, from its first member's held CSV text or JSON columns, is _fill of its records.

    The writer empties each _Held list it is lent, so the batches it is
    checked against come from a second stream of the same sweep, drained
    and not written.  Those batches re-yielded as plain pairs lend nothing,
    and as plain lists are the records route itself: both write the same
    bytes.
    """
    kind = harness.SWEEPS[name].record
    relabeled, relabel = [], output._relabeled

    def counted(*args):
        relabeled.append(args[-2])
        return relabel(*args)

    monkeypatch.setattr(output, "_relabeled", counted)
    replayed = 0
    for n in range(12):
        batches = list(_replaying_stream(name, n, balanced).batches())
        texts = _written(_replaying_stream(name, n, balanced).batches(), fmt, kind)
        nonempty = [batch for batch in batches if batch[1]]
        assert len(texts) == len(nonempty), n
        is_replay = _replay_predicate(n)
        replays = [(text, batch[1]) for text, batch in zip(texts, nonempty) if is_replay(batch)]
        # compression's replays are spliced from their level's base, like its other batches
        assert len(relabeled) == (len(replays) if fmt == "csv" and name != "compression" else 0), n
        assert balanced or n < 2 or replays
        replayed += len(replays)
        for text, records in replays:  # never the first batch, so its text follows a separator
            (alone,) = _written([("records", list(records))], fmt, kind)
            assert text.removeprefix(",\n") == alone.removeprefix("[\n"), (n, records[0])
        relabeled.clear()
        assert _written(((section, records) for section, records in batches), fmt, kind) == texts, n
        assert _written(((section, list(records)) for section, records in batches), fmt, kind) == texts, n
        assert not relabeled
    assert replayed or balanced == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ["thm-main", "thm-diag", "skew-bound"])
def test_batches_written_twice_are_refused_once_their_held_lists_are_emptied(name, fmt):
    """The first write empties each _Held list it is lent: writing the same batches again raises at the first one.

    Nothing of that batch or after it is written, so no replay is written short.
    """
    kind = harness.SWEEPS[name].record
    batches = list(_replaying_stream(name, 4, None).batches())
    written = _written(batches, fmt, kind)
    replays = [batch for batch in batches if type(batch[1]) is harness._Relabeled]
    assert not any(batch.records for batch in batches if isinstance(batch, harness._Held)) and replays
    at = next(i for i, batch in enumerate(batches) if isinstance(batch, harness._Held))
    for again, before in ((batches, sum(1 for _, records in batches[:at] if records)), (replays, 0)):
        texts: list[str] = []
        with pytest.raises(RuntimeError, match="^a held batch written again after a writer emptied its records$"):
            output._fill(again, kind, fmt, {"records": texts.append})
        assert texts == written[:before]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_compression_batches_lend_nothing_so_a_second_write_is_the_same(fmt):
    """A compression batch is its level's base and its own patches, which a write leaves as they are."""
    batches = list(harness._compression(5, 5).batches())
    # a conjugate's batch is a plain pair too
    assert all(type(batch) is tuple and type(batch[1]) is harness._Patched for batch in batches)
    assert any(map(_replay_predicate(5), batches))
    assert _written(batches, fmt) == _written(batches, fmt)
    with pytest.raises(TypeError, match="^a CompressionRecord in a table of BoundRecord$"):
        output._fill(batches, harness.BoundRecord, fmt, {"records": len})


def _spliced_batches(n: int) -> list:
    """The batches of the compression stream of n, then [3]'s replayed batch at level 2 between two of [1,1,1]'s."""
    batches = list(harness._compression(n, n).batches())
    if n >= 3:
        level2 = {batch[1].lam: batch for batch in batches if batch[1].level.k == 2}
        is_replay = _replay_predicate(n)
        assert is_replay(level2["[3]"]) and not is_replay(level2["[1,1,1]"])
        batches += [level2["[1,1,1]"], level2["[3]"], level2["[1,1,1]"]]
    return batches


@pytest.mark.parametrize("cap", [None, 2])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_compression_batch_is_spliced_as_its_built_records(fmt, cap, monkeypatch):
    """Every batch of every compression n <= 11, written from its level's base and its patches, is _fill of its records.

    A label that needs quoting sits next to one that does not ("[1,1,1]"
    against [3]), in both orders, each spliced from the same level's base;
    with a memo of 2 texts the memo is emptied before nearly every batch.
    """
    if cap is not None:
        monkeypatch.setattr(output, "_MEMO_CAP", cap)
    builds, build = [], harness._Patched.build
    monkeypatch.setattr(harness._Patched, "build", lambda self: builds.append(self) or build(self))
    for n in range(12):
        batches = _spliced_batches(n)
        texts = _written(batches, fmt)
        assert len(texts) == len(batches) and not builds, n
        for text, (_, records) in zip(texts, batches):
            (alone,) = _written([("records", list(records))], fmt)
            # a JSON batch begins with "[\n" when first in its section, and with ",\n" after it
            body = text.removeprefix(",\n").removeprefix("[\n")
            assert body == alone.removeprefix("[\n"), (n, records.lam, records.level.k)
        builds.clear()
    # at level 2 [1,1,1] holds [1,1] and not [2], and [3] the other way round
    assert "".join(_written(_spliced_batches(3)[-3:-1], "csv")) == (
        '"[1,1,1]","[1,1]",2,1,1,1,2,2,1,7392961,250000,true,true\n'
        '"[1,1,1]",[2],2,0,1,1,2,0,1,7392961,250000,false,true\n'
        '[3],"[1,1]",2,0,1,1,2,0,1,7392961,250000,false,true\n'
        "[3],[2],2,1,1,1,2,2,1,7392961,250000,true,true\n"
    )


def _compression_record(lam: str, mu: str, num: int) -> harness.CompressionRecord:
    return harness.CompressionRecord(
        lam, mu, 1, Rational(num, 7), Rational(1, 2), Rational(2 * num, 7), Rational(3, 1), True, num < 5
    )


def test_a_relabeled_batch_builds_its_records_once_when_read(monkeypatch):
    first = [_compression_record("[2]", mu, num) for mu, num in (("[1,1]", 1), ("[2]", 6))]
    expected = [_compression_record("[1,1]", "[1,1]", 6), _compression_record("[1,1]", "[2]", 1)]
    builds, build = [], harness._Relabeled.build
    monkeypatch.setattr(harness._Relabeled, "build", lambda self: builds.append(self) or build(self))
    replay = harness._Relabeled(first, [1, 0], "[1,1]", ["[1,1]", "[2]"], ["[1,1]", "[2]"])
    assert len(replay) == 2 and replay
    assert replay.columns() == tuple(zip(*expected))
    with pytest.raises(TypeError, match="^a CompressionRecord in a table of BoundRecord$"):
        output._fill([("records", replay)], harness.BoundRecord, "csv", {"records": len})
    assert not builds
    assert list(replay) == expected and replay[1] == expected[1] and replay[::-1] == expected[::-1]
    assert [rec for rec in replay] == expected
    assert builds == [replay]


@pytest.mark.parametrize("flipped", [True, False])
@pytest.mark.parametrize("others,kept", [(["m", "y\nx,z"], False), (["m", "y,z"], True)])
def test_held_text_is_kept_only_when_each_row_is_one_line(flipped, others, kept, monkeypatch):
    """Held CSV text with more line breaks than records is not kept: the list stays, and the columns are written.

    A flipped replay of compression records and an unflipped one of bound
    records, with a label in the cell after lam's that holds a line break
    or a quoted comma; either way the bytes are csv.writer's.
    """
    if flipped:
        kind, header = harness.CompressionRecord, COMPRESSION_HEADER
        first = [_compression_record("x", mu, num) for mu, num in zip(others, (1, 2))]
        replay = harness._Relabeled(first, [1, 0], "w", others, others)
    else:
        kind, header = harness.BoundRecord, BOUND_HEADER
        first = [
            harness.BoundRecord(5, "x", other, Rational(num, 3), Rational(1, 1), Rational(num, 3), 2, num <= 3)
            for other, num in zip(others, (2, 4))
        ]
        replay = harness._Relabeled(first, None, "y", None, None)
    oracle = _csv_oracle(first + list(replay), kind)
    relabeled, relabel = [], output._relabeled
    monkeypatch.setattr(output, "_relabeled", lambda *args: relabeled.append(args[-2]) or relabel(*args))
    texts = _written([harness._Held("records", first), ("records", replay)], "csv", kind)
    assert (not first) == kept and relabeled == [replay] * kept
    assert "".join(texts) == oracle[len(header) + 1 :]


def test_a_relabel_cuts_each_held_row_after_the_first_members_own_mu_cell(monkeypatch):
    """A conjugate's mu' cell and its first member's mu cell differ in length and in quoting: [3] against "[1,1,1]".

    Each held row is cut after the first member's own cell, and the
    replay, reordered by its flip, is the CSV of its records.
    """
    def made(lam: str, mu: str, num: int) -> harness.BoundRecord:
        return harness.BoundRecord(3, lam, mu, Rational(num, 4), Rational(1, 1), Rational(num, 4), 2, num <= 4)

    first = [made("[3]", mu, num) for mu, num in (("[1]", 1), ("[2]", 2), ("[3]", 5))]
    replay = harness._Relabeled(first, [2, 0, 1], "[1,1,1]", ["[1,1,1]", "[1]", "[1,1]"], ["[1]", "[2]", "[3]"])
    expected = [made("[1,1,1]", mu, num) for mu, num in (("[1,1,1]", 5), ("[1]", 1), ("[1,1]", 2))]
    assert list(replay) == expected
    oracle = _csv_oracle(first + expected, harness.BoundRecord)
    relabeled, relabel = [], output._relabeled
    monkeypatch.setattr(output, "_relabeled", lambda *args: relabeled.append(args[-2]) or relabel(*args))
    texts = _written(
        [harness._Held("records", first), ("records", replay)], "csv", harness.BoundRecord
    )
    assert not first and relabeled == [replay]
    assert '"[1,1,1]",5,4,1,1,5,4,false' in texts[1]
    assert "".join(texts) == oracle[len(BOUND_HEADER) + 1 :]


def test_render_result_marks_extra_sections():
    result = sweep_excited_bounds(3)
    text = render_result(result, "csv")
    assert text.startswith(BOUND_HEADER)
    assert "# section: general" in text
    assert "# section: skew_sum" in text
    parsed = json.loads(render_result(result, "json"))
    assert parsed["command"] == "excited-bounds"


def test_summary_lines_format():
    lines = summary_lines(verify_orthogonality(3))
    assert lines[0] == "orthogonality: n=3"
    assert any("violations: 0" in line for line in lines)
    lines = summary_lines(sweep_thm_main(4))
    assert any("^(1/" in line for line in lines)


def test_schema_file_ships_with_package():
    path = schema_path()
    assert path.exists()
    schema = _load_schema()
    assert schema["$schema"].endswith("2020-12/schema")
