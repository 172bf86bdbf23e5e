"""CSV and JSON serialization: exact rationals, headers, schema."""

import csv
import io
import json
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
    for records, kind in ((bound, harness.BoundRecord), (sharp, harness.SharpnessRecord)):
        buffer = io.StringIO()
        write_csv(records, buffer, kind)
        assert buffer.getvalue() == _csv_oracle(records, kind)
    result = harness.SweepResult("sharpness", 2, {"records": sharp, "case2": sharp[:2]}, {})
    assert render_result(result, "csv") == _render_csv_oracle(result)
    result = harness.SweepResult("orthogonality", 2, {"records": bound, "extra": []}, {})
    assert render_result(result, "csv") == _render_csv_oracle(result)


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
