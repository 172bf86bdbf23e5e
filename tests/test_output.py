"""CSV and JSON serialization: exact rationals, headers, schema."""

import csv
import io
import json
from fractions import Fraction

import jsonschema
import pytest

from hookchar import (
    sweep_compression,
    sweep_excited_bounds,
    sweep_sharpness,
    sweep_thm_main,
    verify_orthogonality,
)
from hookchar.output import (
    frac_json,
    record_json,
    render_result,
    result_json,
    schema_path,
    summary_lines,
    write_csv,
    write_result_csv,
    write_result_json,
)

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
        assert Fraction(int(row["lhs_num"]), int(row["lhs_den"])) == rec.lhs
        assert Fraction(int(row["rhs_num"]), int(row["rhs_den"])) == rec.rhs
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
    bound = verify_orthogonality(2).records[0]
    comp = sweep_compression(2).records[0]
    with pytest.raises(TypeError):
        write_csv([bound, comp], io.StringIO())


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
