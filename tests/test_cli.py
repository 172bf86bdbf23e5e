"""End-to-end command-line behavior through main()."""

import csv
import io
import json

import jsonschema
import pytest

from hookchar.cli import main
from hookchar.output import schema_path
from hookchar.partitions import format_partition, parse_partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "[]")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "dim", "[5,5,5,2]")
    assert (code, out) == (0, "291720\n")


def test_dim_to_file(capsys, tmp_path):
    target = tmp_path / "d.txt"
    code, out, _ = run(capsys, "dim", "[3,2]", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "5\n"


def test_char_values(capsys):
    code, out, _ = run(capsys, "char", "[3,2]", "(3,1,1)")
    assert (code, out) == (0, "-1\n")
    code, out, _ = run(capsys, "char", "[3,2]", "(3,1,1)", "--normalized")
    assert (code, out) == (0, "-1/5\n")
    code, out, _ = run(capsys, "char", "[4,3,3]", "(3,3,2,1,1)", "--method", "branching")
    assert (code, out) == (0, "2\n")


def test_excited_modes(capsys):
    code, out, _ = run(capsys, "excited", "[5,5,5,2]", "[3,2,1,1]", "--count")
    assert (code, out) == (0, "8\n")
    code, out, _ = run(capsys, "excited", "[5,5,5,2]", "[3,2,1,1]")
    assert (code, out) == (0, "8\n")
    code, out, _ = run(capsys, "excited", "[5,5,5,2]", "[3,2,1,1]", "--sum")
    assert (code, out) == (0, "413280\n")
    code, out, _ = run(capsys, "excited", "[2,2]", "[1]", "--list")
    assert code == 0
    assert "1:" in out and "2:" in out and "#" in out


def test_skew_dim_methods_agree(capsys):
    values = []
    for method in ("det", "oracle", "naruse"):
        code, out, _ = run(
            capsys, "skew-dim", "[5,5,5,2]", "[3,2,1,1]", "--method", method
        )
        assert code == 0
        values.append(out)
    assert values == ["1230\n"] * 3
    code, out, _ = run(capsys, "skew-dim", "[5,5,5,2]", "[]", "--method", "hlf")
    assert (code, out) == (0, "291720\n")


def test_hlf_rejects_nonempty_inner(capsys):
    code, _, err = run(capsys, "skew-dim", "[3,2]", "[1]", "--method", "hlf")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_partition(capsys):
    code, _, err = run(capsys, "dim", "[3,2")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "char", "(3,1)", "(3,1)")
    assert code == 2 and err.startswith("error:")


def test_format_is_verify_only(capsys):
    code, _, err = run(capsys, "dim", "[3,2]", "--format", "json")
    assert code == 2 and "verify" in err


def test_balanced_is_thm_main_only(capsys):
    code, _, err = run(capsys, "verify", "skew-bound", "--n", "3", "--balanced", "2")
    assert code == 2 and "thm-main" in err


def test_balanced_value(capsys):
    code, out, _ = run(capsys, "verify", "thm-main", "--n", "4", "--balanced", "2")
    assert code == 0
    code, _, err = run(capsys, "verify", "thm-main", "--n", "4", "--balanced", "x")
    assert code == 2


def test_ribbons(capsys):
    code, out, _ = run(capsys, "ribbons", "[7,5,4,2,1]", "6")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "ribbons", "[7,5,4,2,1]", "6", "--list")
    assert code == 0
    assert out.count("height 2") == 3


def test_decompose_thick_hooks(capsys):
    code, out, _ = run(capsys, "decompose", "[8,8,8,8,8,8,8,8]", "--thick-hooks", "15")
    assert code == 0
    assert "p=2 a=15" in out
    assert "hook 1 (1)" in out and "hook 2 (2)" in out
    assert "size 48" in out and "size 16" in out


def test_decompose_stairs(capsys):
    code, out, _ = run(capsys, "decompose", "[14,8,6,2,2,1]", "--stairs")
    assert code == 0
    assert "q=5" in out
    assert "line 1 (1): row, length 14" in out
    assert "line 2 (2): column, length 5" in out


def test_decompose_stairs_past_the_label_alphabet(capsys):
    shape = "[" + ",".join(["40"] * 20) + "]"
    code, out, _ = run(capsys, "decompose", shape, "--stairs")
    assert code == 0
    listing = [line for line in out.splitlines() if line.startswith("line ")]
    assert len(listing) == 39
    assert listing[35].startswith("line 36 (A): column")
    assert listing[38].startswith("line 39 (D): row")
    shape = "[" + ",".join(["70"] * 35) + "]"
    code, out, _ = run(capsys, "decompose", shape, "--stairs")
    assert code == 0
    assert "line 61 (Z): row" in out and "line 62 (*): column" in out


def test_decompose_needs_a_mode(capsys):
    code, _, _ = run(capsys, "decompose", "[3,2]")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2


def test_verify_stdout_csv(capsys):
    code, out, _ = run(capsys, "verify", "orthogonality", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "n,lambda,alpha_or_mu,lhs_num,lhs_den,rhs_num,rhs_den,"
        "implied_c_num,implied_c_den,satisfied"
    )
    assert len(lines) == 1 + 9


def test_verify_stdout_json_matches_schema(capsys):
    code, out, _ = run(capsys, "verify", "thm-main", "--n", "3", "--format", "json")
    assert code == 0
    document = json.loads(out)
    with open(schema_path()) as stream:
        jsonschema.validate(document, json.load(stream))
    assert document["command"] == "thm-main"


def test_verify_lambda_column_reparses(capsys):
    code, out, _ = run(capsys, "verify", "skew-bound", "--n", "3")
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        assert format_partition(parse_partition(row["lambda"])) == row["lambda"]
        assert format_partition(parse_partition(row["alpha_or_mu"])) == row["alpha_or_mu"]


def test_verify_multi_section_stdout(capsys):
    code, out, _ = run(capsys, "verify", "sharpness", "--n", "6")
    assert code == 0
    assert "# section: case2" in out


def test_verify_out_files(capsys, tmp_path):
    target = tmp_path / "eb.csv"
    code, out, _ = run(capsys, "verify", "excited-bounds", "--n", "4", "--out", str(target))
    assert code == 0
    assert out.count("wrote ") == 4
    assert "excited-bounds: n=4" in out
    for name in ("eb.csv", "eb_rows_edge.csv", "eb_general.csv", "eb_skew_sum.csv"):
        assert (tmp_path / name).exists()


def test_verify_out_json(capsys, tmp_path):
    target = tmp_path / "c.json"
    code, out, _ = run(
        capsys, "verify", "compression", "--n", "3", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    with open(target) as stream:
        document = json.load(stream)
    with open(schema_path()) as stream:
        jsonschema.validate(document, json.load(stream))


def test_verify_rejects_oversized_n(capsys):
    code, _, err = run(capsys, "verify", "thm-diag", "--n", "10")
    assert code == 2 and "budget" in err


def test_verify_with_jobs(capsys):
    code, out, _ = run(capsys, "verify", "orthogonality", "--n", "4", "--jobs", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 25


def test_jobs_must_be_positive(capsys):
    code, _, err = run(capsys, "verify", "orthogonality", "--n", "3", "--jobs", "0")
    assert code == 2


def test_config_budget_enforced(capsys, tmp_path):
    cfg = tmp_path / "hookchar.cfg"
    cfg.write_text("thm-diag = 4  # tightened cap\n")
    code, _, err = run(
        capsys, "verify", "thm-diag", "--n", "5", "--config", str(cfg)
    )
    assert code == 2 and "budget" in err


def test_config_sets_default_n(capsys, tmp_path):
    cfg = tmp_path / "hookchar.cfg"
    cfg.write_text("thm-diag = 3\n")
    code, out, _ = run(capsys, "verify", "thm-diag", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 9


def test_config_render_style(capsys, tmp_path):
    cfg = tmp_path / "hookchar.cfg"
    cfg.write_text("render = unicode\n")
    code, out, _ = run(capsys, "excited", "[2,2]", "[1]", "--list", "--config", str(cfg))
    assert code == 0
    assert "■" in out and "#" not in out


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "hookchar.cfg"
    cfg.write_text("colour = red\n")
    code, _, err = run(capsys, "dim", "[2]", "--config", str(cfg))
    assert code == 2 and "colour" in err


def test_config_rejects_bad_line(capsys, tmp_path):
    cfg = tmp_path / "hookchar.cfg"
    cfg.write_text("jobs\n")
    code, _, err = run(capsys, "dim", "[2]", "--config", str(cfg))
    assert code == 2 and "key=value" in err


def test_oracle_cap_from_config(capsys, tmp_path):
    cfg = tmp_path / "hookchar.cfg"
    cfg.write_text("oracle_cap = 3\n")
    code, _, err = run(
        capsys, "skew-dim", "[3,2]", "[1]", "--method", "oracle", "--config", str(cfg)
    )
    assert code == 2 and "cap" in err


def test_missing_output_directory_is_an_error(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "x")
    code, out, err = run(capsys, "dim", "[2]", "--out", missing)
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


def test_verify_missing_output_directory_is_an_error(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "x")
    code, _, err = run(capsys, "verify", "thm-main", "--n", "4", "--out", missing)
    assert code == 2 and err.startswith("error:")


def test_missing_config_is_an_error(capsys, tmp_path):
    code, _, err = run(capsys, "dim", "[2]", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2 and err.startswith("error:")


def test_too_deep_input_is_an_error(capsys):
    ones = "(" + ",".join(["1"] * 1200) + ")"
    code, _, err = run(capsys, "char", "[1200]", ones)
    assert code == 2 and "too deep" in err
