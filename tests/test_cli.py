"""End-to-end command-line behavior through main()."""

import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import hookchar
from hookchar.cli import main
from hookchar.config import RENDER_STYLES, Config
from hookchar.harness import SWEEPS
from hookchar.output import schema_path
from hookchar.partitions import format_partition, parse_partition
from hookchar.render import FILLED, PLAIN


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (("dim", "[1,3]"), "parts increase at position 2: 1 < 3"),
        (("dim", "[2,0]"), "part 2 is 0, expected a positive integer"),
        (("char", "[2,1]", "(0,3)"), "cycle 1 is 0, expected a positive integer"),
    ],
)
def test_parsers_leave_entry_and_order_errors_to_the_constructors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_format_is_verify_only(capsys):
    code, _, err = run(capsys, "dim", "[3,2]", "--format", "json")
    assert code == 2 and "verify" in err and "--format" in err


def test_balanced_is_thm_main_only(capsys):
    code, _, err = run(capsys, "verify", "skew-bound", "--n", "3", "--balanced", "2")
    assert code == 2 and "thm-main" in err


def test_balanced_value(capsys):
    code, out, _ = run(capsys, "verify", "thm-main", "--n", "4", "--balanced", "2")
    assert code == 0
    code, _, err = run(capsys, "verify", "thm-main", "--n", "4", "--balanced", "x")
    assert code == 2
    code, out, err = run(capsys, "verify", "thm-main", "--n", "4", "--balanced", "1/0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_ribbons(capsys):
    code, out, _ = run(capsys, "ribbons", "[7,5,4,2,1]", "6")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "ribbons", "[7,5,4,2,1]", "6", "--list")
    assert code == 0
    assert out.count("height 2") == 3


@pytest.mark.parametrize(
    "argv, sha",
    [
        (("excited", "[5,5,5,2]", "[3,2,1,1]", "--list"),
         "4d446075542683827464ac891b343168b556eef52b814befcfb370f9431bf469"),
        (("ribbons", "[7,5,4,2,1]", "6", "--list"),
         "1708148578362906f3f6b2ceac9e6f4d1b3f9796bee1fa444c9c9c4baf5ead37"),
    ],
)
def test_listings_match_their_pinned_bytes(capsys, argv, sha):
    # numbered diagrams of the shape, separated by blank lines, byte for byte
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


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
    code, _, err = run(capsys, "verify", "thm-diag", "--n", str(SWEEPS["thm-diag"].budget + 1))
    assert code == 2 and "budget" in err


def test_jobs_is_rejected(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "thm-main", "--n", "3", "--jobs", "2")
    assert code == 2 and "unrecognized arguments: --jobs 2" in err
    assert "Traceback" not in err
    cfg = tmp_path / "hookchar.cfg"
    cfg.write_text("jobs = 2\n")
    code, _, err = run(capsys, "verify", "thm-main", "--n", "3", "--config", str(cfg))
    assert code == 2 and "unknown config key 'jobs'" in err
    assert "Traceback" not in err


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


def test_config_accepts_exactly_the_render_styles():
    assert RENDER_STYLES == tuple(PLAIN) == tuple(FILLED)
    for style in PLAIN:
        assert Config(render=style).render == style
    for style in ("ASCII", "plain", ""):
        with pytest.raises(ValueError, match=r"^render must be one of \('ascii', 'unicode'\), got"):
            Config(render=style)


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


@pytest.mark.parametrize("values", [{"budgets": {"thm-main": True}}, {"oracle_cap": 2.5}, {"oracle_cap": True}])
def test_config_rejects_non_integer_values(values):
    (key, value), = values.get("budgets", values).items()
    with pytest.raises(ValueError) as err:
        Config(**values)
    assert str(err.value) == f"{key}={value!r} is not an integer at least 1"


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


def _repeat(part: int, times: int, brackets: str) -> str:
    return brackets[0] + ",".join([str(part)] * times) + brackets[1]


def test_too_deep_input_is_an_error(capsys, tmp_path):
    # the oracle adds one box per level of recursion, so a raised cap reaches the limit
    cfg = tmp_path / "hookchar.cfg"
    cfg.write_text("oracle_cap = 3000\n")
    code, out, err = run(
        capsys, "skew-dim", _repeat(1, 2000, "[]"), "[]", "--method", "oracle", "--config", str(cfg)
    )
    assert code == 2 and out == "" and "too deep" in err and "Traceback" not in err
    # neither character route recurses, so tall and long shapes answer
    column = _repeat(1, 1200, "[]")
    for shape, cycle_type, method, value in [
        (column, _repeat(2, 600, "()"), "branching", "1"),
        (column, "(" + ",".join(["2"] * 599 + ["1", "1"]) + ")", "branching", "-1"),
        ("[1200]", _repeat(1, 1200, "()"), "mn", "1"),
        ("[2000]", _repeat(2, 1000, "()"), "mn", "1"),
    ]:
        code, out, err = run(capsys, "char", shape, cycle_type, "--method", method)
        assert (code, out, err) == (0, value + "\n", "")


def test_skew_dim_of_a_tall_shape(capsys):
    # rows with equal outer and inner parts are dropped before the determinant
    code, out, err = run(capsys, "skew-dim", _repeat(1, 1200, "[]"), _repeat(1, 1198, "[]"))
    assert (code, out, err) == (0, "1\n", "")
    # a column of 80 boxes, where outer and inner differ on every row
    code, out, err = run(capsys, "skew-dim", _repeat(2, 80, "[]"), _repeat(1, 80, "[]"))
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize(
    "extra,code,err",
    [
        ([], 0, ""),
        # an --out target that is a closed pipe is a failed write, not a closed stdout
        (["--out", "/dev/stdout"], 2, "error: [Errno 32] Broken pipe\n"),
    ],
)
def test_closed_stdout_pipe(extra, code, err):
    if extra and not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    src = str(Path(hookchar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "hookchar.cli", "verify", "thm-main", "--n", "10", *extra]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"n,lambda,")
    proc.stdout.close()  # the reader goes away, as `| head -1` does
    assert proc.stderr.read().decode() == err
    proc.stderr.close()
    assert proc.wait(timeout=120) == code


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_interrupt_mid_sweep_exits_130_and_leaves_no_file(fmt, tmp_path):
    # thm-main n=20 takes seconds, so the signal lands while records are written
    cfg = tmp_path / "budget.cfg"
    cfg.write_text("thm-main = 20\n")
    target = tmp_path / f"x.{fmt}"
    src = str(Path(hookchar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [
        sys.executable, "-m", "hookchar.cli", "verify", "thm-main", "--n", "20",
        "--config", str(cfg), "--format", fmt, "--out", str(target),
    ]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        deadline = time.monotonic() + 60
        while not target.exists():
            assert proc.poll() is None, "the sweep ended before it was interrupted"
            assert time.monotonic() < deadline, "the output file never appeared"
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 130, err
    assert b"Traceback" not in err
    assert err.decode().splitlines()[-1] == "interrupted"
    assert not target.exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["budget.cfg"]
