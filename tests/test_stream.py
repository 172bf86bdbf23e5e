"""Streamed sweeps: the order of each section, the folded summary, and the
bytes hookchar verify writes as the records arrive.

The sections were once materialized and sorted before they were written;
_ORDER keeps those sort keys as the oracle of the stream order, and
render_result of the drained SweepResult (or the GOLDEN pins, which were
taken from it) is the oracle of the streamed bytes.
"""

import hashlib
import json
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookchar import harness, output
from hookchar.cli import main
from hookchar.harness import (
    SWEEPS,
    BoundRecord,
    CompressionRecord,
    Rational,
    SharpnessRecord,
    SweepStream,
)
from hookchar.output import render_result
from oracles import _max_constant
from test_golden import EMPTY_SECTIONS, GOLDEN, SUMMARY_GOLDEN, _without_approx, sections_of

# Each record type's output order: every section of a sweep was sorted by it.
_ORDER = {
    BoundRecord: attrgetter("n", "lam", "alpha_or_mu"),
    CompressionRecord: attrgetter("k", "lam", "mu"),
    SharpnessRecord: lambda rec: (rec.s_tilde * rec.h, rec.h, rec.k),
}

# The outer shape of a record: a batch holds the records of one.  An
# orthogonality record's lam is its row.
_SHAPE = {
    BoundRecord: attrgetter("lam"),
    CompressionRecord: attrgetter("k", "lam"),
    SharpnessRecord: attrgetter("lam"),
}

# The section each bound sweep's max_constant is taken over.
_MAX_SECTIONS = {
    "thm-main": "records",
    "thm-diag": "records",
    "skew-bound": "records",
    "excited-bounds": "skew_sum",
}


def _stream(name, n, balanced=None):
    options = {} if balanced is None else {"balanced": Fraction(balanced)}
    return getattr(harness, SWEEPS[name].stream)(n, **options)


def _drain(stream) -> dict[str, list]:
    sections = {name: [] for name in stream.sections}
    for name, rec in stream:
        sections[name].append(rec)
    return sections


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SWEEPS)), st.integers(min_value=1, max_value=8))
def test_each_streamed_section_is_in_its_sort_order(name, n):
    stream = _stream(name, n)
    sections = _drain(stream)
    order = _ORDER[SWEEPS[name].record]
    for records in sections.values():
        assert records == sorted(records, key=order)
    assert stream.summary["records"] == sum(map(len, sections.values()))


def test_the_balanced_stream_is_in_its_sort_order():
    for records in _drain(_stream("thm-main", 9, balanced=2)).values():
        assert records == sorted(records, key=_ORDER[BoundRecord])


@pytest.mark.parametrize("name", sorted(_MAX_SECTIONS))
def test_max_constant_is_the_first_best_record_in_output_order(name):
    """The folded max constant equals _max_constant over the sorted section."""
    for n in range(1, 10):
        result = getattr(harness, SWEEPS[name].function)(n)
        section = sorted(result.sections[_MAX_SECTIONS[name]], key=_ORDER[BoundRecord])
        assert result.summary["max_constant"] == _max_constant(section)


def _tied(lam: str, ratio: int, exponent: int) -> BoundRecord:
    pair = Rational(ratio, 1)
    return BoundRecord(1, lam, "(1)", pair, Rational(1, 1), pair, exponent, False)


# every root is 2; the second and third records only tie the first
_TIED = [_tied("[1]", 4, 2), _tied("[2]", 2, 1), _tied("[3]", 16, 4), _tied("[4]", 0, 1)]


@pytest.mark.parametrize(
    "batches",
    [
        [_TIED],
        # the tying records straddle two batches, with an empty batch between them
        [_TIED[:1], [], _TIED[1:]],
        [[], _TIED[:2], _TIED[2:], []],
        [[rec] for rec in _TIED],
    ],
)
def test_a_max_constant_tie_goes_to_the_first_record(batches):
    tied = _TIED

    def body(stream):
        for batch in batches:
            yield "records", batch
        return {"max_constant": stream.max_constant()}

    result = SweepStream("thm-main", 1, ("records",), body, max_section="records").result()
    assert result.records == tied
    assert result.summary["max_constant"] == _max_constant(tied)
    assert result.summary["max_constant"]["exponent"] == 2
    assert result.summary["max_constant"]["ratio"] == 4


def test_a_stream_runs_once_and_sets_its_summary_when_drained():
    stream = _stream("sharpness", 6)
    assert stream.summary is None
    pairs = list(stream)
    assert pairs and stream.summary["records"] == len(pairs)
    assert list(stream) == []
    assert stream.result().records == []  # drained already


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_stream_arguments_are_checked_at_call_time(name):
    build = getattr(harness, SWEEPS[name].stream)
    with pytest.raises(ValueError, match="budget"):
        build(SWEEPS[name].budget + 1)
    with pytest.raises(ValueError, match="negative"):
        build(-1)
    if name == "thm-main":
        with pytest.raises(ValueError, match="positive"):
            build(4, balanced=Fraction(0))


# ------------------------------------------------------------ streamed bytes


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name,n", [(name, n) for name in sorted(SWEEPS) for n in (0, 1, 2, 5, 8)])
def test_batches_hold_one_shape_and_are_written_by_one_call_each(monkeypatch, name, n, fmt):
    batches = list(_stream(name, n).batches())
    shape = _SHAPE[SWEEPS[name].record]
    for _, records in batches:
        assert len({shape(rec) for rec in records}) <= 1
    if name != "sharpness":  # its batches are single records, several to a rectangle
        keys = [(section, shape(records[0])) for section, records in batches if records]
        assert len(keys) == len(set(keys))
    pairs = [(section, rec) for section, records in batches for rec in records]
    assert pairs == list(_stream(name, n))

    expected = render_result(getattr(harness, SWEEPS[name].function)(n), fmt)
    calls = []
    fill = output._fill

    def counting_fill(batches, kind, fmt, writes):
        counted = {s: lambda text, s=s: calls.append(s) or writes[s](text) for s in writes}
        return fill(batches, kind, fmt, counted)

    monkeypatch.setattr(output, "_fill", counting_fill)
    assert render_result(_stream(name, n), fmt) == expected
    assert calls == [section for section, records in batches if records]


def _verify(capsys, tmp_path, name, n, balanced, fmt, to_file) -> str:
    """hookchar verify's output laid out as render_result lays it out.

    It is read from stdout without the final newline, or from --out: the
    JSON file without its final newline, or the CSV file of each section,
    joined as render_result joins sections.
    """
    out_dir = tmp_path / f"{fmt}-{'file' if to_file else 'stdout'}"
    out_dir.mkdir()
    target = out_dir / f"out.{fmt}"
    argv = ["verify", name, "--n", str(n), "--format", fmt]
    if balanced is not None:
        argv += ["--balanced", str(balanced)]
    if to_file:
        argv += ["--out", str(target)]
    code = main(argv)
    stdout = capsys.readouterr().out
    assert code == 0
    if not to_file:
        assert stdout.endswith("\n")
        return stdout[:-1]
    if fmt == "json":
        assert [p.name for p in out_dir.iterdir()] == [target.name]
        text = target.read_bytes().decode()
        assert text.endswith("\n")
        return text[:-1]
    names = _stream(name, n, balanced).sections
    paths = [target if s == "records" else out_dir / f"out_{s}.csv" for s in names]
    assert sorted(out_dir.iterdir()) == sorted(paths)
    return "\n".join(
        ("" if s == "records" else f"# section: {s}\n") + path.read_bytes().decode()
        for s, path in zip(names, paths)
    )


MODES = [("csv", True), ("csv", False), ("json", True), ("json", False)]


@pytest.mark.parametrize("fmt,to_file", MODES)
@pytest.mark.parametrize("name,n", [(name, n) for name in sorted(SWEEPS) for n in (1, 3, 6, 8)])
def test_streamed_bytes_equal_the_materialized_bytes(capsys, tmp_path, name, n, fmt, to_file):
    result = getattr(harness, SWEEPS[name].function)(n)
    assert _verify(capsys, tmp_path, name, n, None, fmt, to_file) == render_result(result, fmt)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned(text: str, fmt: str) -> str:
    """The digest a GOLDEN row pins for this output: of the CSV text, or of the JSON sections."""
    return _sha(text if fmt == "csv" else sections_of(text))


@pytest.mark.parametrize("fmt,to_file", MODES)
@pytest.mark.parametrize("name,n,balanced,csv_sha,json_sha", GOLDEN)
def test_streamed_bytes_match_golden(capsys, tmp_path, name, n, balanced, csv_sha, json_sha, fmt, to_file):
    text = _verify(capsys, tmp_path, name, n, balanced, fmt, to_file)
    assert _pinned(text, fmt) == (csv_sha if fmt == "csv" else json_sha)
    if fmt == "json":
        summary = _without_approx(json.loads(text)["summary"])
        pins = {row[:3]: row[3] for row in SUMMARY_GOLDEN}
        assert _sha(json.dumps(summary)) == pins[name, n, balanced]


@pytest.mark.parametrize("fmt,to_file", MODES)
@pytest.mark.parametrize("name,n,section,csv_sha,json_sha", EMPTY_SECTIONS)
def test_streamed_empty_sections_match_golden(capsys, tmp_path, name, n, section, csv_sha, json_sha, fmt, to_file):
    text = _verify(capsys, tmp_path, name, n, None, fmt, to_file)
    assert _pinned(text, fmt) == (csv_sha if fmt == "csv" else json_sha)


# ------------------------------------------------------------------ failures


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "error,code,word", [(ArithmeticError, 1, "failure"), (ValueError, 2, "error"), (OSError, 2, "error")]
)
def test_a_failure_mid_stream_leaves_no_file(monkeypatch, capsys, tmp_path, fmt, error, code, word):
    target = tmp_path / f"eb.{fmt}"
    real = harness._record
    made = []

    def fails_after_40(*args):
        made.append(args)
        if len(made) > 40:
            assert target.exists()  # the writer has opened its file by now
            raise error("injected after 40 records")
        return real(*args)

    monkeypatch.setattr(harness, "_record", fails_after_40)
    argv = ["verify", "excited-bounds", "--n", "6", "--format", fmt, "--out", str(target)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == f"{word}: injected after 40 records\n"
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm-main", "--n", str(SWEEPS["thm-main"].budget + 1)],
        ["verify", "excited-bounds", "--n", "-1"],
        ["verify", "thm-main", "--n", "4", "--balanced", "0"],
        ["verify", "thm-main", "--n", "4", "--balanced", "1/0"],
        ["verify", "skew-bound", "--n", "4", "--balanced", "2"],
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_argument_errors_exit_before_any_file(capsys, tmp_path, argv, fmt):
    assert main([*argv, "--format", fmt, "--out", str(tmp_path / f"x.{fmt}")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
