"""Streamed sweeps: the order of each section, the folded summary, and the
bytes hookchar verify writes as the records arrive.

The sections were once materialized and sorted before they were written;
_ORDER keeps those sort keys as the oracle of the stream order, and
render_result of the drained SweepResult (or the GOLDEN pins, which were
taken from it) is the oracle of the streamed bytes.
"""

import hashlib
import io
import json
import sys
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
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
from hookchar.partitions import young_lattice
from oracles import (
    _max_constant,
    per_shape_compression,
    per_shape_skew_bound,
    per_shape_thm_diag,
    per_shape_thm_main,
    two_loop_excited_bounds,
)
from test_golden import (
    _SECTIONS_CLOSE,
    _SECTIONS_OPEN,
    EMPTY_SECTIONS,
    GOLDEN,
    SUMMARY_GOLDEN,
    _without_approx,
    sections_of,
)
from test_output import _replay_predicate

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


def _two_digit_sizes(test):
    """test, also run at n = 10, 11 and 12 for every sweep: the first sizes where "[10]" sorts before "[1]"."""
    for name in sorted(SWEEPS):
        for n in (10, 11, 12):
            test = example(name, n)(test)
    return test


@settings(max_examples=60, deadline=None)
@_two_digit_sizes
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


def _made(lam: str, num: int, den: int, exponent: int) -> BoundRecord:
    """A record as _record makes it: satisfied exactly when its ratio is at most 1."""
    pair = Rational(num, den)
    return BoundRecord(1, lam, "(1)", pair, Rational(1, 1), pair, exponent, num <= den)


# every root is 2; the second and third records only tie the first
_TIED = [_made("[1]", 4, 1, 2), _made("[2]", 2, 1, 1), _made("[3]", 16, 1, 4), _made("[4]", 0, 1, 1)]


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


_SCREENED = [
    _made("[1]", 1, 2, 1),  # a satisfied best, below 1: every record is still folded
    _made("[2]", 1, 1, 3),  # ratio exactly 1: the best from here on, so the screen switches on
    _made("[3]", 1, 1, 1),  # ratio 1 again, a tie: screened out
    _made("[4]", 0, 1, 1),
    _made("[5]", 9, 4, 2),  # root 3/2: an unsatisfied record beats the satisfied best
    _made("[6]", 27, 8, 3),  # root 3/2 again, a tie: folded, and the first keeps it
    _made("[7]", 1, 1, 2),  # satisfied: screened out
    _made("[8]", 4, 1, 2),  # root 2: the max constant
]


@pytest.mark.parametrize(
    "cuts",
    [
        [],
        [1, 2, 3, 4, 5, 6, 7],  # one record per batch
        [2],  # the ratio-1 best ends the first batch
        [1],  # it opens the second
        [1, 1, 5],  # with an empty batch between, and the tying roots 3/2 split
        [3, 6],
    ],
)
@pytest.mark.parametrize("records", [_SCREENED, _SCREENED[:4] + _SCREENED[6:7]], ids=["beaten", "at-1"])
def test_the_max_constant_fold_screens_satisfied_records_exactly(records, cuts, monkeypatch):
    folded, max_step = [], harness._max_step

    def spy(best, rec):
        folded.append(rec)
        return max_step(best, rec)

    monkeypatch.setattr(harness, "_max_step", spy)
    bounds = [0, *cuts, len(records)]
    batches = [records[a:b] for a, b in zip(bounds, bounds[1:])]

    def body(stream):
        for batch in batches:
            yield "records", batch
        return {"max_constant": stream.max_constant()}

    result = SweepStream("thm-main", 1, ("records",), body, max_section="records").result()
    assert result.summary["max_constant"] == _max_constant(records)
    # [8] beats the first record at ratio 1, or that record keeps every tie
    winner = records[-1] if records[-1].lam == "[8]" else records[1]
    assert result.summary["max_constant"] == _max_constant([winner])
    # the screen switches on at the first batch after [2]'s: from there only unsatisfied records are folded
    after = next(i for i, batch in enumerate(batches) if records[1] in batch) + 1
    screened = [rec for batch in batches[after:] for rec in batch]
    assert all(rec in folded for rec in records if not rec.satisfied)
    assert not [rec for rec in screened if rec.satisfied and rec in folded]


def test_a_replayed_batch_is_counted_and_not_folded_into_the_max_constant(monkeypatch):
    folded, max_step = [], harness._max_step

    def spy(best, rec):
        folded.append(rec)
        return max_step(best, rec)

    monkeypatch.setattr(harness, "_max_step", spy)
    first = [_made("[1]", 4, 1, 2), _made("[1]", 1, 2, 1)]  # root 2, unsatisfied; then a satisfied record
    # [2]'s records relabel [1]'s: the first ties the best record, and neither is folded
    replay = harness._Relabeled(first, None, "[2]", None, None)
    replayed = [rec._replace(lam="[2]") for rec in first]
    later = [_made("[3]", 2, 1, 1)]  # root 2 again, computed: folded, and the earlier record keeps the tie

    def body(stream):
        yield "records", first
        yield "records", replay
        assert stream.count["records"] == 4 and stream.unsatisfied["records"] == 2
        yield "records", later
        return {"max_constant": stream.max_constant()}

    stream = SweepStream("thm-main", 1, ("records",), body, max_section="records")
    result = stream.result()
    assert result.records == first + replayed + later
    assert stream.count["records"] == result.summary["records"] == 5
    assert stream.unsatisfied["records"] == 3
    assert result.summary["max_constant"] == _max_constant(first) == _max_constant(first + replayed + later)
    assert result.summary["max_constant"]["exponent"] == 2
    assert folded == [first[0], first[1], later[0]]


def _lent(stream) -> list[list]:
    """The records list of each _Held batch the stream hands on, gathered as it is handed on."""
    lists, batches = [], stream._batches

    def spying():
        for batch in batches:
            if isinstance(batch, harness._Held):
                lists.append(batch.records)
            yield batch

    stream._batches = spying()
    return lists


_REPLAYING = [
    ("compression", None), ("thm-main", None), ("thm-main", 2), ("thm-diag", None),
    ("skew-bound", None), ("excited-bounds", None),
]


def _oracle(name, n, balanced):
    """The sweep with every shape computed from its own table, none replayed."""
    if name == "compression":
        return per_shape_compression(n)
    if name == "thm-main":
        return per_shape_thm_main(n, None if balanced is None else Fraction(balanced))
    if name == "skew-bound":
        return per_shape_skew_bound(n)
    if name == "excited-bounds":
        return two_loop_excited_bounds(n)
    return per_shape_thm_diag(n)


@pytest.mark.parametrize("name,balanced", _REPLAYING)
def test_the_writers_build_no_replayed_record_and_empty_what_they_are_lent(name, balanced, tmp_path, monkeypatch):
    """The CLI's writers fill a replayed batch from held text or columns, and empty each _Held list once kept.

    result() builds each replayed batch once and empties no list.  Both
    summaries, result()'s records and the written CSV and JSON text are
    checked against the per-shape sweep, which replays nothing.  A list
    is lent exactly when some shape of n is not its own conjugate.
    compression lends none: every batch of it is a _Patched one, which the
    writers splice from its level's base, so they build no record outside
    lam, and result() builds each batch once.
    """
    built, build, patched = [], harness._Relabeled.build, harness._Patched.build

    def counted(self):
        built.append((self.lam, self.mus and tuple(self.mus)))
        return build(self)

    def counted_patched(self):
        built.append((self.lam, self.level.k))
        return patched(self)

    monkeypatch.setattr(harness._Relabeled, "build", counted)
    monkeypatch.setattr(harness._Patched, "build", counted_patched)
    compression = name == "compression"
    written: dict[str, io.StringIO] = {}  # what the last stdout writer wrote, by format

    def writing(fmt: str):
        def write(stream):
            written[fmt] = io.StringIO()
            output.write_result(stream, fmt, written[fmt])

        return write

    writers = {
        "csv files": lambda stream: output.write_result_csv(stream, tmp_path / "out.csv"),
        "csv": writing("csv"),
        "json": writing("json"),
    }
    for n in range(12):
        oracle = _oracle(name, n, balanced).result()
        lattice = young_lattice(n)
        paired = any(lattice.conjugate[node] != node for node in range(lattice.start[n], lattice.start[n + 1]))
        for how, write in writers.items():
            stream = _stream(name, n, balanced)
            lent = _lent(stream)
            write(stream)
            assert built == [] and stream.summary == oracle.summary, (n, how)
            assert not any(lent), (n, how)
            if compression:
                assert not lent, (n, how)
            elif balanced is None:
                assert bool(lent) == (n >= 2), (n, how)
                assert bool(lent) == paired, (n, how)
            if how in written:
                assert written.pop(how).getvalue() == render_result(oracle, how), (n, how)
        batches = list(_stream(name, n, balanced).batches())
        replays = sum(map(_replay_predicate(n), batches))
        assert built == [] and (bool(replays) == (n >= 2) if compression else replays == len(lent)), n
        stream = _stream(name, n, balanced)
        lent = _lent(stream)
        result = stream.result()
        assert all(lent) and len(built) == len(set(built)) == (len(batches) if compression else replays), n
        assert result.records == oracle.records and result.summary == oracle.summary, n
        assert result.sections == oracle.sections, n
        built.clear()


def test_each_compression_batch_counts_as_its_built_records():
    """A _Patched batch's length and unsatisfied count, set when it is made, are its built records'.

    The stream's records and summary are the per-shape sweep's, which
    builds every record of every (k, lam) from lam's own table.
    """
    for n in range(12):
        batches = list(harness._compression(n, n).batches())
        for _, records in batches:
            assert type(records) is harness._Patched, n
            built = list(records)
            assert len(records) == len(built) == len(records.level.rows), (n, records.lam)
            assert records.unsatisfied == harness._unsatisfied(built), (n, records.lam)
            assert [built[j] for j in records.at] == records.patches and all(rec.contained for rec in records.patches)
            assert sum(rec.contained for rec in built) == len(records.patches), (n, records.lam)
        oracle = per_shape_compression(n).result()
        result = harness._compression(n, n).result()
        assert result.records == oracle.records and result.summary == oracle.summary, n


def test_a_relabeled_batch_counts_from_its_snapshot_once_its_first_member_is_emptied():
    """_fold reads a _Relabeled's length and unsatisfied count as made, so a writer may empty its first member."""
    first = [_made("[2]", 4, 1, 2), _made("[2]", 1, 2, 1), _made("[2]", 3, 1, 1)]  # two unsatisfied
    replay = harness._Relabeled(first, None, "[1,1]", None, None)
    assert replay.columns() == tuple(zip(*[rec._replace(lam="[1,1]") for rec in first]))

    def body(stream):
        yield harness._Held("records", first)
        first.clear()  # as a writer does once it has kept the text or the columns
        yield "records", replay
        return {}

    stream = SweepStream("thm-main", 2, ("records",), body, max_section="records")
    assert [len(records) for _, records in stream.batches()] == [3, 3] and not first
    assert stream.count["records"] == stream.summary["records"] == 6
    assert stream.unsatisfied["records"] == 4
    for read in (replay.build, replay.columns, lambda: replay[0]):
        with pytest.raises(RuntimeError, match="emptied"):
            read()


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
    with pytest.raises(ValueError, match=r"^n=-1 is not an integer at least 0$"):
        build(-1)
    # a bool is not a size: True would run as n=1 and write True in the records
    with pytest.raises(ValueError, match=r"^n=True is not an integer at least 0$"):
        build(True)
    with pytest.raises(ValueError, match=r"^budget=True is not an integer at least 0$"):
        build(1, budget=True)
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


def test_a_drained_result_hands_each_section_on_in_slices():
    slice_ = harness._SLICE
    records = list(range(2 * slice_ + 3))
    result = harness.SweepResult("demo", 3, {"records": records, "empty": [], "short": records[:5]}, {})
    batches = list(result.batches())
    assert [(section, len(batch)) for section, batch in batches] == [
        ("records", slice_), ("records", slice_), ("records", 3), ("short", 5),
    ]
    assert [rec for section, batch in batches if section == "records" for rec in batch] == records


def _verify(monkeypatch, tmp_path, name, n, balanced, fmt, to_file) -> tuple[bytes, int]:
    """hookchar verify's output as bytes, and the end of the part laid out as render_result lays it out.

    The output is stdout or the --out JSON file, whose final newline the
    end leaves out, or the --out CSV file of each section, joined as
    render_result joins sections.  Only one copy of the largest outputs is
    held: a file is read once, nothing is sliced, and stdout is a BytesIO
    whose getvalue() hands over its buffer (capsys would copy it).
    """
    out_dir = tmp_path / f"{fmt}-{'file' if to_file else 'stdout'}"
    out_dir.mkdir()
    target = out_dir / f"out.{fmt}"
    argv = ["verify", name, "--n", str(n), "--format", fmt]
    if balanced is not None:
        argv += ["--balanced", str(balanced)]
    if to_file:
        argv += ["--out", str(target)]
    stdout = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(stdout, "utf-8", newline="", write_through=True))
    assert main(argv) == 0
    text = stdout.getvalue()
    if to_file and fmt == "csv":
        names = _stream(name, n, balanced).sections
        paths = [target if s == "records" else out_dir / f"out_{s}.csv" for s in names]
        assert sorted(out_dir.iterdir()) == sorted(paths)
        text = b"\n".join(
            (b"" if s == "records" else f"# section: {s}\n".encode()) + path.read_bytes()
            for s, path in zip(names, paths)
        )
        return text, len(text)
    if to_file:
        assert [p.name for p in out_dir.iterdir()] == [target.name]
        text = target.read_bytes()
    assert text.endswith(b"\n")
    return text, len(text) - 1


MODES = [("csv", True), ("csv", False), ("json", True), ("json", False)]


@pytest.mark.parametrize("fmt,to_file", MODES)
@pytest.mark.parametrize("name,n", [(name, n) for name in sorted(SWEEPS) for n in (1, 3, 6, 8)])
def test_streamed_bytes_equal_the_materialized_bytes(monkeypatch, tmp_path, name, n, fmt, to_file):
    result = getattr(harness, SWEEPS[name].function)(n)
    text, end = _verify(monkeypatch, tmp_path, name, n, None, fmt, to_file)
    assert text[:end].decode() == render_result(result, fmt)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_PIECE = 1 << 20  # about how many bytes of an output the digest is fed at a time


_OPEN, _CLOSE = _SECTIONS_OPEN.encode(), _SECTIONS_CLOSE.encode()


def _pinned(text: bytes, fmt: str, end: int, piece: int = _PIECE) -> str:
    """The digest a GOLDEN row pins for text[:end]: of the CSV text, or of the JSON sections.

    The JSON sections are sections_of(text[:end]), fed to the digest a
    piece at a time, so no copy of the document is held beside the
    captured text.  Each piece ends just before a newline, so every
    "\\n  " whose two spaces sections_of drops lies whole in one piece.
    """
    start = 0
    if fmt == "json":
        start, end = text.index(_OPEN) + len(_OPEN), text.rindex(_CLOSE, 0, end)
    digest = hashlib.sha256()
    while start < end:
        stop = text.find(b"\n", start + piece, end)
        stop = end if stop < 0 else stop
        chunk = text[start:stop]
        digest.update(chunk if fmt == "csv" else chunk.replace(b"\n  ", b"\n"))
        start = stop
    return digest.hexdigest()


@pytest.mark.parametrize("piece", [1, 2, 3, 5, 64, _PIECE])
def test_pinned_digest_equals_the_digest_of_the_whole_text(piece):
    json_text = render_result(harness.sweep_excited_bounds(4), "json")
    assert _pinned(json_text.encode(), "json", len(json_text), piece) == _sha(sections_of(json_text))
    csv_text = render_result(harness.sweep_excited_bounds(4), "csv")
    assert _pinned(csv_text.encode(), "csv", len(csv_text), piece) == _sha(csv_text)


def _summary(text: bytes, end: int, name: str, n: int) -> dict:
    """The summary of the JSON document text[:end], parsed alone from the text after its sections.

    It also checks that the text is exactly the document head, the
    sections, _SECTIONS_CLOSE, the summary and the closing brace.  The
    sections are pinned by the digest of sections_of(text), which drops
    two spaces after each newline; so every newline between the head and
    _SECTIONS_CLOSE must be followed by two spaces, and then that digest
    pins each of those bytes.  Nothing is copied but the head and the tail.
    """
    head = json.dumps({"command": name, "n": n, "sections": None}, indent=2).removesuffix("null\n}").encode()
    start, close = len(head), text.rindex(_CLOSE, 0, end)
    summary = json.loads(text[close + len(_CLOSE) : end - 1])
    body = json.dumps(summary, indent=2).replace("\n", "\n  ")
    assert text[:start] == head
    assert text.count(b"\n", start, close) == text.count(b"\n  ", start, close)
    assert text[close:end] == _CLOSE + f"{body}\n}}".encode()
    return summary


@pytest.mark.parametrize("fmt,to_file", MODES)
@pytest.mark.parametrize("name,n,balanced,csv_sha,json_sha", GOLDEN)
def test_streamed_bytes_match_golden(monkeypatch, tmp_path, name, n, balanced, csv_sha, json_sha, fmt, to_file):
    text, end = _verify(monkeypatch, tmp_path, name, n, balanced, fmt, to_file)
    assert _pinned(text, fmt, end) == (csv_sha if fmt == "csv" else json_sha)
    if fmt == "json":
        summary = _without_approx(_summary(text, end, name, n))
        pins = {row[:3]: row[3] for row in SUMMARY_GOLDEN}
        assert _sha(json.dumps(summary)) == pins[name, n, balanced]


@pytest.mark.parametrize("fmt,to_file", MODES)
@pytest.mark.parametrize("name,n,section,csv_sha,json_sha", EMPTY_SECTIONS)
def test_streamed_empty_sections_match_golden(monkeypatch, tmp_path, name, n, section, csv_sha, json_sha, fmt, to_file):
    text, end = _verify(monkeypatch, tmp_path, name, n, None, fmt, to_file)
    assert _pinned(text, fmt, end) == (csv_sha if fmt == "csv" else json_sha)


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
