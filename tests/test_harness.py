"""Sweep drivers: frozen record values, budgets, and summaries."""

import inspect
import io
import json
import random
from fractions import Fraction
from math import factorial, gcd, isqrt
from typing import get_type_hints

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from hookchar import (
    CHAIN_CONSTANT_UPPER,
    BoundRecord,
    CycleType,
    Partition,
    SkewShape,
    SweepResult,
    bound_skew_general,
    character_table,
    compression_stats,
    dim_hlf,
    enumerate_partitions,
    format_cycle_type,
    format_partition,
    sharpness_rectangles,
    skew_dim_oracle,
    sweep_compression,
    sweep_excited_bounds,
    sweep_sharpness,
    sweep_skew_bound,
    sweep_thm_diag,
    sweep_thm_main,
    verify_orthogonality,
)
from hookchar import harness
from hookchar.cli import main
from hookchar.dimensions import lattice_skew_dims
from hookchar.harness import SWEEPS, Rational, root_approx, root_greater
from hookchar.partitions import parse_partition, young_lattice

from conftest import all_shapes
from oracles import (
    _max_constant,
    _max_record,
    gram_rows,
    per_shape_compression,
    per_shape_skew_bound,
    per_shape_thm_diag,
    per_shape_thm_main,
    two_loop_excited_bounds,
)
from test_golden import GOLDEN


def _pick(records, lam, other):
    found = [r for r in records if r.lam == lam and r.alpha_or_mu == other]
    assert len(found) == 1
    return found[0]


# ------------------------------------------------------------- orthogonality


def test_orthogonality_n5():
    result = verify_orthogonality(5)
    assert result.command == "orthogonality"
    assert len(result.records) == 49
    assert result.violations == 0
    assert result.summary["hard"] is True
    diag = _pick(result.records, "[3,2]", "[3,2]")
    assert Fraction(*diag.lhs) == 120
    assert Fraction(*diag.implied_constant) == 0
    off = _pick(result.records, "[3,2]", "[4,1]")
    assert Fraction(*off.lhs) == 0 and Fraction(*off.rhs) == 0 and off.satisfied


def _table_rows(n):
    """The character table as rows, in the orthogonality sweep's order, and the class sizes."""
    shapes = list(enumerate_partitions(n))
    table = character_table(n)
    rows = [
        [column[lam.parts] for column in table.values()] for lam in sorted(shapes, key=format_partition)
    ]
    return rows, [CycleType(p.parts).class_size() for p in shapes]


@pytest.mark.parametrize("n", range(13))
def test_packed_gram_equals_inner_products(n):
    rows, class_sizes = _table_rows(n)
    assert list(harness._packed_gram(rows, class_sizes)) == gram_rows(rows, class_sizes)


def test_packed_gram_takes_its_width_from_the_values():
    rows = [[3, -(10**40), 0], [-7, 1, 2], [0, 0, 0]]
    weights = [10**25, 1, 5]
    assert list(harness._packed_gram(rows, weights)) == gram_rows(rows, weights)
    assert list(harness._packed_gram([], [])) == []


def test_corrupted_table_entry_is_an_off_diagonal_violation(monkeypatch):
    """A wrong entry, far larger than any character, shows up in the records exactly, with no slot overflow."""
    n = 6
    real = character_table(n)
    bad = {alpha: dict(column) for alpha, column in real.items()}
    bad[(3, 2, 1)][(4, 1, 1)] += 10**30
    monkeypatch.setattr(harness, "character_table", lambda size: bad)
    result = verify_orthogonality(n)
    rows, class_sizes = _table_rows(n)
    order = [lam.parts for lam in sorted(enumerate_partitions(n), key=format_partition)]
    rows[order.index((4, 1, 1))][list(real).index((3, 2, 1))] += 10**30
    expected = [total for gram in gram_rows(rows, class_sizes) for total in gram]
    assert [Fraction(*rec.lhs) for rec in result.records] == expected
    off = [rec for rec in result.records if rec.lam != rec.alpha_or_mu and not rec.satisfied]
    assert off and all(rec.lhs.numerator != 0 for rec in off)
    assert all(rec.lam == "[4,1,1]" or rec.alpha_or_mu == "[4,1,1]" for rec in off)
    assert result.violations == sum(not rec.satisfied for rec in result.records) > 0


# ----------------------------------------------------------- character sweeps


def test_thm_main_worked_record():
    result = sweep_thm_main(5)
    rec = _pick(result.records, "[3,2]", "(3,1,1)")
    assert Fraction(*rec.lhs) == Fraction(1, 25)
    assert Fraction(*rec.rhs) == Fraction(8192, 15625)
    assert Fraction(*rec.implied_constant) == Fraction(625, 8192)
    assert rec.exponent == 4
    assert rec.satisfied


def test_thm_main_trivial_shape_rows_satisfied():
    result = sweep_thm_main(6)
    rows = [r for r in result.records if r.lam == "[6]"]
    assert len(rows) == 10
    assert all(r.satisfied for r in rows)


def test_thm_main_excludes_identity():
    result = sweep_thm_main(4)
    assert all(r.alpha_or_mu != "(1,1,1,1)" for r in result.records)
    assert len(result.records) == 5 * 4


def test_thm_main_balanced_filter():
    result = sweep_thm_main(5, balanced=Fraction(2))
    assert result.summary["shapes"] == 2
    assert {r.lam for r in result.records} == {"[3,2]", "[2,2,1]"}
    rec = _pick(result.records, "[3,2]", "(3,1,1)")
    assert Fraction(*rec.rhs) == Fraction(1, 4)
    with pytest.raises(ValueError):
        sweep_thm_main(5, balanced=Fraction(-1))


def test_thm_diag_sweep():
    result = sweep_thm_diag(6)
    assert len(result.records) == 121
    assert result.violations == 0
    rec = _pick(sweep_thm_diag(5).records, "[3,2]", "(3,1,1)")
    assert Fraction(*rec.lhs) == 1
    assert Fraction(*rec.rhs) == 256
    assert rec.exponent == 1


# ---------------------------------------------------------------- skew sweeps


def test_skew_bound_smallest_case():
    result = sweep_skew_bound(2)
    rec = _pick(result.records, "[2]", "[1]")
    assert Fraction(*rec.lhs) == 1 and Fraction(*rec.rhs) == 1 and rec.satisfied
    assert rec.exponent == 2


def test_skew_bound_summary_keys():
    result = sweep_skew_bound(6)
    assert result.summary["hard"] is False
    assert result.summary["violations"] == 0
    assert 0 < result.summary["satisfied_at_c1"] <= len(result.records)
    assert result.summary["max_constant"]["ratio"] > 0
    assert all(Fraction(*r.rhs) > 0 for r in result.records)


def test_excited_bounds_sections_and_regime_split():
    result = sweep_excited_bounds(9)
    assert set(result.sections) == {"records", "rows_edge", "general", "skew_sum"}
    assert result.violations == 0
    for name in ("records", "general", "skew_sum"):
        assert result.sections[name]
        assert all(r.satisfied for r in result.sections[name])
    for rec in result.sections["rows_edge"]:
        lam = parse_partition(rec.lam)
        ell = int(rec.alpha_or_mu.strip("[]"))
        assert ell * lam.max_hook > rec.n and rec.n // lam.max_hook < 2
    for rec in result.sections["records"]:
        lam = parse_partition(rec.lam)
        ell = int(rec.alpha_or_mu.strip("[]"))
        assert not (ell * lam.max_hook > rec.n and rec.n // lam.max_hook < 2)
    assert result.summary["edge_regime"] == len(result.sections["rows_edge"]) > 0


def test_excited_bounds_general_labels():
    result = sweep_excited_bounds(4)
    labels = {r.alpha_or_mu for r in result.sections["general"] if r.lam == "[3,1]"}
    assert labels == {"[1] a=4", "[2] a=4", "[3] a=4"}


def test_excited_bounds_sweep_equals_the_two_loop_oracle():
    for n in range(14):
        result, oracle = sweep_excited_bounds(n), two_loop_excited_bounds(n).result()
        assert result.sections == oracle.sections, n
        assert result.summary == oracle.summary, n


# The sweeps that compute each conjugate pair once; excited-bounds and compression
# are checked against their per-shape oracles above.
_PAIRED = ("compression", "excited-bounds", "skew-bound", "thm-diag", "thm-main")


@pytest.mark.parametrize(
    "name, oracle_stream, balanced",
    [
        ("thm-main", per_shape_thm_main, None),
        ("thm-main", per_shape_thm_main, Fraction(1)),
        ("thm-main", per_shape_thm_main, Fraction(3, 2)),
        ("thm-diag", per_shape_thm_diag, None),
        ("skew-bound", per_shape_skew_bound, None),
    ],
)
def test_paired_sweep_equals_its_per_shape_oracle(name, oracle_stream, balanced):
    options = {} if balanced is None else {"balanced": balanced}
    for n in range(12):
        result = getattr(harness, SWEEPS[name].function)(n, n, **options)
        oracle = oracle_stream(n, **options).result()
        assert list(result.sections) == list(oracle.sections)
        for section, records in oracle.sections.items():
            assert result.sections[section] == records, (n, section)
        assert list(result.summary) == list(oracle.summary)
        for key, value in oracle.summary.items():
            assert result.summary[key] == value, (n, key)


@pytest.mark.parametrize("name", _PAIRED)
def test_the_later_member_of_each_conjugate_pair_is_replayed(name, monkeypatch):
    """Of lam and lam', the one that comes later in rank order has its max-constant batches replayed.

    A replay is a _Relabeled batch; a compression batch is a _Patched one
    either way, and a replayed one is made without a _compression_stats call.
    """
    n = 9
    lattice = young_lattice(n)
    rank, conjugate, index = lattice.rank, lattice.conjugate, lattice.index
    # excited-bounds' row and general records come from lam''s own one-row shapes, and are not replays
    replayable = "skew_sum" if name == "excited-bounds" else "records"
    sizes = range(1, n + 1) if name == "compression" else (n,)
    computed, stats = {}, harness._compression_stats  # each computed compression batch, by its id

    def counted(*args):
        batch, sums = stats(*args)
        computed[id(batch)] = batch
        return batch, sums

    monkeypatch.setattr(harness, "_compression_stats", counted)
    stream = getattr(harness, SWEEPS[name].stream)(n)
    replayed = set()
    for batch in stream.batches():
        section, records = batch
        node = index[parse_partition(records[0].lam).parts] if records else None
        later = node is not None and rank[conjugate[node]] < rank[node]
        if name == "compression":
            replay = type(records) is harness._Patched and id(records) not in computed
        else:
            replay = type(records) is harness._Relabeled
        assert replay == (later and section == replayable), (section, records[:1])
        if later and section == replayable:
            replayed.add(node)
    assert replayed == {
        node for node in index.values() if rank[conjugate[node]] < rank[node] and lattice.size[node] in sizes
    }
    assert stream.summary == getattr(harness, SWEEPS[name].function)(n).summary


@pytest.mark.parametrize("name", ["skew-bound", "excited-bounds"])
def test_skew_sweeps_build_one_table_per_conjugate_pair(monkeypatch, name):
    n = 9
    built = []

    def counted(lattice, top):
        built.append(top)
        return lattice_skew_dims(lattice, top)

    monkeypatch.setattr(harness, "lattice_skew_dims", counted)
    getattr(harness, SWEEPS[name].function)(n)
    lattice = young_lattice(n)
    orbits = {frozenset((node, lattice.conjugate[node])) for node in range(lattice.start[n], lattice.start[n + 1])}
    assert sorted(built) == sorted(min(orbit, key=lattice.rank.__getitem__) for orbit in orbits)


@pytest.mark.parametrize("name", ["thm-main", "thm-diag"])
def test_character_sweeps_compute_one_batch_per_conjugate_pair(monkeypatch, name):
    n = 8
    computed, record = [], harness._record

    def counted(n, lam, *rest):
        computed.append(lam)
        return record(n, lam, *rest)

    monkeypatch.setattr(harness, "_record", counted)
    result = getattr(harness, SWEEPS[name].function)(n)
    lattice = young_lattice(n)
    rank, conjugate, index = lattice.rank, lattice.conjugate, lattice.index
    firsts = {lattice.text[node] for node in index.values() if lattice.size[node] == n
              and rank[node] <= rank[conjugate[node]]}
    assert set(computed) == firsts
    assert len(computed) == sum(rec.lam in firsts for rec in result.records) < len(result.records)


def test_skew_sum_rhs_is_the_squared_chain_bound():
    """Each skew_sum rhs is at most bound_skew_general squared, and equal where that bound is exact."""
    below = 0
    for n in range(13):
        for rec in sweep_excited_bounds(n).sections["skew_sum"]:
            s, k = parse_partition(rec.lam).max_hook, parse_partition(rec.alpha_or_mu).n
            assert rec.exponent == 2 * k
            rhs, bound = Fraction(*rec.rhs), bound_skew_general(n, k, s, CHAIN_CONSTANT_UPPER) ** 2
            assert rhs <= bound, (rec, bound)
            if isqrt(k) ** 2 == k or s * s * k >= n * n:
                assert rhs == bound, (rec, bound)
            below += rhs < bound
    # the library rounds sqrt(k) down where n/sqrt(k) wins, so some records sit strictly below it
    assert below > 0


# ------------------------------------------------------------------ sharpness


def test_sharpness_case1_instances():
    rec = sharpness_rectangles(9, 3, 6)
    assert (rec.case, rec.lam, rec.mu) == (1, "[9,9,9]", "[2,2,2]")
    assert rec.satisfied is True

    rec = sharpness_rectangles(4, 2, 4)
    assert (rec.case, rec.mu) == (1, "[2,2]")
    assert rec.satisfied is True

    rec = sharpness_rectangles(3, 3, 9)
    assert Fraction(*rec.ratio) == Fraction(1, 42)
    assert rec.satisfied is True


def test_sharpness_case2_reported_not_asserted():
    rec = sharpness_rectangles(4, 4, 4)
    assert (rec.case, rec.mu) == (2, "[2,2]")
    assert rec.satisfied is None
    assert Fraction(*rec.rhs) == Fraction(*rec.ratio) * 2**4


def test_sharpness_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sharpness_rectangles(4, 3, 5)
    with pytest.raises(ValueError):
        sharpness_rectangles(3, 4, 2)
    with pytest.raises(ValueError):
        sharpness_rectangles(4, 2, 0)
    with pytest.raises(ValueError):
        sharpness_rectangles(4, 2, 9)
    with pytest.raises(ValueError):
        sharpness_rectangles(0, 1, 1)
    # a bool or a non-int size would reach the records (h=True is written as a bare true)
    for args in [(2, True, 2), (True, 1, 1), (2, 1, True), (2.0, 1, 1), (2, 1, 1.0)]:
        with pytest.raises(ValueError):
            sharpness_rectangles(*args)


def test_sharpness_sweep():
    result = sweep_sharpness(12)
    assert set(result.sections) == {"records", "case2"}
    assert result.violations == 0
    assert all(r.case == 1 and r.satisfied is True for r in result.records)
    case2 = result.sections["case2"]
    assert case2
    assert all(r.case == 2 and r.satisfied is None for r in case2)
    assert result.summary["case1"] == len(result.records)
    for section in result.sections.values():
        keys = [(r.s_tilde * r.h, r.h, r.k) for r in section]
        assert keys == sorted(set(keys))


# ---------------------------------------------------------------- compression


def test_compression_level_one_is_exact():
    records, summary = compression_stats(Partition((4, 2, 1)), 1)
    assert len(records) == 1
    assert Fraction(*records[0].p) == Fraction(*records[0].pl) == Fraction(*records[0].a) == 1
    assert summary["tv"] == 0
    assert summary["p_total_ok"]


def test_compression_two_one_level_two():
    records, summary = compression_stats(Partition((2, 1)), 2)
    assert {r.mu for r in records} == {"[2]", "[1,1]"}
    for rec in records:
        assert Fraction(*rec.p) == Fraction(1, 2)
        assert Fraction(*rec.a) == 1
    assert summary["tv"] == 0
    assert summary["max_a_dev"] == 0


def test_compression_counts_escaping_mass():
    records, summary = compression_stats(Partition((1, 1, 1, 1)), 2)
    row = next(r for r in records if r.mu == "[2]")
    col = next(r for r in records if r.mu == "[1,1]")
    assert not row.contained and Fraction(*row.p) == 0 and row.satisfied
    assert col.contained and Fraction(*col.p) == 1 and Fraction(*col.a) == 2
    assert summary["p_total"] == 1
    assert summary["tv"] == Fraction(1, 2)
    assert summary["max_a_dev"] == 1
    assert summary["all_bounded"]


def test_compression_stats_of_a_shape_above_the_lattice_cap():
    # the lattice is of size k, so lam may have more boxes than young_lattice allows
    records, summary = compression_stats(Partition((50,)), 3)
    assert [(r.mu, r.contained, Fraction(*r.p), Fraction(*r.pl)) for r in records] == [
        ("[3]", True, 1, Fraction(1, 6)),
        ("[2,1]", False, 0, Fraction(2, 3)),
        ("[1,1,1]", False, 0, Fraction(1, 6)),
    ]
    assert summary["p_total"] == 1
    assert summary["tv"] == Fraction(5, 6)


def test_compression_rejects_bad_level():
    with pytest.raises(ValueError):
        compression_stats(Partition((2, 1)), 0)
    with pytest.raises(ValueError):
        compression_stats(Partition((2, 1)), 4)
    for k in (True, 1.0):  # a bool or a non-int level would reach the records as k
        with pytest.raises(ValueError):
            compression_stats(Partition((2, 1)), k)


def test_compression_stats_match_the_oracle_route():
    """P by the path-count oracle, Pl and the sums recomputed; order-independent."""
    pairs = [(lam, k) for lam in all_shapes(6) for k in range(1, lam.n + 1)]
    results = {}
    for lam, k in pairs:
        records, summary = compression_stats(lam, k)
        assert [r.mu for r in records] == [format_partition(nu) for nu in enumerate_partitions(k)]
        d_lam = dim_hlf(lam)
        p_total = tv2 = max_dev = Fraction(0)
        for rec in records:
            nu = parse_partition(rec.mu)
            pl = Fraction(dim_hlf(nu) ** 2, factorial(k))
            assert Fraction(*rec.pl) == pl
            assert rec.contained == lam.contains(nu)
            if rec.contained:
                p = Fraction(dim_hlf(nu) * skew_dim_oracle(SkewShape(lam, nu)), d_lam)
                assert Fraction(*rec.p) == p
                assert Fraction(*rec.a) == p / pl
                assert rec.satisfied == (p / pl <= Fraction(*rec.bound))
                p_total += p
                tv2 += abs(p - pl)
                max_dev = max(max_dev, abs(p / pl - 1))
            else:
                tv2 += pl
        assert summary["tv"] == tv2 / 2
        assert summary["p_total"] == p_total == 1
        assert summary["max_a_dev"] == max_dev
        results[lam, k] = (records, summary)
    random.Random(0).shuffle(pairs)
    for lam, k in pairs:
        assert compression_stats(lam, k) == results[lam, k]


def test_levels_of_a_larger_lattice_are_the_same():
    # a shape has one node id in every lattice that holds it
    for m in range(1, 11):
        big = young_lattice(m)
        for k in range(1, m + 1):
            assert harness._level(big, k) == harness._level(young_lattice(k), k)


@pytest.mark.parametrize("n", range(26))
def test_rank_order_is_the_text_order_the_sweeps_write(n):
    """The sweeps take shapes in rank order and write them in text order; the two agree.

    A class's label is its shape's with ( ) for [ ], so the shapes of n in
    rank order give the classes in text order, the identity first; the
    one-row shapes [ell] in rank order are in "[ell]" text order.
    """
    lattice = young_lattice(n)
    classes = [CycleType(lam.parts) for _, lam in harness._by_rank(lattice, n, n)]
    texts = [format_cycle_type(alpha) for alpha in classes]
    assert texts == sorted(texts)
    assert classes[0].is_identity()
    ells = range(1, n + 1)
    by_rank = sorted(ells, key=lambda ell: lattice.rank[lattice.index[(ell,)]])
    assert by_rank == sorted(ells, key=lambda ell: f"[{ell}]")


def test_compression_sweep():
    result = sweep_compression(5)
    assert len(result.records) == 206
    assert result.violations == 0
    assert result.summary["plancherel_normalized"] is True
    assert result.summary["levels_with_bad_total"] == 0
    assert 0 < result.summary["max_tv"] < 1


def _bad_total_at(monkeypatch, shapes: set, k: int) -> list:
    """Make the (lam, k) batches of lam in shapes report a P that does not total 1; returns the shapes computed."""
    real = harness._compression_stats
    computed = []

    def bad_total(lam, d_lam, inside, level):
        batch, sums = real(lam, d_lam, inside, level)
        if (parts := parse_partition(lam).parts) in shapes and level.k == k:
            computed.append(parts)
            sums = sums._replace(p_num=sums.p_num + 1)
        return batch, sums

    monkeypatch.setattr(harness, "_compression_stats", bad_total)
    return computed


def test_compression_bad_total_is_a_violation(monkeypatch):
    # one (lam, k) whose restriction measure does not total 1; [2,1] is self-conjugate
    _bad_total_at(monkeypatch, {(2, 1)}, 2)
    result = sweep_compression(3)
    assert result.summary["levels_with_bad_total"] == 1
    assert result.violations == sum(not rec.satisfied for rec in result.records) + 1
    assert main(["verify", "compression", "--n", "3"]) == 1


def test_compression_bad_total_counts_for_both_conjugates(monkeypatch):
    # [2] and [1,1] are one measure at k = 2: computed once, counted for both batches
    computed = _bad_total_at(monkeypatch, {(2,), (1, 1)}, 2)
    result = sweep_compression(3)
    assert len(computed) == 1
    assert result.summary["levels_with_bad_total"] == 2
    assert result.violations == sum(not rec.satisfied for rec in result.records) + 2
    assert main(["verify", "compression", "--n", "3"]) == 1


def test_compression_sweep_equals_the_per_shape_oracle():
    for n in range(11):
        assert sweep_compression(n) == per_shape_compression(n).result(), n


def test_compression_sweep_builds_one_table_per_conjugate_pair(monkeypatch):
    n = 9
    built = []

    def counted(lattice, top):
        built.append(top)
        return lattice_skew_dims(lattice, top)

    monkeypatch.setattr(harness, "lattice_skew_dims", counted)
    sweep_compression(n)
    lattice = young_lattice(n)
    nodes = range(lattice.start[1], lattice.start[n + 1])
    orbits = {frozenset((node, lattice.conjugate[node])) for node in nodes}
    assert len(built) == len(set(built)) == len(orbits)
    # each table is the pair's first member in rank order, the one the sweep computes
    assert set(built) == {min(orbit, key=lattice.rank.__getitem__) for orbit in orbits}


def test_compression_stats_of_a_conjugate_are_relabeled():
    """compression_stats(lam', k) is lam's records with lam -> lam' and nu -> nu', and the same summary."""
    lattice = young_lattice(9)

    def node(text: str) -> int:
        return lattice.index[parse_partition(text).parts]

    for lam in all_shapes(9):
        conj_text = format_partition(lam.conjugate())
        for k in range(1, lam.n + 1):
            records, summary = compression_stats(lam, k)
            theirs, their_summary = compression_stats(lam.conjugate(), k)
            relabeled = [
                rec._replace(lam=conj_text, mu=lattice.text[lattice.conjugate[node(rec.mu)]]) for rec in records
            ]
            in_rank_order = sorted(relabeled, key=lambda rec: lattice.rank[node(rec.mu)])
            assert in_rank_order == sorted(theirs, key=lambda rec: lattice.rank[node(rec.mu)]), (lam, k)
            assert their_summary == summary, (lam, k)


# -------------------------------------------------------------------- budgets


@pytest.mark.parametrize(
    "sweep,name",
    [
        (verify_orthogonality, "orthogonality"),
        (sweep_thm_main, "thm-main"),
        (sweep_thm_diag, "thm-diag"),
        (sweep_skew_bound, "skew-bound"),
        (sweep_excited_bounds, "excited-bounds"),
        (sweep_compression, "compression"),
        (sweep_sharpness, "sharpness"),
    ],
)
def test_default_budgets_are_enforced(sweep, name):
    with pytest.raises(ValueError, match="budget"):
        sweep(SWEEPS[name].budget + 1)


@pytest.mark.parametrize("name", list(SWEEPS))
def test_every_sweep_is_a_plain_call(name):
    sweep = getattr(harness, SWEEPS[name].function)
    result = sweep(3)
    assert result.records
    assert result == sweep(3, None)
    assert all(
        type(rec) is SWEEPS[name].record
        for records in result.sections.values()
        for rec in records
    )


@pytest.mark.parametrize("name", list(SWEEPS))
def test_public_sweep_is_its_stream_drained(name):
    function = getattr(harness, SWEEPS[name].function)
    stream = getattr(harness, SWEEPS[name].stream)
    assert function.__name__ == function.__qualname__ == SWEEPS[name].function
    assert inspect.signature(function).parameters == inspect.signature(stream).parameters
    assert get_type_hints(function)["return"] is SweepResult
    assert function.__doc__ and function.__doc__ == stream.__doc__
    assert function(4) == stream(4).result()
    with pytest.raises(ValueError, match=r"^n=True is not an integer at least 0$"):
        function(True)


def test_public_signatures_keep_their_defaults():
    params = inspect.signature(sweep_sharpness).parameters
    assert [(p.name, p.default) for p in params.values()] == [("max_n", 30), ("budget", None)]
    balanced = inspect.signature(sweep_thm_main).parameters["balanced"]
    assert balanced.kind is inspect.Parameter.KEYWORD_ONLY and balanced.default is None


def test_budget_override_tightens():
    with pytest.raises(ValueError, match="budget"):
        verify_orthogonality(3, budget=2)
    with pytest.raises(ValueError):
        verify_orthogonality(-1)


# ------------------------------------------------------------ root comparison


def test_root_comparison_is_exact():
    assert root_greater(Fraction(9), 2, Fraction(2), 1)
    assert not root_greater(Fraction(4), 2, Fraction(3), 1)
    assert not root_greater(Fraction(4), 2, Fraction(2), 1)
    assert root_greater(Rational(9, 4), 2, Rational(3, 2), 1) is False
    assert root_greater(Rational(9, 4), 2, Fraction(7, 5), 1)
    assert root_approx(Rational(0, 1), 3) == 0.0
    assert root_approx(Fraction(8), 3) == pytest.approx(2.0)
    assert root_approx(Fraction(0), 5) == 0.0


@given(
    st.fractions(min_value=0, max_value=50, max_denominator=30),
    st.integers(min_value=1, max_value=40),
    st.fractions(min_value=0, max_value=50, max_denominator=30),
    st.integers(min_value=1, max_value=40),
)
@example(Fraction(4), 2, Fraction(16), 4)
@example(Fraction(16), 4, Fraction(4), 2)
@example(Fraction(7, 3), 6, Fraction(7, 3), 6)
def test_root_comparison_matches_cross_powers(r1, e1, r2, e2):
    assert root_greater(r1, e1, r2, e2) == (r1**e2 > r2**e1)


def _pair(value: Fraction) -> Rational:
    return Rational(value.numerator, value.denominator)


def _rec(ratio, exponent):
    return BoundRecord(1, "[1]", "(1)", _pair(ratio), Rational(1, 1), _pair(ratio), exponent, True)


def test_max_constant_compares_across_exponents():
    best = _max_constant([_rec(Fraction(4), 2), _rec(Fraction(3), 1)])
    assert best["ratio"] == 3 and best["exponent"] == 1
    best = _max_constant([_rec(Fraction(0), 1), _rec(Fraction(9), 2)])
    assert best["ratio"] == 9 and best["exponent"] == 2
    empty = _max_constant([_rec(Fraction(0), 1)])
    assert empty["ratio"] == 0 and empty["approx"] == 0.0


def _max_record_unscreened(records):
    """The max-constant loop before its float screen, on Fractions: every record compared."""
    best = None
    for rec in records:
        ratio = Fraction(*rec.implied_constant)
        if ratio == 0:
            continue
        if best is None or ratio ** best[1] > best[0] ** rec.exponent:
            best = (ratio, rec.exponent, rec)
    return None if best is None else best[2]


def _assert_same_max(records):
    oracle = _max_record_unscreened(records)
    assert _max_record(records) is oracle  # the same record wins a tie
    summary = _max_constant(records)
    if oracle is None:
        assert summary == {"ratio": 0, "exponent": 1, "approx": 0.0}
    else:
        ratio = Fraction(*oracle.implied_constant)
        assert type(summary["ratio"]) is Fraction
        assert summary == {
            "ratio": ratio, "exponent": oracle.exponent,
            "approx": root_approx(ratio, oracle.exponent),
        }


BOUND_SWEEPS = [name for name, sweep in SWEEPS.items() if sweep.record is BoundRecord]


@pytest.mark.parametrize("name", BOUND_SWEEPS)
def test_max_constant_equals_unscreened_loop_on_every_section(name):
    sweep = getattr(harness, SWEEPS[name].function)
    for n in range(1, 10):
        for records in sweep(n).sections.values():
            _assert_same_max(records)


BIG = 10**30


@pytest.mark.parametrize(
    "pairs",
    [
        [(4, 2), (2, 1)],
        [(2, 1), (4, 2)],
        [(16, 4), (4, 2), (2, 1)],
        [(3, 1), (4, 2), (9, 2)],
        [(0, 1), (4, 2), (0, 3), (2, 1)],
        [(BIG, 2), (BIG + 1, 2), (BIG, 2)],
        [(BIG + 1, 2), ((BIG + 1) ** 2, 4), (BIG, 2)],
        [(Fraction(BIG + 1, BIG), 2), (Fraction(BIG + 2, BIG), 2), (Fraction(BIG + 1, BIG), 2)],
        [(Fraction(1, BIG), 2), (Fraction(1, BIG + 1), 2), (Fraction(1, BIG) ** 2, 4)],
        [(0, 1)],
        [],
    ],
)
def test_max_constant_ties_and_near_ties(pairs):
    # near ties sit below the float screen's resolution; exact ties go to the first
    _assert_same_max([_rec(Fraction(ratio), exponent) for ratio, exponent in pairs])


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.fractions(min_value=0, max_value=50, max_denominator=30).filter(bool),
)
def test_record_satisfied_is_lhs_at_most_rhs(lhs, rhs):
    assert harness._record(1, "[1]", "(1)", _pair(lhs), _pair(rhs), 1).satisfied == (lhs <= rhs)


_WIDE = st.integers(min_value=-(10**40), max_value=10**40)


@given(
    st.one_of(st.just(0), _WIDE),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=10**6),
)
@example(0, 7, 3, 5, 1)
@example(6, 35, 10, 21, 1)
@example(5, 3, 5, 3, 1)
def test_record_ratio_equals_fraction_division(ln, ld, rn, rd, scale):
    """The integer ratio is the coprime pair of lhs / rhs, signs and zeros included."""
    lhs, rhs = Fraction(ln, ld), Fraction(rn * scale, rd)
    rec = harness._record(1, "[1]", "(1)", _pair(lhs), _pair(rhs), 1)
    ratio = lhs / rhs
    assert rec.lhs == (lhs.numerator, lhs.denominator)
    assert rec.implied_constant == (ratio.numerator, ratio.denominator)
    assert type(rec.implied_constant) is Rational
    assert rec.satisfied == (lhs <= rhs)


@pytest.mark.parametrize("name", list(SWEEPS))
def test_every_rational_field_is_a_coprime_pair(name):
    """Every sweep at its smallest golden n: each Rational in lowest terms, denominator > 0."""
    n = min(row[1] for row in GOLDEN if row[0] == name)
    kind = SWEEPS[name].record
    hints = get_type_hints(kind)
    rational = [name for name in kind._fields if hints[name] is Rational]
    assert rational
    result = getattr(harness, SWEEPS[name].function)(n)
    records = [rec for recs in result.sections.values() for rec in recs]
    assert records
    for rec in records:
        for field in rational:
            value = getattr(rec, field)
            assert type(value) is Rational
            num, den = value
            assert type(num) is int and type(den) is int
            assert den > 0 and gcd(num, den) == 1, (rec, field)


@pytest.mark.parametrize("name", list(SWEEPS))
def test_every_record_has_all_its_fields(name):
    """Records are built by tuple.__new__, which checks no length: each record and Rational is whole."""
    result = getattr(harness, SWEEPS[name].function)(6)
    records = [rec for recs in result.sections.values() for rec in recs]
    assert records
    for rec in records:
        assert len(rec) == len(type(rec)._fields)
        for value in rec:
            if type(value) is Rational:
                assert len(value) == len(Rational._fields)


def test_sweep_result_properties():
    result = SweepResult("demo", 3, {"records": [1, 2]}, {"violations": 5})
    assert result.records == [1, 2]
    assert result.violations == 5
