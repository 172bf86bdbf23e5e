"""Acceptance gate: one test per shipped guarantee.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion, or add -s to see the [PASS]/[FAIL] markers.
"""

import csv
import functools
import random
import time
from fractions import Fraction
from math import comb, isqrt

from hookchar import (
    CycleType,
    Partition,
    Rational,
    SkewShape,
    build_thick_hook_decomposition,
    character_branching,
    character_mn,
    count_feasible_sequences,
    count_ribbon_tableaux,
    decomposition_from_cuts,
    dim_hlf,
    enumerate_partitions,
    enumerate_subdiagrams,
    excited_count,
    excited_sum,
    naruse_ratio,
    skew_dim_det,
    skew_dim_oracle,
    stairs_decomposition,
    sweep_compression,
    sweep_excited_bounds,
    sweep_sharpness,
    sweep_skew_bound,
    sweep_thm_diag,
    sweep_thm_main,
    validate_decomposition,
    verify_orthogonality,
)
from hookchar.output import write_result_csv


def _report(label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return inner

    return wrap


@_report("criterion 1: worked examples exact, under one second")
def test_criterion_1_worked_examples():
    start = time.perf_counter()

    assert character_mn(Partition((3, 2)), CycleType((3, 1, 1))).value == -1
    assert count_ribbon_tableaux(Partition((3, 2)), (3, 1, 1)) == 3

    assert character_mn(Partition((4, 3, 3)), CycleType((3, 3, 2, 1, 1))).value == 2
    assert count_ribbon_tableaux(Partition((4, 3, 3)), (3, 3, 2, 1, 1)) == 12
    assert count_ribbon_tableaux(Partition((4, 3, 3)), (1, 3, 3, 2, 1)) == 2

    assert excited_count(Partition((5, 5, 5, 2)), Partition((3, 2, 1, 1))) == 8

    assert len(Partition((9, 5, 5, 4, 2, 1, 1)).corners()) == 5

    big = Partition((24, 19, 14, 12, 11, 10, 9, 7, 6, 3, 1))
    deco = decomposition_from_cuts(big, (0, 1, 2, 4, 7), 18, 36)
    assert tuple(h.size for h in deco.hooks) == (34, 26, 33, 23)
    assert validate_decomposition(deco).ok

    assert time.perf_counter() - start < 1.0


@_report("criterion 2: three skew-dimension routes agree exactly, n <= 9")
def test_criterion_2_oracle_equivalence():
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            d = dim_hlf(lam)
            for mu in enumerate_subdiagrams(lam):
                shape = SkewShape(lam, mu)
                det = skew_dim_det(shape)
                assert skew_dim_oracle(shape) == det
                assert naruse_ratio(lam, mu) * d == det


@_report("criterion 3: orthogonality, branching agreement, order invariance")
def test_criterion_3_character_correctness():
    result = verify_orthogonality(8)
    assert len(result.records) == 484
    assert result.violations == 0

    for n in range(2, 9):
        for lam in enumerate_partitions(n):
            for alpha_shape in enumerate_partitions(n):
                alpha = CycleType(alpha_shape.parts)
                if alpha.is_identity():
                    continue
                assert (
                    character_branching(lam, alpha).value
                    == character_mn(lam, alpha).value
                )

    rng = random.Random(1729)
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            for alpha_shape in enumerate_partitions(n):
                order = list(alpha_shape.parts)
                reference = character_mn(lam, CycleType(tuple(order))).value
                for _ in range(3):
                    rng.shuffle(order)
                    assert (
                        character_mn(lam, CycleType(tuple(order))).value == reference
                    )


@_report("criterion 4: constant-free bounds at zero tolerance")
def test_criterion_4_constant_free_assertions():
    diag = sweep_thm_diag(9)
    assert len(diag.records) == 30 * 30
    assert diag.violations == 0

    comp = sweep_compression(10)
    assert comp.violations == 0
    assert comp.summary["shapes_with_bad_bound"] == 0
    assert comp.summary["levels_with_bad_total"] == 0
    assert comp.summary["plancherel_normalized"] is True

    for n in range(1, 21):
        for lam in enumerate_partitions(n):
            assert excited_sum(lam, Partition((1,))) == n


@_report("criterion 5: constant-bearing sweeps, complete tables, edge split")
def test_criterion_5_constant_bearing_sweeps(tmp_path):
    def check_csv(result, stem, expected):
        assert len(result.records) == expected
        assert all(Fraction(*rec.rhs) > 0 for rec in result.records)
        assert all(isinstance(rec.implied_constant, Rational) for rec in result.records)
        paths = write_result_csv(result, tmp_path / f"{stem}.csv")
        with open(paths[0]) as stream:
            assert len(list(csv.DictReader(stream))) == expected

    for n in range(1, 9):
        shapes = list(enumerate_partitions(n))
        classes = len(shapes) - 1
        check_csv(sweep_thm_main(n), f"main_{n}", len(shapes) * classes)

    balanced_shapes = [
        p for p in enumerate_partitions(8) if p.max_hook**2 <= 4 * 8
    ]
    check_csv(
        sweep_thm_main(8, balanced=Fraction(2)),
        "balanced_8",
        len(balanced_shapes) * 21,
    )

    for n in range(1, 10):
        expected = sum(
            sum(1 for mu in enumerate_subdiagrams(p) if mu.n) for p in enumerate_partitions(n)
        )
        check_csv(sweep_skew_bound(n), f"skew_{n}", expected)

    eb = sweep_excited_bounds(12)
    assert eb.violations == 0
    for name in ("records", "general", "skew_sum"):
        assert all(rec.satisfied for rec in eb.sections[name])
    edge = eb.sections["rows_edge"]
    assert edge and eb.summary["edge_regime"] == len(edge)
    paths = write_result_csv(eb, tmp_path / "excited_12.csv")
    assert {p.name for p in paths} == {
        "excited_12.csv",
        "excited_12_rows_edge.csv",
        "excited_12_general.csv",
        "excited_12_skew_sum.csv",
    }


@_report("criterion 6: decomposition windows, stairs, feasible counts")
def test_criterion_6_decomposition_properties():
    for n in range(1, 21):
        for lam in enumerate_partitions(n):
            s = lam.max_hook
            for a in sorted({s, min(2 * s, n), n}):
                deco = build_thick_hook_decomposition(lam, a)
                assert validate_decomposition(deco).ok
                assert all(a <= hook.size <= 4 * a for hook in deco.hooks)

            st = stairs_decomposition(lam)
            assert st.q <= 2 * lam.diagonal_length
            covered = sorted(box for line in st.lines for box in line.boxes)
            assert covered == sorted(lam.boxes())

    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            s = lam.max_hook
            for a in sorted({s, n}):
                deco = build_thick_hook_decomposition(lam, a)
                for ell in range(1, lam.part(1) + 1):
                    count = count_feasible_sequences(lam, deco, ell)
                    assert count <= comb(ell + n // a, ell)


@_report("criterion 7: rectangle sharpness, case 1 exact, case 2 reported")
def test_criterion_7_sharpness(tmp_path):
    result = sweep_sharpness(30)
    assert result.violations == 0

    case1 = result.records
    triples = {(rec.s_tilde, rec.h, rec.k) for rec in case1}
    assert len(triples) >= 10
    for rec in case1:
        assert rec.satisfied is True
        assert rec.k % rec.h == 0
        assert Fraction(*rec.ratio) >= Fraction(*rec.rhs)

    case2 = result.sections["case2"]
    assert case2
    for rec in case2:
        m = isqrt(rec.k)
        assert m * m == rec.k
        assert Fraction(*rec.rhs) == Fraction(*rec.ratio) * Fraction(m) ** rec.k
        assert rec.satisfied is None

    paths = write_result_csv(result, tmp_path / "sharpness.csv")
    assert {p.name for p in paths} == {"sharpness.csv", "sharpness_case2.csv"}
    with open(tmp_path / "sharpness_case2.csv") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == len(case2)
    assert all(row["case"] == "2" for row in rows)
