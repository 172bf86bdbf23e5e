"""Thick hooks, stairs, minimally excited rows, and the closed-form bounds."""

import math
from fractions import Fraction

import pytest

from hookchar import (
    CHAIN_CONSTANT_UPPER,
    E_SQ_UPPER,
    E_UPPER,
    FOUR_E_SQ_UPPER,
    TWO_E_UPPER,
    Box,
    Partition,
    ThickHookDecomposition,
    bound_S_general,
    bound_S_row,
    bound_skew_general,
    build_thick_hook_decomposition,
    count_feasible_sequences,
    decomposition_from_cuts,
    enumerate_partitions,
    excited_sum,
    minimally_excited_row,
    stairs_decomposition,
    thick_hook,
    validate_decomposition,
)

BIG = Partition((24, 19, 14, 12, 11, 10, 9, 7, 6, 3, 1))
BIG_DECO = decomposition_from_cuts(BIG, (0, 1, 2, 4, 7), 18, 36)


def test_rounded_constants_sit_above_their_targets():
    assert float(E_UPPER) >= math.e
    assert float(TWO_E_UPPER) >= 2 * math.e
    assert float(E_SQ_UPPER) >= math.e**2
    assert FOUR_E_SQ_UPPER == 4 * E_SQ_UPPER
    assert float(CHAIN_CONSTANT_UPPER) >= 8 * math.e**3
    # ceilings are tight to their stated precision
    assert E_UPPER - Fraction(math.e) < Fraction(1, 1000)
    assert TWO_E_UPPER - 2 * Fraction(math.e) < Fraction(1, 1000)
    assert E_SQ_UPPER - Fraction(math.e) ** 2 < Fraction(1, 100)
    assert CHAIN_CONSTANT_UPPER - 8 * Fraction(math.e) ** 3 < Fraction(1, 10)


def test_worked_thick_hook_sizes():
    assert BIG.n == 116
    assert BIG.diagonal_length == 7
    assert BIG_DECO.p == 4
    assert BIG_DECO.sizes() == (34, 26, 33, 23)
    assert validate_decomposition(BIG_DECO).ok


def test_worked_decomposition_fails_tighter_window():
    deco = decomposition_from_cuts(BIG, (0, 1, 2, 4, 7), 24, 36)
    verdict = validate_decomposition(deco)
    assert not verdict.ok
    assert "23" in verdict.reason


def test_thick_hooks_partition_the_shape():
    seen = set()
    for hook in BIG_DECO.hooks:
        assert not (seen & hook.boxes)
        seen |= hook.boxes
    assert len(seen) == BIG.n
    assert all(box in BIG for box in seen)


def test_single_diagonal_thick_hook():
    hook = thick_hook(BIG, 1, 1)
    assert hook.size == 34
    assert thick_hook(BIG, 3, 4).size == 33
    assert thick_hook(BIG, 5, 7).size == 23


def test_thick_hook_range_validation():
    with pytest.raises(ValueError):
        thick_hook(BIG, 3, 2)
    with pytest.raises(ValueError):
        thick_hook(BIG, 1, 8)
    with pytest.raises(ValueError):
        thick_hook(BIG, 0, 1)


def test_builder_single_group_at_max_hook():
    deco = build_thick_hook_decomposition(BIG, 34)
    assert deco.sizes() == (116,)
    assert validate_decomposition(deco).ok


def test_builder_repair_path():
    # greedy first pass ends with a short tail group; repair widens it
    deco = build_thick_hook_decomposition(Partition((8,) * 8), 15)
    assert deco.cuts == (0, 4, 8)
    assert deco.sizes() == (48, 16)
    assert validate_decomposition(deco).ok


def test_builder_domain_errors():
    with pytest.raises(ValueError):
        build_thick_hook_decomposition(BIG, 18)
    with pytest.raises(ValueError):
        build_thick_hook_decomposition(BIG, 117)
    with pytest.raises(ValueError):
        build_thick_hook_decomposition(Partition(()), 1)


@pytest.mark.parametrize("n", range(1, 15))
def test_builder_window_guarantee(n):
    for lam in enumerate_partitions(n):
        s = lam.max_hook
        for a in sorted({s, min(2 * s, n), n}):
            deco = build_thick_hook_decomposition(lam, a)
            assert validate_decomposition(deco).ok
            assert all(a <= size <= 4 * a for size in deco.sizes())


def test_validate_rejects_bad_cuts():
    with pytest.raises(ValueError):
        decomposition_from_cuts(BIG, (0, 2, 1, 7), 18, 36)
    partial = decomposition_from_cuts(BIG, (0, 3), 18, 36)
    verdict = validate_decomposition(partial)
    assert not verdict.ok
    assert "cuts" in verdict.reason


def test_validate_reports_doctored_hooks():
    hooks = BIG_DECO.hooks[:-1]
    doctored = ThickHookDecomposition(BIG, (0, 1, 2, 4), hooks, 18, 36)
    verdict = validate_decomposition(doctored)
    assert not verdict.ok
    assert verdict.reason


# --------------------------------------------------------- minimally excited


def test_minimal_row_family_matches_figure():
    diagram = minimally_excited_row(BIG, BIG_DECO, (1, 0, 3, 1))
    assert set(diagram.boxes) == {
        Box(1, 1), Box(3, 4), Box(3, 5), Box(3, 6), Box(5, 9),
    }


def test_minimal_row_trivial_vector_is_unexcited():
    diagram = minimally_excited_row(BIG, BIG_DECO, (5, 0, 0, 0))
    assert diagram.boxes == tuple(Box(1, j) for j in range(1, 6))


def test_minimal_row_zero_vector():
    diagram = minimally_excited_row(BIG, BIG_DECO, (0, 0, 0, 0))
    assert diagram.boxes == ()


def test_minimal_row_infeasible_vector_is_none():
    lam = Partition((2, 2))
    deco = decomposition_from_cuts(lam, (0, 1, 2), 1, 4)
    # group 2 is the single box (2,2); it cannot hold two row boxes
    assert minimally_excited_row(lam, deco, (0, 2)) is None


def test_minimal_row_vector_validation():
    with pytest.raises(ValueError):
        minimally_excited_row(BIG, BIG_DECO, (1, 0, 3))
    with pytest.raises(ValueError):
        minimally_excited_row(BIG, BIG_DECO, (1, -1, 3, 1))
    with pytest.raises(ValueError):
        minimally_excited_row(BIG, BIG_DECO, (25, 0, 0, 0))


def test_feasible_sequence_counts():
    assert count_feasible_sequences(BIG, BIG_DECO, 1) == 4
    assert count_feasible_sequences(BIG, BIG_DECO, 5) == 56
    assert 56 <= math.comb(5 + BIG.n // BIG_DECO.a, 5) == 462


@pytest.mark.parametrize("n", range(1, 9))
def test_feasible_counts_within_binomial(n):
    for lam in enumerate_partitions(n):
        s = lam.max_hook
        for a in sorted({s, n}):
            deco = build_thick_hook_decomposition(lam, a)
            for ell in range(1, lam.part(1) + 1):
                count = count_feasible_sequences(lam, deco, ell)
                assert 1 <= count <= math.comb(ell + n // a, ell)


def _count_vectors(total: int, length: int):
    """Every tuple of length non-negative ints summing to total."""
    if length == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _count_vectors(total - first, length - 1):
            yield (first,) + rest


@pytest.mark.parametrize(
    "parts, cuts",
    [((5, 5, 5, 2), (0, 1, 3)), ((5, 5, 5, 2), (0, 1, 2, 3)), ((6, 5, 4, 3, 2, 1), (0, 2, 3)),
     ((7, 6, 6, 4, 3, 1), (0, 1, 2, 4)), ((4, 4, 4, 4), (0, 3, 4))],
)
def test_feasible_sequences_are_the_vectors_with_a_minimal_row(parts, cuts):
    lam = Partition(parts)
    deco = decomposition_from_cuts(lam, cuts, 1, lam.n)
    for ell in range(1, lam.part(1) + 1):
        rows = [minimally_excited_row(lam, deco, vec) for vec in _count_vectors(ell, deco.p)]
        assert count_feasible_sequences(lam, deco, ell) == sum(row is not None for row in rows) > 0


def test_single_row_shape_has_one_sequence():
    lam = Partition((6,))
    deco = build_thick_hook_decomposition(lam, 6)
    assert deco.sizes() == (6,)
    assert count_feasible_sequences(lam, deco, 4) == 1


# --------------------------------------------------------------------- stairs


def test_stairs_of_worked_shape():
    deco = stairs_decomposition(Partition((14, 8, 6, 2, 2, 1)))
    assert deco.q == 5
    described = [
        (line.orientation, line.length, (line.anchor.row, line.anchor.col))
        for line in deco.lines
    ]
    assert described == [
        ("row", 14, (1, 1)),
        ("column", 5, (2, 1)),
        ("row", 7, (2, 2)),
        ("column", 3, (3, 2)),
        ("row", 4, (3, 3)),
    ]


def test_stairs_trivial_shapes():
    assert stairs_decomposition(Partition(())).q == 0
    deco = stairs_decomposition(Partition((1,)))
    assert deco.q == 1
    assert deco.lines[0].orientation == "row"
    assert deco.lines[0].boxes == (Box(1, 1),)


@pytest.mark.parametrize("n", range(1, 15))
def test_stairs_partition_the_shape(n):
    for mu in enumerate_partitions(n):
        deco = stairs_decomposition(mu)
        assert deco.q <= 2 * mu.diagonal_length
        seen = set()
        for line in deco.lines:
            assert len(line.boxes) == line.length >= 1
            assert not (seen & set(line.boxes))
            seen |= set(line.boxes)
        assert len(seen) == mu.n


# --------------------------------------------------------------------- bounds


def test_row_bound_case_split():
    lam = Partition((3, 3, 3))
    # s=5: one box keeps l*s <= n, two boxes do not
    assert bound_S_row(lam, 1) == Fraction(72)
    assert bound_S_row(lam, 2) == (FOUR_E_SQ_UPPER * 5) ** 2
    with pytest.raises(ValueError):
        bound_S_row(lam, 0)
    with pytest.raises(ValueError):
        bound_S_row(lam, 4)


def test_general_bound_value():
    lam = Partition((3, 3, 3))
    assert bound_S_general(lam, 5, 2) == math.comb(2 + 1, 2) * 20**2
    assert bound_S_general(lam, 9, 1) == math.comb(1 + 1, 1) * 36
    with pytest.raises(ValueError):
        bound_S_general(lam, 4, 1)
    with pytest.raises(ValueError):
        bound_S_general(lam, 10, 1)


def test_general_bound_dominates_sums():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            s = lam.max_hook
            for ell in range(1, lam.part(1) + 1):
                total = excited_sum(lam, Partition((ell,)))
                assert total <= bound_S_general(lam, s, ell)
                assert total <= bound_S_general(lam, n, ell)


def test_skew_general_bound_regimes():
    assert bound_skew_general(9, 4, 5, Fraction(2)) == Fraction(10) ** 4
    assert bound_skew_general(9, 4, 1, Fraction(2)) == Fraction(9) ** 4
    with pytest.raises(ValueError):
        bound_skew_general(9, 0, 1, Fraction(2))
