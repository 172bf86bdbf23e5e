"""Shape primitives checked against brute-force recounts."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from hookchar import (
    Box,
    CycleType,
    Partition,
    dim_hlf,
    enumerate_partitions,
    enumerate_subdiagrams,
    falling_factorial,
    format_cycle_type,
    format_partition,
    hook_product,
    parse_cycle_type,
    parse_partition,
)

from hookchar.partitions import DEFAULT_PARTITION_CAP, young_lattice

from conftest import all_shapes, partitions_st

# number of partitions of 0..16
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]


@pytest.mark.parametrize(
    "parts",
    [(0,), (-1,), (1, 2), (2, 1, 3), (True,), (2.0,), ("2",)],
)
def test_partition_rejects_bad_parts(parts):
    with pytest.raises((ValueError, TypeError)):
        Partition(parts)


def test_part_indexing_past_end_is_zero():
    p = Partition((5, 2))
    assert [p.part(i) for i in (1, 2, 3, 99)] == [5, 2, 0, 0]
    assert len(p) == 2
    assert p.n == 7


@pytest.mark.parametrize(
    "parts, conj",
    [
        ((), ()),
        ((1,), (1,)),
        ((5, 5, 5, 2), (4, 4, 3, 3, 3)),
        ((7, 5, 4, 2, 1), (5, 4, 3, 3, 2, 1, 1)),
    ],
)
def test_conjugate_fixed_values(parts, conj):
    assert Partition(parts).conjugate().parts == conj


@given(partitions_st())
def test_conjugate_is_an_involution(p):
    q = p.conjugate()
    assert q.conjugate() == p
    assert q.n == p.n
    # brute-force column count
    assert q.parts == tuple(
        sum(1 for part in p.parts if part >= j) for j in range(1, p.part(1) + 1)
    )


def _hook_by_scanning(p, box):
    arm = sum(1 for j in range(box.col + 1, p.part(box.row) + 1))
    leg = sum(1 for i in range(box.row + 1, len(p) + 1) if p.part(i) >= box.col)
    return arm + leg + 1


@given(partitions_st())
def test_hooks_match_box_scanning(p):
    hooks = 1
    for box in p.boxes():
        h = p.hook_length(box)
        assert h == _hook_by_scanning(p, box) == hook_product(p, [box])
        assert 1 <= h <= p.max_hook
        hooks *= h
    assert math.factorial(p.n) % hooks == 0
    assert dim_hlf(p) == math.factorial(p.n) // hooks


def test_hook_table_of_small_shape():
    p = Partition((3, 2))
    table = {(b.row, b.col): p.hook_length(b) for b in p.boxes()}
    assert table == {(1, 1): 4, (1, 2): 3, (1, 3): 1, (2, 1): 2, (2, 2): 1}


def test_hook_outside_shape_raises():
    with pytest.raises(ValueError):
        Partition((3, 2)).hook_length(Box(2, 3))


def test_max_hook_is_corner_hook():
    p = Partition((5, 5, 5, 2))
    assert p.max_hook == 8 == p.hook_length(Box(1, 1))
    assert Partition(()).max_hook == 0


@pytest.mark.parametrize(
    "parts, delta",
    [((), 0), ((1,), 1), ((9,), 1), ((5, 5, 5, 2), 3),
     ((24, 19, 14, 12, 11, 10, 9, 7, 6, 3, 1), 7)],
)
def test_diagonal_length(parts, delta):
    assert Partition(parts).diagonal_length == delta


def test_corners_of_worked_example():
    corners = Partition((9, 5, 5, 4, 2, 1, 1)).corners()
    assert len(corners) == 5
    assert corners == [Box(1, 9), Box(3, 5), Box(4, 4), Box(5, 2), Box(7, 1)]


@given(partitions_st())
def test_corners_are_removable_and_bounded(p):
    corners = p.corners()
    assert len(corners) <= 2 * p.diagonal_length or p.n == 0
    for box in corners:
        assert box.col == p.part(box.row)
        shrunk = tuple(
            part - 1 if i == box.row - 1 else part
            for i, part in enumerate(p.parts)
        )
        Partition(tuple(part for part in shrunk if part > 0))


@given(partitions_st())
def test_partition_text_round_trip(p):
    assert parse_partition(format_partition(p)) == p


@pytest.mark.parametrize("text", ["[3,2", "3,2]", "[3,,2]", "[a]", "[3 2]", "[2,3]"])
def test_parse_partition_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_partition(text)


def test_parse_partition_whitespace_and_empty():
    assert parse_partition(" [ 5 , 5 , 5 , 2 ] ") == Partition((5, 5, 5, 2))
    assert parse_partition("[]") == Partition(())


@given(st.integers(0, 40), st.integers(0, 40))
def test_falling_factorial_matches_perm(n, k):
    if k > n:
        with pytest.raises(ValueError):
            falling_factorial(n, k)
    else:
        assert falling_factorial(n, k) == math.perm(n, k)


def test_falling_factorial_rejects_negative():
    with pytest.raises(ValueError):
        falling_factorial(5, -1)


def test_enumeration_counts_match_partition_numbers():
    for n, expected in enumerate(PARTITION_COUNTS):
        shapes = list(enumerate_partitions(n))
        assert len(shapes) == expected
        assert len(set(shapes)) == expected
        assert all(p.n == n for p in shapes)


def test_enumeration_is_reverse_lexicographic():
    shapes = [p.parts for p in enumerate_partitions(6)]
    assert shapes[0] == (6,)
    assert shapes[-1] == (1,) * 6
    assert shapes == sorted(shapes, reverse=True)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_partitions(41))


@pytest.mark.parametrize("n", range(13))
def test_lattice_nodes_run_size_by_size_in_enumeration_order(n):
    lattice = young_lattice(n)
    shapes = list(all_shapes(n))
    assert lattice.parts == tuple(p.parts for p in shapes)
    assert lattice.text == tuple(map(format_partition, shapes))
    assert lattice.size == tuple(p.n for p in shapes)
    assert lattice.index == {p.parts: node for node, p in enumerate(shapes)}
    for k in range(n + 1):
        level = lattice.parts[lattice.start[k] : lattice.start[k + 1]]
        assert level == tuple(p.parts for p in enumerate_partitions(k))


@pytest.mark.parametrize("n", range(1, 13))
def test_a_shape_has_one_id_in_every_lattice(n):
    big = young_lattice(n)
    for k in range(n):
        small = young_lattice(k)
        assert big.parts[: len(small.parts)] == small.parts
        assert all(big.index[parts] == node for parts, node in small.index.items())


@pytest.mark.parametrize("n", range(13))
def test_lattice_rank_is_the_order_of_the_texts(n):
    lattice = young_lattice(n)
    assert sorted(lattice.rank) == list(range(len(lattice.parts)))
    by_rank = sorted(range(len(lattice.parts)), key=lattice.rank.__getitem__)
    assert [lattice.text[node] for node in by_rank] == sorted(lattice.text)


@pytest.mark.parametrize("n", range(13))
def test_lattice_down_removes_each_corner(n):
    lattice = young_lattice(n)
    for node, parts in enumerate(lattice.parts):
        below = []
        for i, j in Partition(parts).corners():
            rows = list(parts)
            rows[i - 1] = j - 1
            below.append(tuple(r for r in rows if r))
        assert [lattice.parts[mu] for mu in lattice.down[node]] == below


def test_smallest_lattices():
    assert young_lattice(0).parts == ((),)
    assert young_lattice(0).down == ((),)
    assert young_lattice(0).start == (0, 1)
    one = young_lattice(1)
    assert one.parts == ((), (1,))
    assert one.down == ((), (0,))
    assert one.text == ("[]", "[1]")
    assert one.rank == (1, 0)  # "[1]" sorts before "[]"
    assert one.start == (0, 1, 2)


def test_lattice_size_limits():
    with pytest.raises(ValueError):
        young_lattice(-1)
    with pytest.raises(ValueError):
        young_lattice(DEFAULT_PARTITION_CAP + 1)


def test_subdiagrams_of_square():
    subs = [p.parts for p in enumerate_subdiagrams(Partition((2, 2)))]
    assert subs == [(2, 2), (2, 1), (2,), (1, 1), (1,), ()]


@pytest.mark.parametrize("n", range(1, 8))
def test_subdiagrams_match_containment_filter(n):
    for lam in enumerate_partitions(n):
        subs = set(enumerate_subdiagrams(lam))
        brute = {
            mu
            for k in range(n + 1)
            for mu in enumerate_partitions(k)
            if lam.contains(mu)
        }
        assert subs == brute


@pytest.mark.parametrize("n", range(9))
def test_subdiagrams_are_reverse_lexicographic(n):
    for lam in enumerate_partitions(n):
        inside = [
            mu.parts for k in range(n + 1) for mu in enumerate_partitions(k) if lam.contains(mu)
        ]
        assert [mu.parts for mu in enumerate_subdiagrams(lam)] == sorted(inside, reverse=True)
        for size in range(-1, n + 2):
            expected = sorted((mu for mu in inside if sum(mu) == size), reverse=True)
            assert [mu.parts for mu in enumerate_subdiagrams(lam, size)] == expected


def test_subdiagrams_of_tall_shapes_need_no_recursion():
    column = Partition((1,) * 1200)
    assert [len(mu) for mu in enumerate_subdiagrams(column, 1198)] == [1198]
    assert sum(1 for _ in enumerate_subdiagrams(column)) == 1201


def test_subdiagrams_size_filter():
    lam = Partition((3, 2))
    subs = list(enumerate_subdiagrams(lam, size=2))
    assert {p.parts for p in subs} == {(2,), (1, 1)}


def test_contains_and_box_membership():
    lam = Partition((3, 2))
    assert lam.contains(Partition((2, 2)))
    assert not lam.contains(Partition((1, 1, 1)))
    assert Box(2, 2) in lam
    assert Box(2, 3) not in lam


@given(partitions_st(max_part=4, max_len=4), partitions_st(max_part=4, max_len=4))
@example(Partition((3, 2)), Partition((1, 1, 1)))
@example(Partition(), Partition((1,)))
@example(Partition((2,)), Partition())
@example(Partition(), Partition())
@example(Partition((3, 1)), Partition((3, 1)))
def test_contains_is_box_set_inclusion(outer, inner):
    assert outer.contains(inner) == (set(inner.boxes()) <= set(outer.boxes()))


# ----------------------------------------------------------------- CycleType


def test_cycle_type_statistics():
    alpha = CycleType((3, 1, 1))
    assert alpha.n == 5
    assert alpha.cyc == 3
    assert alpha.supp == 3
    assert alpha.word_length == 2
    assert alpha.cyc_j(1) == 2 and alpha.cyc_j(3) == 1 and alpha.cyc_j(2) == 0
    assert alpha.centralizer_order == 6
    assert alpha.class_size() == 20
    assert not alpha.is_identity()
    assert CycleType((1, 1, 1)).is_identity()


@pytest.mark.parametrize("lengths", [(0,), (-2,), (1.5,)])
def test_cycle_type_rejects_bad_lengths(lengths):
    with pytest.raises((ValueError, TypeError)):
        CycleType(lengths)


@pytest.mark.parametrize("n", range(1, 13))
def test_class_sizes_sum_to_group_order(n):
    total = sum(CycleType(p.parts).class_size() for p in enumerate_partitions(n))
    assert total == math.factorial(n)


def test_cycle_type_text_round_trip():
    alpha = parse_cycle_type("(3,1,1)")
    assert alpha == CycleType((3, 1, 1))
    assert format_cycle_type(alpha) == "(3,1,1)"
    assert parse_cycle_type("()") == CycleType(())


def test_sorted_desc_reorders():
    assert CycleType((1, 3, 2)).sorted_desc() == CycleType((3, 2, 1))


def test_all_shapes_helper_is_exhaustive():
    shapes = list(all_shapes(4))
    assert len(shapes) == sum(PARTITION_COUNTS[:5])
