"""Excited diagram enumeration and the hook-product sum."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given

from hookchar import (
    Box,
    Partition,
    SkewShape,
    dim_hlf,
    enumerate_excited,
    enumerate_partitions,
    enumerate_subdiagrams,
    excitable_boxes,
    excitation_closure,
    excited_count,
    excited_sum,
    falling_factorial,
    hook_product,
    naruse_ratio,
    skew_dim_det,
    skew_dim_naruse,
    skew_dim_oracle,
)

from conftest import partitions_st
from oracles import can_excite, tuple_closure

LAM = Partition((5, 5, 5, 2))
MU = Partition((3, 2, 1, 1))


def test_worked_family_size():
    assert excited_count(LAM, MU) == 8
    assert len(enumerate_excited(LAM, MU)) == 8


def test_enumeration_starts_at_origin_and_is_sorted():
    diagrams = enumerate_excited(LAM, MU)
    assert diagrams[0].boxes == tuple(MU.boxes())
    keys = [d.boxes for d in diagrams]
    assert keys == sorted(keys)
    assert all(d.origin == MU and d.size == MU.n for d in diagrams)


def test_excitable_boxes_of_origin():
    origin = enumerate_excited(LAM, MU)[0]
    assert excitable_boxes(LAM, origin) == [Box(1, 3), Box(2, 2)]


def test_excitable_requires_containment():
    diagram = (Box(1, 1), Box(9, 9))
    with pytest.raises(ValueError):
        excitable_boxes(LAM, diagram)


def test_empty_inner_gives_single_empty_diagram():
    diagrams = enumerate_excited(LAM, Partition(()))
    assert len(diagrams) == 1 and diagrams[0].boxes == ()
    assert excited_sum(LAM, Partition(())) == 1


def test_full_inner_cannot_excite():
    assert excited_count(LAM, LAM) == 1
    total = excited_sum(LAM, LAM)
    assert total == hook_product(LAM, LAM.boxes())


def test_single_box_family_walks_the_diagonal():
    for parts in [(3, 2), (5, 5, 5, 2), (4, 4, 4, 4), (7,)]:
        lam = Partition(parts)
        diagrams = enumerate_excited(lam, Partition((1,)))
        assert len(diagrams) == lam.diagonal_length
        assert {d.boxes[0] for d in diagrams} == {
            Box(i, i) for i in range(1, lam.diagonal_length + 1)
        }


@pytest.mark.parametrize("n", range(1, 16))
def test_single_box_sum_is_n(n):
    # classic identity: the diagonal hooks sum to n
    for lam in enumerate_partitions(n):
        assert excited_sum(lam, Partition((1,))) == n


def test_worked_hook_products():
    assert hook_product(LAM, MU.boxes()) == 141120
    assert excited_sum(LAM, MU) == 413280
    assert naruse_ratio(LAM, MU) == Fraction(41, 9724)
    assert naruse_ratio(LAM, MU) == Fraction(
        excited_sum(LAM, MU), falling_factorial(LAM.n, MU.n)
    )


def test_hook_product_validates_boxes():
    with pytest.raises(ValueError):
        hook_product(LAM, [Box(9, 9)])


def test_naruse_equals_other_routes_on_worked_example():
    assert skew_dim_naruse(LAM, MU) == 1230
    assert naruse_ratio(LAM, MU) * dim_hlf(LAM) == 1230


@pytest.mark.parametrize("n", range(1, 8))
def test_three_routes_agree_exhaustively(n):
    for lam in enumerate_partitions(n):
        for mu in enumerate_subdiagrams(lam):
            shape = SkewShape(lam, mu)
            det = skew_dim_det(shape)
            assert skew_dim_naruse(lam, mu) == det
            assert skew_dim_oracle(shape) == det


@pytest.mark.parametrize("n", range(1, 9))
def test_family_size_symmetric_under_conjugation(n):
    for lam in enumerate_partitions(n):
        for mu in enumerate_subdiagrams(lam):
            assert excited_count(lam, mu) == excited_count(
                lam.conjugate(), mu.conjugate()
            )


@pytest.mark.parametrize("n", range(1, 9))
def test_origin_term_dominates(n):
    # excitation strictly lowers the hook product, so the origin is the max term
    for lam in enumerate_partitions(n):
        for mu in enumerate_subdiagrams(lam):
            if mu.n == 0:
                continue
            top = hook_product(lam, mu.boxes())
            count = excited_count(lam, mu)
            assert excited_sum(lam, mu) <= count * top


def test_closure_from_raw_boxes_matches_enumeration():
    family = excitation_closure(LAM, tuple(MU.boxes()))
    assert set(family) == {d.boxes for d in enumerate_excited(LAM, MU)}


def test_closure_validates_input():
    with pytest.raises(ValueError):
        excitation_closure(LAM, (Box(9, 9),))
    with pytest.raises(ValueError):
        excitation_closure(LAM, (Box(1, 1), Box(1, 1)))


def test_closure_of_non_partition_configuration():
    # a lone box away from the corner is still a valid configuration
    family = excitation_closure(Partition((3, 3)), (Box(1, 2),))
    assert (Box(1, 2),) in family
    assert (Box(2, 3),) in family
    assert len(family) == 2


@given(partitions_st(max_part=5, max_len=5))
def test_excited_boxes_stay_inside_lambda(lam):
    for mu in enumerate_subdiagrams(lam, size=min(3, lam.n)):
        for diagram in enumerate_excited(lam, mu):
            for box in diagram.boxes:
                assert box in lam


@pytest.mark.parametrize("n", range(10))
def test_walk_equals_tuple_oracle(n):
    for lam in enumerate_partitions(n):
        for mu in enumerate_subdiagrams(lam):
            family = tuple_closure(lam.parts, tuple(mu.boxes()))
            assert tuple(d.boxes for d in enumerate_excited(lam, mu)) == family
            assert excited_count(lam, mu) == len(family)
            assert excited_sum(lam, mu) == sum(
                prod(lam.hook_length(u) for u in bs) for bs in family
            )
            for bs in family:
                occupied = set(bs)
                assert excitable_boxes(lam, bs) == [
                    u for u in bs if can_excite(lam.parts, occupied, u)
                ]


def test_count_by_levels_equals_the_family_on_a_square():
    lam, mu = Partition((8,) * 8), Partition((4, 3, 2, 1))
    assert excited_count(lam, mu) == len(enumerate_excited(lam, mu))


def _random_box_sets(seed: int, count: int):
    """Seeded (lam, boxes) pairs: any subset of lam's boxes, mostly not a partition."""
    rng = random.Random(seed)
    shapes = [lam for n in range(1, 13) for lam in enumerate_partitions(n)]
    yield Partition((3, 3)), (Box(1, 2),)
    for _ in range(count):
        lam = rng.choice(shapes)
        cells = list(lam.boxes())
        yield lam, tuple(rng.sample(cells, rng.randint(1, len(cells))))


@pytest.mark.parametrize("seed", range(4))
def test_closure_of_random_box_sets_equals_tuple_oracle(seed):
    for lam, boxes in _random_box_sets(seed, 150):
        start = tuple(sorted(boxes))
        assert excitation_closure(lam, boxes) == tuple_closure(lam.parts, start)
        occupied = set(start)
        assert excitable_boxes(lam, boxes) == [
            u for u in start if can_excite(lam.parts, occupied, u)
        ]


# Each reader of a box of lam: one message for a box with no hook in lam.
BOX_READERS = {
    "hook_length": lambda lam, box: lam.hook_length(box),
    "hook_product": lambda lam, box: hook_product(lam, [Box(1, 1), box]),
    "excitation_closure": lambda lam, box: excitation_closure(lam, [Box(1, 1), box]),
    "excitable_boxes": lambda lam, box: excitable_boxes(lam, [Box(1, 1), box]),
}


@pytest.mark.parametrize("reader", BOX_READERS.values(), ids=BOX_READERS)
@pytest.mark.parametrize("box", [(3, 1), Box(2, 3), (0, 1), (1, 0), (1.5, 1)])
def test_every_box_reader_names_the_box_outside(reader, box):
    with pytest.raises(ValueError) as err:
        reader(Partition((3, 2)), box)
    assert str(err.value) == f"box {tuple(box)} lies outside [3,2]"


# Each caller that needs mu inside lam: the message of SkewShape.
PAIR_READERS = [SkewShape, enumerate_excited, excited_count, excited_sum, naruse_ratio, skew_dim_naruse]


@pytest.mark.parametrize("reader", PAIR_READERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("mu", [(3, 3), (4,), (1, 1, 1)])
def test_every_pair_reader_refuses_mu_outside_lam(reader, mu):
    with pytest.raises(ValueError) as err:
        reader(Partition((3, 2)), Partition(mu))
    assert str(err.value) == f"{Partition(mu)} does not fit inside [3,2]"
