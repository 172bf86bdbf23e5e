"""Seeded single-instance library queries, each answered by two routes.

Every query names a primary route (its answer goes into the answer list)
and an independent second route; a disagreement counts as a failed
query.  Shape sizes are fixed per kind and only the shapes themselves
come from the seed, so the cost of a batch barely moves from seed to
seed while the caches of the library see mostly distinct keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hookchar import (
    CycleType,
    Partition,
    SkewShape,
    character_branching,
    character_mn,
    dim_hlf,
    skew_dim_det,
    skew_dim_naruse,
    skew_dim_oracle,
)

# Queries per kind in one batch, and for each kind its size n and the
# range of rectangle sides its shapes are drawn inside (side**2 >= n).
FULL = {
    "per_kind": 96,
    "det": {"n": 150, "sides": (15, 20), "inner": (30, 75)},
    "dim": {"n": 150, "sides": (15, 20)},
    "naruse": {"n": 40, "sides": (7, 9), "inner": (4, 7)},
    "char": {"n": 30, "sides": (6, 8), "fixed": (1, 2), "longest": 10},
    "oracle": {"n": 14, "sides": (4, 5), "inner": (5, 6)},
}
SMOKE = {
    "per_kind": 2,
    "det": {"n": 20, "sides": (5, 6), "inner": (4, 10)},
    "dim": {"n": 20, "sides": (5, 6)},
    "naruse": {"n": 10, "sides": (4, 4), "inner": (2, 3)},
    "char": {"n": 8, "sides": (3, 4), "fixed": (1, 2), "longest": 3},
    "oracle": {"n": 8, "sides": (3, 4), "inner": (2, 3)},
}


@dataclass(frozen=True)
class Query:
    """One instance with its two routes; each route returns an int."""

    kind: str
    text: str
    primary: tuple
    second: tuple


def _inner(rng: random.Random, lam: Partition, size: int) -> Partition:
    """A partition of the given size inside lam, grown one box at a time."""
    parts = [0] * len(lam)
    for _ in range(size):
        addable = [
            i for i in range(len(lam))
            if parts[i] < lam.parts[i] and (i == 0 or parts[i] < parts[i - 1])
        ]
        parts[rng.choice(addable)] += 1
    return Partition(tuple(p for p in parts if p))


def _shape(rng: random.Random, n: int, rows: int, cols: int) -> Partition:
    """A random partition of n inside the rows x cols rectangle.

    Bounding both sides keeps the shape and its conjugate to a similar
    number of rows, so no query of a kind is far costlier than the rest.
    """
    return _inner(rng, Partition((cols,) * rows), n)


def _level(bounds: tuple[int, int], i: int, stride: int = 1) -> int:
    """The i-th query's value in bounds, cycling with the given stride.

    Sizes are spread evenly over each batch rather than drawn, so that
    the cost of a batch and its latency percentiles barely depend on
    the seed; the seed still picks every shape.
    """
    lo, hi = bounds
    return lo + (i // stride) % (hi - lo + 1)


def _cycle_type(rng: random.Random, n: int, fixed: int, longest: int) -> CycleType:
    """Cycle type of n with `fixed` 1-cycles; the others have lengths 4..max(longest, 7)."""
    rest = n - fixed
    lengths = []
    while rest:
        take = rng.randint(4, min(longest, rest - 4)) if rest >= 8 else rest
        lengths.append(take)
        rest -= take
    return CycleType(tuple(sorted(lengths, reverse=True)) + (1,) * fixed)


def make_queries(seed: int, sizes: dict) -> list[Query]:
    """The batch for a seed: per_kind queries of each kind, interleaved."""
    rng = random.Random(seed)
    kinds = []
    for kind, make in _KINDS.items():
        spec = sizes[kind]
        kinds.append([make(rng, spec, i) for i in range(sizes["per_kind"])])
    return [q for group in zip(*kinds) for q in group]


def _random_shape(rng, spec, i) -> Partition:
    span = spec["sides"][1] - spec["sides"][0] + 1
    return _shape(rng, spec["n"], _level(spec["sides"], i), _level(spec["sides"], i, span))


def _inner_size(spec, i) -> int:
    span = spec["sides"][1] - spec["sides"][0] + 1
    return _level(spec["inner"], i, span * span)


def _det(rng, spec, i) -> Query:
    lam = _random_shape(rng, spec, i)
    mu = _inner(rng, lam, _inner_size(spec, i))
    # f^(lam/mu) = f^(lam'/mu'): the conjugate pair gives a different matrix
    return Query(
        "det", f"{lam}/{mu}",
        (skew_dim_det, SkewShape(lam, mu)),
        (skew_dim_det, SkewShape(lam.conjugate(), mu.conjugate())),
    )


def _dim(rng, spec, i) -> Query:
    lam = _random_shape(rng, spec, i)
    return Query("dim", f"{lam}", (dim_hlf, lam), (skew_dim_det, SkewShape(lam)))


def _naruse(rng, spec, i) -> Query:
    lam = _random_shape(rng, spec, i)
    mu = _inner(rng, lam, _inner_size(spec, i))
    return Query(
        "naruse", f"{lam}/{mu}",
        (skew_dim_naruse, lam, mu),
        (skew_dim_det, SkewShape(lam, mu)),
    )


def _char(rng, spec, i) -> Query:
    lam = _random_shape(rng, spec, i)
    span = spec["sides"][1] - spec["sides"][0] + 1
    fixed = _level(spec["fixed"], i, span * span)
    # the i-th cycle type is the same for every seed: the cost of the
    # branching route depends most on it, and it sets the batch's p99
    alpha = _cycle_type(random.Random(i), spec["n"], fixed, spec["longest"])
    return Query(
        "char", f"{lam} at {alpha}",
        (character_mn, lam, alpha),
        (character_branching, lam, alpha),
    )


def _oracle(rng, spec, i) -> Query:
    lam = _random_shape(rng, spec, i)
    mu = _inner(rng, lam, _inner_size(spec, i))
    return Query(
        "oracle", f"{lam}/{mu}",
        (skew_dim_oracle, SkewShape(lam, mu)),
        (skew_dim_det, SkewShape(lam, mu)),
    )


_KINDS = {"det": _det, "dim": _dim, "naruse": _naruse, "char": _char, "oracle": _oracle}


def answer(route: tuple) -> int:
    """Call a route; character routes return CharacterValue, read as its value."""
    fn, *args = route
    out = fn(*args)
    return getattr(out, "value", out)
