import warnings

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from hookchar import Partition, enumerate_partitions

# A failing @given test's report imports this module, and its libcst import
# raises a DeprecationWarning; under -W error that happens inside a pytest
# hook and aborts the run, so it is imported here once with the warning off.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def partitions_st(max_part: int = 9, max_len: int = 8):
    """Arbitrary shapes, not size-constrained."""
    return st.lists(
        st.integers(min_value=1, max_value=max_part), max_size=max_len
    ).map(lambda parts: Partition(tuple(sorted(parts, reverse=True))))


def all_shapes(max_n: int):
    """Every partition of every size up to max_n, size order."""
    for n in range(max_n + 1):
        yield from enumerate_partitions(n)
