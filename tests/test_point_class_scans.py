"""The leaf-local point-class scans agree with a full-space scan."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from specspace.catalog import BUILTIN_CATALOG, catalog_entry
from specspace.ideals import (
    PrimeIdeal,
    cohen_report,
    find_non_fg_prime,
    is_finitely_generated,
    prime_at_point,
)
from specspace.spaces import GOA, Dual, Finite, Sum, normalize, point_classes
from specspace.subsets import class_singleton
from specspace.topology import is_weakly_visible, space_props
from specspace.verify import random_poset


def full_space_scans(e):
    """The first non-weakly-visible class and the first class with a
    non-finitely-generated prime, each decided on descriptors as wide as
    the whole space."""
    classes = point_classes(e)
    non_visible = next(
        (c for c in classes if not is_weakly_visible(class_singleton(c))), None
    )
    non_fg = next(
        (
            c
            for c in classes
            if not is_finitely_generated(prime_at_point(e, c).as_radical())
        ),
        None,
    )
    return non_visible, non_fg


def assert_scans_agree(space):
    e = normalize(space)
    non_visible, non_fg = full_space_scans(e)
    props = space_props(e)
    assert props.non_visible_class == non_visible
    assert props.weakly_noetherian == (non_visible is None)
    report = cohen_report(e)
    assert report.non_fg_prime == (None if non_fg is None else PrimeIdeal(e, non_fg))
    assert report.every_prime_ideal_fg == (non_fg is None)
    assert report.props == props
    assert find_non_fg_prime(e) == non_fg


SCANS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

finite_leaves = st.builds(
    lambda seed, n: Finite(random_poset(seed, n)),
    st.integers(0, 10**6),
    st.integers(0, 4),
)
leaf_spaces = st.one_of(st.just(GOA), st.just(Dual(GOA)), finite_leaves)
mixed_spaces = st.recursive(
    leaf_spaces,
    lambda inner: st.one_of(
        st.builds(Dual, inner),
        st.lists(inner, max_size=4).map(lambda parts: Sum(tuple(parts))),
    ),
    max_leaves=10,
)


@SCANS
@given(st.lists(st.sampled_from(BUILTIN_CATALOG), max_size=5))
@example([catalog_entry("nested-sum"), catalog_entry("dual-sum-chain3-goa")])
def test_scans_on_sums_of_catalog_entries(entries):
    assert_scans_agree(Sum(tuple(entry.space for entry in entries)))


@SCANS
@given(mixed_spaces)
@example(Sum((Finite(random_poset(3, 4)), Sum((GOA, Dual(GOA))), Dual(GOA))))
def test_scans_on_random_mixed_sums(space):
    assert_scans_agree(space)
