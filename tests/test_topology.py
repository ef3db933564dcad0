"""Decision procedures against brute force and frozen leaf tables."""

import random

import pytest

from specspace.catalog import BUILTIN_CATALOG, antichain, chain, diamond
from specspace.poset import FinitePoset, FiniteSubset, build_poset
from specspace.spaces import GOA, Dual, Finite, Sum, dual, normalize, point_classes
from specspace.subsets import GoaSet, SumSet, SymbolicSubset, class_singleton, closed_points
from specspace.topology import (
    cl_closure,
    closure,
    gen_closure,
    is_closed,
    is_constructible,
    is_generalization_closed,
    is_open,
    is_quasi_compact_open,
    is_thomason,
    is_weakly_visible,
    space_props,
    weakly_visible_inverse,
    weakly_visible_witness,
)
from specspace.verify import (
    _oracle_down_masks,
    _oracle_weakly_visible,
    exhaustive_posets,
    random_poset,
)


def brute_down_masks(p):
    return [
        m
        for m in range(1 << p.n)
        if all(p.down[i] & ~m == 0 for i in range(p.n) if (m >> i) & 1)
    ]


def brute_up_masks(p):
    return [
        m
        for m in range(1 << p.n)
        if all(p.up[i] & ~m == 0 for i in range(p.n) if (m >> i) & 1)
    ]


def brute_thomason_masks(p):
    """Oracle: all unions of complements of up-sets, closed to a fixpoint."""
    full = p.full_mask
    gens = {full & ~u for u in brute_up_masks(p)}
    masks = set(gens) | {0}
    while True:
        more = {a | b for a in masks for b in masks} - masks
        if not more:
            return masks
        masks |= more


def goa_shapes(universe=5):
    for pick in range(1 << universe):
        idx = frozenset(i for i in range(universe) if (pick >> i) & 1)
        for cof in (False, True):
            for g in (False, True):
                yield GoaSet(cof, idx, g)


# ---------------------------------------------------------------------------
# finite leaves against brute force


def test_finite_open_is_up_set():
    for n in range(5):
        for p in exhaustive_posets(n):
            space = Finite(p)
            ups = set(brute_up_masks(p))
            for m in range(1 << n):
                s = SymbolicSubset(space, FiniteSubset(p, m))
                assert is_open(s) == (m in ups)
                assert is_closed(s) == ((p.full_mask & ~m) in ups)
                assert is_quasi_compact_open(s) == (m in ups)


def test_finite_thomason_is_down_set():
    for n in range(5):
        for p in exhaustive_posets(n):
            space = Finite(p)
            thomason = brute_thomason_masks(p)
            downs = set(brute_down_masks(p))
            assert thomason == downs
            for m in range(1 << n):
                s = SymbolicSubset(space, FiniteSubset(p, m))
                assert is_thomason(s) == (m in thomason)


def test_finite_everything_constructible():
    for n in range(5):
        for p in exhaustive_posets(n):
            space = Finite(p)
            for m in range(1 << n):
                assert is_constructible(SymbolicSubset(space, FiniteSubset(p, m)))


def test_finite_closure_is_down_closure():
    p = diamond()
    space = Finite(p)
    for m in range(1 << p.n):
        s = SymbolicSubset(space, FiniteSubset(p, m))
        c = closure(s)
        assert c.node.mask == p.down_closure(m)
        assert is_closed(c)


# ---------------------------------------------------------------------------
# infinite leaves: frozen tables


def S(space, cofinite, indices, generic):
    return SymbolicSubset(normalize(space), GoaSet(cofinite, frozenset(indices), generic))


GOA_TABLE = [
    # (cofinite, indices, generic) -> open, qc_open, thomason, constructible
    ((False, (), False), (True, True, True, True)),  # empty
    ((True, (), True), (True, True, True, True)),  # whole
    ((False, (), True), (False, False, False, False)),  # {eta}
    ((False, (0,), False), (False, False, True, True)),  # {c0}
    ((False, (0,), True), (False, False, False, False)),  # {c0, eta}
    ((True, (0,), True), (True, True, False, True)),  # whole minus c0
    ((True, (), False), (False, False, True, False)),  # all closed points
    ((True, (1, 2), False), (False, False, True, False)),  # cofinite closed, no eta
]

DUAL_GOA_TABLE = [
    ((False, (), False), (True, True, True, True)),  # empty
    ((True, (), True), (True, True, True, True)),  # whole
    ((False, (), True), (False, False, False, False)),  # {eta}
    ((False, (0,), False), (True, True, False, True)),  # {c0}: now open
    ((False, (0,), True), (False, False, False, False)),  # {c0, eta}
    ((True, (0,), True), (False, False, True, True)),  # whole minus c0: Thomason
    ((True, (), False), (True, False, False, False)),  # all closed: open, not qc
    ((True, (1, 2), False), (True, False, False, False)),
]


@pytest.mark.parametrize("shape,expected", GOA_TABLE)
def test_goa_leaf_table(shape, expected):
    s = S(GOA, *shape)
    assert (is_open(s), is_quasi_compact_open(s), is_thomason(s), is_constructible(s)) == expected


@pytest.mark.parametrize("shape,expected", DUAL_GOA_TABLE)
def test_dual_goa_leaf_table(shape, expected):
    s = S(Dual(GOA), *shape)
    assert (is_open(s), is_quasi_compact_open(s), is_thomason(s), is_constructible(s)) == expected


def test_qc_open_equals_constructible_and_gen_closed():
    # cross-validation of the quasi-compactness rules
    for space in (GOA, Dual(GOA)):
        for node in goa_shapes(4):
            s = SymbolicSubset(normalize(space), node)
            expect = is_open(s) and is_constructible(s) and is_generalization_closed(s)
            assert is_quasi_compact_open(s) == expect
    for p in exhaustive_posets(4):
        space = Finite(p)
        for m in range(1 << p.n):
            s = SymbolicSubset(space, FiniteSubset(p, m))
            expect = is_open(s) and is_constructible(s) and is_generalization_closed(s)
            assert is_quasi_compact_open(s) == expect


def test_goa_closure_rules():
    assert closure(S(GOA, False, (0, 1), False)).node == GoaSet(False, frozenset({0, 1}), False)
    assert closure(S(GOA, True, (0,), False)).is_whole
    assert closure(S(GOA, False, (), True)).is_whole
    assert closure(S(Dual(GOA), False, (0,), False)).node == GoaSet(False, frozenset({0}), True)
    assert closure(S(Dual(GOA), False, (), False)).is_empty


def test_thomason_iff_open_in_dual():
    for space in (GOA, Dual(GOA)):
        for node in goa_shapes(4):
            s = SymbolicSubset(normalize(space), node)
            assert is_thomason(s) == is_open(s.in_dual())


def test_constructible_invariant_under_dual():
    for space in (GOA, Dual(GOA), Finite(diamond()), Sum((GOA, Finite(chain(2))))):
        from specspace.verify import descriptor_shapes

        for s in descriptor_shapes(space):
            assert is_constructible(s) == is_constructible(s.in_dual())


# ---------------------------------------------------------------------------
# weak visibility


def test_every_small_finite_subset_agreement():
    for n in range(5):
        for p in exhaustive_posets(n):
            space = Finite(p)
            for m in range(1 << n):
                s = SymbolicSubset(space, FiniteSubset(p, m))
                witness = weakly_visible_witness(s)
                assert (witness is not None) == weakly_visible_inverse(s)
                if witness is not None:
                    w1, w2 = witness
                    assert is_thomason(w1) and is_thomason(w2)
                    assert w1.difference(w2) == s


def test_every_point_of_a_finite_space_is_weakly_visible():
    for n in range(5):
        for p in exhaustive_posets(n):
            space = Finite(p)
            for i in range(n):
                assert is_weakly_visible(SymbolicSubset(space, FiniteSubset(p, 1 << i)))


def test_chain3_gap_subset_not_weakly_visible():
    # bottom and top of a 3-chain without the middle: no Thomason pair fits
    p = chain(3)
    s = SymbolicSubset(Finite(p), p.subset(["a0", "a2"]))
    assert not is_weakly_visible(s)


def test_goa_eta_weakly_visible_with_witness():
    s = closed_points(GOA, [], generic=True)
    witness = weakly_visible_witness(s)
    assert witness is not None
    w1, w2 = witness
    assert is_thomason(w1) and is_thomason(w2)
    assert w1.difference(w2) == s
    assert is_weakly_visible(s)


def test_dual_goa_eta_not_weakly_visible():
    s = closed_points(Dual(GOA), [], generic=True)
    assert weakly_visible_witness(s) is None
    assert not is_weakly_visible(s)


def test_dual_goa_closed_point_weakly_visible():
    s = closed_points(Dual(GOA), [0])
    assert is_weakly_visible(s)


def test_weak_visibility_every_shape_agreement():
    for space in (GOA, Dual(GOA)):
        for node in goa_shapes(4):
            s = SymbolicSubset(normalize(space), node)
            assert (weakly_visible_witness(s) is not None) == weakly_visible_inverse(s)


def test_weak_visibility_on_sums_is_componentwise():
    space = Sum((Finite(chain(3)), Dual(GOA)))
    p = chain(3)
    good = SymbolicSubset(space, SumSet((FiniteSubset(p, 0b010), GoaSet(False, frozenset({0}), False))))
    assert is_weakly_visible(good)
    bad = SymbolicSubset(space, SumSet((FiniteSubset(p, 0b010), GoaSet(False, frozenset(), True))))
    assert not is_weakly_visible(bad)


def _assert_weakly_visible_with_witness(s, expected):
    assert is_weakly_visible(s) == expected, s.describe()
    witness = weakly_visible_witness(s)
    assert (witness is not None) == expected
    if witness is not None:
        w1, w2 = witness
        assert is_thomason(w1) and is_thomason(w2)
        assert w1.difference(w2) == s


def _goa_point_vector(g, universe):
    # membership of c0..c_{universe-1}, of the closed points beyond them, of eta
    return tuple((i in g.indices) != g.cofinite for i in range(universe)) + (g.cofinite, g.generic)


def _goa_table_thomason(dualized, g):
    # the Thomason column of the leaf table in the topology docstring
    cofinite_eta = g.cofinite and g.generic
    if dualized:
        return (not g.cofinite and not g.indices and not g.generic) or cofinite_eta
    return not g.generic or (cofinite_eta and not g.indices)


@pytest.mark.parametrize("dualized", [False, True])
def test_goa_weak_visibility_against_pair_scan(dualized):
    """Brute force over every Thomason descriptor with indices in {0..4},
    set differences taken pointwise, against the canonical witness."""
    universe = 5
    space = normalize(Dual(GOA) if dualized else GOA)
    shapes = list(goa_shapes(universe))
    thomason = [_goa_point_vector(g, universe) for g in shapes if _goa_table_thomason(dualized, g)]
    presentable = {
        tuple(a and not b for a, b in zip(w1, w2)) for w1 in thomason for w2 in thomason
    }
    for node in shapes:
        s = SymbolicSubset(space, node)
        _assert_weakly_visible_with_witness(s, _goa_point_vector(node, universe) in presentable)


@pytest.mark.parametrize("n", range(6, 13))
def test_finite_weak_visibility_against_oracle_on_random_posets(n):
    p = random_poset(1000 + n, n)
    space = Finite(p)
    downs = _oracle_down_masks(p)
    rng = random.Random(n)
    masks = [1 << i for i in range(n)] + [rng.randrange(1 << n) for _ in range(30)]
    for m in masks:
        s = SymbolicSubset(space, FiniteSubset(p, m))
        _assert_weakly_visible_with_witness(s, _oracle_weakly_visible(p, downs, m))


def test_weak_visibility_past_the_enumeration_cap_does_not_enumerate(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("down-set enumeration")

    monkeypatch.setattr(FinitePoset, "down_set_masks", refuse)
    n = 24
    rng = random.Random(24)
    labels = [f"x{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15]
    p = build_poset(labels, pairs)
    space = Finite(p)
    masks = [rng.randrange(1 << n) for _ in range(20)] + [0b101, 1 << 7]
    # differences of down-sets: weakly visible by definition
    masks += [
        p.down_closure(rng.randrange(1 << n)) & ~p.down_closure(rng.randrange(1 << n))
        for _ in range(20)
    ]
    for m in masks:
        s = SymbolicSubset(space, FiniteSubset(p, m))
        convex = p.down_closure(m) & p.up_closure(m) == m
        assert is_weakly_visible(s) == convex
    assert space_props(space).weakly_noetherian


# ---------------------------------------------------------------------------
# closures of point classes


def test_point_predicates_constant_on_closed_class():
    # the closed-point class is decided at c0; permuting indices is a
    # homeomorphism fixing eta, so every index must answer alike
    for space in (GOA, Dual(GOA)):
        e = normalize(space)
        answers = set()
        for k in range(5):
            s = SymbolicSubset(e, GoaSet(False, frozenset({k}), False))
            gen = SymbolicSubset(e, GoaSet(False, frozenset({k}), True))
            answers.add(
                (
                    is_open(s),
                    is_closed(s),
                    is_thomason(s),
                    is_constructible(s),
                    is_weakly_visible(s),
                    is_constructible(gen),
                )
            )
        assert len(answers) == 1


def test_goa_point_closures():
    gen_cls, closed_cls = point_classes(GOA)
    assert cl_closure(gen_cls).is_whole
    assert gen_closure(gen_cls).node == GoaSet(False, frozenset(), True)
    assert cl_closure(closed_cls).node == GoaSet(False, frozenset({0}), False)
    assert gen_closure(closed_cls).node == GoaSet(False, frozenset({0}), True)


def test_dual_goa_point_closures():
    gen_cls, closed_cls = point_classes(Dual(GOA))
    assert cl_closure(gen_cls).node == GoaSet(False, frozenset(), True)
    assert gen_closure(gen_cls).is_whole
    assert gen_closure(closed_cls).node == GoaSet(False, frozenset({0}), False)
    assert cl_closure(closed_cls).node == GoaSet(False, frozenset({0}), True)


def test_finite_point_closures():
    p = chain(3)
    classes = point_classes(Finite(p))
    mid = classes[1]
    assert cl_closure(mid).node.mask == 0b011
    assert gen_closure(mid).node.mask == 0b110


# ---------------------------------------------------------------------------
# space-level properties


def test_space_props_fixtures():
    for entry in BUILTIN_CATALOG:
        props = space_props(entry.space)
        assert props.finite == entry.finite, entry.name
        assert props.noetherian == entry.noetherian, entry.name
        assert props.inverse_noetherian == entry.inverse_noetherian, entry.name
        assert props.weakly_noetherian == entry.weakly_noetherian, entry.name


def test_props_witnesses_check_out():
    for entry in BUILTIN_CATALOG:
        props = space_props(entry.space)
        for chain_w, where in (
            (props.descending_chain, entry.space),
            (props.inverse_descending_chain, dual(entry.space)),
        ):
            if chain_w is None:
                continue
            terms = [chain_w.term(k) for k in range(5)]
            for t in terms:
                assert t.space == normalize(where)
                assert is_closed(t)
            for a, b in zip(terms, terms[1:]):
                assert a != b and a.intersection(b) == b  # strictly descending
        if props.non_visible_class is not None:
            assert not is_weakly_visible(class_singleton(props.non_visible_class))
        assert (props.descending_chain is None) == props.noetherian
        assert (props.non_visible_class is None) == props.weakly_noetherian


def test_noetherian_implies_weakly_noetherian_on_catalog():
    for entry in BUILTIN_CATALOG:
        props = space_props(entry.space)
        assert not props.noetherian or props.weakly_noetherian


def test_patch_discreteness_when_finite():
    # if weakly Noetherian and inverse-Noetherian, every point class is a
    # constructible singleton
    for entry in BUILTIN_CATALOG:
        props = space_props(entry.space)
        if props.weakly_noetherian and props.inverse_noetherian:
            for c in point_classes(entry.space):
                assert is_constructible(class_singleton(c))


def test_sum_props_are_conjunctions():
    props = space_props(Sum((GOA, Dual(GOA))))
    assert not props.noetherian and not props.inverse_noetherian
    assert not props.weakly_noetherian and not props.finite
    assert props.descending_chain is not None
    assert props.non_visible_class is not None


def test_sum_of_finite_leaves_agrees_with_amalgamated_poset():
    """Symbolic decisions on finite sums match direct poset computation."""
    from itertools import product

    from specspace.spaces import amalgamated_poset

    spaces = [
        Sum((Finite(chain(2)), Finite(antichain(2)))),
        Sum((Finite(diamond()), Finite(chain(1)))),
        Sum((Finite(chain(2)), Sum((Finite(chain(1)), Finite(antichain(2)))))),
    ]
    for space in spaces:
        amalgam = amalgamated_poset(space)
        flat = Finite(amalgam)

        def leaf_posets(x):
            if isinstance(x, Sum):
                for s in x.summands:
                    yield from leaf_posets(s)
            else:
                yield x.poset

        posets = list(leaf_posets(space))
        offsets = []
        total = 0
        for q in posets:
            offsets.append(total)
            total += q.n
        assert total == amalgam.n

        def build_node(x, masks):
            if isinstance(x, Sum):
                parts = []
                for s in x.summands:
                    node, masks = build_node(s, masks)
                    parts.append(node)
                return SumSet(tuple(parts)), masks
            return FiniteSubset(x.poset, masks[0]), masks[1:]

        for combo in product(*(range(1 << q.n) for q in posets)):
            node, rest = build_node(space, list(combo))
            assert rest == []
            s = SymbolicSubset(space, node)
            flat_mask = sum(m << off for m, off in zip(combo, offsets))
            f = SymbolicSubset(flat, FiniteSubset(amalgam, flat_mask))
            assert is_open(s) == is_open(f)
            assert is_closed(s) == is_closed(f)
            assert is_quasi_compact_open(s) == is_quasi_compact_open(f)
            assert is_thomason(s) == is_thomason(f)
            assert is_constructible(s) == is_constructible(f)
            assert is_weakly_visible(s) == is_weakly_visible(f)

        sym = space_props(space)
        direct = space_props(flat)
        assert (sym.finite, sym.noetherian, sym.inverse_noetherian, sym.weakly_noetherian) == (
            direct.finite,
            direct.noetherian,
            direct.inverse_noetherian,
            direct.weakly_noetherian,
        )
        from specspace.ideals import count_radical_ideals

        assert count_radical_ideals(space).count == count_radical_ideals(flat).count
