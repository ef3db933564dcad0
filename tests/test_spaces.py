import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from specspace.catalog import BUILTIN_CATALOG, antichain, chain
from specspace.poset import FinitePoset, FiniteSubset
from specspace.spaces import (
    GOA,
    Dual,
    Finite,
    Sum,
    amalgamated_poset,
    dual,
    is_finite_space,
    is_normalized,
    normalize,
    point_classes,
)
from specspace.subsets import (
    CarrierMismatchError,
    GoaSet,
    SumSet,
    SymbolicSubset,
    class_singleton,
    closed_points,
    empty,
    whole,
)


def goa_shapes(universe=5):
    for pick in range(1 << universe):
        idx = frozenset(i for i in range(universe) if (pick >> i) & 1)
        for cof in (False, True):
            for g in (False, True):
                yield GoaSet(cof, idx, g)


def model(node: GoaSet, size=10):
    """Oracle: the denoted point set truncated to c0..c{size-1} plus eta."""
    pts = {f"c{i}" for i in range(size) if (i in node.indices) != node.cofinite}
    if node.generic:
        pts.add("eta")
    return pts


def test_normalize_double_dual_goa():
    assert normalize(Dual(Dual(GOA))) == GOA


def test_normalize_dual_of_finite_is_opposite():
    p = chain(2)
    assert normalize(Dual(Finite(p))) == Finite(p.opposite)


def test_normalize_pushes_dual_into_sums():
    p = chain(2)
    e = Dual(Sum((Finite(p), GOA)))
    assert normalize(e) == Sum((Finite(p.opposite), Dual(GOA)))


def test_normalize_idempotent_on_catalog():
    for entry in BUILTIN_CATALOG:
        n = normalize(entry.space)
        assert is_normalized(n)
        assert normalize(n) == n


def test_dual_is_involution_on_catalog():
    for entry in BUILTIN_CATALOG:
        assert dual(dual(entry.space)) == normalize(entry.space)


@pytest.mark.parametrize("entry", BUILTIN_CATALOG, ids=lambda e: e.name)
def test_normal_forms_and_duals_are_built_once(entry):
    n = normalize(entry.space)
    assert normalize(n) is n
    d = dual(n)
    assert dual(n) is d
    assert normalize(d) is d


def test_reimported_package_is_collected():
    # a fresh interpreter: the test runner holds its own copy of the package
    script = """
import gc, importlib, sys, weakref
refs = []
for _ in range(20):
    for name in [m for m in sys.modules if m == "specspace" or m.startswith("specspace.")]:
        del sys.modules[name]
    importlib.import_module("specspace.cli")
    refs.append(weakref.ref(sys.modules["specspace.spaces"].Finite))
    refs.append(weakref.ref(sys.modules["specspace.subsets"].SumSet))
gc.collect()
print(sum(r() is not None for r in refs))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"  # the last import's two classes only


def test_point_class_counts():
    assert len(point_classes(Finite(chain(2)))) == 2
    assert len(point_classes(GOA)) == 2
    assert len(point_classes(Sum((GOA, Dual(GOA))))) == 4
    assert point_classes(Sum(())) == ()


def test_point_class_descriptions():
    classes = point_classes(GOA)
    kinds = {c.kind for c in classes}
    assert kinds == {"generic", "closed"}
    sums = point_classes(Sum((GOA, Dual(GOA))))
    assert any("summand 1" in c.describe() for c in sums)


def test_complement_of_empty_is_whole():
    for entry in BUILTIN_CATALOG:
        assert empty(entry.space).complement() == whole(entry.space)


def test_goa_complement_example():
    s = GoaSet(False, frozenset({0}), False)  # {c0}, eta excluded
    assert s.complement() == GoaSet(True, frozenset({0}), True)


def test_goa_union_example():
    # {c0} union (all closed except {c0, c1}) = all closed except {c1}
    a = GoaSet(False, frozenset({0}), False)
    b = GoaSet(True, frozenset({0, 1}), False)
    assert a.union(b) == GoaSet(True, frozenset({1}), False)


def test_goa_algebra_against_model():
    shapes = list(goa_shapes(3))
    for a in shapes:
        assert model(a.complement()) == ({f"c{i}" for i in range(10)} | {"eta"}) - model(a)
        for b in shapes:
            assert model(a.union(b)) == model(a) | model(b)
            assert model(a.intersection(b)) == model(a) & model(b)
            assert model(a.difference(b)) == model(a) - model(b)


def test_de_morgan_exhaustive_shapes():
    shapes = list(goa_shapes(5))
    for a, b in combinations(shapes, 2):
        assert a.union(b).complement() == a.complement().intersection(b.complement())
        assert a.intersection(b).complement() == a.complement().union(b.complement())


def test_symbolic_ops_componentwise():
    space = Sum((Finite(antichain(2)), GOA))
    p = antichain(2)
    a = SymbolicSubset(space, SumSet((FiniteSubset(p, 0b01), GoaSet(False, frozenset({0}), True))))
    b = SymbolicSubset(space, SumSet((FiniteSubset(p, 0b10), GoaSet(False, frozenset({1}), False))))
    u = a.union(b)
    assert u.node == SumSet((FiniteSubset(p, 0b11), GoaSet(False, frozenset({0, 1}), True)))
    assert a.intersection(b).is_empty


def test_carrier_mismatch_rejected():
    with pytest.raises(CarrierMismatchError):
        whole(GOA).union(whole(Dual(GOA)))
    with pytest.raises(CarrierMismatchError):
        SymbolicSubset(GOA, FiniteSubset(chain(2), 0))


def test_subsets_attach_to_normal_forms_only():
    with pytest.raises(CarrierMismatchError):
        SymbolicSubset(Dual(Finite(chain(2))), FiniteSubset(chain(2).opposite, 0))


def test_finite_leaf_carrier_checked_unless_identical():
    p = chain(2)
    with pytest.raises(CarrierMismatchError):
        SymbolicSubset(Finite(p), FiniteSubset(antichain(2), 0))
    with pytest.raises(CarrierMismatchError):
        SymbolicSubset(Dual(Finite(p)), FiniteSubset(p, 0))
    twin = FinitePoset(p.labels, p.down)
    assert twin == p and twin is not p
    s = SymbolicSubset(Finite(p), FiniteSubset(twin, 0b01))
    assert s == SymbolicSubset(Finite(p), FiniteSubset(p, 0b01))


def test_class_singletons():
    for entry in BUILTIN_CATALOG:
        for c in point_classes(entry.space):
            s = class_singleton(c)
            assert not s.is_empty
            assert s.space == normalize(entry.space)


def test_in_dual_preserves_points():
    s = closed_points(GOA, [0, 2], generic=True)
    sd = s.in_dual()
    assert sd.space == Dual(GOA)
    assert sd.node == s.node
    assert sd.in_dual() == s


def test_amalgamated_poset_matches_sum():
    space = Sum((Finite(chain(2)), Finite(antichain(2))))
    p = amalgamated_poset(space)
    assert p.n == 4
    assert sorted(p.labels) == ["0.a0", "0.a1", "1.a0", "1.a1"]
    # order within the chain survives, no cross-summand relations
    i, j = p.index("0.a0"), p.index("0.a1")
    assert p.leq(i, j)
    assert not any(
        p.leq(a, b)
        for a in (p.index("0.a0"), p.index("0.a1"))
        for b in (p.index("1.a0"), p.index("1.a1"))
    )
    with pytest.raises(ValueError):
        amalgamated_poset(GOA)


def test_is_finite_space():
    assert is_finite_space(Finite(chain(3)))
    assert is_finite_space(Sum(()))
    assert not is_finite_space(GOA)
    assert not is_finite_space(Sum((Finite(chain(1)), Dual(GOA))))
