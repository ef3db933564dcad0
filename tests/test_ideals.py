import pytest

from specspace import subsets
from specspace.catalog import BUILTIN_CATALOG, antichain, chain
from specspace.ideals import (
    NotThomasonError,
    all_radical_ideals_fg,
    cohen_report,
    count_radical_ideals,
    enumerate_radical_ideals,
    find_non_fg_prime,
    ideal_from_thomason,
    is_finitely_generated,
    prime_at_point,
)
from specspace.spaces import GOA, Dual, Finite, Sum, point_classes
from specspace.subsets import GoaSet, closed_points, empty, whole
from specspace.topology import is_thomason, space_props
from specspace.verify import exhaustive_posets


def brute_down_masks(p):
    return [
        m
        for m in range(1 << p.n)
        if all(p.down[i] & ~m == 0 for i in range(p.n) if (m >> i) & 1)
    ]


def test_zero_and_unit_ideals():
    for space in (GOA, Dual(GOA), Finite(chain(3))):
        zero = ideal_from_thomason(empty(space))
        unit = ideal_from_thomason(whole(space))
        assert zero.is_zero and unit.is_unit
        assert is_finitely_generated(zero)
        assert is_finitely_generated(unit)


def test_non_thomason_support_rejected():
    eta = closed_points(GOA, [], generic=True)
    with pytest.raises(NotThomasonError):
        ideal_from_thomason(eta)
    # {c0, eta} is not Thomason either
    with pytest.raises(NotThomasonError):
        ideal_from_thomason(closed_points(GOA, [0], generic=True))


def test_goa_one_point_ideal():
    ideal = ideal_from_thomason(closed_points(GOA, [0]))
    assert is_finitely_generated(ideal)


def test_prime_supports():
    gen_cls, closed_cls = point_classes(GOA)
    assert prime_at_point(GOA, gen_cls).support().node == GoaSet(True, frozenset(), False)
    assert prime_at_point(GOA, closed_cls).support().node == GoaSet(True, frozenset({0}), False)
    dgen, dclosed = point_classes(Dual(GOA))
    assert prime_at_point(Dual(GOA), dclosed).support().node == GoaSet(True, frozenset({0}), True)
    assert prime_at_point(Dual(GOA), dgen).support().is_empty


def test_goa_primes_not_finitely_generated():
    for c in point_classes(GOA):
        assert not is_finitely_generated(prime_at_point(GOA, c).as_radical())


def test_dual_goa_primes_finitely_generated():
    for c in point_classes(Dual(GOA)):
        assert is_finitely_generated(prime_at_point(Dual(GOA), c).as_radical())


def test_goa_thomason_fg_rule():
    # finite sets of closed points: fg; cofinite ones and the prime
    # supports: not fg; the whole carrier: fg
    assert is_finitely_generated(ideal_from_thomason(closed_points(GOA, [0, 3])))
    assert is_finitely_generated(ideal_from_thomason(whole(GOA)))
    cofinite = closed_points(GOA, [0], cofinite=True)
    assert is_thomason(cofinite)
    assert not is_finitely_generated(ideal_from_thomason(cofinite))


def test_dual_goa_every_thomason_shape_fg():
    for k in range(4):
        support = closed_points(Dual(GOA), range(k), cofinite=True, generic=True)
        assert is_thomason(support)
        assert is_finitely_generated(ideal_from_thomason(support))


def test_counts():
    assert count_radical_ideals(Finite(antichain(2))).count == 4
    assert count_radical_ideals(Finite(chain(3))).count == 4
    assert count_radical_ideals(Sum((Finite(chain(3)), Finite(antichain(3))))).count == 32
    counted = count_radical_ideals(GOA)
    assert not counted.finite
    terms = [counted.family.term(k) for k in range(5)]
    assert len(set(terms)) == 5
    for t in terms:
        assert is_thomason(t)
    counted = count_radical_ideals(Sum((Finite(chain(2)), Dual(GOA))))
    assert not counted.finite
    terms = [counted.family.term(k) for k in range(5)]
    assert len(set(terms)) == 5
    for t in terms:
        assert is_thomason(t)


def test_classification_bijection_small_posets():
    # supports of enumerated ideals are exactly the down-sets, one each
    for n in range(6):
        for p in exhaustive_posets(n):
            space = Finite(p)
            ideals = list(enumerate_radical_ideals(space))
            masks = sorted(i.support.node.mask for i in ideals)
            assert masks == brute_down_masks(p)
            for ideal in ideals:
                assert ideal_from_thomason(ideal.support) == ideal


def test_enumerate_cap_and_infinite():
    with pytest.raises(NotThomasonError):
        list(enumerate_radical_ideals(GOA))
    with pytest.raises(NotThomasonError):
        list(enumerate_radical_ideals(Finite(antichain(4)), cap=7))


def test_fg_closed_under_union_on_goa_shapes():
    shapes = []
    for pick in range(8):
        idx = frozenset(i for i in range(3) if (pick >> i) & 1)
        shapes.append(closed_points(GOA, idx))
    shapes.append(whole(GOA))
    for a in shapes:
        for b in shapes:
            u = a.union(b)
            assert is_thomason(u)
            if is_finitely_generated(ideal_from_thomason(a)) and is_finitely_generated(
                ideal_from_thomason(b)
            ):
                assert is_finitely_generated(ideal_from_thomason(u))


def test_all_radical_ideals_fg_rules():
    ok, witness = all_radical_ideals_fg(Finite(chain(4)))
    assert ok and witness is None
    ok, witness = all_radical_ideals_fg(GOA)
    assert not ok
    assert witness is not None
    assert is_thomason(witness.support)
    assert not is_finitely_generated(witness)
    ok, witness = all_radical_ideals_fg(Dual(GOA))
    assert ok and witness is None
    ok, witness = all_radical_ideals_fg(Sum((Dual(GOA), GOA)))
    assert not ok and witness is not None
    assert not is_finitely_generated(witness)


def test_cohen_report_goa():
    r = cohen_report(GOA)
    assert (r.every_radical_ideal_fg, r.every_prime_ideal_fg, r.inverse_noetherian) == (
        False,
        False,
        False,
    )
    assert r.weakly_noetherian and not r.finite
    assert r.non_fg_prime is not None
    assert not is_finitely_generated(r.non_fg_prime.as_radical())
    assert r.non_fg_ideal is not None
    assert not r.ideal_count.finite


def test_cohen_report_dual_goa():
    r = cohen_report(Dual(GOA))
    assert (r.every_radical_ideal_fg, r.every_prime_ideal_fg, r.inverse_noetherian) == (
        True,
        True,
        True,
    )
    assert not r.weakly_noetherian and not r.finite
    assert r.non_fg_prime is None and r.non_fg_ideal is None


def test_cohen_report_finite():
    r = cohen_report(Finite(chain(3)))
    assert r.finite and r.weakly_noetherian
    assert r.every_radical_ideal_fg and r.every_prime_ideal_fg and r.inverse_noetherian
    assert r.ideal_count.count == 4


def test_cohen_flags_on_catalog():
    for entry in BUILTIN_CATALOG:
        r = cohen_report(entry.space)
        flags = (r.every_radical_ideal_fg, r.every_prime_ideal_fg, r.inverse_noetherian)
        assert flags == (entry.inverse_noetherian,) * 3, entry.name
        assert r.finite == entry.finite, entry.name
        assert ((r.weakly_noetherian and r.every_radical_ideal_fg) == r.finite), entry.name


def test_find_non_fg_prime():
    c = find_non_fg_prime(GOA)
    assert c is not None
    assert not is_finitely_generated(prime_at_point(GOA, c).as_radical())
    assert find_non_fg_prime(Dual(GOA)) is None
    assert find_non_fg_prime(Finite(chain(4))) is None
    assert find_non_fg_prime(Sum((Finite(chain(2)), GOA))) is not None


def test_prime_class_must_match_space():
    c = point_classes(GOA)[0]
    with pytest.raises(ValueError):
        prime_at_point(Dual(GOA), c)


def test_ideal_equality_is_support_equality():
    a = ideal_from_thomason(closed_points(GOA, [0, 1]))
    b = ideal_from_thomason(closed_points(GOA, [1, 0]))
    c = ideal_from_thomason(closed_points(GOA, [0]))
    assert a == b
    assert a != c


def test_point_class_scans_linear_in_summands(monkeypatch):
    # descriptor work, counted as shape checks (one per descriptor node):
    # a full-width scan does O(k) classes times O(k) nodes, about 16x here
    calls = [0]
    check = subsets._check_shape

    def counting(space, node):
        calls[0] += 1
        return check(space, node)

    monkeypatch.setattr(subsets, "_check_shape", counting)

    def work(report, k):
        calls[0] = 0
        report(Sum((GOA,) * k))
        return calls[0]

    for report in (space_props, cohen_report):
        assert work(report, 160) <= 5 * work(report, 40), report.__name__
