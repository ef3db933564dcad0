import pytest

from specspace.catalog import antichain, chain, diamond, fan
from specspace.poset import (
    CycleError,
    DuplicateLabelError,
    EnumerationCapError,
    FinitePoset,
    FiniteSubset,
    PosetError,
    build_poset,
    enumerate_down_sets,
    is_down_set,
    is_up_set,
    opposite_poset,
)
from specspace.verify import _oracle_down_masks, exhaustive_posets, random_poset


def brute_down_masks(p):
    """Oracle: filter every bitmask by the down-closure condition."""
    out = []
    for m in range(1 << p.n):
        if all(p.down[i] & ~m == 0 for i in range(p.n) if (m >> i) & 1):
            out.append(m)
    return out


def test_singleton():
    p = build_poset(["a"], [])
    assert p.n == 1
    assert p.leq(0, 0)


def test_two_chain():
    p = build_poset(["a", "b"], [("a", "b")])
    assert p.leq(0, 1) and not p.leq(1, 0)


def test_three_chain_closure_has_six_pairs():
    # reflexive-transitive closure of a<=b<=c (with the redundant a<=c given)
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    pairs = {(i, j) for j in range(3) for i in range(3) if p.leq(i, j)}
    assert pairs == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}
    assert len(pairs) == 6


def test_transitive_closure_inferred():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq(0, 2)


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabelError):
        build_poset(["a", "a"], [])


def test_cycle_reported_with_members():
    with pytest.raises(CycleError) as err:
        build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert set(err.value.cycle) <= {"a", "b", "c"}
    assert len(err.value.cycle) >= 2


def test_unknown_cover_label():
    with pytest.raises(PosetError):
        build_poset(["a"], [("a", "z")])


def test_opposite_reverses():
    p = build_poset(["a", "b"], [("a", "b")])
    q = opposite_poset(p)
    assert q.leq(1, 0) and not q.leq(0, 1)
    assert q.labels == p.labels


def test_opposite_involution_exhaustive():
    for n in range(5):
        for p in exhaustive_posets(n):
            assert p.opposite.opposite == p


def test_singleton_self_dual():
    p = build_poset(["a"], [])
    assert opposite_poset(p) == p


def test_down_set_examples():
    p = chain(2)
    assert is_down_set(p, p.subset(["a0"]))
    assert not is_down_set(p, p.subset(["a1"]))
    assert is_up_set(p, p.subset(["a1"]))
    p3 = chain(3)
    assert not is_down_set(p3, p3.subset(["a0", "a2"]))


def test_down_up_duality_exhaustive():
    for n in range(5):
        for p in exhaustive_posets(n):
            for m in range(1 << n):
                s = FiniteSubset(p, m)
                assert is_down_set(p, s) == is_up_set(p.opposite, FiniteSubset(p.opposite, m))


def test_enumerate_down_sets_against_oracle():
    for n in range(5):
        for p in exhaustive_posets(n):
            got = sorted(s.mask for s in enumerate_down_sets(p))
            assert got == brute_down_masks(p)


def test_down_set_counts():
    assert len(list(enumerate_down_sets(antichain(2)))) == 4
    assert len(list(enumerate_down_sets(build_poset([], [])))) == 1
    for n in range(1, 7):
        assert len(list(enumerate_down_sets(chain(n)))) == n + 1
    assert len(list(enumerate_down_sets(diamond()))) == 6
    assert len(list(enumerate_down_sets(fan(5)))) == 33


def test_count_down_sets_against_oracle():
    for n in range(6):
        for p in exhaustive_posets(n):
            assert p.count_down_sets() == len(_oracle_down_masks(p))
    for seed in range(40):
        p = random_poset(seed, 6 + seed % 7)
        assert p.count_down_sets() == len(_oracle_down_masks(p))


def test_count_down_sets_closed_forms():
    for n in range(61):
        assert chain(n).count_down_sets() == n + 1
    for n in range(25):
        assert antichain(n).count_down_sets() == 2**n
    for k in range(1, 25):
        assert fan(k).count_down_sets() == 2**k + 1
    assert diamond().count_down_sets() == 6


def test_down_sets_closed_under_union_intersection():
    for n in range(6):
        for p in exhaustive_posets(n):
            downs = set(s.mask for s in enumerate_down_sets(p))
            assert downs == set(brute_down_masks(p))
            for a in downs:
                for b in downs:
                    assert (a | b) in downs
                    assert (a & b) in downs


def test_complement_involution_swaps_down_and_up():
    for p in (chain(3), antichain(3), diamond()):
        for m in range(1 << p.n):
            s = FiniteSubset(p, m)
            assert s.complement().complement() == s
            assert is_down_set(p, s) == is_up_set(p, s.complement())


def test_subset_operations():
    p = antichain(3)
    a = p.subset(["a0", "a1"])
    b = p.subset(["a1", "a2"])
    assert (a & b).members() == ("a1",)
    assert set((a | b).members()) == {"a0", "a1", "a2"}
    assert (a - b).members() == ("a0",)
    assert "a0" in a and "a2" not in a
    assert len(a) == 2


def test_subset_carrier_checked():
    with pytest.raises(PosetError):
        chain(2).subset(["a0"]).union(antichain(2).subset(["a0"]))


def test_enumeration_cap():
    big = antichain(21)
    with pytest.raises(EnumerationCapError):
        list(enumerate_down_sets(big))
    assert len(list(enumerate_down_sets(big, cap=21))) == 2**21


def test_covers_recovered():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers == ((0, 1), (1, 2))


def test_internal_builds_skip_the_checks(monkeypatch):
    def refuse(self):
        raise AssertionError("__post_init__ ran")

    monkeypatch.setattr(FinitePoset, "__post_init__", refuse)
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    q = p.opposite
    assert p.down == (0b001, 0b011, 0b111)
    assert q.down == (0b111, 0b110, 0b100)
    assert q.full_mask == p.full_mask == 0b111
    with pytest.raises(AssertionError):
        FinitePoset(p.labels, p.down)


@pytest.mark.parametrize(
    "down, error",
    [
        ((0b01, 0b00), "not reflexive"),
        ((0b001, 0b011, 0b110), "not transitive"),
        ((0b11, 0b11), "cycle detected"),
    ],
)
def test_direct_construction_still_validates(down, error):
    labels = tuple("abc"[: len(down)])
    with pytest.raises(PosetError, match=error):
        FinitePoset(labels, down)


def test_cycle_message_names_the_generating_path():
    with pytest.raises(CycleError) as err:
        build_poset(["a", "b", "c", "d"], [("d", "d"), ("a", "b"), ("b", "c"), ("c", "a")])
    assert str(err.value) == "cycle detected: b <= c <= a <= b"


def test_large_posets_build_and_count_exactly():
    assert chain(2000).count_down_sets() == 2001
    assert antichain(2000).count_down_sets() == 2**2000
    assert fan(1000).count_down_sets() == 2**1000 + 1

