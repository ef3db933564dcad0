import pytest

from specspace.poset import EnumerationCapError, FinitePoset
from specspace.verify import (
    STATEMENTS,
    check_statement,
    descriptor_shapes,
    exhaustive_posets,
    random_poset,
    run_all,
)
from specspace.spaces import GOA, Dual, Finite, Sum
from specspace.catalog import chain


def poset_count_by_relation_filter(n):
    """Oracle: count partial orders by filtering every strict relation."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for pick in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if (pick >> k) & 1}
        if any((j, i) in rel for (i, j) in rel):
            continue
        if any(
            (i, j) in rel and (j, k) in rel and (i, k) not in rel
            for (i, j) in rel
            for (j2, k) in rel
            if j == j2
        ):
            continue
        count += 1
    return count


KNOWN_LABELED_POSET_COUNTS = {0: 1, 1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}


def test_exhaustive_counts_match_known_sequence():
    for n, expected in KNOWN_LABELED_POSET_COUNTS.items():
        assert sum(1 for _ in exhaustive_posets(n)) == expected


def test_exhaustive_counts_match_relation_filter():
    for n in range(4):
        assert sum(1 for _ in exhaustive_posets(n)) == poset_count_by_relation_filter(n)


def test_exhaustive_posets_distinct_and_valid():
    seen = set()
    for p in exhaustive_posets(4):
        assert isinstance(p, FinitePoset)  # construction re-validates the axioms
        assert p.down not in seen
        seen.add(p.down)


def test_exhaustive_bound():
    with pytest.raises(ValueError):
        list(exhaustive_posets(7))


def test_random_poset_deterministic():
    assert random_poset(0, 1).n == 1
    assert random_poset(3, 8) == random_poset(3, 8)
    assert random_poset(3, 8) != random_poset(4, 8)


def test_random_poset_valid_and_bounded():
    for seed in range(10):
        random_poset(seed, 12)  # construction validates
    with pytest.raises(ValueError):
        random_poset(0, 21)


def test_unknown_statement_rejected():
    with pytest.raises(ValueError):
        check_statement("nonsense")
    with pytest.raises(ValueError):
        check_statement("theorem", scope="everything")


@pytest.mark.parametrize("statement", STATEMENTS)
def test_statements_pass_small_scope(statement):
    res = check_statement(statement, max_size=3, scope="both")
    assert res.passed, res.failures
    assert res.instances > 0


def test_statements_pass_with_random_extras():
    extras = [random_poset(5, 6), random_poset(6, 7)]
    for statement in ("finiteness", "remark", "duality-involution"):
        res = check_statement(statement, max_size=2, scope="posets", extra_posets=extras)
        assert res.passed, res.failures


def test_run_all_reports_every_statement():
    results = run_all(max_size=2, scope="catalog")
    assert [r.statement for r in results] == list(STATEMENTS)
    assert all(r.passed for r in results)


def test_descriptor_shapes_cover_all_leaf_patterns():
    shapes = descriptor_shapes(GOA)
    assert len(shapes) == len(set(shapes)) == 2 * 2 * 16
    shapes = descriptor_shapes(Sum((Finite(chain(2)), Dual(GOA))))
    assert len(shapes) == 4 * 16  # 2^2 masks times 2*2*4 descriptor shapes


def test_descriptor_shapes_refused_past_the_cap():
    from specspace.catalog import catalog_entry

    assert len(descriptor_shapes(catalog_entry("nested-sum").space)) == 512
    with pytest.raises(EnumerationCapError):
        descriptor_shapes(Finite(chain(15)))
    with pytest.raises(EnumerationCapError):
        descriptor_shapes(Sum((GOA,) * 8))  # 16 shapes per leaf, 2^32 in all


def test_failures_carry_minimal_instance_data():
    # force a failure by checking a statement against a wrong fixture
    from specspace.catalog import CatalogEntry

    wrong = CatalogEntry("wrong-goa", GOA, False, True, True, True, None)
    res = check_statement("finiteness", scope="catalog", entries=(wrong,))
    assert not res.passed
    assert res.failures[0].instance.startswith("wrong-goa")


def _count_fg_decisions(monkeypatch, fail_mask=None):
    """Wrap the decision ``fg-lemma-consistency`` calls; count calls per
    poset and optionally make it fail on one support mask."""
    from specspace import verify

    real = verify.is_finitely_generated
    calls = {}

    def counted(ideal):
        p = ideal.space.poset
        calls[p] = calls.get(p, 0) + 1
        if ideal.support.node.mask == fail_mask:
            return False
        return real(ideal)

    monkeypatch.setattr(verify, "is_finitely_generated", counted)
    return calls


def test_fg_lemma_decides_each_distinct_union_once(monkeypatch):
    calls = _count_fg_decisions(monkeypatch)
    res = check_statement("fg-lemma-consistency", max_size=4, scope="posets")
    assert res.passed
    posets = [p for n in range(5) for p in exhaustive_posets(n)]
    downs = {p: p.count_down_sets() for p in posets}
    assert res.instances == sum(d + d * d for d in downs.values())
    assert set(calls) == set(downs)
    for p, d in downs.items():
        assert calls[p] <= 2 * d


def test_fg_lemma_failing_union_tagged_with_first_pair(monkeypatch):
    from specspace.catalog import antichain

    # down-sets of a 2-antichain in order 0x0, 0x1, 0x2, 0x3; the union
    # 0x3 arises from nine pairs, first from (0x0, 0x3)
    _count_fg_decisions(monkeypatch, fail_mask=0b11)
    res = check_statement(
        "fg-lemma-consistency", max_size=0, scope="posets", extra_posets=(antichain(2),)
    )
    unions = [f.instance for f in res.failures if " union " in f.instance]
    assert len(unions) == 1
    assert unions[0].endswith("union 0x0|0x3")
    assert res.instances == 1 + 1 + 4 + 16
