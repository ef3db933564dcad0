"""``build_poset`` against a brute-force closure and the fixpoint builder."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from specspace.poset import CycleError, build_poset


def brute_closure(n, pairs):
    """Reflexive-transitive closure as a set of pairs, by repeated composition."""
    rel = {(i, i) for i in range(n)} | set(pairs)
    while True:
        more = rel | {(a, d) for a, b in rel for c, d in rel if b == c}
        if more == rel:
            return rel
        rel = more


def fixpoint_build(labels, edges):
    """Closure by iterating to a fixpoint, then the first pair i != j with
    i <= j <= i in scan order, stitched from the two BFS paths between
    them: the result ``build_poset`` must report, down mask or cycle."""
    n = len(labels)
    down = [1 << i for i in range(n)]
    for a, succ in enumerate(edges):
        for b in succ:
            down[b] |= 1 << a
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = down[i]
            for j in range(n):
                if (acc >> j) & 1:
                    acc |= down[j]
            if acc != down[i]:
                down[i] = acc
                changed = True
    for i in range(n):
        for j in range(n):
            if (down[i] >> j) & 1 and j != i and (down[j] >> i) & 1:
                path = bfs_path(edges, j, i) + bfs_path(edges, i, j)[1:-1]
                return None, tuple(labels[k] for k in path)
    return tuple(down), None


def bfs_path(edges, src, dst):
    prev = {src: src}
    queue = [src]
    for u in queue:
        if u == dst:
            break
        for v in edges[u]:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


@st.composite
def relations(draw):
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair, max_size=3 * n))
    if draw(st.booleans()):
        # orient every pair along a random linear order: no cycle, loops kept
        rank = draw(st.permutations(range(n)))
        pairs = [(a, b) if rank[a] <= rank[b] else (b, a) for a, b in pairs]
    return n, pairs


@settings(max_examples=400, deadline=None)
@given(relations())
def test_build_poset_matches_brute_closure_and_fixpoint(relation):
    n, pairs = relation
    labels = [f"p{i}" for i in range(n)]
    edges = [[] for _ in range(n)]
    for a, b in pairs:
        edges[a].append(b)
    want_down, want_cycle = fixpoint_build(labels, edges)
    closure = brute_closure(n, pairs)
    cyclic = any((b, a) in closure for a, b in closure if a != b)
    assert cyclic == (want_cycle is not None)
    try:
        p = build_poset(labels, [(labels[a], labels[b]) for a, b in pairs])
    except CycleError as err:
        assert err.cycle == want_cycle
        assert str(err) == "cycle detected: " + " <= ".join([*want_cycle, want_cycle[0]])
        return
    assert want_cycle is None
    assert p.down == want_down
    assert {(i, j) for i in range(n) for j in range(n) if p.leq(i, j)} == closure
