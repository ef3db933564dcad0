"""Independent answers for the benchmark's correctness checks.

Nothing here imports specspace.  Finite posets are handled as lists of
bitmasks built from the generated cover pairs by the benchmark's own
transitive closure; the infinite leaves follow the leaf-family table in
the ``specspace.topology`` docstring; space documents are normalized by
tracking dual parity down the generated tree.
"""

from __future__ import annotations

from functools import lru_cache

# Keys of a subset report, in the order ``specspace props`` prints them.
REPORT_KEYS = (
    "open",
    "closed",
    "quasi_compact_open",
    "thomason",
    "constructible",
    "weakly_visible",
)


# ---------------------------------------------------------------------------
# finite posets as bitmasks


def down_masks(n: int, pairs) -> tuple[int, ...]:
    """``down[i]``: every ``j <= i``, for the order generated by ``(a, b)``
    pairs meaning ``a <= b`` (Warshall's closure on bit rows)."""
    down = [1 << i for i in range(n)]
    for a, b in pairs:
        down[b] |= 1 << a
    for k in range(n):
        for i in range(n):
            if (down[i] >> k) & 1:
                down[i] |= down[k]
    return tuple(down)


def up_masks(down) -> tuple[int, ...]:
    up = [0] * len(down)
    for j, d in enumerate(down):
        for i in range(len(down)):
            if (d >> i) & 1:
                up[i] |= 1 << j
    return tuple(up)


def _close(rows, mask: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        if (mask >> i) & 1:
            out |= row
    return out


def is_convex(down, up, v: int) -> bool:
    """``down(v) & up(v) == v``: exactly the subsets that are a difference
    of two down-sets."""
    return _close(down, v) & _close(up, v) == v


def finite_report(down, up, v: int) -> dict:
    is_up = _close(up, v) == v
    is_down = _close(down, v) == v
    report = {
        "open": is_up,
        "closed": is_down,
        "quasi_compact_open": is_up,
        "thomason": is_down,
        "constructible": True,
        "weakly_visible": is_convex(down, up, v),
    }
    if is_down:
        report["ideal_finitely_generated"] = True
    return report


def brute_force_down_set_count(down) -> int:
    n = len(down)
    return sum(
        1
        for m in range(1 << n)
        if all(not (m >> i) & 1 or down[i] & ~m == 0 for i in range(n))
    )


def antichain_count(down) -> int:
    """Number of antichains (= down-sets), by the pivot recursion
    A(S) = A(S - x) + A(S - (down(x) | up(x))), memoized on bitmasks."""
    up = up_masks(down)
    near = [d | u for d, u in zip(down, up)]

    @lru_cache(maxsize=None)
    def count(mask: int) -> int:
        if not mask:
            return 1
        x = max(_bit_indices(mask), key=lambda i: (near[i] & mask).bit_count())
        return count(mask & ~(1 << x)) + count(mask & ~near[x])

    return count((1 << len(down)) - 1)


def down_set_count(down) -> int:
    if len(down) <= 16:
        return brute_force_down_set_count(down)
    return antichain_count(down)


def _bit_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# the infinite leaf and its dual (leaf-family table)


def goa_report(dualized: bool, cofinite: bool, indices: frozenset, generic: bool) -> dict:
    empty = not cofinite and not indices and not generic
    whole = cofinite and not indices and generic
    finite_no_eta = not cofinite and not generic
    cofinite_eta = cofinite and generic
    constructible = finite_no_eta or cofinite_eta
    if dualized:
        opened = not generic or whole
        closed = generic or empty
        qc_open = finite_no_eta or whole
        thomason = empty or cofinite_eta
        visible = constructible
    else:
        opened = empty or cofinite_eta
        closed = whole or finite_no_eta
        qc_open = opened
        thomason = not generic or whole
        visible = True
    report = {
        "open": opened,
        "closed": closed,
        "quasi_compact_open": qc_open,
        "thomason": thomason,
        "constructible": constructible,
        "weakly_visible": visible,
    }
    if thomason:
        # the complement of a constructible set is constructible
        report["ideal_finitely_generated"] = constructible
    return report


def sum_report(parts: list[dict]) -> dict:
    """Every notion decides summand by summand."""
    report = {key: all(p[key] for p in parts) for key in REPORT_KEYS}
    if report["thomason"]:
        report["ideal_finitely_generated"] = all(
            p["ideal_finitely_generated"] for p in parts
        )
    return report


# ---------------------------------------------------------------------------
# space documents


def normalized_leaves(space: dict, flipped: bool = False) -> list[tuple]:
    """Leaves of a generated space record after normalization, in order:
    ``("finite", names, pairs)`` with pairs oriented in the normalized
    order, or ``("goa", dualized)``."""
    kind = space["kind"]
    if kind == "dual":
        return normalized_leaves(space["space"], not flipped)
    if kind == "sum":
        out: list[tuple] = []
        for part in space["summands"]:
            out.extend(normalized_leaves(part, flipped))
        return out
    if kind == "generic_over_antichain":
        return [("goa", flipped)]
    names = space["elements"]
    pairs = [(b, a) if flipped else (a, b) for a, b in space.get("leq", [])]
    return [("finite", names, pairs)]


def normalized_record(space: dict, flipped: bool = False) -> dict:
    """The normalized record with each ``leq`` list replaced by the set of
    all strict pairs of the closed order, for structural comparison."""
    kind = space["kind"]
    if kind == "dual":
        return normalized_record(space["space"], not flipped)
    if kind == "sum":
        return {
            "kind": "sum",
            "summands": [normalized_record(p, flipped) for p in space["summands"]],
        }
    if kind == "generic_over_antichain":
        goa = {"kind": "generic_over_antichain"}
        return {"kind": "dual", "space": goa} if flipped else goa
    names = space["elements"]
    index = {name: i for i, name in enumerate(names)}
    pairs = [(index[a], index[b]) for a, b in space.get("leq", [])]
    if flipped:
        pairs = [(b, a) for a, b in pairs]
    return {
        "kind": "finite",
        "elements": list(names),
        "leq": strict_pairs(names, down_masks(len(names), pairs)),
    }


def strict_pairs(names, down) -> frozenset:
    return frozenset(
        (names[i], names[j])
        for j, d in enumerate(down)
        for i in range(len(names))
        if i != j and (d >> i) & 1
    )


def comparable_record(obj: dict) -> dict:
    """A parsed space record in the form ``normalized_record`` produces."""
    kind = obj["kind"]
    if kind == "sum":
        return {"kind": "sum", "summands": [comparable_record(p) for p in obj["summands"]]}
    if kind == "dual":
        return {"kind": "dual", "space": comparable_record(obj["space"])}
    if kind == "finite":
        return {
            "kind": "finite",
            "elements": list(obj["elements"]),
            "leq": frozenset(tuple(p) for p in obj.get("leq", [])),
        }
    return dict(obj)


def space_facts(space: dict) -> dict:
    """Expected ``props --format structured`` flags and witness keys, and
    the ``ideals --count`` answer, from the leaf-family rules."""
    leaves = normalized_leaves(space)
    has_goa = any(leaf == ("goa", False) for leaf in leaves)
    has_dual_goa = any(leaf == ("goa", True) for leaf in leaves)
    finite = not has_goa and not has_dual_goa
    count: int | str = "infinite"
    if finite:
        count = 1
        for _, names, pairs in leaves:
            index = {name: i for i, name in enumerate(names)}
            down = down_masks(len(names), [(index[a], index[b]) for a, b in pairs])
            count *= down_set_count(down)
    witnesses = set()
    if has_goa:
        witnesses |= {"non_fg_prime", "non_fg_ideal_support"}
    if has_dual_goa:
        witnesses |= {"non_weakly_visible_point", "descending_chain"}
    if not finite:
        witnesses.add("ideal_family")
    return {
        "finite": finite,
        "noetherian": not has_dual_goa,
        "inverse_noetherian": not has_goa,
        "weakly_noetherian": not has_dual_goa,
        "radical_ideals": count,
        "every_radical_ideal_fg": not has_goa,
        "every_prime_ideal_fg": not has_goa,
        "witnesses": frozenset(witnesses),
    }


# ---------------------------------------------------------------------------
# verify instance counts

# Instances that the 24-entry builtin catalog contributes to each statement
# (fixed by the catalog, counted once at the seed commit).
CATALOG_INSTANCES = {
    "wv-inverse": 1756,
    "finiteness": 24,
    "fg-lemma-consistency": 514,
    "proposition": 24,
    "theorem": 24,
    "remark": 24,
    "duality-involution": 1780,
}

# Statements that ``specspace verify --seed`` also runs on the random posets.
RANDOM_SAFE = ("finiteness", "proposition", "theorem", "remark", "duality-involution")


def labeled_posets(n: int):
    """Down-mask tuples of every labeled poset on ``n`` points, by filtering
    all relations; only meant for n <= 4 (4,096 candidates)."""
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    for pick in range(1 << len(slots)):
        down = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(slots):
            if (pick >> k) & 1:
                down[j] |= 1 << i
        if all(
            down[j] & ~down[i] == 0
            for i in range(n)
            for j in range(n)
            if (down[i] >> j) & 1
        ) and not any(
            (down[i] >> j) & 1 and (down[j] >> i) & 1 for i, j in slots
        ):
            yield tuple(down)


def expected_instances(max_size: int, extra_sizes) -> dict[str, int]:
    """Instances per statement of ``check_statement(s, max_size=N,
    scope="both")``, with random posets of ``extra_sizes`` points passed as
    extras to the RANDOM_SAFE statements only."""
    posets = [d for n in range(max_size + 1) for d in labeled_posets(n)]
    subsets = sum(1 << len(d) for d in posets)
    downs = [brute_force_down_set_count(d) for d in posets]
    counts = {
        "wv-inverse": subsets,
        "finiteness": len(posets),
        "fg-lemma-consistency": sum(k + k * k for k in downs),
        "proposition": len(posets),
        "theorem": len(posets),
        "remark": len(posets),
        "duality-involution": len(posets) + subsets,
    }
    for statement in RANDOM_SAFE:
        counts[statement] += len(extra_sizes)
    counts["duality-involution"] += sum(1 << n for n in extra_sizes)
    return {s: c + CATALOG_INSTANCES[s] for s, c in counts.items()}
