"""Exhaustive and randomized oracles for the package's structural claims.

Every statement is re-proved at desk scale by brute force and compared
against the decision procedures.  The oracles here deliberately avoid the
library's enumeration and decision code: down-sets are found by filtering
all bitmasks, weak visibility by scanning all Thomason pairs, and
constructibility by computing the atoms of the finite Boolean algebra
spanned by the quasi-compact opens.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Iterator, Sequence

from .catalog import BUILTIN_CATALOG, CatalogEntry
from .ideals import (
    cohen_report,
    count_radical_ideals,
    ideal_from_thomason,
    is_finitely_generated,
)
from .poset import EnumerationCapError, FinitePoset, FiniteSubset, build_poset
from .spaces import (
    Dual,
    Finite,
    GenericOverAntichain,
    SpaceExpr,
    Sum,
    amalgamated_poset,
    dual,
    leaves,
    normalize,
)
from .subsets import GoaSet, SetNode, SumSet, SymbolicSubset, class_singleton
from .topology import (
    is_closed,
    is_constructible,
    is_open,
    is_thomason,
    is_weakly_visible,
    space_props,
    weakly_visible_inverse,
    weakly_visible_witness,
)

STATEMENTS = (
    "wv-inverse",
    "finiteness",
    "fg-lemma-consistency",
    "proposition",
    "theorem",
    "remark",
    "duality-involution",
)

MAX_EXHAUSTIVE = 6
MAX_STORED_FAILURES = 20
# subsets listed by ``descriptor_shapes``; the largest catalog entry needs 512
MAX_SHAPES = 1 << 14


@dataclass
class CheckFailure:
    instance: str
    expected: object
    actual: object


@dataclass
class CheckResult:
    statement: str
    scope: str
    instances: int = 0
    failures: list[CheckFailure] = field(default_factory=list)
    failure_count: int = 0
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def record(self, instance: str, expected: object, actual: object) -> None:
        self.failure_count += 1
        if len(self.failures) < MAX_STORED_FAILURES:
            self.failures.append(CheckFailure(instance, expected, actual))

    def check(self, instance: str, expected: object, actual: object) -> None:
        self.instances += 1
        if expected != actual:
            self.record(instance, expected, actual)

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({self.failure_count})"
        return (
            f"{self.statement:<22} {self.scope:<18} "
            f"{self.instances:>8} instances  {status}  ({self.elapsed:.2f}s)"
        )


# ---------------------------------------------------------------------------
# generators


def exhaustive_posets(n: int) -> Iterator[FinitePoset]:
    """All labeled posets on n elements, each exactly once.

    Element n-1 is inserted into every poset on n-1 elements by choosing a
    down-set D of strict predecessors and an up-set U of strict successors
    with D x U inside the existing order; this reconstructs every labeled
    poset uniquely from its restriction.
    """
    if n < 0 or n > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive enumeration bounded at {MAX_EXHAUSTIVE} elements")
    labels = tuple(f"x{i}" for i in range(n))
    for downs in _grow_posets(n):
        yield FinitePoset(labels, downs)


def _grow_posets(k: int) -> Iterator[tuple[int, ...]]:
    if k == 0:
        yield ()
        return
    m = k - 1
    bit = 1 << m
    for downs in _grow_posets(m):
        ups = [0] * m
        for j in range(m):
            for i in range(m):
                if (downs[j] >> i) & 1:
                    ups[i] |= 1 << j
        full = (1 << m) - 1
        down_sets = [
            d
            for d in range(1 << m)
            if all(downs[i] & ~d == 0 for i in range(m) if (d >> i) & 1)
        ]
        for D in down_sets:
            allowed = full & ~D
            for i in range(m):
                if (D >> i) & 1:
                    allowed &= ups[i] & ~(1 << i)
            U = allowed
            while True:
                if all(ups[i] & ~(1 << i) & ~U == 0 for i in range(m) if (U >> i) & 1):
                    new = list(downs)
                    new.append(D | bit)
                    for i in range(m):
                        if (U >> i) & 1:
                            new[i] |= bit
                    yield tuple(new)
                if U == 0:
                    break
                U = (U - 1) & allowed


def random_poset(seed: int, n: int) -> FinitePoset:
    """Deterministic random poset: a random linear order with each
    order-compatible pair kept with probability one half, then closed."""
    if n < 0 or n > 20:
        raise ValueError("random posets bounded at 20 elements")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    labels = [f"x{i}" for i in range(n)]
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                covers.append((labels[perm[i]], labels[perm[j]]))
    return build_poset(labels, covers)


def descriptor_shapes(space: SpaceExpr, max_index: int | None = None) -> list[SymbolicSubset]:
    """A deterministic family of representable subsets covering every
    descriptor shape; used as the instance pool on symbolic spaces.

    The pool is the product of per-leaf pools (all 2^n subsets of a finite
    leaf, 2^max_index * 4 descriptors of an infinite one); past
    ``MAX_SHAPES`` it raises ``EnumerationCapError`` before building any.
    """
    space = normalize(space)
    lvs = [leaf for _, leaf in leaves(space)]
    if max_index is None:
        max_index = 4 if len(lvs) <= 1 else 2
    total = 1 << sum(
        leaf.poset.n if isinstance(leaf, Finite) else max_index + 2 for leaf in lvs
    )
    if total > MAX_SHAPES:
        raise EnumerationCapError(
            f"{total} subset shapes exceed the cap of {MAX_SHAPES}"
        )

    def shapes(x: SpaceExpr) -> list[SetNode]:
        match x:
            case Finite(p):
                return [FiniteSubset(p, m) for m in range(1 << p.n)]
            case GenericOverAntichain() | Dual(GenericOverAntichain()):
                idx = list(range(max_index))
                out: list[SetNode] = []
                for pick in range(1 << max_index):
                    chosen = frozenset(i for i in idx if (pick >> i) & 1)
                    for cof in (False, True):
                        for g in (False, True):
                            out.append(GoaSet(cof, chosen, g))
                return out
            case Sum(parts):
                pools = [shapes(s) for s in parts]
                return [SumSet(tuple(combo)) for combo in product(*pools)]
        raise ValueError("space not normalized")

    return [SymbolicSubset(space, node) for node in shapes(space)]


# ---------------------------------------------------------------------------
# independent oracles


def _oracle_down_masks(p: FinitePoset) -> list[int]:
    out = []
    for m in range(1 << p.n):
        ok = True
        for i in range(p.n):
            if (m >> i) & 1 and p.down[i] & ~m:
                ok = False
                break
        if ok:
            out.append(m)
    return out


def _oracle_weakly_visible(p: FinitePoset, downs: Sequence[int], v: int) -> bool:
    full = p.full_mask
    for w1 in downs:
        if w1 & v != v:
            continue
        for w2 in downs:
            if w2 & v == 0 and w1 & ~w2 & full == v:
                return True
    return False


def _atoms(vectors: list[tuple[bool, ...]], npoints: int) -> list[list[int]]:
    profile: dict[tuple[bool, ...], list[int]] = {}
    for i in range(npoints):
        key = tuple(vec[i] for vec in vectors)
        profile.setdefault(key, []).append(i)
    return list(profile.values())


def _oracle_finite_constructible(p: FinitePoset):
    """Membership test for the Boolean algebra generated by the up-sets."""
    ups = [m for m in range(1 << p.n) if p.is_up_mask(m)]
    vectors = [tuple(bool((m >> i) & 1) for i in range(p.n)) for m in ups]
    atoms = _atoms(vectors, p.n)

    def member(mask: int) -> bool:
        for atom in atoms:
            inside = [(mask >> i) & 1 for i in atom]
            if any(inside) and not all(inside):
                return False
        return True

    return member


def _goa_vector(node: GoaSet, universe: int) -> tuple[bool, ...]:
    # points: c0..c_{universe-1}, a tail closed point, the generic point
    cs = tuple(node.contains_index(i) for i in range(universe))
    tail = node.cofinite  # indices beyond every generated index set
    return cs + (tail, node.generic)


@cache
def _oracle_goa_constructible(dualized: bool, universe: int):
    """Atoms of the algebra generated by the quasi-compact opens, over a
    truncated point universe plus one tail representative; built once per
    ``(dualized, universe)``."""
    gens: list[GoaSet] = [GoaSet(False, frozenset(), False)]
    for pick in range(1 << universe):
        chosen = frozenset(i for i in range(universe) if (pick >> i) & 1)
        if dualized:
            gens.append(GoaSet(False, chosen, False))  # finite sets of closed pts
        else:
            gens.append(GoaSet(True, chosen, True))  # cofinite opens with eta
    if dualized:
        gens.append(GoaSet(True, frozenset(), True))  # whole carrier
    npoints = universe + 2
    vectors = [_goa_vector(g, universe) for g in gens]
    atoms = _atoms(vectors, npoints)

    def member(node: GoaSet) -> bool:
        if any(i >= universe for i in node.indices):
            raise ValueError("descriptor exceeds oracle universe")
        vec = _goa_vector(node, universe)
        for atom in atoms:
            inside = [vec[i] for i in atom]
            if any(inside) and not all(inside):
                return False
        return True

    return member


def _oracle_constructible(s: SymbolicSubset, universe: int = 6) -> bool:
    """Constructibility decided leaf-wise by the atoms oracle."""

    def walk(space: SpaceExpr, node: SetNode) -> bool:
        match space, node:
            case Sum(parts), SumSet(sub):
                return all(walk(p, x) for p, x in zip(parts, sub))
            case Finite(p), FiniteSubset(_, mask):
                return _oracle_finite_constructible(p)(mask)
            case GenericOverAntichain(), GoaSet():
                return _oracle_goa_constructible(False, universe)(node)
            case Dual(GenericOverAntichain()), GoaSet():
                return _oracle_goa_constructible(True, universe)(node)
        raise ValueError("shape mismatch")

    return walk(s.space, s.node)


# ---------------------------------------------------------------------------
# statement checks


def _poset_spaces(max_size: int, extra: Sequence[FinitePoset]) -> Iterator[FinitePoset]:
    for n in range(max_size + 1):
        yield from exhaustive_posets(n)
    yield from extra


def _check_wv_inverse_posets(res: CheckResult, posets: Iterator[FinitePoset]) -> None:
    for p in posets:
        space = Finite(p)
        downs = _oracle_down_masks(p)
        for mask in range(1 << p.n):
            s = SymbolicSubset(space, FiniteSubset(p, mask))
            expected = _oracle_weakly_visible(p, downs, mask)
            witness = weakly_visible_witness(s)
            by_search = witness is not None
            by_inverse = weakly_visible_inverse(s)
            tag = f"poset {p!r} subset {mask:#x}"
            res.check(tag + " [search vs oracle]", expected, by_search)
            res.instances -= 1  # count one instance per subset, below
            res.check(tag, expected, by_inverse)
            if witness is not None:
                w1, w2 = witness
                ok = (
                    is_thomason(w1)
                    and is_thomason(w2)
                    and w1.difference(w2) == s
                )
                if not ok:
                    res.record(tag + " [witness]", "valid pair", witness)


def _check_wv_inverse_catalog(res: CheckResult, entries: Sequence[CatalogEntry]) -> None:
    for entry in entries:
        for s in descriptor_shapes(entry.space):
            witness = weakly_visible_witness(s)
            by_inverse = weakly_visible_inverse(s)
            tag = f"{entry.name}: {s.describe()}"
            res.check(tag, witness is not None, by_inverse)
            if witness is not None:
                w1, w2 = witness
                if not (is_thomason(w1) and is_thomason(w2) and w1.difference(w2) == s):
                    res.record(tag + " [witness]", "valid pair", witness)


def _validate_chain(res, tag, chain, terms=5) -> None:
    prev = None
    for k in range(terms):
        t = chain.term(k)
        if not is_closed(t):
            res.record(f"{tag} term {k}", "closed set", t.describe())
        if prev is not None:
            strictly_smaller = t != prev and t.intersection(prev) == t
            if not strictly_smaller:
                res.record(f"{tag} term {k}", "strict descent", t.describe())
        prev = t


def _check_finiteness_posets(res: CheckResult, posets: Iterator[FinitePoset]) -> None:
    for p in posets:
        props = space_props(Finite(p))
        downs = _oracle_down_masks(p)
        oracle_wn = all(
            _oracle_weakly_visible(p, downs, 1 << i) for i in range(p.n)
        )
        tag = f"poset {p!r}"
        res.check(
            tag,
            (True, oracle_wn, True, True),
            (
                props.finite,
                props.weakly_noetherian,
                props.inverse_noetherian,
                props.weakly_noetherian and props.inverse_noetherian,
            ),
        )


def _check_finiteness_catalog(res: CheckResult, entries: Sequence[CatalogEntry]) -> None:
    for entry in entries:
        props = space_props(entry.space)
        tag = entry.name
        res.check(
            tag,
            (entry.finite, entry.noetherian, entry.inverse_noetherian, entry.weakly_noetherian),
            (props.finite, props.noetherian, props.inverse_noetherian, props.weakly_noetherian),
        )
        res.instances -= 1
        res.check(
            tag + " [biconditional]",
            props.finite,
            props.weakly_noetherian and props.inverse_noetherian,
        )
        if props.descending_chain is not None:
            _validate_chain(res, tag + " [chain]", props.descending_chain)
        if props.inverse_descending_chain is not None:
            _validate_chain(res, tag + " [inv-chain]", props.inverse_descending_chain)
        if props.non_visible_class is not None:
            if is_weakly_visible(class_singleton(props.non_visible_class)):
                res.record(tag + " [witness class]", "not weakly visible", "visible")


def _check_fg_lemma_posets(res: CheckResult, posets: Iterator[FinitePoset]) -> None:
    for p in posets:
        space = Finite(p)
        member = _oracle_finite_constructible(p)
        downs = _oracle_down_masks(p)
        full = p.full_mask
        for d in downs:
            ideal = ideal_from_thomason(SymbolicSubset(space, FiniteSubset(p, d)))
            tag = f"poset {p!r} support {d:#x}"
            res.check(tag, member(full & ~d), is_finitely_generated(ideal))
        # finite unions of fg supports stay fg; each of the |D|^2 pairs is
        # an instance, each distinct union is decided once and a failure is
        # tagged with the first pair that produced it
        first_pair: dict[int, tuple[int, int]] = {}
        for a in downs:
            for b in downs:
                first_pair.setdefault(a | b, (a, b))
        for u, (a, b) in first_pair.items():
            ideal = ideal_from_thomason(SymbolicSubset(space, FiniteSubset(p, u)))
            if not is_finitely_generated(ideal):
                res.record(f"poset {p!r} union {a:#x}|{b:#x}", "fg", "not fg")
        res.instances += len(downs) ** 2


def _check_fg_lemma_catalog(res: CheckResult, entries: Sequence[CatalogEntry]) -> None:
    for entry in entries:
        for s in descriptor_shapes(entry.space):
            if not is_thomason(s):
                continue
            ideal = ideal_from_thomason(s)
            tag = f"{entry.name}: {s.describe()}"
            res.check(
                tag,
                _oracle_constructible(s.complement()),
                is_finitely_generated(ideal),
            )


def _check_proposition_catalog(res: CheckResult, entries: Sequence[CatalogEntry]) -> None:
    for entry in entries:
        report = cohen_report(entry.space)
        flags = (
            report.every_radical_ideal_fg,
            report.every_prime_ideal_fg,
            report.inverse_noetherian,
        )
        expected = (entry.inverse_noetherian,) * 3
        res.check(entry.name, expected, flags)
        if report.non_fg_ideal is not None:
            comp = report.non_fg_ideal.support.complement()
            if is_constructible(comp) or _oracle_constructible(comp):
                res.record(entry.name + " [ideal witness]", "non-constructible complement", comp.describe())
        if report.non_fg_prime is not None:
            if is_finitely_generated(report.non_fg_prime.as_radical()):
                res.record(entry.name + " [prime witness]", "non-fg prime", report.non_fg_prime)


def _check_proposition_posets(res: CheckResult, posets: Iterator[FinitePoset]) -> None:
    for p in posets:
        report = cohen_report(Finite(p))
        flags = (
            report.every_radical_ideal_fg,
            report.every_prime_ideal_fg,
            report.inverse_noetherian,
        )
        res.check(f"poset {p!r}", (True, True, True), flags)


def _check_theorem_catalog(res: CheckResult, entries: Sequence[CatalogEntry]) -> None:
    for entry in entries:
        report = cohen_report(entry.space)
        wn = report.weakly_noetherian
        res.check(
            entry.name,
            (entry.finite,) * 3,
            (
                wn and report.every_radical_ideal_fg,
                wn and report.every_prime_ideal_fg,
                report.finite,
            ),
        )


def _check_theorem_posets(res: CheckResult, posets: Iterator[FinitePoset]) -> None:
    for p in posets:
        report = cohen_report(Finite(p))
        res.check(
            f"poset {p!r}",
            (True, True, True),
            (
                report.weakly_noetherian and report.every_radical_ideal_fg,
                report.weakly_noetherian and report.every_prime_ideal_fg,
                report.finite,
            ),
        )


def _check_remark_posets(res: CheckResult, posets: Iterator[FinitePoset]) -> None:
    for p in posets:
        counted = count_radical_ideals(Finite(p))
        res.check(
            f"poset {p!r}",
            (True, len(_oracle_down_masks(p))),
            (counted.finite, counted.count),
        )


def _check_remark_catalog(res: CheckResult, entries: Sequence[CatalogEntry]) -> None:
    for entry in entries:
        counted = count_radical_ideals(entry.space)
        tag = entry.name
        if entry.ideal_count is not None:
            brute = len(_oracle_down_masks(amalgamated_poset(entry.space)))
            res.check(tag, (True, entry.ideal_count, brute), (counted.finite, counted.count, counted.count))
        else:
            res.check(tag, False, counted.finite)
            family = counted.family
            if family is None:
                res.record(tag + " [family]", "witness family", None)
                continue
            terms = [family.term(k) for k in range(5)]
            if len({t for t in terms}) != 5:
                res.record(tag + " [family]", "injective family", [t.describe() for t in terms])
            for t in terms:
                if not is_thomason(t):
                    res.record(tag + " [family]", "Thomason terms", t.describe())


def _check_duality_posets(res: CheckResult, posets: Iterator[FinitePoset]) -> None:
    for p in posets:
        res.check(f"poset {p!r} [involution]", p, p.opposite.opposite)
        space = Finite(p)
        dual_space = dual(space)
        for mask in range(1 << p.n):
            s = SymbolicSubset(space, FiniteSubset(p, mask))
            sd = s.in_dual()
            tag = f"poset {p!r} subset {mask:#x}"
            # Thomason = down-set = dual-open; constructible is dual-invariant
            oracle_thomason = p.is_down_mask(mask)
            res.check(
                tag,
                (oracle_thomason, oracle_thomason, True),
                (is_thomason(s), is_open(sd), is_constructible(s) == is_constructible(sd)),
            )
            if sd.space != dual_space:
                res.record(tag + " [carrier]", dual_space, sd.space)


def _check_duality_catalog(res: CheckResult, entries: Sequence[CatalogEntry]) -> None:
    for entry in entries:
        e = normalize(entry.space)
        res.check(f"{entry.name} [involution]", e, dual(dual(entry.space)))
        for s in descriptor_shapes(entry.space):
            sd = s.in_dual()
            tag = f"{entry.name}: {s.describe()}"
            res.check(
                tag,
                (is_thomason(s), True, s),
                (
                    is_open(sd),
                    is_constructible(s) == is_constructible(sd),
                    sd.in_dual(),
                ),
            )


_POSET_CHECKS = {
    "wv-inverse": _check_wv_inverse_posets,
    "finiteness": _check_finiteness_posets,
    "fg-lemma-consistency": _check_fg_lemma_posets,
    "proposition": _check_proposition_posets,
    "theorem": _check_theorem_posets,
    "remark": _check_remark_posets,
    "duality-involution": _check_duality_posets,
}

_CATALOG_CHECKS = {
    "wv-inverse": _check_wv_inverse_catalog,
    "finiteness": _check_finiteness_catalog,
    "fg-lemma-consistency": _check_fg_lemma_catalog,
    "proposition": _check_proposition_catalog,
    "theorem": _check_theorem_catalog,
    "remark": _check_remark_catalog,
    "duality-involution": _check_duality_catalog,
}


def check_statement(
    statement: str,
    *,
    max_size: int = 4,
    scope: str = "both",
    extra_posets: Sequence[FinitePoset] = (),
    entries: Sequence[CatalogEntry] = BUILTIN_CATALOG,
) -> CheckResult:
    """Run one statement check; failures are data, not exceptions."""
    if statement not in STATEMENTS:
        raise ValueError(f"unknown statement {statement!r}; choose from {STATEMENTS}")
    if scope not in ("both", "posets", "catalog"):
        raise ValueError(f"unknown scope {scope!r}")
    scope_desc = {
        "both": f"posets<={max_size}+catalog",
        "posets": f"posets<={max_size}",
        "catalog": "catalog",
    }[scope]
    res = CheckResult(statement, scope_desc)
    start = time.perf_counter()
    if scope in ("both", "posets"):
        _POSET_CHECKS[statement](res, _poset_spaces(max_size, extra_posets))
    if scope in ("both", "catalog"):
        _CATALOG_CHECKS[statement](res, entries)
    res.elapsed = time.perf_counter() - start
    return res


def run_all(
    *,
    max_size: int = 4,
    scope: str = "both",
    extra_posets: Sequence[FinitePoset] = (),
    entries: Sequence[CatalogEntry] = BUILTIN_CATALOG,
) -> list[CheckResult]:
    return [
        check_statement(
            s,
            max_size=max_size,
            scope=scope,
            extra_posets=extra_posets,
            entries=entries,
        )
        for s in STATEMENTS
    ]
