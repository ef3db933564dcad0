"""Decision procedures for the point-set notions used throughout.

All decisions are exact and per-leaf:

=====================  =========================  ==========================
notion                 generic-over-antichain     its dual
=====================  =========================  ==========================
open                   empty, or cofinite + eta   no eta, or whole
quasi-compact open     every open                 empty, finite, or whole
Thomason               no eta, or whole           empty, or cofinite + eta
constructible          finite-no-eta or           same (patch topology is
                       cofinite-with-eta          dual-invariant)
=====================  =========================  ==========================

On finite leaves: open = up-set, Thomason = down-set, everything is
constructible.  Sums decide component-wise.

A subset is *weakly visible* when it is the intersection of a Thomason set
with the complement of another.  Two independent procedures decide this.
The witness route builds one canonical candidate pair per leaf (from
down-closures on finite leaves, from the set and its complement on the
infinite ones) and checks it; the candidate works whenever any pair does.
The other route is the locally-closed-in-the-dual test, computed from
closures in the dual.  ``is_weakly_visible`` runs both and treats
disagreement as an internal bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .poset import FiniteSubset
from .spaces import (
    Dual,
    Finite,
    GenericOverAntichain,
    PointClass,
    SpaceExpr,
    Sum,
    dual,
    is_finite_space,
    leaves,
    normalize,
    point_classes,
)
from .subsets import (
    GOA_EMPTY,
    GOA_WHOLE,
    CarrierMismatchError,
    GoaSet,
    SetNode,
    SumSet,
    SymbolicSubset,
    class_singleton,
    embed_at,
)


class InternalInconsistencyError(RuntimeError):
    """Two routes that must agree did not; signals an implementation bug."""


def _leaf_pairs(space: SpaceExpr, node: SetNode):
    match space, node:
        case Sum(parts), SumSet(sub):
            for p, s in zip(parts, sub):
                yield from _leaf_pairs(p, s)
        case _:
            yield space, node


def _goa_is_open(dualized: bool, s: GoaSet) -> bool:
    if dualized:
        return (not s.generic) or s.is_whole
    return s.is_empty or (s.cofinite and s.generic)


def _leaf_is_open(leaf: SpaceExpr, node: SetNode) -> bool:
    match leaf:
        case Finite(p):
            assert isinstance(node, FiniteSubset)
            return p.is_up_mask(node.mask)
        case GenericOverAntichain():
            assert isinstance(node, GoaSet)
            return _goa_is_open(False, node)
        case Dual(GenericOverAntichain()):
            assert isinstance(node, GoaSet)
            return _goa_is_open(True, node)
    raise CarrierMismatchError("space not normalized")


def is_open(s: SymbolicSubset) -> bool:
    return all(_leaf_is_open(l, n) for l, n in _leaf_pairs(s.space, s.node))


def is_closed(s: SymbolicSubset) -> bool:
    return is_open(s.complement())


def _leaf_is_qc_open(leaf: SpaceExpr, node: SetNode) -> bool:
    match leaf:
        case Finite(p):
            assert isinstance(node, FiniteSubset)
            return p.is_up_mask(node.mask)
        case GenericOverAntichain():
            # every open cover member containing eta is already cofinite
            assert isinstance(node, GoaSet)
            return _goa_is_open(False, node)
        case Dual(GenericOverAntichain()):
            # quasi-compact opens of the dual = complements of quasi-compact
            # opens of the original carrier
            assert isinstance(node, GoaSet)
            return _goa_is_open(False, node.complement())
    raise CarrierMismatchError("space not normalized")


def is_quasi_compact_open(s: SymbolicSubset) -> bool:
    return all(_leaf_is_qc_open(l, n) for l, n in _leaf_pairs(s.space, s.node))


def _leaf_is_constructible(leaf: SpaceExpr, node: SetNode) -> bool:
    match leaf:
        case Finite():
            return True
        case GenericOverAntichain() | Dual(GenericOverAntichain()):
            assert isinstance(node, GoaSet)
            return (not node.cofinite and not node.generic) or (
                node.cofinite and node.generic
            )
    raise CarrierMismatchError("space not normalized")


def is_constructible(s: SymbolicSubset) -> bool:
    """Membership in the Boolean algebra generated by quasi-compact opens."""
    return all(_leaf_is_constructible(l, n) for l, n in _leaf_pairs(s.space, s.node))


def _leaf_is_gen_closed(leaf: SpaceExpr, node: SetNode) -> bool:
    match leaf:
        case Finite(p):
            assert isinstance(node, FiniteSubset)
            return p.is_up_mask(node.mask)
        case GenericOverAntichain():
            assert isinstance(node, GoaSet)
            return node.is_empty or node.generic
        case Dual(GenericOverAntichain()):
            assert isinstance(node, GoaSet)
            return (not node.generic) or node.is_whole
    raise CarrierMismatchError("space not normalized")


def is_generalization_closed(s: SymbolicSubset) -> bool:
    return all(_leaf_is_gen_closed(l, n) for l, n in _leaf_pairs(s.space, s.node))


def is_thomason(s: SymbolicSubset) -> bool:
    """Union of complements of quasi-compact opens; equivalently dual-open."""
    return is_open(s.in_dual())


def _leaf_closure(leaf: SpaceExpr, node: SetNode) -> SetNode:
    match leaf:
        case Finite(p):
            assert isinstance(node, FiniteSubset)
            return FiniteSubset(p, p.down_closure(node.mask))
        case GenericOverAntichain():
            assert isinstance(node, GoaSet)
            if node.generic or node.cofinite:
                return GOA_WHOLE
            return node
        case Dual(GenericOverAntichain()):
            assert isinstance(node, GoaSet)
            if node.is_empty:
                return node
            return GoaSet(node.cofinite, node.indices, True)
    raise CarrierMismatchError("space not normalized")


def _map_leaves(space: SpaceExpr, node: SetNode, fn) -> SetNode:
    match space, node:
        case Sum(parts), SumSet(sub):
            return SumSet(
                tuple(_map_leaves(p, s, fn) for p, s in zip(parts, sub))
            )
        case _:
            return fn(space, node)


def closure(s: SymbolicSubset) -> SymbolicSubset:
    return SymbolicSubset(s.space, _map_leaves(s.space, s.node, _leaf_closure))


# ---------------------------------------------------------------------------
# weak visibility


def _leaf_witness(leaf: SpaceExpr, node: SetNode) -> Optional[tuple[SetNode, SetNode]]:
    """The canonical Thomason pair (w1, w2) with node = w1 - w2, or None.

    The candidate works whenever any pair does.  Finite leaf: if v = a - b
    for down-sets a and b, then down(v) lies in a and down(v) - v in b.
    Generic-over-antichain leaf: a set without the generic point is
    Thomason, and a set with it has a complement without it.  Dual leaf:
    v = w1 - w2 with w2 non-empty lies in the finite, generic-free
    complement of w2, so complement(v) is Thomason.
    """
    match leaf:
        case Finite(p):
            assert isinstance(node, FiniteSubset)
            w1 = p.down_closure(node.mask)
            w2 = p.down_closure(w1 & ~node.mask)
            if w2 & node.mask:
                return None
            return FiniteSubset(p, w1), FiniteSubset(p, w2)
        case GenericOverAntichain() | Dual(GenericOverAntichain()):
            assert isinstance(node, GoaSet)
            dualized = isinstance(leaf, Dual)
            for w1, w2 in ((node, GOA_EMPTY), (GOA_WHOLE, node.complement())):
                # Thomason = open in the dual leaf
                if _goa_is_open(not dualized, w1) and _goa_is_open(not dualized, w2):
                    return w1, w2
            return None
    raise CarrierMismatchError("space not normalized")


def weakly_visible_witness(
    s: SymbolicSubset,
) -> Optional[tuple[SymbolicSubset, SymbolicSubset]]:
    """The canonical Thomason pair ``(w1, w2)`` with ``s = w1 - w2``, or None
    when no Thomason pair presents ``s``."""

    def walk(space: SpaceExpr, node: SetNode) -> Optional[tuple[SetNode, SetNode]]:
        match space, node:
            case Sum(parts), SumSet(sub):
                firsts, seconds = [], []
                for p, x in zip(parts, sub):
                    hit = walk(p, x)
                    if hit is None:
                        return None
                    firsts.append(hit[0])
                    seconds.append(hit[1])
                return SumSet(tuple(firsts)), SumSet(tuple(seconds))
            case _:
                return _leaf_witness(space, node)

    hit = walk(s.space, s.node)
    if hit is None:
        return None
    return (
        SymbolicSubset(s.space, hit[0]),
        SymbolicSubset(s.space, hit[1]),
    )


def weakly_visible_inverse(s: SymbolicSubset) -> bool:
    """Locally-closed-in-the-dual test: closure(s) minus s is dual-closed."""
    sd = s.in_dual()
    rest = closure(sd).difference(sd)
    return is_closed(rest)


def is_weakly_visible(s: SymbolicSubset) -> bool:
    witness = weakly_visible_witness(s)
    by_inverse = weakly_visible_inverse(s)
    if (witness is not None) != by_inverse:
        raise InternalInconsistencyError(
            f"weak-visibility routes disagree on {s.describe()}: "
            f"witness={witness is not None}, inverse-locally-closed={by_inverse}"
        )
    return by_inverse


# ---------------------------------------------------------------------------
# closures of point classes


def cl_closure(c: PointClass) -> SymbolicSubset:
    """The closure of the class representative, as a descriptor."""
    leaf = c.leaf()
    match leaf, c.kind:
        case Finite(p), "element":
            node: SetNode = FiniteSubset(p, p.down[c.element])
        case GenericOverAntichain(), "generic":
            node = GOA_WHOLE
        case GenericOverAntichain(), "closed":
            node = GoaSet(False, frozenset({0}), False)
        case Dual(GenericOverAntichain()), "generic":
            node = GoaSet(False, frozenset(), True)
        case Dual(GenericOverAntichain()), "closed":
            node = GoaSet(False, frozenset({0}), True)
        case _:
            raise ValueError(f"bad point class {c!r}")
    return embed_at(c.space, c.path, node)


def gen_closure(c: PointClass) -> SymbolicSubset:
    """The generalization closure of the class representative."""
    leaf = c.leaf()
    match leaf, c.kind:
        case Finite(p), "element":
            node: SetNode = FiniteSubset(p, p.up[c.element])
        case GenericOverAntichain(), "generic":
            node = GoaSet(False, frozenset(), True)
        case GenericOverAntichain(), "closed":
            node = GoaSet(False, frozenset({0}), True)
        case Dual(GenericOverAntichain()), "generic":
            node = GOA_WHOLE
        case Dual(GenericOverAntichain()), "closed":
            node = GoaSet(False, frozenset({0}), False)
        case _:
            raise ValueError(f"bad point class {c!r}")
    return embed_at(c.space, c.path, node)


# ---------------------------------------------------------------------------
# space-level properties


@dataclass(frozen=True)
class DescendingChain:
    """A strictly descending infinite chain of closed sets, given as an
    indexed family; term(0) is the largest member."""

    space: SpaceExpr
    description: str
    term: Callable[[int], SymbolicSubset] = field(compare=False, repr=False)


@dataclass(frozen=True)
class SpaceProps:
    space: SpaceExpr
    finite: bool
    noetherian: bool
    inverse_noetherian: bool
    weakly_noetherian: bool
    descending_chain: Optional[DescendingChain]  # certifies not Noetherian
    inverse_descending_chain: Optional[DescendingChain]  # in the dual space
    non_visible_class: Optional[PointClass]  # certifies not weakly Noetherian


def noetherian_chain(e: SpaceExpr) -> Optional[DescendingChain]:
    """A strictly descending chain of closed sets if one exists, else None.

    Decided per leaf family: finite leaves and the generic-over-antichain
    leaf satisfy the descending chain condition; the dual leaf does not,
    witnessed by removing its closed points one at a time.
    """
    e = normalize(e)
    bad_path: Optional[tuple[int, ...]] = None
    for path, leaf in leaves(e):
        if leaf == Dual(GenericOverAntichain()):
            bad_path = path
            break
    if bad_path is None:
        return None
    path = bad_path

    def term(k: int) -> SymbolicSubset:
        node = GoaSet(True, frozenset(range(k)), True)
        return embed_at(e, path, node, fill="whole")

    where = f" on summand {'.'.join(map(str, path))}" if path else ""
    return DescendingChain(
        e,
        f"whole space, then drop c0, c1, ... one at a time{where}",
        term,
    )


def first_failing_class(
    e: SpaceExpr, holds: Callable[[PointClass], bool]
) -> Optional[PointClass]:
    """The first point class of the normalized ``e``, in leaf order, on
    which ``holds`` fails, or None.

    ``holds`` sees each class on its own leaf, as a class of the leaf
    alone (path ``()``), so every descriptor it builds is one leaf wide and
    a scan over k summands costs O(k), not O(k^2).  This is exact for the
    class predicates used here: a class singleton and a class's
    generalization closure (the complement of its prime's support) are
    empty on every other summand.  Opens, Thomason sets and
    constructible sets of a sum are decided component-wise, and the empty
    set and the whole carrier are all three on every leaf, so the other
    summands never change the answer.  The failing class is returned as a
    class of ``e``.
    """
    for path, leaf in leaves(e):
        for c in point_classes(leaf):
            if not holds(c):
                return PointClass(e, path, c.kind, c.element)
    return None


def _class_is_weakly_visible(c: PointClass) -> bool:
    return is_weakly_visible(class_singleton(c))


def space_props(e: SpaceExpr) -> SpaceProps:
    """Finiteness and the three Noetherian flags, with witnesses.

    Weak Noetherianity is decided class by class, each class singleton on
    its own leaf (``first_failing_class`` says why that is exact).
    """
    e = normalize(e)
    chain = noetherian_chain(e)
    inv_chain = noetherian_chain(dual(e))
    bad_class = first_failing_class(e, _class_is_weakly_visible)
    finite = is_finite_space(e)
    props = SpaceProps(
        space=e,
        finite=finite,
        noetherian=chain is None,
        inverse_noetherian=inv_chain is None,
        weakly_noetherian=bad_class is None,
        descending_chain=chain,
        inverse_descending_chain=inv_chain,
        non_visible_class=bad_class,
    )
    if props.finite != (props.weakly_noetherian and props.inverse_noetherian):
        raise InternalInconsistencyError(
            f"finiteness cross-check failed on {e!r}: {props}"
        )
    if props.noetherian and not props.weakly_noetherian:
        raise InternalInconsistencyError(
            f"a Noetherian space must be weakly Noetherian: {e!r}"
        )
    return props
