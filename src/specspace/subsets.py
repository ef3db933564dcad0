"""Symbolic subsets of space expressions.

A subset descriptor mirrors the normalized expression shape: finite leaves
carry a bitmask, infinite leaves carry a finite-or-cofinite set of closed
points plus a flag for the generic point, sums carry one descriptor per
summand.  Complement, union and intersection are computed descriptor-wise
and denote exactly the corresponding point-set operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .poset import FiniteSubset
from .spaces import (
    Dual,
    Finite,
    GenericOverAntichain,
    PointClass,
    SpaceExpr,
    Sum,
    dual,
    is_normalized,
    normalize,
)


class CarrierMismatchError(ValueError):
    """Operands live on different carriers."""


@dataclass(frozen=True)
class GoaSet:
    """Subset of the generic-over-antichain carrier (also used for its dual).

    ``indices`` are the members of the closed part when ``cofinite`` is
    false, the exclusions otherwise; ``generic`` tells whether the generic
    point belongs to the set.
    """

    cofinite: bool
    indices: frozenset[int]
    generic: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", frozenset(self.indices))
        if any(i < 0 for i in self.indices):
            raise ValueError("closed-point indices must be non-negative")

    @property
    def is_empty(self) -> bool:
        return not self.cofinite and not self.indices and not self.generic

    @property
    def is_whole(self) -> bool:
        return self.cofinite and not self.indices and self.generic

    def complement(self) -> "GoaSet":
        return GoaSet(not self.cofinite, self.indices, not self.generic)

    def union(self, other: "GoaSet") -> "GoaSet":
        g = self.generic or other.generic
        if not self.cofinite and not other.cofinite:
            return GoaSet(False, self.indices | other.indices, g)
        if self.cofinite and other.cofinite:
            return GoaSet(True, self.indices & other.indices, g)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return GoaSet(True, cof.indices - fin.indices, g)

    def intersection(self, other: "GoaSet") -> "GoaSet":
        return self.complement().union(other.complement()).complement()

    def difference(self, other: "GoaSet") -> "GoaSet":
        return self.intersection(other.complement())

    def contains_index(self, i: int) -> bool:
        return (i in self.indices) != self.cofinite

    def __repr__(self) -> str:
        if self.is_empty:
            return "{}"
        if self.is_whole:
            return "whole carrier"
        if self.cofinite:
            closed = "all closed points" + (
                " except {%s}" % ", ".join(f"c{i}" for i in sorted(self.indices))
                if self.indices
                else ""
            )
        else:
            closed = "{%s}" % ", ".join(f"c{i}" for i in sorted(self.indices))
        if not self.generic:
            return closed
        if not self.cofinite and not self.indices:
            return "{eta}"
        return f"{{eta}} + {closed}"


GOA_EMPTY = GoaSet(False, frozenset(), False)
GOA_WHOLE = GoaSet(True, frozenset(), True)


@dataclass(frozen=True)
class SumSet:
    parts: tuple["SetNode", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))


SetNode = FiniteSubset | GoaSet | SumSet


def _check_shape(space: SpaceExpr, node: SetNode) -> None:
    match space, node:
        case Finite(p), FiniteSubset(q, _):
            if p != q:
                raise CarrierMismatchError("finite subset built on a different poset")
        case (GenericOverAntichain(), GoaSet()) | (Dual(GenericOverAntichain()), GoaSet()):
            pass
        case Sum(parts), SumSet(sub):
            if len(parts) != len(sub):
                raise CarrierMismatchError("summand count mismatch")
            for p, s in zip(parts, sub):
                _check_shape(p, s)
        case _:
            raise CarrierMismatchError(
                f"descriptor {type(node).__name__} does not fit space {type(space).__name__}"
            )


def _empty_node(space: SpaceExpr) -> SetNode:
    match space:
        case Finite(p):
            return FiniteSubset.empty(p)
        case GenericOverAntichain() | Dual(GenericOverAntichain()):
            return GOA_EMPTY
        case Sum(parts):
            return SumSet(tuple(_empty_node(p) for p in parts))
    raise ValueError("space not normalized")


def _whole_node(space: SpaceExpr) -> SetNode:
    match space:
        case Finite(p):
            return FiniteSubset.whole(p)
        case GenericOverAntichain() | Dual(GenericOverAntichain()):
            return GOA_WHOLE
        case Sum(parts):
            return SumSet(tuple(_whole_node(p) for p in parts))
    raise ValueError("space not normalized")


def _node_op(a: SetNode, b: SetNode, op: str) -> SetNode:
    match a, b:
        case FiniteSubset(), FiniteSubset():
            return getattr(a, op)(b)
        case GoaSet(), GoaSet():
            return getattr(a, op)(b)
        case SumSet(pa), SumSet(pb):
            return SumSet(tuple(_node_op(x, y, op) for x, y in zip(pa, pb)))
    raise CarrierMismatchError("descriptor shapes differ")


def _node_complement(node: SetNode) -> SetNode:
    match node:
        case FiniteSubset():
            return node.complement()
        case GoaSet():
            return node.complement()
        case SumSet(parts):
            return SumSet(tuple(_node_complement(s) for s in parts))
    raise TypeError(f"not a descriptor: {node!r}")


def _node_is_empty(node: SetNode) -> bool:
    match node:
        case FiniteSubset():
            return node.is_empty
        case GoaSet():
            return node.is_empty
        case SumSet(parts):
            return all(_node_is_empty(p) for p in parts)
    raise TypeError(f"not a descriptor: {node!r}")


def _node_is_whole(node: SetNode) -> bool:
    match node:
        case FiniteSubset():
            return node.is_whole
        case GoaSet():
            return node.is_whole
        case SumSet(parts):
            return all(_node_is_whole(p) for p in parts)
    raise TypeError(f"not a descriptor: {node!r}")


@dataclass(frozen=True)
class SymbolicSubset:
    """A finitely describable subset of the space denoted by ``space``.

    ``space`` must be in normal form; the descriptor tree follows its shape.
    Both are checked on construction, except that a finite leaf whose
    subset is built on the leaf's own poset object is accepted at once.
    """

    space: SpaceExpr
    node: SetNode

    def __post_init__(self) -> None:
        space, node = self.space, self.node
        if type(space) is Finite and type(node) is FiniteSubset and node.poset is space.poset:
            return
        if not is_normalized(space):
            raise CarrierMismatchError("subsets attach to normalized space expressions")
        _check_shape(space, node)

    def _check_carrier(self, other: "SymbolicSubset") -> None:
        if self.space != other.space:
            raise CarrierMismatchError("subsets live on different spaces")

    def union(self, other: "SymbolicSubset") -> "SymbolicSubset":
        self._check_carrier(other)
        return SymbolicSubset(self.space, _node_op(self.node, other.node, "union"))

    def intersection(self, other: "SymbolicSubset") -> "SymbolicSubset":
        self._check_carrier(other)
        return SymbolicSubset(
            self.space, _node_op(self.node, other.node, "intersection")
        )

    def complement(self) -> "SymbolicSubset":
        return SymbolicSubset(self.space, _node_complement(self.node))

    def difference(self, other: "SymbolicSubset") -> "SymbolicSubset":
        return self.intersection(other.complement())

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __invert__(self) -> "SymbolicSubset":
        return self.complement()

    @property
    def is_empty(self) -> bool:
        return _node_is_empty(self.node)

    @property
    def is_whole(self) -> bool:
        return _node_is_whole(self.node)

    def in_dual(self) -> "SymbolicSubset":
        """The same point set, regarded as a subset of the dual space."""
        return SymbolicSubset(dual(self.space), _dual_node(self.space, self.node))

    def describe(self) -> str:
        return _describe_node(self.node)


def _dual_node(space: SpaceExpr, node: SetNode) -> SetNode:
    match space, node:
        case Finite(p), FiniteSubset(_, mask):
            return FiniteSubset(p.opposite, mask)
        case _, GoaSet():
            return node
        case Sum(parts), SumSet(sub):
            return SumSet(tuple(_dual_node(p, s) for p, s in zip(parts, sub)))
    raise TypeError("descriptor does not fit space")


def _describe_node(node: SetNode) -> str:
    match node:
        case FiniteSubset():
            return repr(node)
        case GoaSet():
            return repr(node)
        case SumSet(parts):
            return "[" + " | ".join(_describe_node(p) for p in parts) + "]"
    raise TypeError(f"not a descriptor: {node!r}")


def empty(space: SpaceExpr) -> SymbolicSubset:
    space = normalize(space)
    return SymbolicSubset(space, _empty_node(space))


def whole(space: SpaceExpr) -> SymbolicSubset:
    space = normalize(space)
    return SymbolicSubset(space, _whole_node(space))


def embed_at(
    space: SpaceExpr,
    path: tuple[int, ...],
    leaf_node: SetNode,
    *,
    fill: str = "empty",
) -> SymbolicSubset:
    """The subset that equals ``leaf_node`` on the leaf at ``path`` and is
    empty (or, with ``fill="whole"``, everything) on every other summand."""
    space = normalize(space)
    fill_node = _empty_node if fill == "empty" else _whole_node

    def build(x: SpaceExpr, p: tuple[int, ...]) -> SetNode:
        if not p:
            return leaf_node
        assert isinstance(x, Sum)
        return SumSet(
            tuple(
                build(s, p[1:]) if i == p[0] else fill_node(s)
                for i, s in enumerate(x.summands)
            )
        )

    return SymbolicSubset(space, build(space, path))


def class_singleton(c: PointClass) -> SymbolicSubset:
    """The singleton at the class representative (``c0`` for closed classes)."""
    leaf = c.leaf()
    match leaf, c.kind:
        case Finite(p), "element":
            node: SetNode = FiniteSubset(p, 1 << c.element)
        case _, "generic":
            node = GoaSet(False, frozenset(), True)
        case _, "closed":
            node = GoaSet(False, frozenset({0}), False)
        case _:
            raise ValueError(f"bad point class {c!r}")
    return embed_at(c.space, c.path, node)


def closed_points(space: SpaceExpr, indices: Iterable[int], *, cofinite: bool = False,
                  generic: bool = False) -> SymbolicSubset:
    """Convenience builder for subsets of a single infinite-leaf space."""
    space = normalize(space)
    if not isinstance(space, (GenericOverAntichain, Dual)):
        raise CarrierMismatchError("closed_points builds subsets of an infinite leaf")
    return SymbolicSubset(space, GoaSet(cofinite, frozenset(indices), generic))
