"""The expression algebra of spectral spaces.

Four constructors close the supported class:

* ``Finite(poset)`` -- any finite spectral space via its specialization order;
* ``GenericOverAntichain()`` -- one generic point ``eta`` over a countably
  infinite antichain of closed points ``c0, c1, ...``; opens are the empty
  set and the cofinite sets containing ``eta`` (the shape of the prime
  spectrum of the integers);
* ``Dual(e)`` -- the inverse space: same points, opens generated by
  complements of quasi-compact opens of ``e``;
* ``Sum(parts)`` -- finite disjoint union.

``normalize`` rewrites any expression so that ``Dual`` sits directly on a
``GenericOverAntichain`` leaf and nowhere else; structural equality of
normal forms is the package's notion of "the same space".  An expression
already in normal form is returned as it is, and ``dual`` of a normal form
is built once and kept on it, so repeated calls hand back the same objects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

from .poset import FinitePoset, build_poset


@dataclass(frozen=True)
class Finite:
    poset: FinitePoset


@dataclass(frozen=True)
class GenericOverAntichain:
    pass


@dataclass(frozen=True)
class Dual:
    inner: "SpaceExpr"


@dataclass(frozen=True)
class Sum:
    summands: tuple["SpaceExpr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "summands", tuple(self.summands))


# PEP 604 unions are not kept in ``typing``'s process-wide cache, which
# would pin every re-imported copy of these classes.
SpaceExpr = Finite | GenericOverAntichain | Dual | Sum

GOA = GenericOverAntichain()
DUAL_GOA = Dual(GOA)


def normalize(e: SpaceExpr) -> SpaceExpr:
    """Denotation-preserving normal form; idempotent.

    Double duals cancel, duals of finite leaves become opposite posets,
    duals of sums are pushed into the summands.  A normal form is returned
    as it is (``normalize(e) is e``), so carriers normalized from the same
    expression are the same object.
    """
    match e:
        case Finite() | GenericOverAntichain():
            return e
        case Sum(parts):
            # map, not a generator: one Python frame per nesting level
            normed = tuple(map(normalize, parts))
            if all(map(operator.is_, normed, parts)):
                return e
            return Sum(normed)
        case Dual(inner):
            n = normalize(inner)
            if isinstance(n, GenericOverAntichain):
                return e if n is inner else Dual(n)
            return _dual_of_normal(n)
    raise TypeError(f"not a space expression: {e!r}")


def dual(e: SpaceExpr) -> SpaceExpr:
    """The inverse space, in normal form.

    Built once per normal-form ``Finite`` or ``Sum`` and kept on it; the
    link runs one way only (the dual does not point back), so no reference
    cycle keeps a space alive.  Every ``GenericOverAntichain`` leaf has
    ``DUAL_GOA`` as its dual, and the dual of ``Dual(leaf)`` is ``leaf``.
    """
    # only normal forms carry a kept dual, so they skip the normalize walk
    kept = getattr(e, "_dual", None)
    if kept is not None:
        return kept
    return _dual_of_normal(normalize(e))


def _dual_of_normal(e: SpaceExpr) -> SpaceExpr:
    match e:
        case GenericOverAntichain():
            return DUAL_GOA
        case Dual(inner):
            return inner
    kept = getattr(e, "_dual", None)
    if kept is not None:
        return kept
    match e:
        case Finite(p):
            d: SpaceExpr = Finite(p.opposite)
        case Sum(parts):
            d = Sum(tuple(map(_dual_of_normal, parts)))
        case _:
            raise TypeError(f"not a space expression: {e!r}")
    # not a dataclass field, so equality, hashing and repr ignore it
    object.__setattr__(e, "_dual", d)
    return d


def is_normalized(e: SpaceExpr) -> bool:
    match e:
        case Finite() | GenericOverAntichain():
            return True
        case Dual(GenericOverAntichain()):
            return True
        case Dual():
            return False
        case Sum(parts):
            return all(is_normalized(p) for p in parts)
    return False


def is_finite_space(e: SpaceExpr) -> bool:
    """Whether the denoted space has finitely many points."""
    match normalize(e):
        case Finite():
            return True
        case Sum(parts):
            return all(is_finite_space(p) for p in parts)
        case _:
            return False


def leaves(e: SpaceExpr) -> Iterator[tuple[tuple[int, ...], SpaceExpr]]:
    """Yield ``(path, leaf)`` for each leaf of the normalized expression.

    A leaf is ``Finite``, ``GenericOverAntichain`` or
    ``Dual(GenericOverAntichain)``; the path records summand indices.
    """
    e = normalize(e)

    def walk(x: SpaceExpr, path: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], SpaceExpr]]:
        match x:
            case Sum(parts):
                for i, p in enumerate(parts):
                    yield from walk(p, path + (i,))
            case _:
                yield path, x

    return walk(e, ())


def leaf_at(e: SpaceExpr, path: tuple[int, ...]) -> SpaceExpr:
    x = normalize(e)
    for i in path:
        if not isinstance(x, Sum):
            raise ValueError(f"no summand at path {path}")
        x = x.summands[i]
    return x


@dataclass(frozen=True)
class PointClass:
    """A symmetry class of points of a normalized space expression.

    Finite leaves contribute one class per element; an infinite leaf
    contributes the class of its generic point and the class of its closed
    points (all point-level predicates used here are constant on the
    latter, with ``c0`` the designated representative).
    """

    space: SpaceExpr
    path: tuple[int, ...]
    kind: str  # "element" | "generic" | "closed"
    element: int = -1

    def leaf(self) -> SpaceExpr:
        return leaf_at(self.space, self.path)

    def describe(self) -> str:
        where = f"summand {'.'.join(map(str, self.path))}: " if self.path else ""
        if self.kind == "element":
            leaf = self.leaf()
            assert isinstance(leaf, Finite)
            return f"{where}point {leaf.poset.labels[self.element]!r}"
        if self.kind == "generic":
            return f"{where}generic point eta"
        return f"{where}closed-point class (representative c0)"


def point_classes(e: SpaceExpr) -> tuple[PointClass, ...]:
    """The point classes of ``e``, in leaf order."""
    e = normalize(e)
    out: list[PointClass] = []
    for path, leaf in leaves(e):
        match leaf:
            case Finite(p):
                out.extend(
                    PointClass(e, path, "element", i) for i in range(p.n)
                )
            case GenericOverAntichain() | Dual(GenericOverAntichain()):
                out.append(PointClass(e, path, "generic"))
                out.append(PointClass(e, path, "closed"))
    return tuple(out)


def amalgamated_poset(e: SpaceExpr) -> FinitePoset:
    """The single finite poset denoting the same space as a finite expression.

    Labels of nested summands are prefixed with their path so they stay
    distinct.  Only defined when the expression denotes a finite space.
    """
    e = normalize(e)
    if not is_finite_space(e):
        raise ValueError("amalgamated poset only exists for finite spaces")
    labels: list[str] = []
    covers: list[tuple[str, str]] = []
    lvs = list(leaves(e))
    multi = len(lvs) > 1
    for path, leaf in lvs:
        assert isinstance(leaf, Finite)
        prefix = ".".join(map(str, path)) + "." if multi else ""
        labels.extend(prefix + lab for lab in leaf.poset.labels)
        covers.extend(
            (prefix + leaf.poset.labels[i], prefix + leaf.poset.labels[j])
            for i, j in leaf.poset.covers
        )
    return build_poset(labels, covers)


def describe_space(e: SpaceExpr) -> str:
    match e:
        case Finite(p):
            return f"finite poset on {p.n} element(s)"
        case GenericOverAntichain():
            return "generic point over an infinite antichain of closed points"
        case Dual(inner):
            return f"dual of ({describe_space(inner)})"
        case Sum(parts):
            if not parts:
                return "empty sum"
            return "sum of [" + "; ".join(describe_space(p) for p in parts) + "]"
    return repr(e)
