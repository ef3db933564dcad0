"""Radical ideals as Thomason supports, primes as points, and the
finite-generation criterion.

The object level of a tensor triangulated category is not modeled here;
ideals are identified with their supports.  A radical ideal is *finitely
generated* (equivalently principal) exactly when the complement of its
support is constructible -- that criterion is taken as the definition at
this support level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Optional

from .spaces import (
    Dual,
    Finite,
    GenericOverAntichain,
    PointClass,
    SpaceExpr,
    Sum,
    leaves,
    normalize,
)
from .subsets import GoaSet, SetNode, SumSet, SymbolicSubset, embed_at
from .poset import FiniteSubset
from .topology import (
    InternalInconsistencyError,
    SpaceProps,
    first_failing_class,
    gen_closure,
    is_constructible,
    is_thomason,
    space_props,
)


class NotThomasonError(ValueError):
    """The subset is not Thomason, hence supports no radical ideal."""


@dataclass(frozen=True)
class RadicalIdeal:
    """A radical thick tensor ideal, identified with its Thomason support."""

    space: SpaceExpr
    support: SymbolicSubset

    def __post_init__(self) -> None:
        if self.support.space != self.space:
            raise NotThomasonError("support lives on a different space")
        if not is_thomason(self.support):
            raise NotThomasonError(
                f"not a Thomason subset: {self.support.describe()}"
            )

    @property
    def is_zero(self) -> bool:
        return self.support.is_empty

    @property
    def is_unit(self) -> bool:
        return self.support.is_whole

    def __repr__(self) -> str:
        return f"RadicalIdeal(support={self.support.describe()})"


@dataclass(frozen=True)
class PrimeIdeal:
    """The prime ideal at a point; its support is the complement of the
    generalization closure of that point."""

    space: SpaceExpr
    point: PointClass

    def support(self) -> SymbolicSubset:
        return gen_closure(self.point).complement()

    def as_radical(self) -> RadicalIdeal:
        return RadicalIdeal(self.space, self.support())

    def __repr__(self) -> str:
        return f"PrimeIdeal(at {self.point.describe()})"


def ideal_from_thomason(support: SymbolicSubset) -> RadicalIdeal:
    """The radical ideal supported on a Thomason subset."""
    return RadicalIdeal(support.space, support)


def prime_at_point(e: SpaceExpr, c: PointClass) -> PrimeIdeal:
    e = normalize(e)
    if c.space != e:
        raise ValueError("point class belongs to a different space")
    return PrimeIdeal(e, c)


def is_finitely_generated(ideal: RadicalIdeal) -> bool:
    """Support-level criterion: the complement of the support is constructible."""
    return is_constructible(ideal.support.complement())


def _prime_is_fg(c: PointClass) -> bool:
    return is_finitely_generated(prime_at_point(c.space, c).as_radical())


@dataclass(frozen=True)
class WitnessFamily:
    """An injective family of Thomason supports, indexed by naturals."""

    description: str
    term: Callable[[int], SymbolicSubset] = field(compare=False, repr=False)


@dataclass(frozen=True)
class IdealCount:
    finite: bool
    count: Optional[int] = None
    family: Optional[WitnessFamily] = None


def count_radical_ideals(e: SpaceExpr) -> IdealCount:
    """Exact count for finite spaces; otherwise an explicit infinite family.

    Radical ideals correspond to the Thomason subsets, i.e. the opens of the
    dual space; on a finite space these are the down-sets, and a disjoint
    union multiplies the per-summand counts.
    """
    e = normalize(e)
    count = 1
    for path, leaf in leaves(e):
        match leaf:
            case Finite(p):
                count *= p.count_down_sets()
            case GenericOverAntichain():

                def term(k: int, _path=path) -> SymbolicSubset:
                    return embed_at(e, _path, GoaSet(False, frozenset(range(k + 1)), False))

                return IdealCount(
                    False,
                    family=WitnessFamily(
                        "supports {c0}, {c0,c1}, {c0,c1,c2}, ...", term
                    ),
                )
            case Dual(GenericOverAntichain()):

                def term(k: int, _path=path) -> SymbolicSubset:
                    return embed_at(e, _path, GoaSet(True, frozenset(range(k)), True))

                return IdealCount(
                    False,
                    family=WitnessFamily(
                        "supports: whole carrier, then drop c0, c1, ... in turn",
                        term,
                    ),
                )
    return IdealCount(True, count=count)


def enumerate_radical_ideals(e: SpaceExpr, cap: int = 10_000) -> Iterator[RadicalIdeal]:
    """All radical ideals of a finite space, as supports; deterministic order."""
    e = normalize(e)
    counted = count_radical_ideals(e)
    if not counted.finite:
        raise NotThomasonError("cannot enumerate the radical ideals of an infinite spectrum")
    assert counted.count is not None
    if counted.count > cap:
        raise NotThomasonError(
            f"{counted.count} radical ideals exceed the cap of {cap}"
        )

    def node_choices(space: SpaceExpr) -> list[SetNode]:
        match space:
            case Finite(p):
                return [FiniteSubset(p, m) for m in p.down_set_masks()]
            case Sum(parts):
                pools = [node_choices(s) for s in parts]
                return [SumSet(tuple(combo)) for combo in product(*pools)]
        raise NotThomasonError("infinite leaf in enumeration")

    for node in node_choices(e):
        yield RadicalIdeal(e, SymbolicSubset(e, node))


def all_radical_ideals_fg(e: SpaceExpr) -> tuple[bool, Optional[RadicalIdeal]]:
    """Quantifier elimination over Thomason supports, leaf by leaf.

    On a finite leaf every complement is constructible.  On the
    generic-over-antichain leaf the supports are all the sets of closed
    points (plus the whole carrier); any infinite one that misses the whole
    carrier has a non-constructible complement, so the answer is negative
    with the set of all closed points as witness.  On the dual leaf the
    supports are the empty set and the cofinite sets containing the generic
    point, whose complements are always constructible.
    """
    e = normalize(e)
    for path, leaf in leaves(e):
        if leaf == GenericOverAntichain():
            support = embed_at(e, path, GoaSet(True, frozenset(), False))
            return False, ideal_from_thomason(support)
    return True, None


@dataclass(frozen=True)
class CohenReport:
    """The equivalence pattern for one space, with witnesses.

    Construction verifies the pattern itself: the first three flags always
    coincide, and combined with weak Noetherianity each is equivalent to
    finiteness of the spectrum.
    """

    space: SpaceExpr
    every_radical_ideal_fg: bool
    every_prime_ideal_fg: bool
    inverse_noetherian: bool
    weakly_noetherian: bool
    finite: bool
    non_fg_ideal: Optional[RadicalIdeal]
    non_fg_prime: Optional[PrimeIdeal]
    ideal_count: IdealCount
    props: SpaceProps


def find_non_fg_prime(e: SpaceExpr) -> Optional[PointClass]:
    """A point class whose prime ideal is not finitely generated, if any.

    Whenever the space is weakly Noetherian with infinitely many points,
    such a class must exist; its absence then is an internal bug.
    """
    e = normalize(e)
    bad = first_failing_class(e, _prime_is_fg)
    if bad is None:
        props = space_props(e)
        if props.weakly_noetherian and not props.finite:
            raise InternalInconsistencyError(
                f"weakly Noetherian infinite space without a non-fg prime: {e!r}"
            )
    return bad


def cohen_report(e: SpaceExpr) -> CohenReport:
    """The Cohen pattern of ``e`` and its cross-checks.

    Primes are tested class by class on each class's own leaf, like the
    weak-visibility scan of ``space_props``: a prime's support is the
    whole carrier on every other summand, so only its own leaf decides
    whether it is Thomason and finitely generated.
    """
    e = normalize(e)
    props = space_props(e)

    all_fg, bad_ideal = all_radical_ideals_fg(e)

    bad_class = first_failing_class(e, _prime_is_fg)
    bad_prime = None if bad_class is None else prime_at_point(e, bad_class)

    report = CohenReport(
        space=e,
        every_radical_ideal_fg=all_fg,
        every_prime_ideal_fg=bad_prime is None,
        inverse_noetherian=props.inverse_noetherian,
        weakly_noetherian=props.weakly_noetherian,
        finite=props.finite,
        non_fg_ideal=bad_ideal,
        non_fg_prime=bad_prime,
        ideal_count=count_radical_ideals(e),
        props=props,
    )

    flags = (
        report.every_radical_ideal_fg,
        report.every_prime_ideal_fg,
        report.inverse_noetherian,
    )
    if len(set(flags)) != 1:
        raise InternalInconsistencyError(
            f"fg/inverse-Noetherian equivalence violated on {e!r}: {flags}"
        )
    wn = report.weakly_noetherian
    for fg_flag in (report.every_radical_ideal_fg, report.every_prime_ideal_fg):
        if (wn and fg_flag) != report.finite:
            raise InternalInconsistencyError(
                f"finiteness equivalence violated on {e!r}"
            )
    if report.ideal_count.finite != report.finite:
        raise InternalInconsistencyError(
            f"ideal count does not match finiteness on {e!r}"
        )
    return report
