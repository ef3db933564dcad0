"""Finite posets viewed as finite spectral spaces.

The orientation convention is fixed once for the whole package:
``a <= b`` means ``a`` lies in the closure of ``{b}``, i.e. ``a`` is a
specialization of ``b``.  Closed sets of the induced topology are then
exactly the down-sets of the order, open sets exactly the up-sets.

Subsets are bitmasks over element indices; bit ``i`` stands for
``labels[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence

DOWN_SET_CAP = 20


class PosetError(ValueError):
    """Invalid data for a finite poset."""


class DuplicateLabelError(PosetError):
    pass


class CycleError(PosetError):
    """The given relation is not antisymmetric; carries one offending cycle."""

    def __init__(self, cycle: Sequence[str]):
        self.cycle = tuple(cycle)
        super().__init__("cycle detected: " + " <= ".join([*self.cycle, self.cycle[0]]))


class EnumerationCapError(PosetError):
    """An enumeration refused because it would exceed its cap."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FinitePoset:
    """An immutable finite partial order.

    ``down[i]`` is the bitmask of all ``j`` with ``j <= i``, including ``i``
    itself.  Construction validates reflexivity, transitivity and
    antisymmetry, so every instance really is a poset.  Only
    :func:`build_poset` and :attr:`opposite`, whose results are posets by
    construction, skip the checks (through :meth:`_trusted`).
    """

    labels: tuple[str, ...]
    down: tuple[int, ...]

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], down: tuple[int, ...]) -> "FinitePoset":
        self = object.__new__(cls)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "down", down)
        return self

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n:
            seen: set[str] = set()
            for lab in self.labels:
                if lab in seen:
                    raise DuplicateLabelError(f"duplicate label: {lab!r}")
                seen.add(lab)
        if len(self.down) != n:
            raise PosetError("down-mask list does not match element count")
        full = (1 << n) - 1
        for i, d in enumerate(self.down):
            if d & ~full:
                raise PosetError("down mask out of range")
            if not (d >> i) & 1:
                raise PosetError(f"relation not reflexive at {self.labels[i]!r}")
            for j in _bits(d):
                if self.down[j] & ~d:
                    raise PosetError(
                        f"relation not transitive below {self.labels[i]!r}"
                    )
                if j != i and (self.down[j] >> i) & 1:
                    raise CycleError((self.labels[i], self.labels[j]))

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise PosetError(f"unknown element: {label!r}") from None

    def leq(self, a: int, b: int) -> bool:
        """Whether element ``a`` is a specialization of ``b``."""
        return bool((self.down[b] >> a) & 1)

    @cached_property
    def up(self) -> tuple[int, ...]:
        """``up[i]``: bitmask of all ``j`` with ``i <= j`` (the generizations)."""
        # Transpose the bit matrix ``down`` as text: column k of the binary
        # rows is bit n - 1 - k, and its j-th character is bit j of an up mask.
        rows = [format(d, f"0{self.n}b") for d in self.down]
        columns = ["".join(col) for col in zip(*rows)]
        return tuple(int(col[::-1], 2) for col in reversed(columns))

    @cached_property
    def opposite(self) -> "FinitePoset":
        """The same elements with the order reversed (the Hochster dual)."""
        return FinitePoset._trusted(self.labels, self.up)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs ``(i, j)``: ``i < j`` with nothing strictly between."""
        out = []
        for j in range(self.n):
            below = self.down[j] & ~(1 << j)
            for i in _bits(below):
                between = below & self.up[i] & ~(1 << i)
                if not between:
                    out.append((i, j))
        return tuple(out)

    def down_closure(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= self.down[i]
        return out

    def up_closure(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= self.up[i]
        return out

    def is_down_mask(self, mask: int) -> bool:
        for i in _bits(mask):
            if self.down[i] & ~mask:
                return False
        return True

    def is_up_mask(self, mask: int) -> bool:
        for i in _bits(mask):
            if self.up[i] & ~mask:
                return False
        return True

    @cached_property
    def _down_set_masks(self) -> tuple[int, ...]:
        # DP over a linear extension: every down-set of the processed prefix
        # extends uniquely, so each down-set is produced exactly once.
        order = sorted(range(self.n), key=lambda i: (self.down[i].bit_count(), i))
        sets = [0]
        for x in order:
            need = self.down[x] & ~(1 << x)
            bit = 1 << x
            sets = sets + [s | bit for s in sets if s & need == need]
        return tuple(sets)

    def down_set_masks(self, cap: int = DOWN_SET_CAP) -> tuple[int, ...]:
        if self.n > cap:
            raise EnumerationCapError(
                f"poset has {self.n} elements; down-set enumeration capped at {cap}"
            )
        return self._down_set_masks

    def count_down_sets(self) -> int:
        """The number of down-sets (= antichains), without listing them.

        Antichains of S avoid the pivot x or contain x and nothing comparable
        to it: N(S) = N(S - x) + N(S - (down(x) | up(x))), memoized on
        bitmasks.  Elements comparable to nothing else in S each double the
        count.  Worst case exponential (counting antichains is #P-complete);
        chains, fans and disjoint unions of them are cheap.
        """
        comparable = [d | u for d, u in zip(self.down, self.up)]

        @cache
        def count(s: int) -> int:
            # degree[i] - drop = |comparable(i) & rest|, kept up to date as
            # elements leave rest (dict order breaks ties towards the lowest
            # index).  When the pivot is comparable to most of rest, every
            # degree drops at once and the elements outside are raised back.
            degree = {i: (comparable[i] & s).bit_count() for i in _bits(s)}
            total, factor, rest, drop = 0, 1, s, 0
            # unrolling the N(S - x) branch keeps the recursion depth below n / 2
            while degree:
                one = drop + 1  # the degree of an element comparable to nothing else
                if min(degree.values()) == one:
                    isolated = [i for i, k in degree.items() if k == one]
                    for i in isolated:
                        del degree[i]
                        rest ^= 1 << i
                    factor <<= len(isolated)
                    if not degree:
                        break
                pivot = max(degree, key=degree.__getitem__)
                outside = rest & ~comparable[pivot]
                total += factor * count(outside)
                rest ^= 1 << pivot
                if 2 * outside.bit_count() < degree.pop(pivot) - drop:
                    drop += 1
                    for j in _bits(outside):
                        degree[j] += 1
                else:
                    for j in _bits(comparable[pivot] & rest):
                        degree[j] -= 1
            return total + factor

        return count(self.full_mask)

    def subset(self, members: Iterable[str]) -> "FiniteSubset":
        mask = 0
        for lab in members:
            mask |= 1 << self.index(lab)
        return FiniteSubset(self, mask)

    def __repr__(self) -> str:
        pairs = ",".join(
            f"{self.labels[i]}<={self.labels[j]}" for i, j in self.covers
        )
        return f"FinitePoset([{','.join(self.labels)}]; {pairs})"


@dataclass(frozen=True)
class FiniteSubset:
    """A subset of a specific finite poset, stored as a bitmask."""

    poset: FinitePoset
    mask: int

    def __post_init__(self) -> None:
        if self.mask & ~self.poset.full_mask:
            raise PosetError("subset mask out of range")

    @classmethod
    def empty(cls, poset: FinitePoset) -> "FiniteSubset":
        return cls(poset, 0)

    @classmethod
    def whole(cls, poset: FinitePoset) -> "FiniteSubset":
        return cls(poset, poset.full_mask)

    def _check_carrier(self, other: "FiniteSubset") -> None:
        if self.poset != other.poset:
            raise PosetError("subsets belong to different posets")

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check_carrier(other)
        return FiniteSubset(self.poset, self.mask | other.mask)

    def intersection(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check_carrier(other)
        return FiniteSubset(self.poset, self.mask & other.mask)

    def complement(self) -> "FiniteSubset":
        return FiniteSubset(self.poset, self.poset.full_mask & ~self.mask)

    def difference(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check_carrier(other)
        return FiniteSubset(self.poset, self.mask & ~other.mask)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __invert__(self) -> "FiniteSubset":
        return self.complement()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_whole(self) -> bool:
        return self.mask == self.poset.full_mask

    def members(self) -> tuple[str, ...]:
        return tuple(self.poset.labels[i] for i in _bits(self.mask))

    def __contains__(self, label: str) -> bool:
        return bool((self.mask >> self.poset.index(label)) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return "{" + ", ".join(self.members()) + "}"


def build_poset(
    labels: Sequence[str], covers: Iterable[tuple[str, str]]
) -> FinitePoset:
    """Build a poset from labels and generating pairs ``(a, b)`` meaning ``a <= b``.

    The stored relation is the reflexive-transitive closure of the pairs,
    computed in one pass over a topological order of the generating graph
    (each element's down mask is final before it is passed on).  The
    result is built without re-running the checks of :class:`FinitePoset`,
    since a closure that reaches every element is already a partial order.
    Raises :class:`DuplicateLabelError` on repeated labels and
    :class:`CycleError` (with the offending cycle) when the closure would
    break antisymmetry.
    """
    labels = tuple(labels)
    n = len(labels)
    if len(set(labels)) != n:
        seen: set[str] = set()
        for lab in labels:
            if lab in seen:
                raise DuplicateLabelError(f"duplicate label: {lab!r}")
            seen.add(lab)
    index = {lab: i for i, lab in enumerate(labels)}

    edges: list[list[int]] = [[] for _ in range(n)]  # a -> b for a <= b
    preds = [0] * n  # generating pairs into each element, loops left out
    for a, b in covers:
        try:
            ia, ib = index[a], index[b]
        except KeyError:
            missing = a if a not in index else b
            raise PosetError(f"unknown element: {missing!r}") from None
        edges[ia].append(ib)
        if ia != ib:
            preds[ib] += 1

    down = [1 << i for i in range(n)]
    order = [i for i in range(n) if not preds[i]]
    for a in order:
        below = down[a]
        for b in edges[a]:
            down[b] |= below
            preds[b] -= 1
            if not preds[b]:
                order.append(b)
    if len(order) < n:
        raise CycleError(_find_cycle(labels, edges))
    return FinitePoset._trusted(labels, tuple(down))


def _find_cycle(labels: tuple[str, ...], edges: list[list[int]]) -> tuple[str, ...]:
    # Error path only: close the relation (Warshall), take the first pair
    # i != j with i <= j <= i in scan order, and stitch the two generating
    # paths between them together.
    n = len(labels)
    down = [1 << i for i in range(n)]
    for a, succ in enumerate(edges):
        for b in succ:
            down[b] |= 1 << a
    for k in range(n):
        bit, below = 1 << k, down[k]
        for i in range(n):
            if down[i] & bit:
                down[i] |= below
    i, j = next(
        (i, j) for i in range(n) for j in _bits(down[i]) if j != i and (down[j] >> i) & 1
    )
    forward = _path(edges, j, i)
    backward = _path(edges, i, j)
    return tuple(labels[k] for k in forward + backward[1:-1])


def _path(edges: list[list[int]], src: int, dst: int) -> list[int]:
    prev: dict[int, int] = {src: src}
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
    path.reverse()
    return path


def opposite_poset(p: FinitePoset) -> FinitePoset:
    return p.opposite


def is_down_set(p: FinitePoset, s: FiniteSubset) -> bool:
    """Whether ``s`` is closed under passing to specializations (i.e. closed)."""
    if s.poset != p:
        raise PosetError("subset does not belong to the given poset")
    return p.is_down_mask(s.mask)


def is_up_set(p: FinitePoset, s: FiniteSubset) -> bool:
    """Whether ``s`` is closed under passing to generizations (i.e. open)."""
    if s.poset != p:
        raise PosetError("subset does not belong to the given poset")
    return p.is_up_mask(s.mask)


def enumerate_down_sets(
    p: FinitePoset, cap: int = DOWN_SET_CAP
) -> Iterator[FiniteSubset]:
    """Yield every down-set of ``p`` exactly once.

    The number of down-sets equals the number of antichains of ``p``.
    Refuses posets larger than ``cap`` elements.
    """
    for mask in p.down_set_masks(cap):
        yield FiniteSubset(p, mask)
