"""Structural computations on group tables.

Commutators, centralizers, conjugacy classes, subgroup closure, normal
subgroups, quotients, the lower central series and nilpotency class.  All
functions are pure; subgroups are sorted element-index tuples referencing
their parent table.  Everything reads the ``int32`` arrays: whole-table
passes as gathers, and the one search that visits single entries,
``subgroup_closure``, with ``mul.item``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import LatticeTooLarge, NotNormal, OrderExceeded
from .groups import GroupTable, build_from_table, row_blocks

#: Largest order for which the normal-subgroup lattice is enumerated.
NORMAL_LATTICE_CAP = 512

#: Cap on the lattice search's mask cells, (subgroups found) x (distinct
#: class closures) x |G|: each subgroup found is joined through one mask of
#: that many cells per subgroup.  C(2)^7, the largest lattice computed
#: (29,212 normal subgroups, 127 closures), stays under it; C(2)^8 and
#: C(2)^9 (417,199 and 8,283,458) are refused within seconds.
LATTICE_WORK_CAP = 2 ** 29


@dataclass(frozen=True, eq=False)
class SubgroupRef:
    """A subgroup of ``parent`` as a strictly sorted element-index tuple."""

    parent: GroupTable
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _lower_central(self) -> tuple["SubgroupRef", ...]:
        """The lower central series, walked once per object; read by ``lower_central_series``."""
        return _lcs_within(self)

    def __repr__(self) -> str:
        return f"SubgroupRef(order={self.order} in {self.parent.label!r})"


@dataclass(frozen=True)
class ClassData:
    """Conjugacy classes: element -> class id, representatives, sizes."""

    class_of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.reps)


@dataclass(frozen=True, eq=False)
class QuotientMap:
    """A quotient ``source / kernel`` with its projection array."""

    source: GroupTable
    kernel: SubgroupRef
    target: GroupTable
    project: tuple[int, ...]


def subgroup(parent: GroupTable, elements: Iterable[int]) -> SubgroupRef:
    return SubgroupRef(parent, tuple(sorted(set(elements))))


def whole_group(g: GroupTable) -> SubgroupRef:
    return SubgroupRef(g, tuple(range(g.order)))


def commutators(g: GroupTable, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The array of [x, y] = x^-1 y^-1 x y over x in ``xs`` (rows), y in ``ys``."""
    m, inv = g.mul, g.inv
    return m[m[m[inv[xs][:, None], inv[ys]], xs[:, None]], ys]


def centralizer(g: GroupTable, x: int) -> SubgroupRef:
    m = g.mul
    return SubgroupRef(g, tuple(np.flatnonzero(m[:, x] == m[x]).tolist()))


def center(g: GroupTable) -> SubgroupRef:
    m = g.mul
    return SubgroupRef(g, tuple(np.flatnonzero((m == m.T).all(axis=1)).tolist()))


def conjugacy_classes(g: GroupTable) -> ClassData:
    """Orbit partition under conjugation; class 0 is the identity's.

    Classes are numbered by their least element, which is the least
    a^-1 y a over all a, taken a block of conjugators at a time; y is a
    representative when it is its own least conjugate.
    """
    n = g.order
    m, inv = g.mul, g.inv
    least = np.arange(n)
    for rows in row_blocks(n, n):
        a = np.arange(n)[rows]
        np.minimum(least, m[m[inv[a]], a[:, None]].min(axis=0), out=least)
    reps = np.flatnonzero(least == np.arange(n))
    class_of = np.searchsorted(reps, least)
    sizes = np.bincount(class_of).tolist()
    return ClassData(tuple(class_of.tolist()), tuple(reps.tolist()), tuple(sizes))


def subgroup_closure(g: GroupTable, seeds: Iterable[int]) -> SubgroupRef:
    """Smallest subgroup containing ``seeds`` (the trivial one for none)."""
    m = g.mul
    gens = sorted(set(seeds) - {0})
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = m.item(x, s)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return SubgroupRef(g, tuple(sorted(members)))


def is_normal(g: GroupTable, h: SubgroupRef) -> bool:
    m, inv = g.mul, g.inv
    elems = np.array(h.elements)
    member = np.zeros(g.order, dtype=bool)
    member[elems] = True
    for rows in row_blocks(g.order, len(elems)):
        a = np.arange(g.order)[rows]
        if not member[m[m[np.ix_(inv[a], elems)], a[:, None]]].all():
            return False
    return True


def normal_subgroups(g: GroupTable, cap: int = NORMAL_LATTICE_CAP) -> list[SubgroupRef]:
    """All normal subgroups, sorted by order then by element tuple.

    Every normal subgroup is a join of normal closures N(x) of single
    conjugacy classes (Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, 2005), so the lattice is reached from the trivial
    subgroup by joining each subgroup A found with every distinct N(x),
    skipping x in A.  The join A N(x) is the union of the cosets of A that
    meet N(x): one gather labels each element by the least member of its
    coset of A, and then all the joins of A are rows of one coset mask,
    keyed by their packed bits.  The cost grows with the lattice size
    times the number of distinct N(x), not with the order; the search
    raises ``LatticeTooLarge`` once that product times |G| passes
    ``LATTICE_WORK_CAP``.
    """
    if g.order > cap:
        raise OrderExceeded(g.order, cap)
    classes = conjugacy_classes(g)
    class_of = np.array(classes.class_of)
    seeds: dict[tuple[int, ...], int] = {}  # each distinct N(x) -> one such x
    for cid, x in enumerate(classes.reps):
        seeds.setdefault(subgroup_closure(g, np.flatnonzero(class_of == cid).tolist()).elements, x)
    reps = np.array(list(seeds.values()))
    owner, members = np.array([(i, y) for i, c in enumerate(seeds) for y in c]).T
    worklist = [SubgroupRef(g, (0,))]
    found = {np.packbits(np.arange(g.order) == 0).tobytes(): worklist[0]}
    while worklist:
        least = g.mul[:, list(worklist.pop().elements)].min(axis=1)
        mark = np.zeros((len(reps), g.order), dtype=bool)
        mark[owner, least[members]] = True
        joins = mark[least[reps] != 0][:, least]
        for row, key in zip(joins, map(bytes, np.packbits(joins, axis=1))):
            if key not in found:
                found[key] = SubgroupRef(g, tuple(np.flatnonzero(row).tolist()))
                worklist.append(found[key])
                if len(found) * len(reps) * g.order > LATTICE_WORK_CAP:
                    raise LatticeTooLarge(
                        f"normal-subgroup lattice search stopped: {len(found)} subgroups "
                        f"found x {len(reps)} class closures x order {g.order} pass the "
                        f"work cap {LATTICE_WORK_CAP}")
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


def quotient(g: GroupTable, n: SubgroupRef) -> QuotientMap:
    """Coset group of a normal subgroup, cosets ordered by least member."""
    if not is_normal(g, n):
        raise NotNormal(f"subgroup of order {n.order} is not normal in {g.label}")
    m = g.mul
    least = m[:, list(n.elements)].min(axis=1)
    reps = np.flatnonzero(least == np.arange(g.order))
    coset_of = np.searchsorted(reps, least).astype(np.int32)
    qmul = coset_of[m[np.ix_(reps, reps)]]
    target = build_from_table(len(reps), qmul, f"{g.label}/{n.order}")
    return QuotientMap(g, n, target, tuple(coset_of.tolist()))


def subgroup_table(g: GroupTable, h: SubgroupRef) -> tuple[GroupTable, list[int]]:
    """``h`` as a standalone group table plus the new-index -> old-index map."""
    elems = list(h.elements)
    pos = np.full(g.order, -1, dtype=np.int32)
    pos[elems] = np.arange(len(elems))
    rows = pos[g.mul[np.ix_(elems, elems)]]
    label = g.label if len(elems) == g.order else f"{g.label}[order {len(elems)}]"
    return build_from_table(len(elems), rows, label), elems


def lower_central_series(g: GroupTable | SubgroupRef) -> tuple[SubgroupRef, ...]:
    """gamma_1 = G, gamma_{i+1} = <[gamma_i, G]>, until the chain stabilizes.

    The terminal term is included, so a non-nilpotent group ends with a
    repeated nontrivial term and a nilpotent one ends with the trivial
    subgroup.  A subgroup's series is its own, with terms in its parent,
    and is computed once per ``SubgroupRef`` object; a table is walked
    as a fresh ``whole_group`` on every call.
    """
    if isinstance(g, GroupTable):
        g = whole_group(g)
    return g._lower_central


def _lcs_within(h: SubgroupRef) -> tuple[SubgroupRef, ...]:
    g, ambient = h.parent, h.elements
    series = [SubgroupRef(g, ambient)]  # not h itself: h caches this tuple
    others = np.array(ambient)
    while True:
        current = series[-1]
        if current.order == 1:
            return tuple(series)
        elems = np.array(current.elements)
        # the commutators [a, b], marked a block of rows at a time
        hit = np.zeros(g.order, dtype=bool)
        for rows in row_blocks(current.order, len(ambient)):
            hit[commutators(g, elems[rows], others)] = True
        nxt = subgroup_closure(g, np.flatnonzero(hit).tolist())
        series.append(nxt)
        if nxt.elements == current.elements:
            return tuple(series)


def nilpotency_class(g: GroupTable | SubgroupRef) -> Optional[int]:
    """Length of the lower central series, or None if it never reaches 1.

    The trivial group has class 0 and counts as nilpotent of class at most
    k for every k >= 0.  For a ``SubgroupRef`` this reads its cached series.
    """
    series = lower_central_series(g)
    if series[-1].order != 1:
        return None
    return len(series) - 1


def lcs_term(g: GroupTable, ambient: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Elements of gamma_{k+1} of the subgroup spanned by ``ambient``."""
    series = _lcs_within(SubgroupRef(g, ambient))
    return series[min(k, len(series) - 1)].elements


def left_coset_reps(g: GroupTable, h: SubgroupRef) -> list[int]:
    """Least-element representatives of the left cosets xH, ascending."""
    least = g.mul[:, list(h.elements)].min(axis=1)
    return np.flatnonzero(least == np.arange(g.order)).tolist()


def image_subgroup(q: QuotientMap, h: SubgroupRef) -> SubgroupRef:
    """Image of a subgroup of the source under the projection."""
    return SubgroupRef(q.target, tuple(sorted({q.project[x] for x in h.elements})))
