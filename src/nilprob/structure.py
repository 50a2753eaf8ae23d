"""Structural computations on group tables.

Commutators, centralizers, conjugacy classes, subgroup closure, normal
subgroups, quotients, the lower central series and nilpotency class.  All
functions are pure; subgroups are sorted element-index tuples referencing
their parent table.  Whole-table passes run on the ``int32`` arrays;
searches that visit one entry at a time read the table's list view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import NotNormal, OrderExceeded
from .groups import GroupTable, build_from_table, row_blocks

#: Largest order for which the normal-subgroup lattice is enumerated.
NORMAL_LATTICE_CAP = 512


@dataclass(frozen=True, eq=False)
class SubgroupRef:
    """A subgroup of ``parent`` as a strictly sorted element-index tuple."""

    parent: GroupTable
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"SubgroupRef(order={self.order} in {self.parent.label!r})"


@dataclass(frozen=True)
class ClassData:
    """Conjugacy classes: element -> class id, representatives, sizes."""

    class_of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    centralizer_order: tuple[int, ...]

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

    def to_json(self) -> dict:
        return {"kernel": list(self.kernel.elements), "projection": list(self.project)}


def subgroup(parent: GroupTable, elements: Iterable[int]) -> SubgroupRef:
    return SubgroupRef(parent, tuple(sorted(set(elements))))


def whole_group(g: GroupTable) -> SubgroupRef:
    return SubgroupRef(g, tuple(range(g.order)))


def _commutators(g: GroupTable, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The array of [x, y] = x^-1 y^-1 x y over x in ``xs`` (rows), y in ``ys``."""
    m, inv = g.mul, g.inv
    return m[m[m[np.ix_(inv[xs], inv[ys])], xs[:, None]], ys]


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
    cent = tuple(n // s for s in sizes)
    return ClassData(tuple(class_of.tolist()), tuple(reps.tolist()), tuple(sizes), cent)


def subgroup_closure(g: GroupTable, seeds: Iterable[int]) -> SubgroupRef:
    """Smallest subgroup containing ``seeds`` (the trivial one for none)."""
    mul = g.lists[0]
    gens = sorted(set(seeds) - {0})
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        row = mul[x]
        for s in gens:
            y = row[s]
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


def normal_closure_of_class(g: GroupTable, rep: int, classes: ClassData) -> SubgroupRef:
    cid = classes.class_of[rep]
    seeds = [x for x in g.elements() if classes.class_of[x] == cid]
    return subgroup_closure(g, seeds)


def normal_subgroups(g: GroupTable, cap: int = NORMAL_LATTICE_CAP) -> list[SubgroupRef]:
    """All normal subgroups, sorted by order then by element tuple.

    Every normal subgroup is a join of normal closures of single conjugacy
    classes, so the lattice is generated by closing that seed set under
    pairwise joins.  The join of normal A and B is the product set AB,
    gathered from the table in one step.
    """
    if g.order > cap:
        raise OrderExceeded(g.order, cap)
    classes = conjugacy_classes(g)
    found: dict[tuple[int, ...], SubgroupRef] = {}
    for rep in classes.reps:
        sub = normal_closure_of_class(g, rep, classes)
        found.setdefault(sub.elements, sub)
    worklist = list(found.values())
    while worklist:
        sub = worklist.pop()
        for other in list(found.values()):
            hit = np.zeros(g.order, dtype=bool)
            hit[g.mul[np.ix_(sub.elements, other.elements)]] = True
            joined = SubgroupRef(g, tuple(np.flatnonzero(hit).tolist()))
            if joined.elements not in found:
                found[joined.elements] = joined
                worklist.append(joined)
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


def quotient(g: GroupTable, n: SubgroupRef) -> QuotientMap:
    """Coset group of a normal subgroup, cosets ordered by least member."""
    if not is_normal(g, n):
        raise NotNormal(f"subgroup of order {n.order} is not normal in {g.label}")
    m = g.mul
    least = m[:, list(n.elements)].min(axis=1)
    reps = np.flatnonzero(least == np.arange(g.order))
    coset_of = np.searchsorted(reps, least)
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


def lower_central_series(g: GroupTable) -> list[SubgroupRef]:
    """gamma_1 = G, gamma_{i+1} = <[gamma_i, G]>, until the chain stabilizes.

    The terminal term is included, so a non-nilpotent group ends with a
    repeated nontrivial term and a nilpotent one ends with the trivial
    subgroup.
    """
    return _lcs_within(g, tuple(range(g.order)))


def _lcs_within(g: GroupTable, ambient: tuple[int, ...]) -> list[SubgroupRef]:
    series = [SubgroupRef(g, ambient)]
    others = np.array(ambient)
    while True:
        current = series[-1]
        if current.order == 1:
            return series
        elems = np.array(current.elements)
        # the commutators [a, b], marked a block of rows at a time
        hit = np.zeros(g.order, dtype=bool)
        for rows in row_blocks(current.order, len(ambient)):
            hit[_commutators(g, elems[rows], others)] = True
        nxt = subgroup_closure(g, np.flatnonzero(hit).tolist())
        series.append(nxt)
        if nxt.elements == current.elements:
            return series


def nilpotency_class(g: GroupTable | SubgroupRef) -> Optional[int]:
    """Length of the lower central series, or None if it never reaches 1.

    The trivial group has class 0 and counts as nilpotent of class at most
    k for every k >= 0.
    """
    if isinstance(g, SubgroupRef):
        series = _lcs_within(g.parent, g.elements)
    else:
        series = _lcs_within(g, tuple(range(g.order)))
    if series[-1].order != 1:
        return None
    return len(series) - 1


def lcs_term(g: GroupTable, ambient: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Elements of gamma_{k+1} of the subgroup spanned by ``ambient``."""
    series = _lcs_within(g, ambient)
    idx = min(k, len(series) - 1)
    return series[idx].elements


def left_coset_reps(g: GroupTable, h: SubgroupRef) -> list[int]:
    """Least-element representatives of the left cosets xH, ascending."""
    least = g.mul[:, list(h.elements)].min(axis=1)
    return np.flatnonzero(least == np.arange(g.order)).tolist()


def image_subgroup(q: QuotientMap, h: SubgroupRef) -> SubgroupRef:
    """Image of a subgroup of the source under the projection."""
    return SubgroupRef(q.target, tuple(sorted({q.project[x] for x in h.elements})))
