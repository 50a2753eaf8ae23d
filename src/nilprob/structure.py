"""Structural computations on group tables.

Commutators, centralizers, conjugacy classes, subgroup closure, normal
subgroups, quotients, the lower central series and nilpotency class.  All
functions are pure; subgroups are sorted element-index tuples referencing
their parent table.  Everything reads the ``int32`` arrays: whole-table
passes in row blocks of a named cell budget (``perms.row_blocks``), and
the searches that visit single entries, ``subgroup_closure`` and
``generators``, with ``mul.item``.  Commuting pairs are counted by
``commuting_counts`` alone, and cosets of a normal subgroup are labelled
by ``coset_labels`` alone.  Conjugacy classes, of G or of a subgroup,
are orbits under conjugation by a few ``generators``, found by
``class_labels`` in |H| cells per generator and round, not by a whole
table pass; a subgroup's class transfer is then one gather of |H| cells,
and the center is the elements that commute with G's generators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import LatticeTooLarge
from .groups import BLOCK_CELLS, GroupTable, build_from_table
from .perms import row_blocks

#: Cap on the table cells the lattice search gathers and marks: |G| x
#: (|A| + distinct class closures) for each subgroup A it finds.  C(2)^7,
#: the largest lattice computed (29,212 normal subgroups, 128 closures),
#: stays under it; C(2)^8 and D(16)xD(16)xD(16) are refused within seconds.
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

    @functools.cached_property
    def _class_transfer(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """H's class count and class transfer, built once per object; read by ``exact``."""
        return _transfer_within(self)

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


def commuting_counts(g: GroupTable, xs: np.ndarray, ys: np.ndarray,
                     cells: int = BLOCK_CELLS) -> np.ndarray:
    """#{y in ``ys`` : xy = yx} for each x in ``xs``, a block of ``cells`` cells at a time."""
    m = g.mul
    counts = np.empty(len(xs), dtype=np.int64)
    for rows in row_blocks(len(xs), len(ys), cells):
        x = xs[rows]
        counts[rows] = (m[x[:, None], ys] == m[ys[:, None], x].T).sum(axis=1)
    return counts


def centralizer(g: GroupTable, x: int) -> SubgroupRef:
    m = g.mul
    return SubgroupRef(g, tuple(np.flatnonzero(m[:, x] == m[x]).tolist()))


def center(g: GroupTable) -> SubgroupRef:
    """Z(G): the elements that commute with each of G's ``generators``, |G| x log2 |G| cells."""
    every = np.arange(g.order)
    gens = np.array(generators(g, every), dtype=np.intp)
    central = commuting_counts(g, every, gens) == len(gens)
    return SubgroupRef(g, tuple(np.flatnonzero(central).tolist()))


def generators(g: GroupTable, elems: np.ndarray) -> list[int]:
    """Generators of the subgroup ``elems``: each is its least member outside the ones before.

    Each new generator x closes the subgroup S reached so far by Dimino's
    coset steps (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, 2005): the reached set grows one coset yS = ``mul[y][S]`` at
    a time, for y = sr over the coset representatives r and the
    generators s, until every sr is reached.  So it at least doubles with
    each generator, and there are at most log2 |H| of them.
    """
    m = g.mul
    reached = np.zeros(g.order, dtype=bool)
    reached[0] = True
    sub = np.zeros(1, dtype=np.intp)
    gens: list[int] = []
    while True:
        outside = elems[~reached[elems]]
        if not len(outside):
            return gens
        gens.append(int(outside[0]))
        reps = [0]
        for r in reps:  # grows as cosets are found
            for s in gens:
                y = m.item(s, r)
                if not reached[y]:
                    reached[m[y][sub] if len(sub) > 1 else y] = True
                    reps.append(y)
        sub = np.flatnonzero(reached)


def class_labels(g: GroupTable, elems: np.ndarray, gens: Sequence[int]) -> np.ndarray:
    """The least conjugate of each member of ``elems`` under the subgroup that ``gens`` generate.

    ``elems`` is sorted and closed under conjugation by ``gens``.  Labels
    are positions in ``elems``.  Each conjugation s^-1 x s permutes the
    positions; every position takes the smaller of its label and its
    image's across each permutation, then labels jump to their label's
    label, until nothing changes.  Labels only fall and stay inside their
    orbit, and at the fixed point no label exceeds its image's, so labels
    are constant along every cycle: each is its orbit's least member.
    """
    m, inv = g.mul, g.inv
    pos = np.empty(g.order, dtype=np.intp)
    pos[elems] = np.arange(len(elems))
    perms = [pos[m[:, s][m[inv[s]][elems]]] for s in gens]
    label = np.arange(len(elems))
    while True:
        before = label
        for p in perms:
            label = np.minimum(label, label[p])
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
        if (label == before).all():
            return elems[label]


def _classes(g: GroupTable, elems: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The classes of the sorted subgroup ``elems`` by least member: least members, class ids, sizes."""
    least = class_labels(g, elems, generators(g, elems))
    reps = elems[least == elems]
    class_of = np.searchsorted(reps, least)
    return reps, class_of, np.bincount(class_of)


def conjugacy_classes(g: GroupTable) -> ClassData:
    """Orbit partition under conjugation, classes numbered by least member; class 0 is the identity's."""
    reps, class_of, sizes = _classes(g, np.arange(g.order))
    return ClassData(tuple(class_of.tolist()), tuple(reps.tolist()), tuple(sizes.tolist()))


def _transfer_within(h: SubgroupRef) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The number r of H-classes and the nonzero entries (K, L, M[K, L]) of H's class transfer.

    M[K, L], the number of pairs (w, t) in K x H with [w, t] = w^-1 w^t
    equal to one fixed element of L, is |H| #{u in K : k^-1 u in L} / |L|
    for k the least member of K: w^t runs over K, |H|/|K| times each;
    conjugating w to k keeps the class of w^-1 u; and conjugation spreads
    the pairs evenly over L.  So one gather of |H| cells, k^-1 u for every
    member u, gives every (K, L) code.
    """
    g, elems = h.parent, np.array(h.elements)
    reps, class_of, sizes = _classes(g, elems)
    r = len(reps)
    cls = np.empty(g.order, dtype=np.intp)
    cls[elems] = class_of
    code, count = np.unique(class_of * r + cls[g.mul[g.inv[reps[class_of]], elems]],
                            return_counts=True)
    k, l = np.divmod(code, r)
    return r, k, l, count * h.order // sizes[l]


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


def normal_subgroups(g: GroupTable) -> list[SubgroupRef]:
    """All normal subgroups, sorted by order then by element tuple.

    Every normal subgroup is a join of normal closures N(x) of single
    conjugacy classes (Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, 2005), so the lattice is reached from the trivial
    subgroup by joining each subgroup A found with every distinct N(x),
    skipping x in A.  N(x) is closed once per rational class: x^j with j
    prime to |x| generates <x>, so its class has the same closure.  The
    join A N(x) is the union of the cosets of A that meet N(x):
    ``coset_labels`` labels each element x by the least member of Ax = xA,
    and then all the joins of A are rows of one coset mask, keyed by their
    packed bits.  So each subgroup A found costs |G| x |A|
    read cells and |G| x R mask cells, R the number of distinct N(x); the
    search counts these cells, starting from the trivial subgroup's, and
    raises ``LatticeTooLarge`` once they pass ``LATTICE_WORK_CAP``.  This
    is its only bound: the order alone refuses nothing.
    """
    classes = conjugacy_classes(g)
    class_of = np.array(classes.class_of)
    seeds: dict[tuple[int, ...], int] = {}  # each distinct N(x) -> one such x
    closed = np.zeros(classes.num_classes, dtype=bool)
    for cid, x in enumerate(classes.reps):
        if closed[cid]:
            continue
        seeds.setdefault(subgroup_closure(g, np.flatnonzero(class_of == cid).tolist()).elements, x)
        # <x^j> = <x> for j prime to |x|, so the classes of those powers have the same N(x)
        powers = [x]
        while powers[-1] != 0:
            powers.append(g.mul.item(powers[-1], x))
        n = len(powers)
        closed[class_of[[y for j, y in enumerate(powers, 1) if math.gcd(j, n) == 1]]] = True
    reps = np.array(list(seeds.values()))
    owner, members = np.array([(i, y) for i, c in enumerate(seeds) for y in c]).T
    worklist = [SubgroupRef(g, (0,))]
    found = {np.packbits(np.arange(g.order) == 0).tobytes(): worklist[0]}
    work = g.order * (1 + len(reps))
    while worklist:
        least = coset_labels(g, worklist.pop())
        mark = np.zeros((len(reps), g.order), dtype=bool)
        mark[owner, least[members]] = True
        joins = mark[least[reps] != 0][:, least]
        for row, key in zip(joins, map(bytes, np.packbits(joins, axis=1))):
            if key not in found:
                found[key] = SubgroupRef(g, tuple(np.flatnonzero(row).tolist()))
                worklist.append(found[key])
                work += g.order * (found[key].order + len(reps))
                if work > LATTICE_WORK_CAP:
                    raise LatticeTooLarge(
                        f"normal-subgroup lattice search stopped: {len(found)} subgroups "
                        f"found with {len(reps)} class closures in order {g.order} "
                        f"touch {work} cells, above the work cap {LATTICE_WORK_CAP}")
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


def coset_labels(g: GroupTable, n: SubgroupRef) -> np.ndarray:
    """The least member of each coset Nx = xN of a normal ``n``, a block of N's rows at a time."""
    m = g.mul
    elems = np.array(n.elements)
    least = m[0].copy()  # the identity's row: Nx contains x
    for rows in row_blocks(len(elems), g.order, BLOCK_CELLS):
        np.minimum(least, m[elems[rows]].min(axis=0), out=least)
    return least


def quotient(g: GroupTable, n: SubgroupRef) -> QuotientMap:
    """Coset group of ``n``, cosets ordered by least member, read from N's rows.

    ``n`` must be normal, and this is not checked: it is a lattice member
    or central, normal by construction.
    """
    least = coset_labels(g, n)
    reps = np.flatnonzero(least == np.arange(g.order))
    coset_of = np.searchsorted(reps, least).astype(np.int32)
    qmul = coset_of[g.mul[np.ix_(reps, reps)]]
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
        for rows in row_blocks(current.order, len(ambient), BLOCK_CELLS):
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
    """Least-element representatives of the left cosets xH, ascending, read from G's rows."""
    cols = np.array(h.elements)
    least = np.empty(g.order, dtype=g.mul.dtype)
    for rows in row_blocks(g.order, len(cols), BLOCK_CELLS):
        least[rows] = g.mul[rows, cols].min(axis=1)
    return np.flatnonzero(least == np.arange(g.order)).tolist()


def image_subgroup(q: QuotientMap, h: SubgroupRef) -> SubgroupRef:
    """Image of a subgroup of the source under the projection."""
    return SubgroupRef(q.target, tuple(sorted({q.project[x] for x in h.elements})))
