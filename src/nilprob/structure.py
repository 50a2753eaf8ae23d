"""Structural computations on group tables.

Centralizers, conjugacy classes and orbits, subgroup closure, normal
subgroups, quotients, the lower central series and nilpotency class.  All
functions are pure; subgroups are sorted element-index tuples referencing
their parent table.  Whole-table passes read the ``int32`` arrays in row
blocks of a named cell budget (``perms.row_blocks``): commuting pairs are
counted by ``commuting_counts`` alone, and cosets of a normal subgroup are
labelled by ``coset_labels`` alone.  Every subgroup grown from seeds,
from a lattice seed N(x) to a term of the lower central series, is closed
by ``_closure`` alone, with ``mul.item``, from at most log2 |H|
generators.  Conjugacy classes are orbits under conjugation by a few
``generators``, found by ``class_labels`` in |H| cells per generator and
round, as are the ``Orbits`` that ``exact`` counts on, and the center is
the elements that commute with G's generators.
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
    def _orbits(self) -> "Orbits":
        """The conjugation orbits on G that ``exact`` counts on, built once per object."""
        return _orbits_within(self)

    def __repr__(self) -> str:
        return f"SubgroupRef(order={self.order} in {self.parent.label!r})"


@dataclass(eq=False, slots=True)
class Orbits:
    """The orbits of H and of K = core_G(H) on G under conjugation, by least member.

    H-orbit i is ``h_members[h_bounds[i]:h_bounds[i + 1]]``; ``h_orbit`` and
    ``orbit`` number each element's H- and K-orbit (one array for normal H),
    and ``reps`` are the K-orbits' least members.  A K-orbit lies in one
    coset of H; ``cells`` maps it to the coset's transfer cells (``exact``).
    """

    elements: np.ndarray
    h_orbit: np.ndarray
    h_members: np.ndarray
    h_bounds: np.ndarray
    orbit: np.ndarray
    reps: np.ndarray
    cells: dict


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
    gens = np.array(g.generators, dtype=np.intp)
    central = commuting_counts(g, np.arange(g.order), gens) == len(gens)
    return SubgroupRef(g, tuple(np.flatnonzero(central).tolist()))


def _closure(g: GroupTable, seeds: Iterable[int],
             conj: Sequence[int] = ()) -> tuple[np.ndarray, list[int]]:
    """The subgroup that ``seeds`` generate, normalized by ``conj``: its mask and generators.

    Each seed outside the subgroup S reached so far becomes a generator x,
    queues its conjugates s^-1 x s by ``conj`` as seeds, and closes S by
    Dimino's coset steps (Holt, Eick & O'Brien, 2005): yS = ``mul[y][S]``
    is added for each y = sr not yet reached, r over the coset
    representatives and s over the generators, so S at least doubles.
    """
    m, inv = g.mul, g.inv
    reached = np.zeros(g.order, dtype=bool)
    reached[0] = True
    sub = np.zeros(1, dtype=np.intp)
    gens: list[int] = []
    queue = list(seeds)
    for x in queue:  # grows as conjugates are queued
        if reached[x]:
            continue
        gens.append(x)
        reps = [0]
        for r in reps:  # grows as cosets are found
            for s in gens:
                y = m.item(s, r)
                if not reached[y]:
                    reached[m[y][sub] if len(sub) > 1 else y] = True
                    reps.append(y)
        sub = np.flatnonzero(reached)
        queue.extend(m.item(m.item(inv.item(s), x), s) for s in conj)
    return reached, gens


def generators(g: GroupTable, elems: np.ndarray) -> list[int]:
    """Generators of the subgroup ``elems``: each is its least member outside the ones before."""
    return _closure(g, elems.tolist())[1]


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


def _classes(g: GroupTable, elems: np.ndarray,
             gens: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The classes of the sorted subgroup ``elems`` = <``gens``>: least members, ids, sizes."""
    least = class_labels(g, elems, gens)
    reps = elems[least == elems]
    class_of = np.searchsorted(reps, least)
    return reps, class_of, np.bincount(class_of)


def conjugacy_classes(g: GroupTable) -> ClassData:
    """Orbit partition under conjugation, classes numbered by least member; class 0 is the identity's."""
    reps, class_of, sizes = _classes(g, np.arange(g.order), g.generators)
    return ClassData(tuple(class_of.tolist()), tuple(reps.tolist()), tuple(sizes.tolist()))


def _orbits_within(h: SubgroupRef) -> Orbits:
    """H's and K's conjugation orbits on G, and T_H's cells when H is normal.

    K = core_G(H) is H less every member with a conjugate outside it under
    G's generators, until nothing changes.  T_H's cells are G in orbit
    order, u with the orbit of o^-1 u for o its orbit's least member (see
    ``exact``).  The arrays stay cached, so are ``int16`` below order 2^15.
    """
    g, m, inv = h.parent, h.parent.mul, h.parent.inv
    dtype = np.int16 if g.order < 2 ** 15 else m.dtype
    elems, every = np.array(h.elements, dtype=dtype), np.arange(g.order, dtype=dtype)
    reps, h_orbit, h_size = (a.astype(dtype) for a in _classes(g, every, generators(g, elems)))
    h_members = np.argsort(h_orbit, kind="stable").astype(dtype)
    h_bounds = np.append(0, np.cumsum(h_size)).astype(dtype)
    core = np.bincount(elems, minlength=g.order) > 0
    conjugates = [m[m[inv.item(s)], s] for s in g.generators]
    while (kept := core & np.logical_and.reduce([core[c] for c in conjugates])).sum() < core.sum():
        core = kept
    if core.sum() < h.order:
        gens = generators(g, np.flatnonzero(core))
        reps, orbit, _ = (a.astype(dtype) for a in _classes(g, every, gens))
        return Orbits(elems, h_orbit, h_members, h_bounds, orbit, reps, {})
    targets = h_orbit[m[inv[reps][h_orbit[h_members]], h_members]]
    return Orbits(elems, h_orbit, h_members, h_bounds, h_orbit, reps,
                  {0: (h_bounds, targets, h.order // h_size)})


def subgroup_closure(g: GroupTable, seeds: Iterable[int]) -> SubgroupRef:
    """Smallest subgroup containing ``seeds`` (the trivial one for none)."""
    seeds = [int(x) for x in seeds]
    for x in seeds:
        if not 0 <= x < g.order:
            raise ValueError(f"seed {x} out of range for order {g.order}")
    return SubgroupRef(g, tuple(np.flatnonzero(_closure(g, seeds)[0]).tolist()))


def normal_subgroups(g: GroupTable) -> list[SubgroupRef]:
    """All normal subgroups, sorted by order then by element tuple.

    Every normal subgroup is a join of normal closures N(x) of single
    elements (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, 2005), so the lattice is reached from the trivial subgroup by
    joining each subgroup A found with every distinct N(x), skipping x in
    A.  N(x) is closed once per rational class: <x^j> = <x> for j prime to
    |x|.  The join A N(x) is the union of the cosets of A that meet N(x):
    ``coset_labels`` labels each element x by the least member of Ax = xA,
    and then all the joins of A are rows of one coset mask, keyed by their
    packed bits.  So each subgroup A found costs |G| x |A|
    read cells and |G| x R mask cells, R the number of distinct N(x); the
    search counts these cells, starting from the trivial subgroup's, and
    raises ``LatticeTooLarge`` once they pass ``LATTICE_WORK_CAP``.  This
    is its only bound: the order alone refuses nothing.
    """
    gens = g.generators
    reps, class_of, _ = _classes(g, np.arange(g.order), gens)
    seeds: dict[bytes, int] = {}  # each distinct N(x), its mask's bytes -> one such x
    closed = np.zeros(len(reps), dtype=bool)
    for cid, x in enumerate(reps.tolist()):
        if closed[cid]:
            continue
        seeds.setdefault(_closure(g, [x], gens)[0].tobytes(), x)
        powers = [x]
        while powers[-1] != 0:
            powers.append(g.mul.item(powers[-1], x))
        n = len(powers)
        closed[class_of[[y for j, y in enumerate(powers, 1) if math.gcd(j, n) == 1]]] = True
    reps = np.array(list(seeds.values()))
    owner, members = np.nonzero(np.frombuffer(b"".join(seeds), dtype=bool).reshape(len(reps), -1))
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
    """H's lower central series: gamma_{i+1} is the normal closure of the [a, s], a in A_i, s in S.

    H = <S>, A_1 = S, A_{i+1} generates gamma_{i+1}, and [a, s] = (sa)^-1 as (Holt et al., 2005).
    """
    g = h.parent
    m, inv = g.mul, g.inv
    series = [SubgroupRef(g, h.elements)]  # not h itself: h caches this tuple
    gens = normal = generators(g, np.array(h.elements))
    while series[-1].order > 1:
        seeds = [m.item(inv.item(m.item(s, a)), m.item(a, s)) for a in normal for s in gens]
        reached, normal = _closure(g, seeds, gens)
        series.append(SubgroupRef(g, tuple(np.flatnonzero(reached).tolist())))
        if series[-1].elements == series[-2].elements:
            break
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
