"""Structural computations on group tables.

Commutators, centralizers, conjugacy classes, subgroup closure, normal
subgroups, quotients, the lower central series and nilpotency class.  All
functions are pure; subgroups are sorted element-index tuples referencing
their parent table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import EmptyInput, NotNormal, OrderExceeded
from .groups import GroupTable, build_from_table

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


def commutator(g: GroupTable, a: int, b: int) -> int:
    """[a, b] = a^-1 b^-1 a b."""
    mul, inv = g.mul, g.inv
    return mul[mul[mul[inv[a]][inv[b]]][a]][b]


def left_normed_commutator(g: GroupTable, xs: Sequence[int]) -> int:
    """Fold of ``commutator``; a single element is returned unchanged."""
    if not xs:
        raise EmptyInput("left-normed commutator of an empty list")
    acc = xs[0]
    for x in xs[1:]:
        acc = commutator(g, acc, x)
    return acc


def centralizer(g: GroupTable, x: int) -> SubgroupRef:
    mul = g.mul
    row = mul[x]
    return SubgroupRef(g, tuple(a for a in g.elements() if mul[a][x] == row[a]))


def center(g: GroupTable) -> SubgroupRef:
    mul = g.mul
    out = []
    for a in g.elements():
        row = mul[a]
        if all(row[b] == mul[b][a] for b in g.elements()):
            out.append(a)
    return SubgroupRef(g, tuple(out))


def conjugacy_classes(g: GroupTable) -> ClassData:
    """Orbit partition under conjugation; class 0 is the identity's."""
    n = g.order
    mul, inv = g.mul, g.inv
    class_of = [-1] * n
    reps: list[int] = []
    sizes: list[int] = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        cid = len(reps)
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for a in range(n):
                z = mul[mul[inv[a]][y]][a]
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        for y in orbit:
            class_of[y] = cid
        reps.append(x)
        sizes.append(len(orbit))
    cent = tuple(n // s for s in sizes)
    return ClassData(tuple(class_of), tuple(reps), tuple(sizes), cent)


def subgroup_closure(g: GroupTable, seeds: Iterable[int]) -> SubgroupRef:
    """Smallest subgroup containing ``seeds`` (the trivial one for none)."""
    mul = g.mul
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
    mul, inv = g.mul, g.inv
    members = set(h.elements)
    for a in g.elements():
        inv_a = inv[a]
        for x in h.elements:
            if mul[mul[inv_a][x]][a] not in members:
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
    pairwise joins.
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
            joined = subgroup_closure(g, sub.elements + other.elements)
            if joined.elements not in found:
                found[joined.elements] = joined
                worklist.append(joined)
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


def quotient(g: GroupTable, n: SubgroupRef) -> QuotientMap:
    """Coset group of a normal subgroup, cosets ordered by least member."""
    if not is_normal(g, n):
        raise NotNormal(f"subgroup of order {n.order} is not normal in {g.label}")
    mul = g.mul
    coset_of = [-1] * g.order
    reps: list[int] = []
    for x in g.elements():
        if coset_of[x] >= 0:
            continue
        cid = len(reps)
        reps.append(x)  # x is the least member: elements scanned in order
        for y in n.elements:
            coset_of[mul[x][y]] = cid
    q = len(reps)
    qmul = [[coset_of[mul[reps[i]][reps[j]]] for j in range(q)] for i in range(q)]
    target = build_from_table(q, qmul, f"{g.label}/{n.order}")
    return QuotientMap(g, n, target, tuple(coset_of))


def subgroup_table(g: GroupTable, h: SubgroupRef) -> tuple[GroupTable, list[int]]:
    """``h`` as a standalone group table plus the new-index -> old-index map."""
    elems = list(h.elements)
    pos = {x: i for i, x in enumerate(elems)}
    mul = g.mul
    rows = [[pos[mul[a][b]] for b in elems] for a in elems]
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
    while True:
        current = series[-1]
        if current.order == 1:
            return series
        seeds = set()
        for a in current.elements:
            for b in ambient:
                seeds.add(commutator(g, a, b))
        nxt = subgroup_closure(g, seeds)
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


def coset_intersection_size(g: GroupTable, h: SubgroupRef, y: int, x: int) -> int:
    """|y C_G(x) \\cap H|; always 0 or |C_H(x)|."""
    mul = g.mul
    row_x = mul[x]
    count = 0
    for a in h.elements:
        # a in y C_G(x)  <=>  y^-1 a commutes with x
        z = mul[g.inv[y]][a]
        if mul[z][x] == row_x[z]:
            count += 1
    return count


def left_coset_reps(g: GroupTable, h: SubgroupRef) -> list[int]:
    """Least-element representatives of the left cosets xH, ascending."""
    mul = g.mul
    seen = [False] * g.order
    reps = []
    for x in g.elements():
        if seen[x]:
            continue
        reps.append(x)
        for y in h.elements:
            seen[mul[x][y]] = True
    return reps


def image_subgroup(q: QuotientMap, h: SubgroupRef) -> SubgroupRef:
    """Image of a subgroup of the source under the projection."""
    return SubgroupRef(q.target, tuple(sorted({q.project[x] for x in h.elements})))
