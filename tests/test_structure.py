"""Commutators, classes, normal subgroups, quotients, central series."""

import itertools

import numpy as np
import pytest

from nilprob.errors import EmptyInput, NotNormal, OrderExceeded
from nilprob.groups import catalog_base_names, catalog_get
from nilprob.structure import (
    LATTICE_WORK_CAP,
    center,
    centralizer,
    conjugacy_classes,
    image_subgroup,
    is_normal,
    left_coset_reps,
    lower_central_series,
    nilpotency_class,
    normal_subgroups,
    quotient,
    subgroup,
    subgroup_closure,
    subgroup_table,
    whole_group,
)


def element_order(g, x):
    acc, n = x, 1
    while acc != 0:
        acc = g.mul[acc][x]
        n += 1
    return n


def is_subgroup(g, elements):
    elems = set(elements)
    return 0 in elems and all(g.mul[a][b] in elems for a in elems for b in elems)


def first_of_order(g, n):
    return next(x for x in g.elements() if element_order(g, x) == n)


def commutator(g, a, b):
    """Oracle: [a, b] = a^-1 b^-1 a b, one table lookup at a time."""
    m, inv = g.mul, g.inv
    return int(m[m[m[inv[a], inv[b]], a], b])


def left_normed_commutator(g, xs):
    """Oracle: fold of ``commutator``; a single element is returned unchanged."""
    if not xs:
        raise EmptyInput("left-normed commutator of an empty list")
    acc = xs[0]
    for x in xs[1:]:
        acc = commutator(g, acc, x)
    return acc


def coset_intersection_size(g, h, y, x):
    """Oracle: |y C_G(x) \\cap H|, counted element by element."""
    mul, inv = g.mul.tolist(), g.inv.tolist()
    # a in y C_G(x)  <=>  y^-1 a commutes with x
    return sum(1 for a in h.elements if mul[mul[inv[y]][a]][x] == mul[x][mul[inv[y]][a]])


def test_commutator_basics():
    s3 = catalog_get("S(3)")
    for a in s3.elements():
        assert commutator(s3, a, a) == 0
    c = first_of_order(s3, 3)
    t = first_of_order(s3, 2)
    assert element_order(s3, commutator(s3, c, t)) == 3


def test_commutator_of_commuting_pair():
    c6 = catalog_get("C(6)")
    for a, b in itertools.product(c6.elements(), repeat=2):
        assert commutator(c6, a, b) == 0


def test_left_normed_commutator():
    s3 = catalog_get("S(3)")
    c = first_of_order(s3, 3)
    t = first_of_order(s3, 2)
    assert left_normed_commutator(s3, [c]) == c
    # an identity in either of the first two slots collapses everything
    assert left_normed_commutator(s3, [0, t, c]) == 0
    assert left_normed_commutator(s3, [t, 0, c]) == 0
    w = left_normed_commutator(s3, [c, t, t])
    assert element_order(s3, w) == 3
    with pytest.raises(EmptyInput):
        left_normed_commutator(s3, [])


def test_centralizer():
    s3 = catalog_get("S(3)")
    assert centralizer(s3, 0).order == 6
    t = first_of_order(s3, 2)
    assert centralizer(s3, t).order == 2
    q8 = catalog_get("Q8")
    i = first_of_order(q8, 4)
    assert centralizer(q8, i).order == 4


def test_center():
    assert center(catalog_get("C(12)")).order == 12
    assert center(catalog_get("S(3)")).order == 1
    assert center(catalog_get("Q8")).order == 2
    assert center(catalog_get("Heis(3)")).order == 3


def test_conjugacy_classes():
    c4 = catalog_get("C(4)")
    assert conjugacy_classes(c4).num_classes == 4

    s3 = catalog_get("S(3)")
    data = conjugacy_classes(s3)
    assert data.num_classes == 3
    assert sorted(data.sizes) == [1, 2, 3]
    assert data.class_of[0] == 0 and data.sizes[0] == 1

    assert conjugacy_classes(catalog_get("S(4)")).num_classes == 5


def test_class_data_invariants():
    for name in ["S(3)", "Q8", "S(4)", "Dic(3)", "Heis(3)"]:
        g = catalog_get(name)
        data = conjugacy_classes(g)
        assert sum(data.sizes) == g.order
        for cid, rep in enumerate(data.reps):
            assert data.class_of[rep] == cid
            # orbit-stabilizer: |class| |C_G(rep)| = |G|
            assert data.sizes[cid] * centralizer(g, rep).order == g.order


def test_subgroup_closure():
    s3 = catalog_get("S(3)")
    assert subgroup_closure(s3, []).elements == (0,)
    c = first_of_order(s3, 3)
    assert subgroup_closure(s3, [c]).order == 3
    t1, t2 = [x for x in s3.elements() if element_order(s3, x) == 2][:2]
    assert subgroup_closure(s3, [t1, t2]).order == 6


def test_subgroup_closure_is_group():
    s4 = catalog_get("S(4)")
    for seed in range(s4.order):
        h = subgroup_closure(s4, [seed])
        assert is_subgroup(s4, h.elements)
        assert s4.order % h.order == 0  # Lagrange


def _all_subgroups_two_generated(g):
    """Oracle: closures of all 1- and 2-element seed sets.

    Complete exactly for groups whose subgroups are all 2-generated, which
    covers everything this test feeds it.
    """
    subs = {(0,)}
    for a in g.elements():
        subs.add(subgroup_closure(g, [a]).elements)
        for b in g.elements():
            subs.add(subgroup_closure(g, [a, b]).elements)
    return subs


@pytest.mark.parametrize(
    "name,expected_count",
    [("S(3)", 3), ("Q8", 6), ("C(7)", 2), ("S(4)", 4), ("D(8)", 6), ("A(4)", 3)],
)
def test_normal_subgroups_against_oracle(name, expected_count):
    g = catalog_get(name)
    normals = normal_subgroups(g)
    assert len(normals) == expected_count
    oracle = {
        elems
        for elems in _all_subgroups_two_generated(g)
        if is_normal(g, subgroup(g, elems))
    }
    assert {n.elements for n in normals} == oracle
    orders = [n.order for n in normals]
    assert orders == sorted(orders)
    assert normals[0].order == 1 and normals[-1].order == g.order


def class_closures(g):
    """Oracle seeds: the normal closure of each conjugacy class, deduplicated."""
    classes = conjugacy_classes(g)
    found = {}
    for cid in range(classes.num_classes):
        seeds = [x for x in g.elements() if classes.class_of[x] == cid]
        sub = subgroup_closure(g, seeds)
        found.setdefault(sub.elements, sub)
    return found


def normal_subgroups_by_closure(g):
    """Oracle: the normal-subgroup lattice with every join a subgroup closure."""
    found = class_closures(g)
    worklist = list(found.values())
    while worklist:
        sub = worklist.pop()
        for other in list(found.values()):
            joined = subgroup_closure(g, sub.elements + other.elements)
            if joined.elements not in found:
                found[joined.elements] = joined
                worklist.append(joined)
    return sorted(found, key=lambda elems: (len(elems), elems))


@pytest.mark.parametrize("name", catalog_base_names(64) + ["S(3)xS(3)", "S(3)xD(24)"])
def test_normal_subgroups_product_joins_match_closure(name):
    g = catalog_get(name)
    normals = [n.elements for n in normal_subgroups(g)]
    assert normals == normal_subgroups_by_closure(g)
    if name == "S(3)xD(24)":
        # (a, b) has index 24 a + b, so S(3)x1 is the multiples of 24
        assert len(normals) == 36
        assert normals[7] == tuple(range(0, 144, 24))


def normal_subgroups_by_products(g):
    """Oracle: the normal-subgroup lattice with every pair of subgroups found
    joined as the product set AB, gathered from the table in one step."""
    found = class_closures(g)
    worklist = list(found.values())
    while worklist:
        sub = worklist.pop()
        for other in list(found.values()):
            hit = np.zeros(g.order, dtype=bool)
            hit[g.mul[np.ix_(sub.elements, other.elements)]] = True
            joined = subgroup(g, np.flatnonzero(hit).tolist())
            if joined.elements not in found:
                found[joined.elements] = joined
                worklist.append(joined)
    return sorted(found, key=lambda elems: (len(elems), elems))


@pytest.mark.parametrize("name", ["S(4)", "Q8xC(2)xC(2)", "D(64)xD(8)"])
def test_normal_subgroups_match_pairwise_products(name):
    # D(64)xD(8) has order 512, the lattice cap
    g = catalog_get(name)
    assert [n.elements for n in normal_subgroups(g)] == normal_subgroups_by_products(g)


def test_normal_subgroups_at_the_cap_with_a_large_lattice():
    # the pairwise-product oracle takes tens of seconds here, so the
    # lattice is pinned by its size and checked for its defining properties
    g = catalog_get("Dic(16)xC(2)xC(2)xC(2)")
    assert g.order == 512
    normals = normal_subgroups(g)
    assert len(normals) == 578
    lattice = {n.elements for n in normals}
    assert len(lattice) == len(normals)
    assert all(is_normal(g, n) for n in normals)
    # every normal subgroup is a product of class closures, so closure under
    # products with each of them is closure under all products
    seeds = class_closures(g)
    assert set(seeds) <= lattice
    for n in normals:
        for c in seeds:
            assert tuple(np.unique(g.mul[np.ix_(n.elements, c)]).tolist()) in lattice


def test_normal_subgroups_cap():
    with pytest.raises(OrderExceeded):
        normal_subgroups(catalog_get("C(60)"), cap=32)


def test_normal_subgroups_work_cap_margin():
    # C(2)^7, the largest lattice computed (29,212 subgroups, 127 class
    # closures and the trivial one), fits under the cap, which C(2)^8
    # (417,199 subgroups, 255 closures and the trivial one) passes at 8193
    assert 29_212 * 128 * 128 <= LATTICE_WORK_CAP < 8193 * 256 * 256


def test_quotient_s3_by_a3():
    s3 = catalog_get("S(3)")
    a3 = next(n for n in normal_subgroups(s3) if n.order == 3)
    q = quotient(s3, a3)
    assert q.target.order == 2
    assert q.project[0] == 0
    # projection is a homomorphism with |N|-sized fibers
    for a, b in itertools.product(s3.elements(), repeat=2):
        assert q.project[s3.mul[a][b]] == q.target.mul[q.project[a]][q.project[b]]
    for t in q.target.elements():
        assert sum(1 for x in s3.elements() if q.project[x] == t) == a3.order


def test_quotient_by_trivial_and_whole():
    g = catalog_get("D(12)")
    q_triv = quotient(g, subgroup(g, [0]))
    assert q_triv.target.order == g.order
    assert np.array_equal(q_triv.target.mul, g.mul)  # identity projection preserves the table
    q_all = quotient(g, whole_group(g))
    assert q_all.target.order == 1


def test_quotient_requires_normal():
    s3 = catalog_get("S(3)")
    t = first_of_order(s3, 2)
    h = subgroup_closure(s3, [t])
    with pytest.raises(NotNormal):
        quotient(s3, h)


def test_image_subgroup():
    s4 = catalog_get("S(4)")
    v4 = next(n for n in normal_subgroups(s4) if n.order == 4)
    q = quotient(s4, v4)
    assert q.target.order == 6
    a4 = next(n for n in normal_subgroups(s4) if n.order == 12)
    assert image_subgroup(q, a4).order == 3


def test_quotient_serialization():
    s3 = catalog_get("S(3)")
    a3 = next(n for n in normal_subgroups(s3) if n.order == 3)
    q = quotient(s3, a3)
    assert q.kernel.elements == a3.elements
    assert len(q.project) == 6 and q.project[0] == 0


def test_lower_central_series():
    c6 = catalog_get("C(6)")
    assert [s.order for s in lower_central_series(c6)] == [6, 1]
    d8 = catalog_get("D(8)")
    assert [s.order for s in lower_central_series(d8)] == [8, 2, 1]
    s3 = catalog_get("S(3)")
    assert [s.order for s in lower_central_series(s3)] == [6, 3, 3]


def test_lower_central_series_terms_normal_and_descending():
    for name in ["S(4)", "Dic(4)", "Heis(3)", "SL(2,3)"]:
        g = catalog_get(name)
        series = lower_central_series(g)
        for h in series:
            assert is_normal(g, h)
        for a, b in zip(series, series[1:]):
            assert set(b.elements) <= set(a.elements)


def test_nilpotency_class():
    assert nilpotency_class(catalog_get("C(1)")) == 0
    assert nilpotency_class(catalog_get("C(9)")) == 1
    assert nilpotency_class(catalog_get("Q8")) == 2
    assert nilpotency_class(catalog_get("D(16)")) == 3
    assert nilpotency_class(catalog_get("S(3)")) is None
    assert nilpotency_class(catalog_get("A(5)")) is None


def test_nilpotency_class_of_subgroup():
    s4 = catalog_get("S(4)")
    v4 = next(n for n in normal_subgroups(s4) if n.order == 4)
    assert nilpotency_class(v4) == 1
    a4 = next(n for n in normal_subgroups(s4) if n.order == 12)
    assert nilpotency_class(a4) is None
    sl = catalog_get("SL(2,3)")
    q8 = next(n for n in normal_subgroups(sl) if n.order == 8)
    assert nilpotency_class(q8) == 2


def test_subgroup_table():
    sl = catalog_get("SL(2,3)")
    q8 = next(n for n in normal_subgroups(sl) if n.order == 8)
    table, elems = subgroup_table(sl, q8)
    assert table.order == 8
    assert elems[0] == 0
    # one element of order 2: it really is the quaternion group
    assert sum(1 for x in table.elements() if element_order(table, x) == 2) == 1


def test_coset_intersection_size():
    s3 = catalog_get("S(3)")
    a3 = next(n for n in normal_subgroups(s3) if n.order == 3)
    c = first_of_order(s3, 3)
    t = first_of_order(s3, 2)
    assert coset_intersection_size(s3, a3, t, c) == 0
    assert coset_intersection_size(s3, a3, 0, c) == 3
    # y = identity gives |C_H(x)| for any x
    for x in s3.elements():
        ch = len([a for a in a3.elements if s3.mul[a][x] == s3.mul[x][a]])
        assert coset_intersection_size(s3, a3, 0, x) == ch


@pytest.mark.parametrize("name", ["S(3)", "S(4)", "Q8", "Dic(3)"])
def test_coset_intersection_dichotomy(name):
    # |y C_G(x) n H| is always 0 or |C_H(x)|, for every subgroup source
    g = catalog_get(name)
    for h in normal_subgroups(g):
        for x in g.elements():
            ch = len([a for a in h.elements if g.mul[a][x] == g.mul[x][a]])
            for y in g.elements():
                assert coset_intersection_size(g, h, y, x) in (0, ch)


def test_left_coset_reps():
    s3 = catalog_get("S(3)")
    a3 = next(n for n in normal_subgroups(s3) if n.order == 3)
    reps = left_coset_reps(s3, a3)
    assert len(reps) == 2 and reps[0] == 0
    seen = set()
    for r in reps:
        seen |= {s3.mul[r][y] for y in a3.elements}
    assert seen == set(range(6))
