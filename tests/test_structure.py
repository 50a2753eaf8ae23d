"""Commutators, classes, normal subgroups, quotients, central series."""

import itertools
import math
from collections import Counter
import sys
import tracemalloc

import numpy as np
import pytest

from nilprob.errors import EmptyInput, LatticeTooLarge
from nilprob import exact, structure
from nilprob.exact import cp, np_fast, np_sup
from nilprob.groups import BLOCK_CELLS, catalog_base_names, catalog_get, validate_table
from nilprob.perms import row_blocks
from nilprob.verify import default_corpus_names
from nilprob.structure import (
    LATTICE_WORK_CAP,
    center,
    centralizer,
    conjugacy_classes,
    generators,
    image_subgroup,
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
from seeded import stream_rng


def element_order(g, x):
    acc, n = x, 1
    while acc != 0:
        acc = g.mul[acc][x]
        n += 1
    return n


def is_subgroup(g, elements):
    elems = set(elements)
    return 0 in elems and all(g.mul[a][b] in elems for a in elems for b in elems)


def is_normal(g, h):
    """Oracle: every conjugate a^-1 x a of a member x is a member, a block of a at a time."""
    m, inv = g.mul, g.inv
    elems = np.array(h.elements)
    member = np.zeros(g.order, dtype=bool)
    member[elems] = True
    for rows in row_blocks(g.order, len(elems), BLOCK_CELLS):
        a = np.arange(g.order)[rows]
        if not member[m[m[np.ix_(inv[a], elems)], a[:, None]]].all():
            return False
    return True


def bfs_closure(g, seeds):
    """Oracle: the smallest subgroup containing ``seeds``, by a breadth-first search of products."""
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
    return tuple(sorted(members))


def gathered_series(g, h):
    """Oracle: each term the ``bfs_closure`` of every [a, b], a in the last term and b in H."""
    m, inv = g.mul, g.inv
    ambient = np.array(h.elements)
    series = [h.elements]
    while len(series[-1]) > 1:
        elems = np.array(series[-1])
        hit = np.zeros(g.order, dtype=bool)
        for rows in row_blocks(len(elems), len(ambient), BLOCK_CELLS):
            a = elems[rows]
            hit[m[m[m[inv[a][:, None], inv[ambient]], a[:, None]], ambient]] = True
        series.append(bfs_closure(g, np.flatnonzero(hit).tolist()))
        if series[-1] == series[-2]:
            break
    return series


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


def commuting_center(g):
    """Oracle: the x whose row equals its column, the n^2 pass, a block of rows at a time."""
    m = g.mul
    central = np.empty(g.order, dtype=bool)
    for rows in row_blocks(g.order, g.order, BLOCK_CELLS):
        central[rows] = (m[rows] == m[:, rows].T).all(axis=1)
    return tuple(np.flatnonzero(central).tolist())


@pytest.mark.parametrize("name", default_corpus_names() + ["C(1)", "C(4096)", "D(64)xD(64)"])
def test_center_matches_the_commuting_pass(name):
    g = catalog_get(name)
    assert center(g).elements == commuting_center(g)


def test_conjugacy_classes():
    c4 = catalog_get("C(4)")
    assert conjugacy_classes(c4).num_classes == 4

    s3 = catalog_get("S(3)")
    data = conjugacy_classes(s3)
    assert data.num_classes == 3
    assert sorted(data.sizes) == [1, 2, 3]
    assert data.class_of[0] == 0 and data.sizes[0] == 1

    assert conjugacy_classes(catalog_get("S(4)")).num_classes == 5


def scanned_classes(g):
    """Oracle: each element's least conjugate a^-1 y a over all a, a block of a at a time."""
    n = g.order
    m, inv = g.mul, g.inv
    least = np.arange(n)
    for rows in row_blocks(n, n, BLOCK_CELLS):
        a = np.arange(n)[rows]
        np.minimum(least, m[m[inv[a]], a[:, None]].min(axis=0), out=least)
    reps = np.flatnonzero(least == np.arange(n))
    return tuple(np.searchsorted(reps, least).tolist()), tuple(reps.tolist())


@pytest.mark.parametrize("name", default_corpus_names()
                         + ["C(4096)", "D(64)xD(64)", "A(5)xA(5)", "S(6)"])
def test_conjugacy_classes_match_the_scan(name):
    g = catalog_get(name)
    data = conjugacy_classes(g)
    assert (data.class_of, data.reps) == scanned_classes(g)
    assert data.sizes == tuple(np.bincount(data.class_of).tolist())


@pytest.mark.parametrize("name", ["S(4)", "SL(2,3)", "D(8)xC(2)", "Q8xC(2)", "C(2)xC(2)xC(2)",
                                  "A(5)", "C(64)"])
def test_generators_close_to_the_subgroup(name):
    g = catalog_get(name)
    pool = {h.elements for h in normal_subgroups(g)}
    pool |= {bfs_closure(g, [x]) for x in g.elements()}
    for elems in sorted(pool):
        gens = generators(g, np.array(elems))
        assert bfs_closure(g, gens) == elems
        for i, x in enumerate(gens):
            before = bfs_closure(g, gens[:i])
            assert x not in before
            assert x == min(set(elems) - set(before))
        assert len(gens) <= math.log2(len(elems)) + 1


def brute_transfer(g, h, x):
    """Oracle: K = core_G(H), the K-orbit of each element by least member, and T_x's entries.

    The entries are {(O, O'): #{t in xH : [o, t] in O'}} for o the least
    member of O, from the commutators themselves.
    """
    m, inv = g.mul, g.inv
    every, elems = np.arange(g.order), np.array(h.elements)
    conj = m[m[inv[every]][:, elems], every[:, None]]  # y^-1 c y for y (rows), c in H
    core = elems[np.isin(conj, elems).all(axis=0)]
    least = m[m[inv[core]][:, every], core[:, None]].min(axis=0)  # min over c in K of c^-1 y c
    reps = np.unique(least)
    orbit = np.searchsorted(reps, least)
    coset = m[x, elems]
    comm = m[m[inv[reps]][:, inv[coset]], m[reps][:, coset]]  # [o, t] = o^-1 t^-1 o t
    rows = np.repeat(np.arange(len(reps)), len(coset))
    return core, orbit, dict(Counter(zip(rows.tolist(), orbit[comm].ravel().tolist())))


def kernel_transfer(g, h, x):
    """T_x's entries from the kernel's cells: each cell of row O adds the row's scale to O'."""
    counts = Counter()
    for rows, bounds, orbits, scales in exact._cells(g, h, x, 1):
        for i, lo, hi, scale in zip(range(rows.start, rows.stop), bounds[:-1].tolist(),
                                    bounds[1:].tolist(), scales.tolist()):
            for target in orbits[lo:hi].tolist():
                counts[i, target] += scale
    return dict(counts)


@pytest.mark.parametrize("name", ["Q8", "S(4)", "SL(2,3)", "D(8)xC(2)", "C(12)"])
def test_class_transfer_counts_commutator_pairs(name):
    # the orbits and every coset's transfer cells of every normal and cyclic subgroup
    g = catalog_get(name)
    pool = {h.elements for h in normal_subgroups(g)}
    pool |= {subgroup_closure(g, [x]).elements for x in g.elements()}
    cores = {}
    for elems in sorted(pool):
        h = subgroup(g, elems)
        for x in left_coset_reps(g, h):
            core, orbit, entries = brute_transfer(g, h, x)
            assert h._orbits.orbit.tolist() == orbit.tolist(), elems
            assert kernel_transfer(g, h, x) == entries, (elems, x)
        cores[elems] = tuple(core.tolist())
        if name == "C(12)":  # abelian: each element is an orbit, and [o, t] = 1
            assert entries == {(i, 0): len(elems) for i in range(g.order)}
    if name == "SL(2,3)":
        # the cyclic subgroups of order 4 are not normal, and their core is the center
        fours = [elems for elems in pool if len(elems) == 4]
        assert fours and all(cores[elems] == center(g).elements for elems in fours)
        assert len(center(g).elements) == 2


def test_class_transfer_of_a_large_group():
    g = catalog_get("D(64)xD(32)")
    h = whole_group(g)
    core, orbit, entries = brute_transfer(g, h, 0)
    assert h._orbits.orbit.tolist() == orbit.tolist()
    assert kernel_transfer(g, h, 0) == entries


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


@pytest.mark.parametrize("seed", [-1, 6])
def test_subgroup_closure_rejects_seeds_outside_the_group(seed):
    with pytest.raises(ValueError, match=f"seed {seed} out of range for order 6"):
        subgroup_closure(catalog_get("S(3)"), [0, seed])


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
        subs.add(bfs_closure(g, [a]))
        for b in g.elements():
            subs.add(bfs_closure(g, [a, b]))
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
        elems = bfs_closure(g, [x for x in g.elements() if classes.class_of[x] == cid])
        found.setdefault(elems, subgroup(g, elems))
    return found


def normal_subgroups_by_closure(g):
    """Oracle: the normal-subgroup lattice with every join a subgroup closure."""
    found = class_closures(g)
    worklist = list(found.values())
    while worklist:
        sub = worklist.pop()
        for other in list(found.values()):
            joined = subgroup(g, bfs_closure(g, sub.elements + other.elements))
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
    g = catalog_get(name)
    assert [n.elements for n in normal_subgroups(g)] == normal_subgroups_by_products(g)


def assert_normal_lattice(g, normals):
    """The lattice's defining properties, for groups too large for the oracles."""
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


def test_normal_subgroups_at_the_cap_with_a_large_lattice():
    # the pairwise-product oracle takes tens of seconds here, so the
    # lattice is pinned by its size and checked for its defining properties
    g = catalog_get("Dic(16)xC(2)xC(2)xC(2)")
    assert g.order == 512
    normals = normal_subgroups(g)
    assert len(normals) == 578
    assert_normal_lattice(g, normals)


def test_normal_subgroups_above_order_512():
    # the order alone bounds nothing: only the work cap refuses a lattice
    g = catalog_get("D(32)xD(32)")
    assert g.order == 1024
    normals = normal_subgroups(g)
    assert len(normals) == 151
    assert_normal_lattice(g, normals)


def test_normal_subgroups_work_cap_margin(monkeypatch):
    # the search counts |G| x (|A| + R) cells for each subgroup A it finds,
    # R the distinct class closures.  C(2)^7, the largest lattice computed
    # (29,212 subgroups of total order 387,987, R = 128), fits under the cap
    assert 128 * (387_987 + 29_212 * 128) == 528_271_744 <= LATTICE_WORK_CAP
    # C(2)^3: 16 subgroups of total order 1 + 7*2 + 7*4 + 8 = 51, R = 8
    g = catalog_get("C(2)xC(2)xC(2)")
    monkeypatch.setattr(structure, "LATTICE_WORK_CAP", 8 * (51 + 16 * 8))
    assert len(normal_subgroups(g)) == 16
    monkeypatch.setattr(structure, "LATTICE_WORK_CAP", 8 * (51 + 16 * 8) - 1)
    with pytest.raises(LatticeTooLarge, match="16 subgroups found .* touch 1432 cells"):
        normal_subgroups(g)


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


@pytest.mark.parametrize("name", ["S(4)", "SL(2,3)", "D(8)xD(8)", "Q8xC(2)"])
def test_quotient_labels_cosets_as_the_column_gather(name):
    g = catalog_get(name)
    for n in normal_subgroups(g):
        q = quotient(g, n)
        # each x labelled by the least member of its left coset xN
        least = g.mul[:, list(n.elements)].min(axis=1)
        reps = np.flatnonzero(least == np.arange(g.order))
        assert q.project == tuple(np.searchsorted(reps, least).tolist())
        assert np.array_equal(validate_table(q.target.order, q.target.mul), q.target.mul)


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


@pytest.mark.parametrize("name", default_corpus_names() + ["A(5)", "S(5)", "SL(2,3)xS(4)"])
def test_closures_and_series_match_the_oracles(name):
    # normal, cyclic and 40 seeded two-seed subgroups, and each N(x) against
    # the closure of x's whole class
    g = catalog_get(name)
    gens = generators(g, np.arange(g.order))
    classes = conjugacy_classes(g)
    for cid, x in enumerate(classes.reps):
        normal_closure = structure._closure(g, [x], gens)[0]
        assert tuple(np.flatnonzero(normal_closure).tolist()) == \
            bfs_closure(g, np.flatnonzero(np.array(classes.class_of) == cid).tolist())
    rng = stream_rng(7919, g.order)
    seed_sets = [[x] for x in g.elements()] + [
        [rng.randrange(g.order), rng.randrange(g.order)] for _ in range(40)]
    pool = {n.elements: n for n in normal_subgroups(g)}
    for seeds in seed_sets:
        h = subgroup_closure(g, seeds)
        assert h.elements == bfs_closure(g, seeds)
        pool.setdefault(h.elements, h)
    for h in pool.values():
        assert [t.elements for t in lower_central_series(h)] == gathered_series(g, h)


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


# -- the row-block rule ------------------------------------------------------------


def _blocked_results(g):
    """Every result that a blocked whole-table pass feeds, for one group."""
    normals = normal_subgroups(g)
    # a cyclic subgroup that is not normal, so left_coset_reps reads xH, not Hx
    cyclic = next(h for h in (subgroup_closure(g, [x]) for x in g.elements())
                  if h.elements not in {n.elements for n in normals})
    pool = normals + [cyclic]
    quotients = [quotient(g, n) for n in normals]
    return {
        "classes": conjugacy_classes(g),
        "lattice": [n.elements for n in normals],
        "quotients": [(q.project, q.target.mul.tolist()) for q in quotients],
        "cosets": [left_coset_reps(g, h) for h in pool],
        "center": center(g).elements,
        "cp": [cp(g)] + [cp(h) for h in pool],
        "np_fast": [np_fast(g, h, left_coset_reps(g, h)[-1:] * 3).counted_tuples for h in pool],
        "np_sup": [np_sup(g, h, k) for h in pool for k in (1, 2)],
    }


@pytest.mark.parametrize("name", ["S(4)", "SL(2,3)", "D(8)xC(2)", "S(3)xS(3)"])
def test_one_row_blocks_change_no_result(monkeypatch, name):
    g = catalog_get(name)
    expected = _blocked_results(g)
    callers = set()

    def one_row(rows, width, cells):
        callers.add(sys._getframe(1).f_code.co_name)
        return row_blocks(rows, width, 1)

    monkeypatch.setattr(structure, "row_blocks", one_row)
    monkeypatch.setattr(exact, "row_blocks", one_row)
    monkeypatch.setattr(exact, "COUNT_BLOCK_CELLS", 0)  # no coset's cells fit one block
    assert _blocked_results(g) == expected
    assert {"commuting_counts", "coset_labels", "left_coset_reps",
            "_cells", "_backward_counts"} <= callers


def test_lattice_and_coset_reps_allocate_less_than_the_table():
    g = catalog_get("D(32)xD(32)")
    assert g.mul.nbytes == 4 * 2 ** 20
    for run in (lambda: normal_subgroups(g), lambda: left_coset_reps(g, whole_group(g))):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.mul.nbytes
