"""Permutation arithmetic, stabilizer chains, and uniform sampling."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilprob import perms
from nilprob.errors import ChainTooLarge, DegreeMismatch
from nilprob.groups import catalog_generators
from nilprob.montecarlo import estimate_np
from nilprob.perms import (
    PermGroupBSGS,
    commutator_rows,
    compose,
    compose_rows,
    derive_seed,
    identity_perm,
    inverse,
    is_identity,
    perm_from_cycles,
    perm_order,
    row_blocks,
    schreier_sims,
    uniform_indices,
    validate_perm,
)
from nilprob.verify import default_corpus_names

from seeded import spread_s5, stream_rng

perms5 = st.permutations(list(range(5)))


def contains(bsgs, p):
    """Membership oracle: ``p`` sifts to the identity through the chain."""
    return is_identity(bsgs.sift(p))


def test_compose_convention():
    # apply p, then q
    p = perm_from_cycles(3, [[0, 1]])
    q = perm_from_cycles(3, [[1, 2]])
    assert compose(p, q) == [2, 0, 1]  # a 3-cycle


def test_compose_identity():
    p = perm_from_cycles(4, [[0, 2, 3]])
    assert compose(identity_perm(4), p) == p
    assert compose(perm_from_cycles(2, [[0, 1]]), perm_from_cycles(2, [[0, 1]])) == [0, 1]


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose([1, 0], [0, 1, 2])


def test_validate_perm_rejects():
    with pytest.raises(ValueError):
        validate_perm([0, 0, 1])
    with pytest.raises(ValueError):
        validate_perm([0, 3])


@given(perms5, perms5)
def test_inverse_roundtrip(p, q):
    assert compose(p, inverse(p)) == identity_perm(5)
    assert is_identity(inverse(compose(p, inverse(p))))
    assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


@given(perms5, perms5, perms5)
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_schreier_sims_trivial():
    g = schreier_sims([identity_perm(4)])
    assert g.order == 1
    assert g.base == []
    assert contains(g, [0, 1, 2, 3])
    assert not contains(g, [1, 0, 2, 3])


@pytest.mark.parametrize("n", range(2, 9))
def test_symmetric_orders(n):
    _, gens, _ = catalog_generators(f"S({n})")
    assert schreier_sims(gens).order == math.factorial(n)


@pytest.mark.parametrize("n", range(3, 9))
def test_alternating_orders(n):
    _, gens, _ = catalog_generators(f"A({n})")
    assert schreier_sims(gens).order == math.factorial(n) // 2


def test_order_is_transversal_product():
    _, gens, _ = catalog_generators("S(6)")
    g = schreier_sims(gens)
    prod = 1
    for t in g.transversals():
        prod *= len(t)
    assert prod == g.order == 720


def test_strong_gens_sift_to_identity():
    _, gens, _ = catalog_generators("A(6)")
    g = schreier_sims(gens)
    for s in g.strong_gens:
        assert contains(g, s)


def _naive_closure(gens):
    degree = len(gens[0])
    seen = {tuple(identity_perm(degree))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


@pytest.mark.parametrize(
    "name",
    ["S(4)", "A(5)", "Dic(4)", "Heis(3)", "D(16)", "SL(2,3)", "S(6)", "A(7)"],
)
def test_contains_agrees_with_naive_closure(name):
    _, gens, _ = catalog_generators(name)
    bsgs = schreier_sims(gens)
    closure = _naive_closure(gens)
    assert bsgs.order == len(closure)
    degree = len(gens[0])
    rng = random.Random(5)
    for _ in range(200):
        p = list(range(degree))
        rng.shuffle(p)
        assert contains(bsgs, p) == (tuple(p) in closure)


def test_contains_odd_permutation_not_in_alternating():
    _, gens, _ = catalog_generators("A(5)")
    g = schreier_sims(gens)
    assert not contains(g, [1, 0, 2, 3, 4])
    for gen in gens:
        assert contains(g, gen)


def list_chain(generators):
    """Oracle: the list-based Schreier-Sims the array chain replaced.

    Returns the base, the sorted orbits, the transversals (dicts of image
    lists, in breadth-first discovery order) and the strong generators.
    Every Schreier generator t_a s, a in sorted orbit order, then s in
    generator order, is sifted alone; the first non-identity residue joins
    the pool and the chain is rebuilt from scratch.  Lists are composed,
    inverted and compared by C-level list operations, so the oracle keeps
    up with orbits of 4096 points.
    """
    degree = len(generators[0])
    identity = identity_perm(degree)

    def compose(p, q):
        return [q[x] for x in p] if degree < 2 else list(itemgetter(*p)(q))

    def inverse(p):
        return sorted(range(degree), key=p.__getitem__)

    strong, base = [], []
    for p in map(list, generators):
        if not is_identity(p) and p not in strong:
            strong.append(p)
            if all(p[b] == b for b in base):
                base.append(min(x for x in range(degree) if p[x] != x))

    def build():
        levels = []
        for i, point in enumerate(base):
            gens = [s for s in strong if all(s[b] == b for b in base[:i])]
            transversal, queue = {point: identity_perm(degree)}, [point]
            for a in queue:
                for g in gens:
                    if g[a] not in transversal:
                        transversal[g[a]] = compose(transversal[a], g)
                        queue.append(g[a])
            levels.append((point, gens, transversal))
        return levels

    def sift(levels, residue):
        for point, _, transversal in levels:
            rep = transversal.get(residue[point])
            if rep is None:
                return residue
            residue = compose(residue, inverse(rep))
        return residue

    def failing_residue(levels):
        for i, (_, gens, transversal) in enumerate(levels):
            for a in sorted(transversal):
                for s in gens:
                    residue = sift(levels[i:], compose(transversal[a], s))
                    if residue != identity:
                        return residue
        return None

    levels = build()
    while (residue := failing_residue(levels)) is not None:
        assert residue not in strong
        strong.append(residue)
        if all(residue[b] == b for b in base):
            base.append(min(x for x in range(degree) if residue[x] != x))
        levels = build()
    return base, [sorted(t) for _, _, t in levels], [t for _, _, t in levels], strong


def assert_chain_matches_oracle(bsgs, generators):
    base, orbits, transversals, strong = list_chain(generators)
    assert bsgs.base == base
    assert [sorted(t) for t in bsgs.transversals()] == orbits
    assert [np.flatnonzero(level.position >= 0).tolist() for level in bsgs._levels] == orbits
    assert bsgs.transversals() == transversals
    assert bsgs.strong_gens == strong
    assert bsgs.order == math.prod(map(len, orbits))


@pytest.mark.parametrize("name", default_corpus_names())
def test_chain_matches_list_oracle_on_the_default_corpus(name):
    _, gens, _ = catalog_generators(name)
    assert_chain_matches_oracle(schreier_sims(gens), gens)


@pytest.mark.parametrize("name", ["S(8)", "A(7)", "C(4096)", "D(4096)", "Dic(1000)", "spread"])
def test_chain_matches_list_oracle_on_wide_groups(name):
    # orbits of up to 4096 points fill several sift batches of 2^20 cells;
    # the spread S(5) has small orbits at degree 4096
    if name == "spread":
        bsgs = spread_s5(4096)
        gens = bsgs.generators
    else:
        gens = catalog_generators(name)[1]
        bsgs = schreier_sims(gens)
    assert_chain_matches_oracle(bsgs, gens)


@pytest.mark.parametrize("cells", [1, 8 * 5, 8 * 64])
def test_chain_matches_list_oracle_under_smaller_sift_batches(monkeypatch, cells):
    # one Schreier generator per batch, a few, and every level in one batch:
    # the first failing residue is the same
    monkeypatch.setattr(perms, "DEFAULT_CHUNK_CELLS", cells)
    gens = catalog_generators("S(8)")[1]
    assert_chain_matches_oracle(schreier_sims(gens), gens)


def test_chain_build_memory_stays_near_the_transversal():
    # C(4096)'s one level holds 4096 rows of 4096 uint16 points, 32 MB; the
    # sift batches stay within a few 2^20-cell blocks on top of it
    gens = catalog_generators("C(4096)")[1]
    tracemalloc.start()
    try:
        bsgs = schreier_sims(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bsgs.order == 4096
    assert peak < 80 * 2 ** 20


@pytest.mark.parametrize("name", ["S(5)", "A(6)", "D(16)"])
def test_sift_strips_members_to_the_identity_and_keeps_others(name):
    # members sift to the identity; a non-member's residue is what the
    # list oracle's sift leaves
    gens = catalog_generators(name)[1]
    bsgs = schreier_sims(gens)
    degree = bsgs.degree
    members = _naive_closure(gens)
    rng = random.Random(8)
    for _ in range(100):
        p = rng.sample(range(degree), degree)
        residue = bsgs.sift(p)
        assert is_identity(residue) == (tuple(p) in members)
        for point, transversal in zip(bsgs.base, bsgs.transversals()):
            rep = transversal.get(p[point])
            if rep is None:
                break
            p = compose(p, inverse(rep))
        assert residue == p


def test_random_uniform_trivial_group():
    g = schreier_sims([identity_perm(3)])
    rng = stream_rng(9)
    assert g.random_uniform(rng, 10).tolist() == [[0, 1, 2]] * 10


def test_random_uniform_c2_frequency():
    g = schreier_sims([[1, 0]])
    rng = stream_rng(1)
    rows = g.random_uniform(rng, 10 ** 4).tolist()
    hits = sum(1 for row in rows if is_identity(row))
    assert 0.45 <= hits / 10 ** 4 <= 0.55


def test_random_uniform_s3_frequencies():
    _, gens, _ = catalog_generators("S(3)")
    g = schreier_sims(gens)
    rng = stream_rng(7)
    n = 6 * 10 ** 4
    counts = Counter(map(tuple, g.random_uniform(rng, n).tolist()))
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / n - 1 / 6) < 0.02


def test_random_uniform_chi_square():
    # empirical distribution over a group of order 24 stays below the
    # 0.999 chi-square quantile at 1e5 samples
    from scipy.stats import chi2

    _, gens, _ = catalog_generators("S(4)")
    g = schreier_sims(gens)
    rng = stream_rng(123)
    n = 10 ** 5
    counts = Counter(map(tuple, g.random_uniform(rng, n).tolist()))
    assert len(counts) == 24
    expected = n / 24
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(0.999, df=23)


class ScriptedWords:
    """Stands in for ``random.Random``: ``randbytes`` hands out scripted
    32-bit words, in order."""

    def __init__(self, words):
        self.words = list(words)

    def randbytes(self, n):
        taken, self.words = self.words[: n // 4], self.words[n // 4 :]
        assert len(taken) == n // 4, "ran out of scripted words"
        return np.array(taken, dtype="<u4").tobytes()


@pytest.mark.parametrize("name", ["S(5)", "D(16)", "SL(2,3)"])
def test_random_uniform_composes_chosen_representatives(name):
    # every choice vector, fed in as words below each orbit length: row i
    # is the compose product of the chosen representatives, deepest level
    # first, and the rows are the whole group, each element once
    _, gens, _ = catalog_generators(name)
    g = schreier_sims(gens)
    levels = [[t[x] for x in sorted(t)] for t in g.transversals()]
    vectors = list(itertools.product(*(range(len(reps)) for reps in levels)))
    words = [v[j] for j in range(len(levels)) for v in vectors]
    got = g.random_uniform(ScriptedWords(words), len(vectors)).tolist()
    for row, vector in zip(got, vectors):
        expected = identity_perm(g.degree)
        for reps, i in reversed(list(zip(levels, vector))):
            expected = compose(expected, reps[i])
        assert row == expected
    assert len(set(map(tuple, got))) == g.order == len(vectors)
    assert all(contains(g, row) for row in got)


def per_level_draw(bsgs, rng, size):
    """Oracle: the sampler before merged tables.  One index vector per level,
    top level first, then one gather per level, deepest level first, in row
    blocks."""
    degree = bsgs.degree
    dtype = np.min_scalar_type(max(degree - 1, 0))
    levels = [np.array([t[x] for x in sorted(t)], dtype=dtype) for t in bsgs.transversals()]
    choices = [uniform_indices(rng, len(reps), size) for reps in levels]
    out = np.empty((size, degree), dtype=dtype)
    for rows in row_blocks(size, degree, perms.BLOCK_CELLS):
        acc = np.arange(degree)
        for reps, chosen in zip(levels[::-1], choices[::-1]):
            acc = np.take(reps, acc + (chosen[rows].astype(np.intp) * degree)[:, None])
        out[rows] = acc
    return out


def assert_draws_match_oracle(g, sizes):
    for levels, table in g._tables:
        # only a level alone may exceed the cap
        assert table.size <= perms.DEFAULT_CHUNK_CELLS or levels.stop - levels.start == 1
    for seed in (0, 1, 2):
        for size in sizes:
            got_rng, want_rng = stream_rng(seed, size), stream_rng(seed, size)
            got = g.random_uniform(got_rng, size)
            want = per_level_draw(g, want_rng, size)
            assert got.dtype == want.dtype and got.shape == (size, g.degree)
            assert np.array_equal(got, want)
            assert got_rng.random() == want_rng.random()  # the same words were read


@pytest.mark.parametrize("name, sizes", [
    # 2048 rows of degree 8 fill a row block, so 5000 ends in a short one
    ("S(8)", (1, 2048, 5000)),
    ("A(7)", (7, 2341, 6000)),
    ("C(2)", (1, 8193)),
    ("trivial", (0, 3)),
])
def test_random_uniform_matches_per_level_oracle(name, sizes):
    if name == "trivial":
        g = schreier_sims([identity_perm(3)])
    else:
        g = schreier_sims(catalog_generators(name)[1])
    assert len(g._tables) == (0 if name == "trivial" else 1)
    assert_draws_match_oracle(g, sizes)


def test_random_uniform_composes_tables_above_the_cap():
    # 2^20 cells hold 16 rows of degree 2^16: S(5)'s levels (5, 4, 3, 2
    # points) make three tables, levels 2-3 merged, one row per block
    g = spread_s5(1 << 16)
    assert [t.shape[0] for _, t in g._tables] == [6, 4, 5]
    assert_draws_match_oracle(g, (1, 50))


@pytest.mark.parametrize("cells, tables", [(1, 7), (8 * 24, 5), (8 * 840, 2)])
def test_random_uniform_matches_oracle_under_smaller_caps(monkeypatch, cells, tables):
    # S(8) levels have 8, 7, ..., 2 points of degree 8
    monkeypatch.setattr(perms, "DEFAULT_CHUNK_CELLS", cells)
    g = schreier_sims(catalog_generators("S(8)")[1])
    assert len(g._tables) == tables
    assert_draws_match_oracle(g, (1, 3000))


@pytest.mark.parametrize("name", ["S(5)", "A(5)"])
def test_estimate_matches_per_level_oracle(monkeypatch, name):
    # a short final chunk, and every tuple position of k = 1, 2
    g = schreier_sims(catalog_generators(name)[1])
    merged = [estimate_np(g, k, 2500, seed=4, chunk_size=1000) for k in (1, 2)]
    monkeypatch.setattr(PermGroupBSGS, "random_uniform", per_level_draw)
    assert merged == [estimate_np(g, k, 2500, seed=4, chunk_size=1000) for k in (1, 2)]
    assert all(0 < r.hits < r.samples for r in merged)


def test_uniform_indices_rejects_the_remainder():
    # 2^32 is 4/3 of the bound 3 * 2^30, so a quarter of all words must be
    # redrawn; keeping them (word mod bound) would put half of all values
    # in the lowest of the three ranges [i * 2^30, (i + 1) * 2^30)
    from scipy.stats import chi2

    bound = 3 << 30
    n = 30000
    values = uniform_indices(stream_rng(31), bound, n)
    assert values.dtype == np.uint32 and values.shape == (n,)
    assert int(values.max()) < bound
    counts = np.bincount(values >> 30, minlength=3)
    stat = float(((counts - n / 3) ** 2 / (n / 3)).sum())
    assert stat < chi2.ppf(0.999, df=2)
    assert np.array_equal(values, uniform_indices(stream_rng(31), bound, n))
    # the words below the limit are used as they come, in order
    assert uniform_indices(ScriptedWords([5, 0, 6, 2]), 7, 4).tolist() == [5, 0, 6, 2]
    assert uniform_indices(ScriptedWords([7 * 613566756, 3, 1]), 7, 2).tolist() == [1, 3]


def indices_oracle(rng, bound, size):
    """Oracle: ``word % bound`` over ``randbytes`` words, rejected words
    redrawn in order of position, in pure Python."""
    def words(n):
        data = rng.randbytes(4 * n)
        return [int.from_bytes(data[4 * i:4 * i + 4], "little") for i in range(n)]

    limit = 2 ** 32 - 2 ** 32 % bound
    out = words(size)
    redo = [i for i, w in enumerate(out) if w >= limit]
    while redo:
        for i, w in zip(redo, words(len(redo))):
            out[i] = w
        redo = [i for i in redo if out[i] >= limit]
    return [w % bound for w in out]


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 8, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32])
@pytest.mark.parametrize("size", [0, 1, 8192])
def test_uniform_indices_match_the_pure_python_map(bound, size):
    # 2^31 + 1 rejects almost half of all words, so redraws chain
    for seed in (0, 1, 2):
        got_rng, want_rng = stream_rng(seed, bound), stream_rng(seed, bound)
        got = uniform_indices(got_rng, bound, size)
        assert got.dtype == np.min_scalar_type(bound - 1) and got.shape == (size,)
        assert got.tolist() == indices_oracle(want_rng, bound, size)
        assert got_rng.random() == want_rng.random()  # the same words were read


@pytest.mark.parametrize("bound", [0, -1, 2 ** 32 + 1])
def test_uniform_indices_refuse_bounds_outside_1_to_2_32(bound):
    with pytest.raises(ValueError, match="bound"):
        uniform_indices(random.Random(1), bound, 3)


def test_uniform_indices_at_2_32_are_the_raw_words():
    words = [0, 1, 2 ** 31, 2 ** 32 - 1]
    got = uniform_indices(ScriptedWords(words), 2 ** 32, 4)
    assert got.dtype == np.uint32 and got.tolist() == words
    got[0] = 5  # a fresh array, not the read-only word buffer


@pytest.mark.parametrize("degree", [5, 300])
def test_row_arithmetic_matches_compose(degree):
    # row by row, compose_rows is compose and commutator_rows is
    # w^-1 t^-1 w t under compose/inverse, in a compact and a wide dtype
    rng = stream_rng(55)
    perms = [rng.sample(range(degree), degree) for _ in range(40)]
    for dtype in (np.min_scalar_type(degree - 1), np.intp):
        w = np.array(perms[:20], dtype=dtype)
        t = np.array(perms[20:], dtype=dtype)
        products = compose_rows(w, t)
        commutators = commutator_rows(w, t)
        assert products.dtype == commutators.dtype == dtype
        for r, (a, b) in enumerate(zip(perms[:20], perms[20:])):
            assert products[r].tolist() == compose(a, b)
            expected = compose(compose(compose(inverse(a), inverse(b)), a), b)
            assert commutators[r].tolist() == expected


def test_derive_seed_streams_differ():
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(42, 0) == derive_seed(42, 0)
    a = stream_rng(42, 3).random()
    b = stream_rng(42, 3).random()
    c = stream_rng(42, 4).random()
    assert a == b != c


def test_deterministic_chain():
    _, gens, _ = catalog_generators("S(5)")
    g1 = schreier_sims(gens)
    g2 = schreier_sims(gens)
    assert g1.base == g2.base
    assert g1.transversals() == g2.transversals()


@given(st.integers(0, 8).flatmap(lambda d: st.permutations(list(range(d)))))
def test_perm_order_matches_repeated_composition(p):
    # the least n >= 1 with p^n = identity
    acc, n = list(p), 1
    while not is_identity(acc):
        acc = compose(acc, p)
        n += 1
    assert perm_order(p) == n


@pytest.mark.parametrize("name, cells, order", [
    ("C(4)", 16, 4), ("C(5)", 25, 5), ("S(4)", 36, 24),
])
def test_transversal_cap_counts_every_level(monkeypatch, name, cells, order):
    # orbit points times degree, summed over the levels: S(4) has orbits
    # of 4, 3 and 2 points at degree 4; a chain at the cap is built, one
    # cell below it is refused
    _, gens, _ = catalog_generators(name)
    monkeypatch.setattr(perms, "TRANSVERSAL_CELLS", cells)
    assert schreier_sims(gens).order == order
    monkeypatch.setattr(perms, "TRANSVERSAL_CELLS", cells - 1)
    with pytest.raises(ChainTooLarge):
        schreier_sims(gens)
