"""Permutation arithmetic, stabilizer chains, and uniform sampling."""

import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilprob.errors import DegreeMismatch
from nilprob.groups import catalog_generators
from nilprob.perms import (
    compose,
    derive_seed,
    identity_perm,
    inverse,
    is_identity,
    perm_from_cycles,
    schreier_sims,
    stream_rng,
    validate_perm,
)

perms5 = st.permutations(list(range(5)))


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
    assert g.contains([0, 1, 2, 3])
    assert not g.contains([1, 0, 2, 3])


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
        assert g.contains(s)


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
    import random

    rng = random.Random(5)
    for _ in range(200):
        p = list(range(degree))
        rng.shuffle(p)
        assert bsgs.contains(p) == (tuple(p) in closure)


def test_contains_odd_permutation_not_in_alternating():
    _, gens, _ = catalog_generators("A(5)")
    g = schreier_sims(gens)
    assert not g.contains([1, 0, 2, 3, 4])
    for gen in gens:
        assert g.contains(gen)


def test_random_uniform_trivial_group():
    g = schreier_sims([identity_perm(3)])
    rng = stream_rng(9)
    assert all(g.random_uniform(rng) == [0, 1, 2] for _ in range(10))


def test_random_uniform_c2_frequency():
    g = schreier_sims([[1, 0]])
    rng = stream_rng(1)
    hits = sum(1 for _ in range(10 ** 4) if is_identity(g.random_uniform(rng)))
    assert 0.45 <= hits / 10 ** 4 <= 0.55


def test_random_uniform_s3_frequencies():
    _, gens, _ = catalog_generators("S(3)")
    g = schreier_sims(gens)
    rng = stream_rng(7)
    n = 6 * 10 ** 4
    counts = Counter(tuple(g.random_uniform(rng)) for _ in range(n))
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
    counts = Counter(tuple(g.random_uniform(rng)) for _ in range(n))
    assert len(counts) == 24
    expected = n / 24
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(0.999, df=23)


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
