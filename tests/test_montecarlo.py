"""Wilson intervals and the sampling estimator."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilprob import montecarlo
from nilprob.errors import InvalidCounts
from nilprob.exact import np_k
from nilprob.groups import catalog_generators, catalog_get
from nilprob.montecarlo import estimate_np, wilson_ci
from nilprob.perms import identity_perm, schreier_sims


def wilson_oracle(hits, samples, z):
    """Independent derivation: the interval ends are the roots p of
    (phat - p)^2 = z^2 p (1 - p) / n, by the quadratic formula."""
    phat = hits / samples
    a = 1 + z * z / samples
    b = -(2 * phat + z * z / samples)
    c = phat * phat
    disc = math.sqrt(b * b - 4 * a * c)
    return (-b - disc) / (2 * a), (-b + disc) / (2 * a)


def test_wilson_at_boundaries():
    low, _ = wilson_ci(0, 50, 1.96)
    assert low == 0.0
    _, high = wilson_ci(50, 50, 1.96)
    assert high == 1.0


def test_wilson_known_value():
    low, high = wilson_ci(580, 1000, 1.96)
    assert abs(low - 0.549) < 1e-3
    assert abs(high - 0.610) < 1e-3
    olow, ohigh = wilson_oracle(580, 1000, 1.96)
    assert abs(low - olow) < 1e-12
    assert abs(high - ohigh) < 1e-12


@given(
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 6),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_wilson_properties(hits, samples, z):
    if hits > samples:
        hits = samples
    low, high = wilson_ci(hits, samples, z)
    assert 0.0 <= low <= high <= 1.0
    assert low <= hits / samples <= high
    if 0 < hits < samples:
        # the quadratic-formula oracle cancels catastrophically at the
        # boundaries, so compare it only on interior counts
        olow, ohigh = wilson_oracle(hits, samples, z)
        assert abs(low - max(0.0, olow)) < 1e-7
        assert abs(high - min(1.0, ohigh)) < 1e-7


def test_wilson_rejects_bad_counts():
    with pytest.raises(InvalidCounts):
        wilson_ci(5, 4, 1.96)
    with pytest.raises(InvalidCounts):
        wilson_ci(-1, 4, 1.96)
    with pytest.raises(InvalidCounts):
        wilson_ci(0, 0, 1.96)
    with pytest.raises(InvalidCounts):
        wilson_ci(1, 4, 0.0)


def test_estimate_trivial_group():
    bsgs = schreier_sims([identity_perm(3)])
    result = estimate_np(bsgs, 2, 500, seed=11)
    assert result.hits == result.samples == 500
    assert result.point == 1.0 and result.ci_high == 1.0


def test_estimate_s5_contains_truth():
    _, gens, _ = catalog_generators("S(5)")
    bsgs = schreier_sims(gens)
    result = estimate_np(bsgs, 1, 30000, seed=42)
    assert result.ci_low <= 7 / 120 <= result.ci_high


def test_estimate_deterministic_and_chunked():
    _, gens, _ = catalog_generators("S(4)")
    bsgs = schreier_sims(gens)
    a = estimate_np(bsgs, 1, 20000, seed=5)
    b = estimate_np(bsgs, 1, 20000, seed=5)
    assert a == b
    c = estimate_np(bsgs, 1, 20000, seed=6)
    assert a.hits != c.hits
    # short final chunk draws from the same per-chunk streams
    d = estimate_np(bsgs, 1, 10000, seed=5, chunk_size=8192)
    e = estimate_np(bsgs, 1, 10000, seed=5, chunk_size=8192)
    assert d == e


def test_estimate_matches_exact_within_4_sigma():
    cases = [("S(3)", 1), ("S(3)", 2), ("S(4)", 1), ("Q8", 1), ("A(4)", 2)]
    samples = 20000
    for name, k in cases:
        table = catalog_get(name)
        exact = float(np_k(table, k).value)
        _, gens, _ = catalog_generators(name)
        result = estimate_np(schreier_sims(gens), k, samples, seed=91)
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / samples)
        assert abs(result.point - exact) <= max(4 * sigma, 1e-9), (name, k)


def test_estimate_validates_arguments(monkeypatch):
    bsgs = schreier_sims([identity_perm(2)])
    with pytest.raises(ValueError):
        estimate_np(bsgs, 0, 100, seed=1)
    with pytest.raises(ValueError):
        estimate_np(bsgs, 1, 0, seed=1)

    def no_sampling(*args):
        raise AssertionError("sampled before checking z")

    monkeypatch.setattr(montecarlo, "_run_chunk", no_sampling)
    for z in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(InvalidCounts):
            estimate_np(bsgs, 1, 100, seed=1, z=z)
