"""Wilson intervals and the sampling estimator."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilprob import montecarlo, perms
from nilprob.errors import InvalidCounts
from nilprob.exact import np_k
from nilprob.groups import catalog_generators, catalog_get
from nilprob.montecarlo import estimate_np, wilson_ci
from nilprob.perms import identity_perm, row_blocks, schreier_sims

from seeded import spread_s5


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


def test_estimate_s4_np2_contains_truth():
    _, gens, _ = catalog_generators("S(4)")
    exact = np_k(catalog_get("S(4)"), 2).value
    result = estimate_np(schreier_sims(gens), 2, 30000, seed=7)
    assert result.ci_low <= exact <= result.ci_high


def test_row_blocks_do_not_change_hits(monkeypatch):
    # a chunk of 1000 rows of degree 4096 is composed in many row blocks,
    # yet every element of a tuple is drawn for the whole chunk first, so
    # one block per chunk gives the same hits
    degree = 4096
    bsgs = spread_s5(degree)
    assert bsgs.order == 120
    assert len(list(row_blocks(1000, degree, perms.BLOCK_CELLS))) > 1
    blocked = [estimate_np(bsgs, k, 3000, seed=3, chunk_size=1000) for k in (1, 2)]
    monkeypatch.setattr(perms, "BLOCK_CELLS", 1 << 40)
    assert len(list(row_blocks(1000, degree, perms.BLOCK_CELLS))) == 1
    whole = [estimate_np(bsgs, k, 3000, seed=3, chunk_size=1000) for k in (1, 2)]
    assert blocked == whole
    assert all(0 < r.hits < 3000 for r in blocked)


def test_run_chunk_composes_in_row_blocks(monkeypatch):
    # a chunk of 1000 rows of degree 4096 is 4 million cells, and _run_chunk
    # composes it in blocks of perms.BLOCK_CELLS: at k = 2, one commutator
    # pass and the commuting test
    blocks = []

    def recording(rows, width, cells):
        out = row_blocks(rows, width, cells)
        if sys._getframe(1).f_code is montecarlo._run_chunk.__code__:
            blocks.append(len(out))
        return out

    monkeypatch.setattr(perms, "row_blocks", recording)
    estimate_np(spread_s5(4096), 2, 1000, seed=3, chunk_size=1000)
    assert blocks == [len(row_blocks(1000, 4096, perms.BLOCK_CELLS))] * 2
    assert blocks[0] > 1


def test_default_chunk_fits_the_cell_limit():
    # 2^20 cells of degree 4096 are 256 samples; degree 4 keeps 8192
    wide = estimate_np(spread_s5(4096), 1, 600, seed=5)
    assert wide.chunk_size == 256
    assert wide == estimate_np(spread_s5(4096), 1, 600, seed=5, chunk_size=256)
    _, gens, _ = catalog_generators("S(4)")
    assert estimate_np(schreier_sims(gens), 1, 100, seed=5).chunk_size == 8192


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs about 1.6 MB of resident memory and 5 ms to load;
    # neither importing the CLI nor sampling needs it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys\n"
        "import nilprob.cli\n"
        "assert 'numpy.random' not in sys.modules, 'loaded by import'\n"
        "nilprob.cli.main(['estimate', '--group', 'S(4)', '--samples', '100'])\n"
        "assert 'numpy.random' not in sys.modules, 'loaded by sampling'\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            estimate_np(bsgs, 1, 100, seed=seed)

    def no_sampling(*args):
        raise AssertionError("sampled before checking z")

    monkeypatch.setattr(montecarlo, "_run_chunk", no_sampling)
    for z in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(InvalidCounts):
            estimate_np(bsgs, 1, 100, seed=1, z=z)
