"""Monte Carlo estimation of nilpotence probabilities for permutation groups.

For groups too large to hold as a table, the k-step probability is
estimated by sampling (k+1)-tuples of exactly uniform elements from a
stabilizer chain and testing whether their left-normed commutator is the
identity, entirely by permutation composition.

Sampling is chunked: chunk ``i`` draws from a generator seeded by
``derive_seed(seed, i)``, so results depend only on (seed, samples,
chunk_size) and never on how chunks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidCounts
from .perms import PermGroupBSGS, compose, inverse, stream_rng

DEFAULT_CHUNK_SIZE = 8192
DEFAULT_Z = 1.96


@dataclass(frozen=True)
class EstimateResult:
    """A point estimate with its Wilson confidence interval."""

    hits: int
    samples: int
    point: float
    ci_low: float
    ci_high: float
    z: float
    seed: int
    k: int
    chunk_size: int

    def to_json(self) -> dict:
        return {
            "hits": self.hits,
            "samples": self.samples,
            "point": self.point,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "z": self.z,
            "seed": self.seed,
            "k": self.k,
            "chunk_size": self.chunk_size,
        }


def wilson_ci(hits: int, samples: int, z: float) -> tuple[float, float]:
    """Wilson score interval, clamped to [0, 1].

    Behaves sensibly at the boundaries: zero hits give a lower bound of 0,
    all hits an upper bound of 1.
    """
    if samples < 1 or hits < 0 or hits > samples:
        raise InvalidCounts(f"hits={hits}, samples={samples}")
    if z <= 0:
        raise InvalidCounts(f"z must be positive, got {z}")
    phat = hits / samples
    z2 = z * z
    denom = 1.0 + z2 / samples
    centre = phat + z2 / (2 * samples)
    half = z * math.sqrt(phat * (1.0 - phat) / samples + z2 / (4 * samples * samples))
    # the ends are exactly 0 / 1 at the boundaries; don't let sqrt rounding
    # pull them inside
    low = 0.0 if hits == 0 else max(0.0, (centre - half) / denom)
    high = 1.0 if hits == samples else min(1.0, (centre + half) / denom)
    return low, high


def estimate_np(
    group: PermGroupBSGS,
    k: int,
    samples: int,
    seed: int,
    z: float = DEFAULT_Z,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> EstimateResult:
    """Estimate the k-step nilpotence probability of a permutation group."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if not (math.isfinite(z) and z > 0):
        raise InvalidCounts(f"z must be finite and positive, got {z}")

    hits = 0
    done = 0
    chunk_index = 0
    while done < samples:
        size = min(chunk_size, samples - done)
        hits += _run_chunk(group, k, size, stream_rng(seed, chunk_index))
        done += size
        chunk_index += 1

    low, high = wilson_ci(hits, samples, z)
    return EstimateResult(
        hits=hits,
        samples=samples,
        point=hits / samples,
        ci_low=low,
        ci_high=high,
        z=z,
        seed=seed,
        k=k,
        chunk_size=chunk_size,
    )


def _run_chunk(group: PermGroupBSGS, k: int, size: int, rng) -> int:
    hits = 0
    draw = group.random_uniform
    if k == 1:
        # [x, y] = 1 iff xy = yx; skips four compositions per sample
        for _ in range(size):
            x = draw(rng)
            y = draw(rng)
            if compose(x, y) == compose(y, x):
                hits += 1
        return hits
    for _ in range(size):
        w = draw(rng)
        for _ in range(k):
            t = draw(rng)
            w = compose(compose(compose(inverse(w), inverse(t)), w), t)
        if all(i == x for i, x in enumerate(w)):
            hits += 1
    return hits
