"""Monte Carlo estimation of nilpotence probabilities for permutation groups.

For groups too large to hold as a table, the k-step probability is
estimated by sampling (k+1)-tuples of exactly uniform elements from a
stabilizer chain and testing whether their left-normed commutator is the
identity, entirely by permutation composition.  A chunk of samples is
drawn and tested at once, as (samples, degree) arrays.

Sampling is chunked: chunk ``i`` draws from a Mersenne Twister seeded by
``derive_seed(seed, i)``, so results depend only on (seed, samples,
chunk_size) and never on how chunks are scheduled.  Each chunk reads its
generator as 32-bit words, one vector per chain level and tuple position
(:meth:`PermGroupBSGS.random_uniform`), so estimates differ from those of
versions that drew one element at a time with ``randrange``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from . import perms
from .errors import InvalidCounts
from .perms import (
    DEFAULT_CHUNK_CELLS,
    PermGroupBSGS,
    commutator_rows,
    compose_rows,
    derive_seed,
)

#: The default chunk is cut down to at most ``DEFAULT_CHUNK_CELLS`` cells
#: (samples times degree); 8192 samples of degree 20000 would take 328 MB
#: per tuple position.
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
    chunk_size: Optional[int] = None,
) -> EstimateResult:
    """Estimate the k-step nilpotence probability of a permutation group.

    ``seed`` must lie in [0, 2^64): sub-seeds are 64-bit, so seeds outside
    that range would repeat the streams of seeds inside it.  Without
    ``chunk_size``, chunks hold ``DEFAULT_CHUNK_SIZE`` samples, or fewer
    when the group's degree would make them larger than
    ``DEFAULT_CHUNK_CELLS``; the result reports the size used.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    if k < 1:
        raise ValueError("k must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if chunk_size is None:
        fitting = DEFAULT_CHUNK_CELLS // max(1, group.degree)
        chunk_size = max(1, min(DEFAULT_CHUNK_SIZE, fitting))
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if not (math.isfinite(z) and z > 0):
        raise InvalidCounts(f"z must be finite and positive, got {z}")

    hits = 0
    done = 0
    chunk_index = 0
    while done < samples:
        size = min(chunk_size, samples - done)
        rng = random.Random(derive_seed(seed, chunk_index))
        hits += _run_chunk(group, k, size, rng)
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


def _run_chunk(group: PermGroupBSGS, k: int, size: int, rng: random.Random) -> int:
    """How many of ``size`` sampled (k+1)-tuples have a trivial commutator.

    [x_1, ..., x_{k+1}] = [w, x_{k+1}] with w = [x_1, ..., x_k] is trivial
    iff w and x_{k+1} commute, so w takes k-1 commutators and the last
    element is only tested for commuting with it.  Each element of the
    tuple is drawn for the whole chunk before any row block is composed,
    so the hits do not depend on the block size.
    """
    w = group.random_uniform(rng, size)
    for _ in range(k - 1):
        t = group.random_uniform(rng, size)
        for rows in perms.row_blocks(size, group.degree, perms.BLOCK_CELLS):
            w[rows] = commutator_rows(w[rows], t[rows])
    t = group.random_uniform(rng, size)
    hits = 0
    for rows in perms.row_blocks(size, group.degree, perms.BLOCK_CELLS):
        commuting = compose_rows(w[rows], t[rows]) == compose_rows(t[rows], w[rows])
        hits += int(commuting.all(axis=1).sum())
    return hits
