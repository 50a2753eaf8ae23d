"""Permutation arithmetic and Schreier-Sims stabilizer chains.

Permutations are plain image arrays: ``p`` is a list of length ``degree``
with ``p[x]`` the image of point ``x``.  Composition is "apply p, then q":

    compose(p, q)[x] == q[p[x]]

This convention is used everywhere in the package, including as the group
operation of multiplication tables built from permutations.

The stabilizer chain is the classical deterministic construction: base
points are always the smallest point moved by the residue that forced a
new level, orbits are explored in sorted order, and every Schreier
generator is sifted.  Given the same generator list the chain (and hence
the uniform sampling stream for a fixed seed) is bit-reproducible.

Sampling works on batches: :meth:`PermGroupBSGS.random_uniform` returns a
(size, degree) array, one element per row, and :func:`compose_rows` and
:func:`commutator_rows` act row by row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DegreeMismatch

if TYPE_CHECKING:
    import random

Perm = list[int]


def identity_perm(degree: int) -> Perm:
    return list(range(degree))


def is_identity(p: Sequence[int]) -> bool:
    return all(i == x for i, x in enumerate(p))


def validate_perm(image: Sequence[int]) -> Perm:
    """Check that ``image`` is a bijection on 0..len-1 and return it as a list."""
    try:
        p = [operator.index(x) for x in image]
    except TypeError:
        p = None
    if p is None or any(isinstance(x, bool) for x in image):
        raise ValueError(f"not a list of integers: {image!r}")
    n = len(p)
    seen = [False] * n
    for x in p:
        if x < 0 or x >= n or seen[x]:
            raise ValueError(f"not a permutation of 0..{n - 1}: {image!r}")
        seen[x] = True
    return p


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Apply ``p``, then ``q``."""
    if len(p) != len(q):
        raise DegreeMismatch(len(p), len(q))
    return [q[x] for x in p]


def inverse(p: Sequence[int]) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return inv


def perm_from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation from disjoint cycles given as point sequences."""
    p = identity_perm(degree)
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:]):
            p[a] = b
        if cycle:
            p[cycle[-1]] = cycle[0]
    return p


# -- batches of permutations as (rows, degree) arrays ---------------------------

#: Row blocks of batched permutation arithmetic hold at most this many
#: cells, so their temporaries stay a few MB whatever the batch size.
BLOCK_CELLS = 1 << 14


def row_blocks(rows: int, degree: int) -> Iterator[slice]:
    """Consecutive row slices of at most ``BLOCK_CELLS`` cells, covering ``rows``."""
    step = max(1, BLOCK_CELLS // max(1, degree))
    for lo in range(0, rows, step):
        yield slice(lo, min(rows, lo + step))


def _row_offsets(rows: int, degree: int) -> np.ndarray:
    return np.arange(rows)[:, None] * degree


def compose_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise :func:`compose`: row r of the result applies ``p[r]``, then ``q[r]``."""
    return np.take(q, p + _row_offsets(*p.shape))


def commutator_rows(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row-wise commutator w^-1 t^-1 w t, in the order of :func:`compose`.

    It equals (tw)^-1 (wt), so it is the scatter c[tw[x]] = wt[x] of two
    row-wise products, and no inverse is formed on its own.
    """
    wt = compose_rows(w, t)
    tw = compose_rows(t, w)
    out = np.empty_like(w)
    np.put(out, tw + _row_offsets(*w.shape), wt)
    return out


# -- seeded RNG with sub-stream derivation -----------------------------------

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the SplitMix64 generator; used to hash seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, stream_index: int) -> int:
    """Derive an independent 64-bit sub-seed for stream ``stream_index``.

    Two rounds of SplitMix64 over the (seed, index) pair.  Deterministic,
    so parallel consumers can draw from disjoint reproducible streams.
    """
    return splitmix64(splitmix64(seed & _MASK64) ^ (stream_index & _MASK64))


_WORD = 1 << 32


def _words(rng: random.Random, n: int) -> np.ndarray:
    return np.frombuffer(rng.randbytes(4 * n), dtype="<u4").astype(np.intp)


def uniform_indices(rng: random.Random, bound: int, size: int) -> np.ndarray:
    """``size`` independent integers, exactly uniform on [0, bound), bound <= 2^32.

    They come in the smallest unsigned type that holds ``bound - 1``.

    Reads little-endian 32-bit words from ``rng.randbytes``.  A word below
    the largest multiple of ``bound`` up to 2^32 gives its residue mod
    ``bound``; every other word is replaced by a fresh one, in order of
    position, until all are accepted.
    """
    limit = _WORD - _WORD % bound
    words = _words(rng, size)
    redo = np.flatnonzero(words >= limit)
    while redo.size:
        words[redo] = _words(rng, redo.size)
        redo = redo[words[redo] >= limit]
    return (words % bound).astype(np.min_scalar_type(bound - 1))


# -- stabilizer chain ---------------------------------------------------------


@dataclass
class _ChainLevel:
    point: int
    gens: list[Perm] = field(default_factory=list)
    transversal: dict[int, Perm] = field(default_factory=dict)
    orbit: list[int] = field(default_factory=list)

    def rebuild(self) -> None:
        """BFS orbit of ``point`` under ``gens``, in deterministic discovery order."""
        self.transversal = {self.point: identity_perm(len(self.gens[0]))}
        queue = [self.point]
        while queue:
            a = queue.pop(0)
            t_a = self.transversal[a]
            for g in self.gens:
                b = g[a]
                if b not in self.transversal:
                    self.transversal[b] = compose(t_a, g)
                    queue.append(b)
        self.orbit = sorted(self.transversal)


class PermGroupBSGS:
    """A permutation group with base and strong generating set.

    Supports exact order, membership, and exactly uniform random sampling.
    Immutable once built; construct through :func:`schreier_sims`.
    """

    def __init__(self, degree: int, generators: list[Perm], levels: list[_ChainLevel]):
        self.degree = degree
        self.generators = generators
        self._levels = levels
        order = 1
        for level in levels:
            order *= len(level.orbit)
        self.order = order
        # the smallest unsigned type that holds a point keeps sampled
        # batches compact; each level's transversal is one array with a row
        # per orbit point, in sorted order
        self._dtype = np.min_scalar_type(max(degree - 1, 0))
        self._rep_arrays = [
            np.array([level.transversal[x] for x in level.orbit], dtype=self._dtype)
            for level in levels
        ]

    @property
    def base(self) -> list[int]:
        return [level.point for level in self._levels]

    @property
    def strong_gens(self) -> list[Perm]:
        seen: dict[tuple[int, ...], None] = {}
        for level in self._levels:
            for g in level.gens:
                seen.setdefault(tuple(g), None)
        return [list(g) for g in seen]

    def transversals(self) -> list[dict[int, Perm]]:
        return [dict(level.transversal) for level in self._levels]

    def sift(self, p: Sequence[int]) -> Perm:
        """Reduce ``p`` through the chain; identity iff ``p`` is a member."""
        if len(p) != self.degree:
            raise DegreeMismatch(len(p), self.degree)
        residue = list(p)
        for level in self._levels:
            x = residue[level.point]
            rep = level.transversal.get(x)
            if rep is None:
                return residue
            residue = compose(residue, inverse(rep))
        return residue

    def random_uniform(self, rng: random.Random, size: int) -> np.ndarray:
        """``size`` exactly uniform, independent elements, as a (size, degree) array.

        Draws one index vector per chain level with :func:`uniform_indices`,
        top level first, so the consumption of ``rng`` is well defined; then
        composes the chosen transversal representatives, deepest level
        first, in row blocks.  Every group element arises from exactly one
        choice of representatives, so each row is uniform.
        """
        degree = self.degree
        choices = [uniform_indices(rng, len(reps), size) for reps in self._rep_arrays]
        out = np.empty((size, degree), dtype=self._dtype)
        for rows in row_blocks(size, degree):
            acc = np.arange(degree)
            for reps, chosen in zip(self._rep_arrays[::-1], choices[::-1]):
                acc = np.take(reps, acc + (chosen[rows].astype(np.intp) * degree)[:, None])
            out[rows] = acc
        return out


def schreier_sims(generators: Sequence[Sequence[int]]) -> PermGroupBSGS:
    """Deterministic Schreier-Sims from a nonempty list of generators.

    Verify-and-restart construction: the chain is rebuilt from the strong
    generator pool and scanned for a Schreier generator whose sift residue
    is not the identity; the residue joins the pool and the scan restarts.
    The final scan passes with no additions, which re-verifies the whole
    strong generating property.  Simple over fast, but exhaustively
    self-checking; fine for the small degrees this package targets.
    """
    gens = [validate_perm(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator is required")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise DegreeMismatch(degree, len(g))

    strong: list[Perm] = []
    seen: set[tuple[int, ...]] = set()
    base: list[int] = []

    def absorb(p: Perm) -> bool:
        key = tuple(p)
        if is_identity(p) or key in seen:
            return False
        seen.add(key)
        strong.append(p)
        if all(p[b] == b for b in base):
            base.append(min(x for x in range(degree) if p[x] != x))
        return True

    for g in gens:
        absorb(g)

    def build_levels() -> list[_ChainLevel]:
        levels = []
        for i, point in enumerate(base):
            prefix = base[:i]
            level = _ChainLevel(point)
            level.gens = [s for s in strong if all(s[b] == b for b in prefix)]
            level.rebuild()
            levels.append(level)
        return levels

    def failing_residue(levels: list[_ChainLevel]) -> Optional[Perm]:
        for i, level in enumerate(levels):
            for a in level.orbit:
                t_a = level.transversal[a]
                for s in level.gens:
                    u = compose(t_a, s)
                    residue = compose(u, inverse(level.transversal[u[level.point]]))
                    for deeper in levels[i + 1 :]:
                        x = residue[deeper.point]
                        rep = deeper.transversal.get(x)
                        if rep is None:
                            return residue
                        residue = compose(residue, inverse(rep))
                    if not is_identity(residue):
                        return residue
        return None

    levels = build_levels()
    while True:
        residue = failing_residue(levels)
        if residue is None:
            break
        if not absorb(residue):
            raise AssertionError("sift residue was already a strong generator")
        levels = build_levels()

    return PermGroupBSGS(degree, gens, levels)
