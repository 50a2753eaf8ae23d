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
:func:`commutator_rows` act row by row.  It reads merged tables: consecutive
chain levels whose representative products fit ``DEFAULT_CHUNK_CELLS``
cells form one table, so an element is one gather per table, not per level.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .errors import ChainTooLarge, DegreeMismatch

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


def perm_order(p: Sequence[int]) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    order, seen = 1, [False] * len(p)
    for x in range(len(p)):
        length = 0
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        order = math.lcm(order, max(length, 1))
    return order


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


def row_blocks(rows: int, width: int, cells: int) -> list[slice]:
    """Consecutive slices covering ``range(rows)``, each of at most ``cells`` cells of ``width``.

    A slice holds at least one row; each blocked pass names the cells it may use.
    """
    step = max(1, cells // max(1, width))
    return [slice(lo, min(rows, lo + step)) for lo in range(0, rows, step)]


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

#: Cap on the cells (rows x degree) of a merged sampling table, and of a
#: Monte Carlo chunk per tuple position.
DEFAULT_CHUNK_CELLS = 1 << 20

#: Cap on the cells (orbit points x degree) of a chain's transversals:
#: 2^24, the cells of the largest multiplication table (order 4096).
TRANSVERSAL_CELLS = 1 << 24


@dataclass
class _ChainLevel:
    point: int
    gens: list[Perm] = field(default_factory=list)
    transversal: dict[int, Perm] = field(default_factory=dict)
    orbit: list[int] = field(default_factory=list)

    def rebuild(self, room: int) -> None:
        """BFS orbit of ``point`` under ``gens``, in deterministic discovery order.

        An orbit of more than ``room`` points is refused before any
        representative is stored.
        """
        found = {self.point: None}
        queue = [self.point]
        for a in queue:
            for g in self.gens:
                if g[a] not in found:
                    found[g[a]] = (a, g)
                    queue.append(g[a])
        degree = len(self.gens[0])
        if len(queue) > room:
            raise ChainTooLarge(f"stabilizer chain transversals (orbit points x degree "
                                f"{degree}) would exceed {TRANSVERSAL_CELLS} cells")
        self.transversal = {self.point: identity_perm(degree)}
        for b in queue[1:]:
            a, g = found[b]
            self.transversal[b] = compose(self.transversal[a], g)
        self.orbit = sorted(self.transversal)


def _sift(levels: Sequence[_ChainLevel], residue: Perm) -> Perm:
    """Strip ``residue`` through ``levels``; the identity iff it lies in their group."""
    for level in levels:
        rep = level.transversal.get(residue[level.point])
        if rep is None:
            return residue
        residue = compose(residue, inverse(rep))
    return residue


class PermGroupBSGS:
    """A permutation group with base and strong generating set.

    Supports exact order, membership, and exactly uniform random sampling.
    Immutable once built; construct through :func:`schreier_sims`.
    """

    def __init__(self, degree: int, generators: list[Perm], levels: list[_ChainLevel]):
        self.degree = degree
        self.generators = generators
        self._levels = levels
        self._sizes = [len(level.orbit) for level in levels]
        self.order = math.prod(self._sizes)
        # the smallest unsigned type that holds a point keeps sampled
        # batches compact
        self._dtype = np.min_scalar_type(max(degree - 1, 0))
        # sampling tables, deepest first: consecutive levels merge while the
        # table fits DEFAULT_CHUNK_CELLS; the row of the levels' choices, as
        # one mixed-radix index (upper level most significant), is the
        # product of the chosen representatives, deepest level first
        self._tables: list[tuple[slice, np.ndarray]] = []
        for i in reversed(range(len(levels))):
            reps = np.array([levels[i].transversal[x] for x in levels[i].orbit], dtype=self._dtype)
            stop = i + 1
            if self._tables and len(reps) * self._tables[-1][1].size <= DEFAULT_CHUNK_CELLS:
                merged, acc = self._tables.pop()
                table = np.empty((len(reps), *acc.shape), dtype=self._dtype)
                for c, rep in enumerate(reps):
                    table[c] = rep[acc]
                stop, reps = merged.stop, table.reshape(-1, degree)
            self._tables.append((slice(i, stop), reps))

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
        return _sift(self._levels, list(p))

    def random_uniform(self, rng: random.Random, size: int) -> np.ndarray:
        """``size`` exactly uniform, independent elements, as a (size, degree) array.

        Draws one index vector per chain level with :func:`uniform_indices`,
        top level first, so the consumption of ``rng`` is well defined.  Each
        merged table folds its levels' indices into one row index, whose row
        is the product of the chosen representatives, deepest level first;
        the tables' rows are composed, deepest first, in row blocks.  Every
        group element arises from exactly one choice of representatives, so
        each row is uniform.
        """
        degree, sizes = self.degree, self._sizes
        choices = [uniform_indices(rng, n, size) for n in sizes]
        if not self._tables:
            return np.tile(np.arange(degree, dtype=self._dtype), (size, 1))
        picks = []
        for levels, _ in self._tables:
            idx = np.zeros(size, dtype=np.intp)
            for n, chosen in zip(sizes[levels], choices[levels]):
                idx *= n
                idx += chosen
            picks.append(idx)
        (_, deepest), *upper = self._tables
        out = np.take(deepest, picks[0], axis=0)
        for rows in row_blocks(size, degree, BLOCK_CELLS):
            for (_, table), idx in zip(upper, picks[1:]):
                out[rows] = np.take(table, out[rows] + (idx[rows] * degree)[:, None])
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
        room = TRANSVERSAL_CELLS // max(degree, 1)
        for i, point in enumerate(base):
            prefix = base[:i]
            level = _ChainLevel(point)
            level.gens = [s for s in strong if all(s[b] == b for b in prefix)]
            level.rebuild(room)
            room -= len(level.orbit)
            levels.append(level)
        return levels

    def failing_residue(levels: list[_ChainLevel]) -> Optional[Perm]:
        for i, level in enumerate(levels):
            for a in level.orbit:
                t_a = level.transversal[a]
                for s in level.gens:
                    # t_a s maps the base point into the orbit, so level i strips it
                    residue = _sift(levels[i:], compose(t_a, s))
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
