"""Permutation arithmetic and Schreier-Sims stabilizer chains.

Permutations are plain image arrays: ``p`` is a list of length ``degree``
with ``p[x]`` the image of point ``x``.  Composition is "apply p, then q":

    compose(p, q)[x] == q[p[x]]

This convention is used everywhere in the package, including as the group
operation of multiplication tables built from permutations.

The stabilizer chain is the classical deterministic construction: base
points are always the smallest point moved by the residue that forced a
new level, orbits are explored breadth first, and every Schreier
generator is sifted.  Given the same generator list the chain (and hence
the uniform sampling stream for a fixed seed) is bit-reproducible.  It is
held in arrays: a level's transversal is one (orbit, degree) array, and
Schreier generators are composed and sifted as batches of rows.

Sampling works on batches: :meth:`PermGroupBSGS.random_uniform` returns a
(size, degree) array, one element per row, and :func:`compose_rows` and
:func:`commutator_rows` act row by row.  It reads merged tables: consecutive
chain levels whose representative products fit ``DEFAULT_CHUNK_CELLS``
cells form one table, so an element is one gather per table, not per level.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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
    return np.frombuffer(rng.randbytes(4 * n), dtype="<u4")


def uniform_indices(rng: random.Random, bound: int, size: int) -> np.ndarray:
    """``size`` independent integers, exactly uniform on [0, bound), 1 <= bound <= 2^32.

    They come in the smallest unsigned type that holds ``bound - 1``.

    Reads little-endian 32-bit words from ``rng.randbytes``.  A word below
    the largest multiple of ``bound`` up to 2^32 gives its residue mod
    ``bound``; every other word is replaced by a fresh one, in order of
    position, until all are accepted (a bound dividing 2^32 rejects none).
    """
    if not 1 <= bound <= _WORD:
        raise ValueError(f"bound must be in 1..2^32, got {bound}")
    words = _words(rng, size)
    limit = _WORD - _WORD % bound
    if limit < _WORD and size and words.max() >= limit:
        words = words.copy()
        redo = np.flatnonzero(words >= limit)
        while redo.size:
            words[redo] = _words(rng, redo.size)
            redo = redo[words[redo] >= limit]
    # numpy divides by a scalar several times faster than it takes % of one
    residues = words - words // bound * bound if bound & (bound - 1) else words & (bound - 1)
    return residues.astype(np.min_scalar_type(bound - 1), copy=False)


# -- stabilizer chain ---------------------------------------------------------

#: Cap on the cells (rows x degree) of a merged sampling table, of a batch
#: of sifted Schreier generators, and of a Monte Carlo chunk per tuple position.
DEFAULT_CHUNK_CELLS = 1 << 20

#: Cap on the cells (orbit points x degree) of a chain's transversals:
#: 2^24, the cells of the largest multiplication table (order 4096).
TRANSVERSAL_CELLS = 1 << 24


@dataclass
class _ChainLevel:
    """A stabilizer-chain level, in the point dtype: ``gens`` fix the earlier
    base points, row r of ``transversal`` maps ``point`` to the r-th point of
    its sorted orbit, and ``position[x]`` is the row of x, or -1 off the orbit.
    """

    point: int
    gens: np.ndarray
    position: np.ndarray
    transversal: np.ndarray


def _chain_level(point: int, gens: list[Perm], rows: np.ndarray, room: int) -> _ChainLevel:
    """The level of ``point`` under ``gens``, given also as ``rows``.

    The orbit is explored breadth first, generators in order; the
    representative of a point found from a by g is g[t_a], one gather.  An
    orbit of more than ``room`` points is refused before any row is stored.
    """
    found, queue = {point: None}, [point]
    for a in queue:
        for i, g in enumerate(gens):
            if g[a] not in found:
                found[g[a]] = (a, i)
                queue.append(g[a])
    degree = rows.shape[1]
    if len(queue) > room:
        raise ChainTooLarge(f"stabilizer chain transversals (orbit points x degree "
                            f"{degree}) would exceed {TRANSVERSAL_CELLS} cells")
    position = np.full(degree, -1, dtype=np.intp)
    position[sorted(queue)] = np.arange(len(queue))
    transversal = np.empty((len(queue), degree), dtype=rows.dtype)
    transversal[position[point]] = np.arange(degree)
    for b in queue[1:]:
        a, i = found[b]
        np.take(rows[i], transversal[position[a]], out=transversal[position[b]], mode="clip")
    return _ChainLevel(point, rows, position, transversal)


def _sift_rows(levels: Sequence[_ChainLevel], residue: np.ndarray) -> np.ndarray:
    """Strip every row of ``residue`` through ``levels``, in place.

    A row stops at the first level whose orbit misses its image of the base
    point; a row ends as the identity iff it lies in the levels' group.  A
    row equal to its representative strips to the identity; any other is
    composed with the representative's inverse, its argsort.
    """
    live = np.arange(len(residue))
    for level in levels:
        rows = residue[live]
        pos = level.position[rows[:, level.point]]
        # a row off the orbit (pos -1) differs from the last representative
        reps = level.transversal[pos]
        same = (rows == reps).all(axis=1)
        residue[live[same]] = np.arange(residue.shape[1])
        strip = ~same & (pos >= 0)
        live, rows, reps = live[strip], rows[strip], reps[strip]
        if not live.size:
            break
        residue[live] = compose_rows(rows, np.argsort(reps, axis=1, kind="stable"))
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
        self._sizes = [len(level.transversal) for level in levels]
        self.order = math.prod(self._sizes)
        # the smallest unsigned type that holds a point keeps sampled
        # batches compact
        self._dtype = np.min_scalar_type(max(degree - 1, 0))
        # sampling tables, deepest first: a level alone is its transversal, and
        # consecutive levels merge while the table fits DEFAULT_CHUNK_CELLS; a
        # row is the product of the levels' chosen representatives, deepest
        # first, at their mixed-radix index (upper level most significant)
        self._tables: list[tuple[slice, np.ndarray]] = []
        for i in reversed(range(len(levels))):
            reps, stop = levels[i].transversal, i + 1
            if self._tables and len(reps) * self._tables[-1][1].size <= DEFAULT_CHUNK_CELLS:
                merged, acc = self._tables.pop()
                table = np.empty((len(reps), *acc.shape), dtype=self._dtype)
                for rows in row_blocks(len(acc), len(reps) * degree, BLOCK_CELLS):
                    table[:, rows] = np.take(reps, acc[rows], axis=1)
                stop, reps = merged.stop, table.reshape(-1, degree)
            self._tables.append((slice(i, stop), reps))

    @property
    def base(self) -> list[int]:
        return [level.point for level in self._levels]

    @property
    def strong_gens(self) -> list[Perm]:
        # the top level's generators are the whole pool: they fix no base point
        return self._levels[0].gens.tolist() if self._levels else []

    def transversals(self) -> list[dict[int, Perm]]:
        return [dict(zip(np.flatnonzero(lv.position >= 0).tolist(), lv.transversal.tolist()))
                for lv in self._levels]

    def sift(self, p: Sequence[int]) -> Perm:
        """Reduce ``p`` through the chain; identity iff ``p`` is a member."""
        if len(p) != self.degree:
            raise DegreeMismatch(len(p), self.degree)
        return _sift_rows(self._levels, np.array([validate_perm(p)], self._dtype))[0].tolist()

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
            idx = choices[levels.start].astype(np.intp)
            for n, chosen in zip(sizes[levels][1:], choices[levels][1:]):
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
    strong generating property.  A level's Schreier generators t_a s are
    composed and sifted as row batches of at most ``DEFAULT_CHUNK_CELLS``
    cells, a in orbit order, then s in generator order, and the first row
    that does not sift to the identity is the residue.
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
        pool = np.array(strong, np.min_scalar_type(max(degree - 1, 0)))
        for i, point in enumerate(base):
            keep = np.flatnonzero((pool[:, base[:i]] == base[:i]).all(axis=1))
            levels.append(_chain_level(point, [strong[j] for j in keep], pool[keep], room))
            room -= len(levels[-1].transversal)
        return levels

    def failing_residue(levels: list[_ChainLevel]) -> Optional[Perm]:
        for i, level in enumerate(levels):
            count = len(level.gens)
            for rows in row_blocks(len(level.transversal) * count, degree, DEFAULT_CHUNK_CELLS):
                a, s = np.divmod(np.arange(rows.start, rows.stop), count)
                # t_a s maps the base point into the orbit, so level i strips it
                batch = _sift_rows(levels[i:], compose_rows(level.transversal[a], level.gens[s]))
                moved = np.flatnonzero((batch != np.arange(degree)).any(axis=1))
                if moved.size:
                    return batch[moved[0]].tolist()
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
