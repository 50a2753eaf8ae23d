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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import DegreeMismatch

Perm = list[int]


def identity_perm(degree: int) -> Perm:
    return list(range(degree))


def is_identity(p: Sequence[int]) -> bool:
    return all(i == x for i, x in enumerate(p))


def validate_perm(image: Sequence[int]) -> Perm:
    """Check that ``image`` is a bijection on 0..len-1 and return it as a list."""
    p = [int(x) for x in image]
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


def stream_rng(seed: int, stream_index: int = 0) -> random.Random:
    """A Mersenne-Twister generator seeded from (seed, stream_index)."""
    return random.Random(derive_seed(seed, stream_index))


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

    def contains(self, p: Sequence[int]) -> bool:
        return is_identity(self.sift(p))

    def random_uniform(self, rng: random.Random) -> Perm:
        """Exactly uniform group element.

        Draws one uniformly random orbit point per chain level (top level
        first, so the consumption of ``rng`` is well defined) and composes
        the corresponding transversal representatives.  Every group element
        arises from exactly one choice vector, so the output is uniform.
        """
        choices = [
            level.transversal[level.orbit[rng.randrange(len(level.orbit))]]
            for level in self._levels
        ]
        out: Optional[Perm] = None
        for rep in reversed(choices):
            out = rep if out is None else compose(out, rep)
        return out if out is not None else identity_perm(self.degree)


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
