"""Exact nilpotence probabilities.

All counting is in integers over the ``int32`` table, reduced to a
``Fraction`` at the end: ``int64`` arrays while |H|^(k+1) < 2^63, object
arrays of Python ints above.  A shift tuple (x_1, .., x_m), m = k+1,
counts the (t_1, .., t_m) with t_i in x_i H and left-normed commutator 1;
it depends on each x_i only through x_i H, so shifts are least coset
members.  ``np_bruteforce`` enumerates all |H|^m tuples: the oracle, on
a list copy of the table.

Every other count is one product e(x_1) T_{x_2} .. T_{x_m} d: d marks 1,
T_x[w, w'] = #{t in xH : [w, t] = w'}, and e(x_1) sums over x_1 H.
Conjugation by K = core_G(H) fixes every coset of H, so each vector is
constant on the K-orbits of G (``structure.Orbits``): one row per orbit.
For o the least member of O, [o, xh] = o^-1 (o^x)^h, and (o^x)^h runs
over the H-orbit P of o^x, |H|/|P| times each.  So T_x[O, O'] = |H|/|P|
#{u in P : o^-1 u in O'}: a row is |P| cells, no commutator is gathered,
and a coset of normal H is |G| cells.  ``np_fast``, ``cp`` (1, 1) and
the identity tuple of ``iter_shift_values`` are one product each;
``commutator_distribution`` scatters A(O) |H|/|P| per cell forward, and
c counts A(O(c))/|O(c)|.  ``iter_shift_values`` takes the [G:H]^k tuples
ending in the coset H in one backward pass: v = T_H d, k-1 stages over
every coset at once, a row per suffix, and e(x_1) v for every coset x_1
H, in lexicographic order.

``np_sup``, the supremum over all [G:H]^(k+1) tuples, reads only those:
given the first k coordinates, the count sums over their commutator w
|C_G(w) ∩ rH| for the last one r, empty or a coset of C_G(w) ∩ H, so the
coset H attains each prefix's maximum.  The shift budget counts all
[G:H]^(k+1) tuples, but the identity tuple comes first and a value of 1
returns before the backward pass, so H of class at most k is exempt.
The tests check ``np_sup`` against ``np_fast`` on all [G:H]^(k+1) tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, EmptyInput
from .groups import BLOCK_CELLS, COUNT_BLOCK_CELLS, GroupTable
from .perms import row_blocks
from .structure import SubgroupRef, left_coset_reps, nilpotency_class, whole_group

#: Iteration budget for the brute-force oracle (|H|^(k+1) tuples).
DEFAULT_TUPLE_BUDGET = 10 ** 9

#: Budget for suprema over shift tuples ([G:H]^(k+1) evaluations).
DEFAULT_SHIFT_BUDGET = 10 ** 6


def fraction_text(value: Fraction) -> str:
    """``"p/q"`` in lowest terms: how every output and the cache write an exact value."""
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    """The value whose :func:`fraction_text` is ``text``; ValueError for any other text."""
    try:
        num, den = text.split("/")
        value = Fraction(int(num), int(den))
    except (AttributeError, ValueError, ZeroDivisionError):
        value = None
    if value is None or fraction_text(value) != text:
        raise ValueError(f"not an exact value: {text!r}")
    return value


@dataclass(frozen=True)
class NpResult:
    """An exact probability together with the counts behind it."""

    value: Fraction
    method: str
    counted_tuples: int
    total_tuples: int


def _check_shifts(g: GroupTable, shifts: Sequence[int]) -> tuple[int, ...]:
    if len(shifts) < 1:
        raise EmptyInput("at least one shift coordinate is required")
    out = tuple(int(x) for x in shifts)
    for x in out:
        if not 0 <= x < g.order:
            raise ValueError(f"shift {x} out of range for order {g.order}")
    return out


def identity_shifts(k: int) -> tuple[int, ...]:
    return (0,) * (k + 1)


def np_bruteforce(g: GroupTable, h: SubgroupRef, shifts: Sequence[int],
                  budget: int = DEFAULT_TUPLE_BUDGET) -> NpResult:
    """Exhaustive count of commutator-trivial shifted tuples.

    ``shifts`` has k+1 entries for the k-step probability; a single entry
    degenerates to counting y in H with x_1 y = 1.
    """
    shifts = _check_shifts(g, shifts)
    m = len(shifts)
    total = h.order ** m
    if total > budget:
        raise BudgetExceeded("brute-force tuple enumeration", total, budget)
    mul, inv = g.mul.tolist(), g.inv.tolist()
    elems = h.elements
    first, *rest = shifts
    count = 0
    for ys in itertools.product(elems, repeat=m):
        w = mul[first][ys[0]]
        for x, y in zip(rest, ys[1:]):
            t = mul[x][y]
            # w = [w, t]
            w = mul[mul[mul[inv[w]][inv[t]]][w]][t]
        if w == 0:
            count += 1
    return NpResult(Fraction(count, total), "brute_force", count, total)


def _count_dtype(total: int):
    """The dtype of counts of at most ``total``: ``int64`` below 2^63, else Python ints."""
    return np.int64 if total < 2 ** 63 else object


def _cells(g: GroupTable, h: SubgroupRef, x: int, width: int, keep: bool = True):
    """T_x's cells a block of orbit rows at a time: (rows, bounds, orbits, scales).

    Row O has a cell per member u of the H-orbit P of o^x, the orbit of
    o^-1 u, from its bound to the next, and the scale |H|/|P|.  A block is
    the coset if it fits ``COUNT_BLOCK_CELLS`` cells times ``width``, else
    rows of |H| cells.  A coset is computed at once when r |H| is within
    ``BLOCK_CELLS``, and kept if ``keep`` and the kept total stays within it.
    """
    o = h._orbits
    key = o.orbit.item(x)
    x, r = o.reps.item(key), len(o.reps)

    def compute(rows):
        reps = o.reps[rows]
        p = o.h_orbit[g.mul[g.inv[x], g.mul[reps, x]]]
        first = o.h_bounds[p].astype(np.intp)  # the kept cells are native ints, read fastest
        sizes = o.h_bounds[p + 1] - first
        bounds = np.append(0, np.cumsum(sizes))
        at = np.repeat(first - bounds[:-1], sizes) + np.arange(bounds[-1])
        orbits = o.orbit[g.mul[np.repeat(g.inv[reps], sizes), o.h_members[at]]]
        return bounds, orbits.astype(np.intp), h.order // sizes

    cells = o.cells.get(key)
    if cells is None and r * h.order <= BLOCK_CELLS:
        cells = compute(slice(0, r))
        if keep and sum(len(c[1]) for c in o.cells.values()) + len(cells[1]) <= BLOCK_CELLS:
            o.cells[key] = cells
    if cells is not None and len(cells[1]) * width <= COUNT_BLOCK_CELLS:
        yield (slice(0, r), *cells)
    else:
        for rows in row_blocks(r, h.order * width, COUNT_BLOCK_CELLS):
            yield (rows, *compute(rows))


def _stage(g: GroupTable, h: SubgroupRef, v: np.ndarray, xs: Sequence[int],
           keep: bool) -> np.ndarray:
    """T_x v for each x in ``xs``, stacked: row (x, s) is T_x of row s of v.

    One x maps a vector to a vector, from its kept cells if they fit a block.
    """
    width, o = v.size // v.shape[-1], h._orbits
    cells = o.cells.get(o.orbit.item(xs[0])) if len(xs) == 1 else None
    if cells is not None and len(cells[1]) * width <= COUNT_BLOCK_CELLS:
        return np.add.reduceat(v.take(cells[1], axis=-1), cells[0][:-1], axis=-1) * cells[2]
    out = np.empty((len(xs),) + v.shape, dtype=v.dtype)
    for j, x in enumerate(xs):
        for rows, bounds, orbits, scales in _cells(g, h, x, width, keep):
            part = np.add.reduceat(v.take(orbits, axis=-1), bounds[:-1], axis=-1)
            out[j, ..., rows] = part * scales
    return out[0] if len(xs) == 1 else out.reshape(-1, v.shape[-1])


def _scatter(g: GroupTable, h: SubgroupRef, weights: np.ndarray, x: int) -> np.ndarray:
    """The forward stage: each cell of row O adds A(O) |H|/|P| to its orbit's weight A."""
    out = np.zeros_like(weights)
    for rows, bounds, orbits, scales in _cells(g, h, x, 1):
        np.add.at(out, orbits, np.repeat(weights[rows] * scales, np.diff(bounds)))
    return out


def _backward(g: GroupTable, h: SubgroupRef, stages: Sequence[Sequence[int]],
              total: int) -> np.ndarray:
    """T_{X_1} .. T_{X_j} d for the coset lists ``stages``, in counts of at most ``total``.

    A stage over several cosets keeps their cells only if a second such
    stage reads them; otherwise each is read once, and kept cells would
    outlive it.
    """
    v = np.zeros(len(h._orbits.reps), dtype=_count_dtype(total))
    v[0] = 1  # the identity's orbit
    for xs in reversed(stages):
        v = _stage(g, h, v, xs, len(xs) == 1 or len(stages) > 2)
    return v


def _count(g: GroupTable, h: SubgroupRef, shifts: Sequence[int]) -> int:
    """e(x_1) T_{x_2} .. T_{x_m} d: the count of the shift tuple ``shifts``."""
    o = h._orbits
    v = _backward(g, h, [(x,) for x in shifts[1:]], h.order ** len(shifts))
    # Python's sum: numpy's costs more than the gathers on a small coset
    return sum(v.take(o.orbit.take(g.mul[shifts[0]].take(o.elements))).tolist())


def require_dp_budget(g: GroupTable, h: SubgroupRef, m: int, budget: int,
                      what: str = "dynamic-program evaluation") -> None:
    """Refuse m forward stages over H above ``budget``, also before a cache lookup."""
    work = m * g.order * h.order
    if work > budget:
        raise BudgetExceeded(what, work, budget)


def np_fast(g: GroupTable, h: SubgroupRef, shifts: Sequence[int],
            budget: int = DEFAULT_TUPLE_BUDGET) -> NpResult:
    """Same value as ``np_bruteforce``, from one product of orbit transfers."""
    shifts = _check_shifts(g, shifts)
    total = h.order ** len(shifts)
    require_dp_budget(g, h, len(shifts), budget)
    count = _count(g, h, shifts)
    return NpResult(Fraction(count, total), "dp", count, total)


def commutator_distribution(g: GroupTable, h: SubgroupRef, shifts: Sequence[int], m: int,
                            budget: int = DEFAULT_TUPLE_BUDGET) -> dict[int, int]:
    """Counts W_m(c) of shifted m-tuples with left-normed commutator c.

    Only commutators with a nonzero count are keys; the counts always sum
    to |H|^m.
    """
    shifts = _check_shifts(g, shifts)
    if not 1 <= m <= len(shifts):
        raise ValueError(f"stage {m} needs at least {m} shifts")
    require_dp_budget(g, h, m, budget, "commutator distribution")
    o = h._orbits
    first = o.orbit[g.mul[shifts[0], o.elements]]
    weights = np.bincount(first, minlength=len(o.reps)).astype(_count_dtype(h.order ** m))
    for x in shifts[1:m]:
        weights = _scatter(g, h, weights, x)
    counts = weights[o.orbit] // np.bincount(o.orbit)[o.orbit]
    support = np.flatnonzero(counts)
    return dict(zip(support.tolist(), counts[support].tolist()))


def np_k(g: GroupTable, k: int, budget: int = DEFAULT_TUPLE_BUDGET) -> NpResult:
    """Probability that k+1 uniform elements have trivial left-normed commutator."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return np_fast(g, whole_group(g), identity_shifts(k), budget)


def cp(g: GroupTable | SubgroupRef) -> Fraction:
    """Commuting probability k(G)/|G|, the share of commuting pairs; H counts as a group."""
    h = g if isinstance(g, SubgroupRef) else whole_group(g)
    return Fraction(_count(h.parent, h, (0, 0)), h.order ** 2)


def _backward_counts(g: GroupTable, h: SubgroupRef, k: int, reps: np.ndarray) -> Iterator[int]:
    """Counts of the tuples of coset representatives ``reps`` ending in H, lexicographic.

    The first coordinate sums v over each coset a block of cosets at a
    time, so not all counts are stored.
    """
    o = h._orbits
    v = _backward(g, h, [reps] * (k - 1) + [[0]], h.order ** (k + 1))
    for block in row_blocks(len(reps), h.order * (v.size // len(o.reps)), COUNT_BLOCK_CELLS):
        cosets = o.orbit[g.mul[reps[block, None], o.elements]]
        yield from v.take(cosets, axis=-1).sum(axis=-1).T.ravel().tolist()


def require_shift_budget(g: GroupTable, h: SubgroupRef, k: int, budget: int) -> None:
    """Refuse a supremum over [G:H]^(k+1) shift tuples above ``budget``, also before a lookup.

    H of class at most k is exempt: np_k(H) = 1, which the identity tuple,
    evaluated first, returns.  The class is read only over budget.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    count = (g.order // h.order) ** (k + 1)
    if count > budget and nilpotency_class(h) not in range(k + 1):
        raise BudgetExceeded("shift tuple enumeration", count, budget)


def iter_shift_values(
    g: GroupTable, h: SubgroupRef, k: int, budget: int = DEFAULT_SHIFT_BUDGET,
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield (shift tuple, exact value) over the canonical tuples ending in the coset H.

    Coordinates are least coset members, the last always 0; these [G:H]^k
    tuples hold every prefix's maximum (see the module docstring).  They
    come in lexicographic order, the identity tuple first and alone, the
    others from one backward pass.  The budget is ``require_shift_budget``'s.
    """
    require_shift_budget(g, h, k, budget)
    total = h.order ** (k + 1)
    ones = identity_shifts(k)
    first = _count(g, h, ones)
    # one Fraction per distinct count, so equal values are the same object
    values = {first: Fraction(first, total)}
    yield ones, values[first]

    reps = left_coset_reps(g, h)
    counts = _backward_counts(g, h, k, np.array(reps))
    prefixes = itertools.product(reps, repeat=k)
    next(counts), next(prefixes)  # the identity tuple, yielded above
    for c, prefix in zip(counts, prefixes):
        value = values.get(c)
        if value is None:
            value = values[c] = Fraction(c, total)
        yield prefix + (0,), value


def np_sup(g: GroupTable, h: SubgroupRef, k: int,
           budget: int = DEFAULT_SHIFT_BUDGET) -> tuple[Fraction, tuple[int, ...]]:
    """Supremum of the shifted probability over all [G:H]^(k+1) shift tuples.

    The witness is the lexicographically smallest maximizing tuple of coset
    representatives.  Only the tuples of ``iter_shift_values``, those ending
    in the coset H, are read (see the module docstring).  The walk stops at
    the unbeatable value 1, and the identity tuple comes first, so the common
    nilpotent case never runs the backward pass.  The budget is
    ``require_shift_budget``'s.
    """
    best_val = Fraction(-1)
    best_tup: tuple[int, ...] = ()
    for tup, val in iter_shift_values(g, h, k, budget):
        # values are memoised per count, so the same object is often drawn
        # again; identity implies equality and skips the Fraction compare
        if val is not best_val and val > best_val:
            best_val, best_tup = val, tup
            if val == 1:
                break
    return best_val, best_tup
