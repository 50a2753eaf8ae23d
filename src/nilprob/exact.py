"""Exact nilpotence probabilities.

Everything here is integer counting over the ``int32`` multiplication
table, reduced to a ``fractions.Fraction`` at the end; no floating point
enters any probability.  Counts are ``int64`` arrays while |H|^(k+1) <
2^63 and object arrays of Python ints above that.

A shift tuple (x_1, .., x_{k+1}) counts the tuples (y_1, .., y_{k+1}) in
H^(k+1) whose shifted left-normed commutator [x_1 y_1, .., x_{k+1} y_{k+1}]
is the identity.  The value depends on each x_i only through its left
coset x_i H, so shifts are taken as canonical (least-index) coset
representatives.  There are four evaluations:

* ``np_bruteforce`` enumerates all |H|^(k+1) tuples and is the oracle;
  it reads its own list copy of the table and shares no code with the
  array passes.
* ``np_fast`` evaluates one tuple by a forward pass: W_1 marks x_1 H,
  W_{m+1}(c) sums W_m(w) over t in x_{m+1} H with [w, t] = c, and the
  count sums W_k(w) |C_G(w) ∩ x_{k+1} H|.  A stage reads only the rows w
  in the support of W_m.
* ``_untwisted_count`` counts the tuples whose shifts all lie in H, for
  ``np_fast``, ``cp`` and the identity tuple of ``iter_shift_values``.
  Each W_m is then constant on the conjugacy classes of H, so above one
  backward block of first-stage cells (|H|^2 > ``COUNT_BLOCK_CELLS``) a
  stage maps class weights through H's class transfer, built once per
  subgroup from one row per class (|H| cells, not |H|^2); at or below it
  they take the forward pass.  np_2(D(64)xD(32)) reads 2,048 cells this
  way, against 4.2 million commutators for the forward pass's first
  stage.
* ``iter_shift_values`` evaluates the [G:H]^k tuples whose last
  coordinate is the coset H itself by a backward pass: v(w) = |C_G(w) ∩
  H| for the last coordinate, each middle one sets v'(w, (x, s)) = sum
  over t in xH of v([w, t], s) for all suffixes s at once, and the first
  sums v over its coset.  The C-order flattening of the result is the
  lexicographic order of the tuples.

One tuple goes forward because a backward stage fills every row of G,
while W_m is often supported on a small subgroup: W_2 of
np_2(D(64)xD(32)) lives on the 128 elements of the derived subgroup.

Those [G:H]^k tuples are all that ``np_sup``, the supremum over all
[G:H]^(k+1) tuples, has to read.  The count of a tuple is the sum over w
of W_k(w) times |C_G(w) ∩ rH| for its last coordinate r.  That
intersection is empty or a left coset x(C_G(w) ∩ H) for any x in it, so
each term is at most |C_G(w) ∩ H|: the coset H attains every prefix's
maximum over the last coordinate, and the lexicographically smallest
maximizer ends in representative 0.  The shift budget still counts all
[G:H]^(k+1) tuples.  The identity tuple comes first, from
``_untwisted_count``, so a value of 1 returns before the backward pass
runs; that is why a supremum over H of class at most k, where the value
is 1, is exempt from the shift budget.  The tests check ``np_sup`` against the
enumeration of all [G:H]^(k+1) tuples, one ``np_fast`` each.
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
from .structure import (SubgroupRef, commutators, commuting_counts, left_coset_reps,
                        nilpotency_class, whole_group)

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


def _cosets(g: GroupTable, h: SubgroupRef, xs: Sequence[int]) -> np.ndarray:
    """The left cosets xH for x in ``xs``, one row each."""
    return g.mul[np.array(xs)[:, None], h.elements]


def _advance_weights(g: GroupTable, weights: np.ndarray, coset: np.ndarray) -> np.ndarray:
    """One forward stage: W_{m+1}(c) sums W_m(w) over t in the coset with [w, t] = c.

    For a block of commutators w of equal weight v, the new commutators
    [w, t] over t in the coset are gathered as one array and v times
    their histogram is added; weights stay integers throughout.
    """
    n = g.order
    nxt = np.zeros(n, dtype=weights.dtype)
    support = np.flatnonzero(weights)
    for rows in row_blocks(len(support), len(coset), BLOCK_CELLS):
        w = support[rows]
        comm = commutators(g, w, coset)
        wt = weights[w]
        for v in set(wt.tolist()):
            # cast first: a Python int of 2^63 or more times an int64 array overflows
            hist = np.bincount(comm[wt == v].ravel(), minlength=n)
            nxt += v * hist.astype(nxt.dtype, copy=False)
    return nxt


def _weights(g: GroupTable, cosets: np.ndarray, dtype) -> np.ndarray:
    """W_m for the m cosets (rows), one element chosen from each."""
    weights = np.zeros(g.order, dtype=dtype)
    weights[cosets[0]] = 1
    for coset in cosets[1:]:
        weights = _advance_weights(g, weights, coset)
    return weights


def _forward_count(g: GroupTable, cosets: np.ndarray) -> int:
    """Number of commutator-trivial selections, one element per coset (row)."""
    if len(cosets) == 1:
        return int((cosets[0] == 0).sum())
    weights = _weights(g, cosets[:-1], _count_dtype(cosets.shape[1] ** len(cosets)))
    support = np.flatnonzero(weights)
    commuting = commuting_counts(g, support, cosets[-1])
    return int(weights[support] @ commuting.astype(weights.dtype, copy=False))


def _untwisted_count(h: SubgroupRef, m: int) -> int:
    """Number of m-tuples of H whose left-normed commutator is 1: the shifts all lie in H.

    Above one backward block of first-stage cells this counts on H's
    classes: every W_j is constant on H-classes, a stage is W'(L) = sum
    over K of W(K) M[K, L] for H's class transfer M, and the count sums
    W_{m-1}(w) |C_H(w)| over w, which is |H| times the sum of W_{m-1}
    over the classes.  Otherwise it is the forward pass.
    """
    g = h.parent
    if m == 1 or h.order ** 2 <= COUNT_BLOCK_CELLS:
        return _forward_count(g, _cosets(g, h, identity_shifts(m - 1)))
    r, rows, cols, transfer = h._class_transfer
    dtype = _count_dtype(h.order ** m)
    weights = np.ones(r, dtype=dtype)
    for _ in range(m - 2):
        nxt = np.zeros(r, dtype=dtype)
        np.add.at(nxt, cols, weights[rows] * transfer.astype(dtype, copy=False))
        weights = nxt
    return h.order * int(weights.sum())


def require_dp_budget(g: GroupTable, h: SubgroupRef, m: int, budget: int,
                      what: str = "dynamic-program evaluation") -> None:
    """Refuse m forward stages over H above ``budget``, also before a cache lookup."""
    work = m * g.order * h.order
    if work > budget:
        raise BudgetExceeded(what, work, budget)


def np_fast(g: GroupTable, h: SubgroupRef, shifts: Sequence[int],
            budget: int = DEFAULT_TUPLE_BUDGET) -> NpResult:
    """Same value as ``np_bruteforce``: forward pass, or ``_untwisted_count`` for shifts in H."""
    shifts = _check_shifts(g, shifts)
    m = len(shifts)
    total = h.order ** m
    require_dp_budget(g, h, m, budget)
    if all(x in h.elements for x in shifts):
        count = _untwisted_count(h, m)
    else:
        count = _forward_count(g, _cosets(g, h, shifts))
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
    weights = _weights(g, _cosets(g, h, shifts[:m]), _count_dtype(h.order ** m))
    support = np.flatnonzero(weights)
    return dict(zip(support.tolist(), weights[support].tolist()))


def np_k(g: GroupTable, k: int, budget: int = DEFAULT_TUPLE_BUDGET) -> NpResult:
    """Probability that k+1 uniform elements have trivial left-normed commutator."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return np_fast(g, whole_group(g), identity_shifts(k), budget)


def cp(g: GroupTable | SubgroupRef) -> Fraction:
    """Commuting probability: the share of commuting pairs, k(G)/|G|.

    A subgroup is measured as a group in its own right: its commuting
    pairs are the untwisted pairs of H, np_1 at trivial shifts.
    """
    h = g if isinstance(g, SubgroupRef) else whole_group(g)
    return Fraction(_untwisted_count(h, 2), h.order ** 2)


def _backward_counts(g: GroupTable, cosets: np.ndarray, k: int) -> Iterator[int]:
    """Counts of the shift tuples whose last coordinate is H, in lexicographic order.

    ``cosets`` holds the left cosets of H as rows, in representative
    order, so the first row is H itself.  The second coordinate is summed
    into the first a block of cosets at a time, and each block's counts
    are handed out before the next, so neither v of the second coordinate
    nor all counts are ever stored.
    """
    n = g.order
    reps, size = cosets.shape
    dtype = _count_dtype(size ** (k + 1))
    flat = cosets.ravel()

    def stage(v, w):
        """v'[w, x, s], the sum of v[[w, t], s] over t in the coset x, for the rows w."""
        return v[commutators(g, w, flat)].reshape(len(w), reps, size, v.shape[1]).sum(axis=2)

    v = commuting_counts(g, np.arange(n), cosets[0], COUNT_BLOCK_CELLS).astype(dtype)[:, None]
    for _ in range(k - 2):
        nxt = np.empty((n, reps * v.shape[1]), dtype)
        for rows in row_blocks(n, n * v.shape[1], COUNT_BLOCK_CELLS):
            w = np.arange(n)[rows]
            nxt[rows] = stage(v, w).reshape(len(w), -1)
        v = nxt
    gathered = size * v.shape[1] * (n if k > 1 else 1)
    for block in row_blocks(reps, gathered, COUNT_BLOCK_CELLS):
        w = cosets[block]
        part = v[w] if k == 1 else stage(v, w.ravel()).reshape(len(w), size, -1)
        yield from part.sum(axis=1).ravel().tolist()


def require_shift_budget(g: GroupTable, h: SubgroupRef, k: int, budget: int) -> None:
    """Refuse a supremum over [G:H]^(k+1) shift tuples above ``budget``, also before a lookup.

    H of class at most k is exempt: np_k(H) = 1, and the identity tuple,
    drawn first by the forward pass, returns it.  The class is read only
    once the count is over budget.
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

    Coordinates are the least indices of the left cosets of H, and the
    last one is always 0, the representative of H itself; these [G:H]^k
    tuples hold every prefix's maximum (see the module docstring).  They
    come in lexicographic order.  The identity tuple comes first and is
    evaluated alone by the forward pass; the others come from one
    backward pass.  The budget is ``require_shift_budget``'s.
    """
    require_shift_budget(g, h, k, budget)
    total = h.order ** (k + 1)
    ones = identity_shifts(k)
    first = _untwisted_count(h, k + 1)
    # one Fraction per distinct count, so equal values are the same object
    values = {first: Fraction(first, total)}
    yield ones, values[first]

    reps = left_coset_reps(g, h)
    counts = _backward_counts(g, _cosets(g, h, reps), k)
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
