"""Exact nilpotence probabilities.

Everything here is integer counting over a multiplication table, reduced
to a ``fractions.Fraction`` at the end; no floating point enters any
probability.  Two evaluation routes are provided:

* ``np_bruteforce`` enumerates all |H|^(k+1) tuples and is the oracle.
* ``np_fast`` runs a stage-by-stage dynamic program over the distribution
  of partial left-normed commutators: W_1 counts the elements of the coset
  x_1 H, W_{m+1}(c) sums W_m(w) over pairs with [w, x_{m+1} y] = c, and
  the final stage counts, for each accumulated commutator w, the y with
  x_{k+1} y centralizing w.  Total work is O(k |G| |H|) table lookups.
  For |H| > 16 the stages run on the ``int32`` table as ``int64`` count
  vectors, which is exact while |H|^(k+1) < 2^63; for smaller H, whose
  stages are too short to repay numpy's per-call cost, and above that
  bound, the same stages run on dicts of Python ints.

Both count the tuples (y_1, .., y_{k+1}) in H^(k+1) whose shifted
left-normed commutator [x_1 y_1, .., x_{k+1} y_{k+1}] is the identity.
The value depends on each shift x_i only through its left coset x_i H, so
suprema over shifts are taken over canonical (least-index) coset
representatives.

``iter_shift_values`` evaluates all n^(k+1) representative tuples, n =
[G:H], as a lexicographic depth-first walk over shift prefixes.  W_m of
a prefix (r_1, .., r_m) is computed once and shared by its n^(k+1-m)
extensions, so stage m runs n^m times instead of the n^(k+1) full DPs a
tuple-by-tuple evaluation needs.  The last coordinate is batched: for
each accumulated commutator w the counts |C_G(w) ∩ rH| for all reps r
come from one pass over G, are memoised for the rest of the enumeration,
and one pass over W_k gives all n final counts of a length-k prefix.
``np_fast``, ``commutator_distribution`` and ``iter_shift_values`` share
one stage-advance step.

``np_sup`` walks only the [G:H]^k tuples whose last coordinate is the
coset H itself.  The count of a tuple is the sum over w of W_k(w) times
|C_G(w) ∩ rH| for its last coordinate r.  That intersection is empty or
a left coset x(C_G(w) ∩ H) for any x in it, so each term is at most
|C_G(w) ∩ H|: the coset H attains every prefix's maximum over the last
coordinate, and the lexicographically smallest maximizer ends in
representative 0.  Value and witness are those of the full enumeration;
the shift budget still counts all [G:H]^(k+1) tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, EmptyInput
from .groups import GroupTable, row_blocks
from .structure import SubgroupRef, left_coset_reps, whole_group

#: Iteration budget for the brute-force oracle (|H|^(k+1) tuples).
DEFAULT_TUPLE_BUDGET = 10 ** 9

#: Budget for suprema over shift tuples ([G:H]^(k+1) evaluations).
DEFAULT_SHIFT_BUDGET = 10 ** 6

#: Counts below this bound fit the ``int64`` count vectors of the array DP.
INT64_LIMIT = 2 ** 63

#: Least subgroup order for which ``np_fast`` runs the array DP.  Measured
#: over subgroups of eleven catalog groups up to order 2048 at k = 1..3,
#: the dict DP won 42 of 45 cases with |H| <= 16 (numpy costs about 30 us
#: a call) and the array DP every case with |H| >= 24, by up to 20x at
#: |H| = 128.
ARRAY_DP_MIN_ORDER = 17


@dataclass(frozen=True)
class NpResult:
    """An exact probability together with the counts behind it."""

    value: Fraction
    method: str
    counted_tuples: int
    total_tuples: int

    def to_json(self) -> dict:
        return {
            "value": f"{self.value.numerator}/{self.value.denominator}",
            "method": self.method,
            "counted": self.counted_tuples,
            "total": self.total_tuples,
        }


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


def np_bruteforce(
    g: GroupTable,
    h: SubgroupRef,
    shifts: Sequence[int],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> NpResult:
    """Exhaustive count of commutator-trivial shifted tuples.

    ``shifts`` has k+1 entries for the k-step probability; a single entry
    degenerates to counting y in H with x_1 y = 1.
    """
    shifts = _check_shifts(g, shifts)
    m = len(shifts)
    total = h.order ** m
    if total > budget:
        raise BudgetExceeded("brute-force tuple enumeration", total, budget)
    mul, inv = g.lists
    elems = h.elements
    first = shifts[0]
    count = 0
    if m == 1:
        count = sum(1 for y in elems if mul[first][y] == 0)
    else:
        rest = shifts[1:]
        for ys in itertools.product(elems, repeat=m):
            w = mul[first][ys[0]]
            for x, y in zip(rest, ys[1:]):
                t = mul[x][y]
                # w = [w, t]
                w = mul[mul[mul[inv[w]][inv[t]]][w]][t]
            if w == 0:
                count += 1
    return NpResult(Fraction(count, total), "brute_force", count, total)


def _advance(
    mul: Sequence[Sequence[int]],
    inv: Sequence[int],
    weights: dict[int, int],
    coset: Sequence[int],
) -> dict[int, int]:
    """One DP stage: W_{m+1}(c) sums W_m(w) over t in the coset with [w, t] = c."""
    nxt: dict[int, int] = {}
    for w, cnt in weights.items():
        row_wi = mul[inv[w]]
        for t in coset:
            c = mul[mul[row_wi[inv[t]]][w]][t]
            if c in nxt:
                nxt[c] += cnt
            else:
                nxt[c] = cnt
    return nxt


def _commuting(mul: Sequence[Sequence[int]], w: int, coset: Sequence[int]) -> int:
    """Number of t in the coset that commute with w."""
    row_w = mul[w]
    return sum(1 for t in coset if row_w[t] == mul[t][w])


def _distribution(
    mul: Sequence[Sequence[int]],
    inv: Sequence[int],
    cosets: Sequence[Sequence[int]],
) -> dict[int, int]:
    """W_m for the m given cosets, one element chosen from each."""
    weights: dict[int, int] = dict.fromkeys(cosets[0], 1)
    for coset in cosets[1:]:
        weights = _advance(mul, inv, weights, coset)
    return weights


def _dp_count(
    mul: Sequence[Sequence[int]],
    inv: Sequence[int],
    cosets: Sequence[Sequence[int]],
) -> int:
    """Core DP: number of commutator-trivial selections, one per coset."""
    if len(cosets) == 1:
        return sum(1 for t in cosets[0] if t == 0)
    last = cosets[-1]
    weights = _distribution(mul, inv, cosets[:-1])
    return sum(cnt * _commuting(mul, w, last) for w, cnt in weights.items())


def _array_advance(
    m: np.ndarray, inv: np.ndarray, weights: np.ndarray, coset: np.ndarray
) -> np.ndarray:
    """``_advance`` on the array table: W_{m+1} from W_m as ``int64`` vectors.

    For a block of commutators w of equal weight v, the new commutators
    [w, t] over t in the coset are gathered as one array and v times
    their histogram is added; weights stay integers throughout.
    """
    n = len(m)
    nxt = np.zeros(n, dtype=np.int64)
    support = np.flatnonzero(weights)
    inv_t = inv[coset]
    for rows in row_blocks(len(support), len(coset)):
        w = support[rows]
        comm = m[m[m[np.ix_(inv[w], inv_t)], w[:, None]], coset]
        wt = weights[w]
        for v in set(wt.tolist()):
            nxt += v * np.bincount(comm[wt == v].ravel(), minlength=n)
    return nxt


def _array_count(m: np.ndarray, inv: np.ndarray, cosets: np.ndarray) -> int:
    """``_dp_count`` on the array table; the count must stay below 2^63."""
    if len(cosets) == 1:
        return int((cosets[0] == 0).sum())
    weights = np.zeros(len(m), dtype=np.int64)
    weights[cosets[0]] = 1
    for coset in cosets[1:-1]:
        weights = _array_advance(m, inv, weights, coset)
    last = cosets[-1]
    support = np.flatnonzero(weights)
    count = 0
    for rows in row_blocks(len(support), len(last)):
        w = support[rows]
        commuting = (m[np.ix_(w, last)] == m[np.ix_(last, w)].T).sum(axis=1)
        count += int(weights[w] @ commuting)
    return count


def np_fast(
    g: GroupTable,
    h: SubgroupRef,
    shifts: Sequence[int],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> NpResult:
    """Same value as ``np_bruteforce`` via the commutator-distribution DP."""
    shifts = _check_shifts(g, shifts)
    m = len(shifts)
    total = h.order ** m
    work = m * g.order * h.order
    if work > budget:
        raise BudgetExceeded("dynamic-program evaluation", work, budget)
    if h.order >= ARRAY_DP_MIN_ORDER and total < INT64_LIMIT:
        cosets = g.mul[np.ix_(shifts, h.elements)]
        count = _array_count(g.mul, g.inv, cosets)
    else:
        mul, inv = g.lists
        cosets = [[mul[x][y] for y in h.elements] for x in shifts]
        count = _dp_count(mul, inv, cosets)
    return NpResult(Fraction(count, total), "dp", count, total)


def commutator_distribution(
    g: GroupTable,
    h: SubgroupRef,
    shifts: Sequence[int],
    m: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> dict[int, int]:
    """Counts W_m(c) of shifted m-tuples with left-normed commutator c.

    The counts always sum to |H|^m.
    """
    shifts = _check_shifts(g, shifts)
    if not 1 <= m <= len(shifts):
        raise ValueError(f"stage {m} needs at least {m} shifts")
    if m * g.order * h.order > budget:
        raise BudgetExceeded("commutator distribution", m * g.order * h.order, budget)
    mul, inv = g.lists
    cosets = [[mul[x][y] for y in h.elements] for x in shifts[:m]]
    return _distribution(mul, inv, cosets)


def np_k(g: GroupTable, k: int, budget: int = DEFAULT_TUPLE_BUDGET) -> NpResult:
    """Probability that k+1 uniform elements have trivial left-normed commutator."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return np_fast(g, whole_group(g), identity_shifts(k), budget)


def cp(g: GroupTable | SubgroupRef) -> Fraction:
    """Commuting probability: the share of commuting pairs, k(G)/|G|.

    A subgroup is measured as a group in its own right, by counting over
    its block of the parent's table.
    """
    if isinstance(g, SubgroupRef):
        block = g.parent.mul[np.ix_(g.elements, g.elements)]
    else:
        block = g.mul
    n = len(block)
    return Fraction(int((block == block.T).sum()), n * n)


def iter_shift_values(
    g: GroupTable,
    h: SubgroupRef,
    k: int,
    budget: int = DEFAULT_SHIFT_BUDGET,
    sup_candidates: bool = False,
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield (shift tuple, exact value) over all canonical coset-rep tuples.

    Tuples are produced in lexicographic order of representatives, which
    are the least indices of the left cosets of H; the prefix-shared walk
    that produces them is described in the module docstring.  With
    ``sup_candidates`` only the tuples whose last coordinate is the coset
    H itself (representative 0) are yielded: they hold every prefix's
    maximum, as the module docstring explains.  The budget counts all
    [G:H]^(k+1) tuples in both modes.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    reps = left_coset_reps(g, h)
    count = len(reps) ** (k + 1)
    if count > budget:
        raise BudgetExceeded("shift tuple enumeration", count, budget)
    mul, inv = g.lists
    cosets = [[mul[r][y] for y in h.elements] for r in reps]
    last_cosets = cosets[:1] if sup_candidates else cosets
    total = h.order ** (k + 1)
    # Both memos live for this enumeration only.  ``commuting[w]`` lists
    # the pairs (i, |C(w) ∩ r_i H|) with a nonzero count over the last
    # coordinates walked; ``values`` holds one Fraction per distinct count.
    commuting: dict[int, list[tuple[int, int]]] = {}
    values: dict[int, Fraction] = {}

    def last_stage(prefix, weights):
        counts = [0] * len(last_cosets)
        for w, cnt in weights.items():
            row = commuting.get(w)
            if row is None:
                hits = (_commuting(mul, w, c) for c in last_cosets)
                row = commuting[w] = [(i, n) for i, n in enumerate(hits) if n]
            for i, n in row:
                counts[i] += cnt * n
        for r, c in zip(reps, counts):
            value = values.get(c)
            if value is None:
                value = values[c] = Fraction(c, total)
            yield prefix + (r,), value

    def walk(prefix, weights):
        if len(prefix) == k:
            yield from last_stage(prefix, weights)
            return
        for r, coset in zip(reps, cosets):
            yield from walk(prefix + (r,), _advance(mul, inv, weights, coset))

    for r, coset in zip(reps, cosets):
        yield from walk((r,), dict.fromkeys(coset, 1))


def np_sup(
    g: GroupTable,
    h: SubgroupRef,
    k: int,
    budget: int = DEFAULT_SHIFT_BUDGET,
) -> tuple[Fraction, tuple[int, ...]]:
    """Supremum of the shifted probability over all shift tuples.

    All k+1 coordinates are maximized over coset representatives; the
    witness is the lexicographically smallest maximizing tuple.  Only the
    [G:H]^k tuples whose last coordinate is the coset H itself are
    evaluated: for every prefix that coset attains the maximum over the
    last coordinate (see the module docstring), so a lex-smallest
    maximizer always ends in it.  The budget still counts all [G:H]^(k+1)
    tuples.  Stops early once the unbeatable value 1 is reached, which
    keeps the common nilpotent case (identity witness) cheap.
    """
    best_val = Fraction(-1)
    best_tup: tuple[int, ...] = ()
    for tup, val in iter_shift_values(g, h, k, budget, sup_candidates=True):
        # values are memoised per count, so the same object is often drawn
        # again; identity implies equality and skips the Fraction compare
        if val is not best_val and val > best_val:
            best_val, best_tup = val, tup
            if val == 1:
                break
    return best_val, best_tup
