"""Reference values computed without nilprob, for checking the benchmark's constants.

Groups are built here from their own multiplication rules, not from
nilprob's permutation catalog: a dihedral group of order 2n is the set of
pairs (a, f) with a mod n and f in {0, 1}, multiplied as
(a, f)(b, g) = (a + (-1)^f b, f xor g); a symmetric group is its
permutation tuples under composition; a direct product is pairs.
np_k is counted exactly over all (k+1)-tuples, one coordinate at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def dihedral(order: int) -> tuple[list, callable]:
    n = order // 2
    elements = [(a, f) for f in (0, 1) for a in range(n)]
    return elements, lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % n, x[1] ^ y[1])


def symmetric(n: int) -> tuple[list, callable]:
    return (list(itertools.permutations(range(n))),
            lambda p, q: tuple(q[p[i]] for i in range(n)))


def product(a: tuple[list, callable], b: tuple[list, callable]) -> tuple[list, callable]:
    (ea, ma), (eb, mb) = a, b
    return ([(x, y) for x in ea for y in eb],
            lambda u, v: (ma(u[0], v[0]), mb(u[1], v[1])))


def np_brute(group: tuple[list, callable], k: int) -> Fraction:
    """Share of (k+1)-tuples whose left-normed commutator is the identity."""
    elements, mul = group
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    table = [[index[mul(x, y)] for y in elements] for x in elements]
    e = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    inv = [next(j for j in range(n) if table[i][j] == e) for i in range(n)]

    def comm(a: int, b: int) -> int:
        return table[table[table[inv[a]][inv[b]]][a]][b]

    # counts[c] = number of m-tuples with left-normed commutator c
    counts = [1] * n
    for _ in range(k):
        nxt = [0] * n
        for w, cnt in enumerate(counts):
            if cnt:
                for t in range(n):
                    nxt[comm(w, t)] += cnt
        counts = nxt
    return Fraction(counts[e], n ** (k + 1))


def partitions(n: int) -> int:
    """Number of partitions of n, by the standard coin-change recurrence."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def cp_symmetric(n: int) -> Fraction:
    """cp(S(n)) = (number of conjugacy classes) / n! = p(n) / n!."""
    return Fraction(partitions(n), math.factorial(n))
