"""Finite groups as multiplication tables, plus the built-in catalog.

Element indices run from 0 to ``order - 1`` and index 0 is always the
identity.  For groups built from permutation generators the remaining
elements are sorted by their image arrays, so tables are reproducible
across runs.  The group operation for permutation-built groups is
``compose(p, q)`` ("apply p, then q") from :mod:`nilprob.perms`.
The results cache keys a table by ``GroupTable.table_hash``, the sha256
of its ``int32`` bytes, computed on first use.

A table is one read-only C-contiguous ``int32`` array, and every builder
fills it by index arithmetic on arrays: permutation closures by one
gather per element, products by broadcasting, quotients and subgroup
tables by fancy indexing.  Every table goes through
:func:`build_from_table`, the single constructor, which trusts its
input: permutation closures, products, quotients and subgroup tables are
groups by construction.  Untrusted input, a ``mul_table`` document, is
checked exactly at every order by :func:`validate_table` first: shape
and entry range, the identity at index 0, two-sided inverses, and
associativity by Light's test over at most log2(n) + 1 generators,
O(n^2) each.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce
from typing import Optional, Sequence, TextIO

import numpy as np

from .errors import NotAGroup, OrderExceeded, UnknownCatalogName
from .perms import Perm, identity_perm, perm_from_cycles, perm_order, row_blocks, validate_perm

#: Largest group order for which a multiplication table may be built.
DEFAULT_ORDER_CAP = 4096

#: Table cells per block in the whole-table passes, which bounds their
#: temporaries to a few MB whatever the order.
BLOCK_CELLS = 1 << 18

#: Cells per block of the backward pass, which holds ``int64`` counts per
#: cell, a quarter MB of them; blocks of BLOCK_CELLS raised ``np_sup``'s
#: peak RSS at order 144 by 2 MB.  An untwisted count takes the class
#: route above one such block of first-stage cells.
COUNT_BLOCK_CELLS = BLOCK_CELLS // 8


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group as an immutable multiplication table.

    ``mul[a, b]`` is the index of the product and ``inv[a]`` the inverse,
    both read-only ``int32`` arrays; index 0 is the identity.  There is no
    other representation; only the brute-force oracle copies them to lists.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    label: str

    @cached_property
    def table_hash(self) -> str:
        """sha256 of the table's little-endian ``int32`` bytes (label excluded), the cache key.

        Computed on first use, so tables that are never keyed are never hashed.
        """
        return hashlib.sha256(self.mul.astype("<i4", copy=False)).hexdigest()

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:  # keep reprs short; tables can be huge
        return f"GroupTable({self.label!r}, order={self.order})"


def _as_array(n: int, mul) -> np.ndarray:
    """A C-contiguous ``int32`` copy of the table, after checking its shape and entries.

    Entries must be read by numpy as integers: floats, booleans, strings
    and integers beyond 64 bits are rejected, not converted.
    """
    if len(mul) != n:
        raise NotAGroup("identity", (), f"table has {len(mul)} rows, order is {n}")
    for i, row in enumerate(mul):
        if len(row) != n:
            raise NotAGroup("identity", (i,), "row length differs from order")
    try:
        wide = np.asarray(mul)
    except (TypeError, ValueError, OverflowError):
        wide = None
    if wide is None or wide.ndim != 2 or wide.dtype.kind not in "iu":
        raise NotAGroup("identity", (), f"entries must be integers from 0 to {n - 1}")
    if wide.min() < 0 or wide.max() >= n:
        i, j = np.argwhere((wide < 0) | (wide >= n))[0]
        raise NotAGroup("identity", (int(i), int(wide[i, j])), "entry out of range")
    return np.array(wide, dtype=np.int32, order="C")


def _inverses(m: np.ndarray) -> np.ndarray:
    """``inv[g]``, the least h with gh = hg = 0, after checking the identity."""
    n = len(m)
    elements = np.arange(n)
    bad = (m[0] != elements) | (m[:, 0] != elements)
    if bad.any():
        g = int(np.argmax(bad))
        raise NotAGroup("identity", (0, g) if m[0, g] != g else (g, 0))
    inv = np.empty(n, dtype=np.int32)
    for rows in row_blocks(n, n, BLOCK_CELLS):
        two_sided = (m[rows] == 0) & (m[:, rows].T == 0)
        missing = ~two_sided.any(axis=1)
        if missing.any():
            raise NotAGroup("inverse", (rows.start + int(np.argmax(missing)),))
        inv[rows] = two_sided.argmax(axis=1)
    return inv


def _check_associativity(m: np.ndarray) -> None:
    """Light's associativity test over a greedily chosen generating set.

    If ``(x*g)*y == x*(g*y)`` for all x, y and every g of a set S, the
    same holds for every product of elements of S; so when S generates
    the table, the operation is associative (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, section 1.2).  The next generator
    is the least element that is not a product of the earlier ones, and
    it is tested before the products are extended.  Tested elements with
    inverses generate a subgroup, which at least doubles with each
    generator, so at most log2(n) + 1 generators are tested, at O(n^2)
    each, whatever the table.
    """
    n = len(m)
    blocks = row_blocks(n, n, BLOCK_CELLS)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    size = 1
    while size < n:
        g = int(np.argmin(reached))
        g_row = m[g]
        for rows in blocks:
            # row x of each side: (x*g)*y and x*(g*y) over all y
            block = m[rows]
            bad = m[block[:, g]] != block[:, g_row]
            if bad.any():
                x, y = np.argwhere(bad)[0]
                raise NotAGroup("associativity", (rows.start + int(x), g, int(y)))
        # close the tested elements under products, squaring the set
        reached[g] = True
        members = np.flatnonzero(reached)
        while members.size > size:
            size = members.size
            for rows in row_blocks(size, size, BLOCK_CELLS):
                reached[m[members[rows, None], members]] = True
            members = np.flatnonzero(reached)


def _check_order(n: int) -> None:
    if n < 1:
        raise NotAGroup("identity", (), "order must be at least 1")
    if n > DEFAULT_ORDER_CAP:
        raise OrderExceeded(n, DEFAULT_ORDER_CAP)


def validate_table(n: int, mul) -> np.ndarray:
    """Check that ``mul`` is the table of a group of order ``n``; return it as a fresh array.

    ``mul`` is an integer array or a sequence of rows, from an untrusted
    source.  The identity must sit at index 0.  Every group law is checked
    exactly, whatever the order.  Returns a C-contiguous ``int32`` copy.
    Raises :class:`NotAGroup` with the violated law and a witness, or
    :class:`OrderExceeded` above the cap.
    """
    _check_order(n)
    m = _as_array(n, mul)
    _inverses(m)
    _check_associativity(m)
    return m


def build_from_table(n: int, mul, label: str = "") -> GroupTable:
    """The group with multiplication table ``mul``, which must already be a group table.

    This is the constructor every builder calls.  It checks only the
    order; the group laws are the caller's guarantee, so a table from an
    untrusted source goes through :func:`validate_table` first.  A
    C-contiguous ``int32`` array is kept as it is, without a copy, and is
    made read-only; anything else is copied.  The inverse of g is the
    least h with gh = 0, found in one pass over the rows.  Raises
    :class:`OrderExceeded` above the cap.
    """
    _check_order(n)
    m = np.ascontiguousarray(mul, dtype=np.int32)
    inv = np.empty(n, dtype=np.int32)
    for rows in row_blocks(n, n, BLOCK_CELLS):
        inv[rows] = (m[rows] == 0).argmax(axis=1)
    m.flags.writeable = False
    inv.flags.writeable = False
    return GroupTable(
        order=n,
        mul=m,
        inv=inv,
        label=label or f"order-{n} group",
    )


def build_from_perm_gens(
    gens: Sequence[Sequence[int]],
    label: str = "",
    max_order: int = DEFAULT_ORDER_CAP,
) -> GroupTable:
    """Enumerate the closure of permutation generators and build its table.

    Elements are sorted by image array (which puts the identity first) and
    the table entry for (i, j) is the index of ``compose(p_i, p_j)``.
    Raises :class:`OrderExceeded` once the closure passes ``max_order``
    (or the table cap, if that is lower), and before the search when a
    generator's own order already does.

    The closure is a breadth-first search under left multiplication by
    the generators, which records each element e as s * (parent) and the
    maps L_s: i -> index of s * (element i).  Row e of the table is then
    one gather, ``e*a = s*(parent*a) = L_s[parent*a]``, taken in search
    order so the parent's row is always ready.  The rows are filled in
    place, so the table is handed over without a transpose or a copy.
    """
    perms = [validate_perm(g) for g in gens]
    if not perms:
        raise ValueError("at least one generator is required")
    degree = len(perms[0])
    cap = min(max_order, DEFAULT_ORDER_CAP)
    for p in perms:
        if len(p) != degree:
            raise ValueError("generators must share one degree")
        if (o := perm_order(p)) > cap:  # the group order is a multiple of o
            raise OrderExceeded(o, cap)

    # Elements are kept as the bytes of their big-endian image arrays,
    # which compare like the image tuples, so they also give the order.
    gen_arrays = [np.array(p, dtype=">i4") for p in perms]
    elements = [np.arange(degree, dtype=">i4").tobytes()]
    index = {elements[0]: 0}
    parent, via = [0], [0]
    left: list[list[int]] = [[] for _ in gen_arrays]
    for i, key in enumerate(elements):  # the list grows as the search runs
        p = np.frombuffer(key, dtype=">i4")
        for s, gen in enumerate(gen_arrays):
            q = p[gen].tobytes()  # s * p, which applies s first
            j = index.get(q)
            if j is None:
                j = index[q] = len(elements)
                if j >= cap:
                    raise OrderExceeded(j + 1, cap)
                elements.append(q)
                parent.append(i)
                via.append(s)
            left[s].append(j)
    del index

    n = len(elements)
    order = np.array(sorted(range(n), key=elements.__getitem__), dtype=np.int32)
    del elements
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    left_sorted = rank[np.array(left, dtype=np.int32)[:, order]]
    rank_of = rank.tolist()

    mul = np.empty((n, n), dtype=np.int32)
    mul[0] = np.arange(n, dtype=np.int32)
    for e in range(1, n):
        np.take(left_sorted[via[e]], mul[rank_of[parent[e]]], out=mul[rank_of[e]])
    return build_from_table(n, mul, label or f"perm group of degree {degree}")


def direct_product(a: GroupTable, b: GroupTable, max_order: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Componentwise product; (g, h) gets index ``g * |b| + h``."""
    n = a.order * b.order
    cap = min(max_order, DEFAULT_ORDER_CAP)
    if n > cap:
        raise OrderExceeded(n, cap)
    nb = b.order
    mul = a.mul[:, None, :, None] * nb + b.mul[None, :, None, :]
    return build_from_table(n, mul.reshape(n, n), f"{a.label}x{b.label}")


# -- catalog ------------------------------------------------------------------
#
# Every named group is defined by fixed permutation generators, so element
# orderings (and therefore every downstream report) are reproducible:
#
#   C(n)     n-cycle (0 1 .. n-1), n >= 1; C(1) is the trivial group on one
#            point.
#   D(m)     dihedral of order m (m even): rotation (0 .. m/2-1) and the
#            reflection i -> -i mod m/2.  D(2) is <(0 1)>, D(4) is
#            <(0 1), (2 3)>.
#   Q8       alias for Dic(2).
#   Dic(n)   dicyclic of order 4n in its regular action on 4n points:
#            a cycles {0..2n-1} and {2n..4n-1}; b maps i -> 2n + (2n - i),
#            2n + i -> (n - i), indices mod 2n.
#   S(n)     <(0 1), (0 1 .. n-1)>.
#   A(n)     <(0 1 2), n-cycle (n odd) or (n-1)-cycle on 1..n-1 (n even)>.
#   Heis(p)  unitriangular 3x3 matrices over F_p acting on the p^3 vectors.
#   SL(2,3)  determinant-1 2x2 matrices over F_3 acting on the 9 vectors.
#
# Product expressions combine names with "x", e.g. "S(3)xS(3)"; the table
# is the direct_product of the factors, left-associated.


def _cyclic_gens(n: int) -> tuple[int, list[Perm]]:
    if n < 1:
        raise UnknownCatalogName(f"cyclic order must be >= 1, got {n}")
    return n, [perm_from_cycles(n, [list(range(n))])]


def _dihedral_gens(order: int) -> tuple[int, list[Perm]]:
    if order % 2 != 0 or order < 2:
        raise UnknownCatalogName(f"dihedral order must be even and >= 2, got {order}")
    n = order // 2
    if n == 1:
        return 2, [perm_from_cycles(2, [[0, 1]])]
    if n == 2:
        return 4, [perm_from_cycles(4, [[0, 1]]), perm_from_cycles(4, [[2, 3]])]
    return n, [perm_from_cycles(n, [list(range(n))]), [(n - i) % n for i in range(n)]]


def _dicyclic_gens(n: int) -> tuple[int, list[Perm]]:
    if n < 1:
        raise UnknownCatalogName(f"dicyclic parameter must be >= 1, got {n}")
    m = 2 * n
    a = perm_from_cycles(4 * n, [list(range(m)), list(range(m, 2 * m))])
    b = [0] * (4 * n)
    for i in range(m):
        b[i] = m + (m - i) % m
        b[m + i] = (n - i) % m
    return 4 * n, [a, b]


def _symmetric_gens(n: int) -> tuple[int, list[Perm]]:
    if not 1 <= n <= 8:
        raise UnknownCatalogName(f"S(n) is provided for 1 <= n <= 8, got {n}")
    if n == 1:
        return 1, [identity_perm(1)]
    gens = [perm_from_cycles(n, [[0, 1]])]
    if n > 2:
        gens.append(perm_from_cycles(n, [list(range(n))]))
    return n, gens


def _alternating_gens(n: int) -> tuple[int, list[Perm]]:
    if not 1 <= n <= 8:
        raise UnknownCatalogName(f"A(n) is provided for 1 <= n <= 8, got {n}")
    if n <= 2:
        return max(n, 1), [identity_perm(max(n, 1))]
    if n == 3:
        return 3, [perm_from_cycles(3, [[0, 1, 2]])]
    cycle = list(range(n)) if n % 2 else list(range(1, n))
    return n, [perm_from_cycles(n, [[0, 1, 2]]), perm_from_cycles(n, [cycle])]


def _heisenberg_gens(p: int) -> tuple[int, list[Perm]]:
    if p not in (2, 3, 5):
        raise UnknownCatalogName(f"Heis(p) is provided for p in {{2, 3, 5}}, got {p}")
    x = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    y = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    return p ** 3, [_matrix_perm(x, p), _matrix_perm(y, p)]


def _sl23_gens() -> tuple[int, list[Perm]]:
    return 9, [_matrix_perm([[0, 2], [1, 0]], 3), _matrix_perm([[1, 1], [0, 1]], 3)]


def _matrix_perm(m: Sequence[Sequence[int]], p: int) -> Perm:
    """The matrix ``m`` over F_p acting on column vectors, as a permutation.

    Vectors are numbered in base p, first entry most significant.
    """
    vectors = list(itertools.product(range(p), repeat=len(m)))
    number = {v: i for i, v in enumerate(vectors)}
    return [number[tuple(sum(a * x for a, x in zip(row, v)) % p for row in m)] for v in vectors]


#: Catalog families: name prefix -> (generators for the parameter, the
#: parameters ``catalog_base_names`` lists, the group order).
_FAMILIES = {
    "C(": (_cyclic_gens, range(1, 65), lambda n: n),
    "D(": (_dihedral_gens, range(2, 65, 2), lambda m: m),
    "Dic(": (_dicyclic_gens, range(1, 17), lambda n: 4 * n),
    "S(": (_symmetric_gens, range(1, 9), math.factorial),
    "A(": (_alternating_gens, range(1, 9), lambda n: max(1, math.factorial(n) // 2)),
    "Heis(": (_heisenberg_gens, (2, 3, 5), lambda p: p ** 3),
}

#: Catalog names without a parameter: name -> (generators, group order).
_NAMED = {
    "Q8": (partial(_dicyclic_gens, 2), 8),
    "SL(2,3)": (_sl23_gens, 24),
}


def _catalog_part(name: str) -> tuple[int, list[Perm], str]:
    """Degree, generators and label of one non-product catalog name."""
    name = name.strip()
    if name in _NAMED:
        return (*_NAMED[name][0](), name)
    for prefix, (gens, _, _) in _FAMILIES.items():
        if name.startswith(prefix) and name.endswith(")"):
            try:
                arg = int(name[len(prefix) : -1])
            except ValueError:
                raise UnknownCatalogName(f"bad argument in catalog name {name!r}") from None
            return (*gens(arg), name)
    raise UnknownCatalogName(f"unknown catalog name {name!r}")


def catalog_generators(name: str) -> tuple[int, list[Perm], str]:
    """Degree, permutation generators, and canonical label for a catalog name.

    Product expressions embed the factors on a disjoint union of points.
    """
    parts = [_catalog_part(part) for part in name.strip().split("x")]
    total = sum(d for d, _, _ in parts)
    gens_out: list[Perm] = []
    offset = 0
    for d, gens, _ in parts:
        # the factor moves the points offset .. offset + d - 1 and fixes the rest
        gens_out += [[*range(offset), *(offset + x for x in g), *range(offset + d, total)]
                     for g in gens]
        offset += d
    return total, gens_out, "x".join(label for _, _, label in parts)


def catalog_get(name: str, max_order: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Build the named catalog group (product expressions allowed)."""
    factors = (build_from_perm_gens(gens, label, max_order)
               for _, gens, label in map(_catalog_part, name.strip().split("x")))
    return reduce(lambda a, b: direct_product(a, b, max_order), factors)


def catalog_base_names(max_order: Optional[int] = None) -> list[str]:
    """All non-product catalog names, optionally capped by group order."""
    names = [(order(p), f"{prefix}{p})")
             for prefix, (_, params, order) in _FAMILIES.items() for p in params]
    names += [(order, name) for name, (_, order) in _NAMED.items()]
    return [n for o, n in sorted(names) if max_order is None or o <= max_order]


# -- group-definition JSON ----------------------------------------------------

def definition_field(obj: dict, key: str, kind: type, default=None):
    """``obj[key]`` (or ``default`` when absent), after checking it is a ``kind``."""
    value = obj.get(key, default)
    if not isinstance(value, kind):
        raise ValueError(f"{key!r} must be a {kind.__name__}, got {value!r}")
    return value


def group_from_definition(obj: dict, max_order: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Build a group from a definition document.

    The document is ``{"label": str, "kind": ..., <payload>}`` with kinds
    ``mul_table`` ("mul": row-major matrix), ``perm_gens`` ("gens": list of
    image arrays), ``product`` ("factors": list of nested definitions) and
    ``catalog`` ("name": catalog key).
    """
    if not isinstance(obj, dict):
        raise ValueError("group definition must be a JSON object")
    kind = obj.get("kind")
    label = definition_field(obj, "label", str, "")
    if kind == "mul_table":
        mul = definition_field(obj, "mul", list)
        if not all(isinstance(row, list) for row in mul):
            raise NotAGroup("identity", (), "mul must be a list of rows, each a list")
        n = len(mul)
        if n > max_order:
            raise OrderExceeded(n, max_order)
        table = build_from_table(n, validate_table(n, mul))
    elif kind == "perm_gens":
        table = build_from_perm_gens(definition_field(obj, "gens", list), max_order=max_order)
    elif kind == "product":
        factors = [group_from_definition(f, max_order)
                   for f in definition_field(obj, "factors", list)]
        if not factors:
            raise ValueError("product definition needs at least one factor")
        table = reduce(lambda a, b: direct_product(a, b, max_order), factors)
    elif kind == "catalog":
        table = catalog_get(definition_field(obj, "name", str), max_order)
    else:
        raise ValueError(f"unknown group definition kind {kind!r}")
    return replace(table, label=label) if label else table


def group_to_definition(g: GroupTable) -> dict:
    """A ``mul_table`` definition that reconstructs the identical table."""
    return {"label": g.label, "kind": "mul_table", "mul": g.mul.tolist()}


def write_definition(fh: TextIO, g: GroupTable) -> None:
    """``json.dumps(group_to_definition(g), sort_keys=True)`` and a newline, a row at a time.

    The table is never held as Python ints, only one row of them.
    """
    fh.write(f'{{"kind": "mul_table", "label": {json.dumps(g.label)}, "mul": [')
    sep = ""
    for row in g.mul:
        fh.write(sep + json.dumps(row.tolist()))
        sep = ", "
    fh.write("]}\n")
