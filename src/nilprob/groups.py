"""Finite groups as validated multiplication tables, plus the built-in catalog.

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
tables by fancy indexing.  Every table (permutation closures, products,
quotients, subgroup tables and ``mul_table`` documents alike) goes
through :func:`build_from_table`, which checks the group laws exactly at
every order: shape and entry range, the identity at index 0, two-sided
inverses, and associativity by Light's test over at most log2(n) + 1
generators, O(n^2) each.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import NotAGroup, OrderExceeded, UnknownCatalogName
from .perms import Perm, identity_perm, perm_from_cycles, validate_perm

#: Largest group order for which a multiplication table may be built.
DEFAULT_ORDER_CAP = 4096

#: Table cells per block in the whole-table passes, which bounds their
#: temporaries to a few MB whatever the order.
BLOCK_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group as an immutable multiplication table.

    ``mul[a, b]`` is the index of the product and ``inv[a]`` the inverse,
    both read-only ``int32`` arrays; index 0 is the identity.
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

    @cached_property
    def lists(self) -> tuple[list[list[int]], list[int]]:
        """``(mul, inv)`` as Python lists, built once, for loops over single entries.

        Indexing the arrays entry by entry yields numpy scalars, which is
        several times slower than list indexing.  The view holds n^2
        Python ints, so whole-table work uses the arrays instead.
        """
        return self.mul.tolist(), self.inv.tolist()

    def __repr__(self) -> str:  # keep reprs short; tables can be huge
        return f"GroupTable({self.label!r}, order={self.order})"


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices covering ``range(rows)``, each of about :data:`BLOCK_CELLS` cells of ``width``."""
    step = max(1, BLOCK_CELLS // width)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


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
    for rows in row_blocks(n, n):
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
    blocks = row_blocks(n, n)
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
            for rows in row_blocks(size, size):
                reached[m[members[rows, None], members]] = True
            members = np.flatnonzero(reached)


def build_from_table(n: int, mul, label: str = "") -> GroupTable:
    """Validate a multiplication table and return the group.

    ``mul`` is an integer array or a sequence of rows; the table keeps a
    read-only ``int32`` copy.  The identity must sit at index 0.  Every
    group law is checked exactly, whatever the order.  Raises
    :class:`NotAGroup` with the violated law and a witness, or
    :class:`OrderExceeded` above the cap.
    """
    if n < 1:
        raise NotAGroup("identity", (), "order must be at least 1")
    if n > DEFAULT_ORDER_CAP:
        raise OrderExceeded(n, DEFAULT_ORDER_CAP)
    m = _as_array(n, mul)
    inv = _inverses(m)
    _check_associativity(m)
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
    (or the table cap, if that is lower).

    The closure is a breadth-first search under right multiplication by
    the generators, which records each element e as (parent) * s and the
    maps R_s: i -> index of (element i) * s.  Column e of the table is
    then one gather, ``a*e = (a*parent)*s = R_s[a*parent]``, taken in
    search order so the parent's column is always ready.
    """
    perms = [validate_perm(g) for g in gens]
    if not perms:
        raise ValueError("at least one generator is required")
    degree = len(perms[0])
    for p in perms:
        if len(p) != degree:
            raise ValueError("generators must share one degree")
    cap = min(max_order, DEFAULT_ORDER_CAP)

    # Elements are kept as the bytes of their big-endian image arrays,
    # which compare like the image tuples, so they also give the order.
    gen_arrays = [np.array(p, dtype=">i4") for p in perms]
    elements = [np.arange(degree, dtype=">i4").tobytes()]
    index = {elements[0]: 0}
    parent, via = [0], [0]
    right: list[list[int]] = [[] for _ in gen_arrays]
    for i, key in enumerate(elements):  # the list grows as the search runs
        p = np.frombuffer(key, dtype=">i4")
        for s, gen in enumerate(gen_arrays):
            q = gen[p].tobytes()
            j = index.get(q)
            if j is None:
                j = index[q] = len(elements)
                if j >= cap:
                    raise OrderExceeded(j + 1, cap)
                elements.append(q)
                parent.append(i)
                via.append(s)
            right[s].append(j)
    del index

    n = len(elements)
    order = np.array(sorted(range(n), key=elements.__getitem__), dtype=np.int32)
    del elements
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    right_sorted = rank[np.array(right, dtype=np.int32)[:, order]]
    rank_of = rank.tolist()

    cols = np.empty((n, n), dtype=np.int32)
    cols[0] = np.arange(n, dtype=np.int32)
    for e in range(1, n):
        np.take(right_sorted[via[e]], cols[rank_of[parent[e]]], out=cols[rank_of[e]])
    return build_from_table(n, cols.T, label or f"perm group of degree {degree}")


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
#   S(n)     <(0 1), (0 1 .. n-1)>, n <= 8.
#   A(n)     <(0 1 2), n-cycle (n odd) or (n-1)-cycle on 1..n-1 (n even)>,
#            n <= 8.
#   Heis(p)  unitriangular 3x3 matrices over F_p (p in {2, 3, 5}) acting on
#            the p^3 column vectors.
#   SL(2,3)  determinant-1 2x2 matrices over F_3 acting on the 9 vectors.
#
# Product expressions combine names with "x", e.g. "S(3)xS(3)"; the table
# is the direct_product of the factors, left-associated.


def _cyclic_gens(n: int) -> tuple[int, list[Perm]]:
    if n < 1:
        raise UnknownCatalogName(f"cyclic order must be >= 1, got {n}")
    if n == 1:
        return 1, [identity_perm(1)]
    return n, [perm_from_cycles(n, [list(range(n))])]


def _dihedral_gens(order: int) -> tuple[int, list[Perm]]:
    if order % 2 != 0 or order < 2:
        raise UnknownCatalogName(f"dihedral order must be even and >= 2, got {order}")
    n = order // 2
    if n == 1:
        return 2, [perm_from_cycles(2, [[0, 1]])]
    if n == 2:
        return 4, [perm_from_cycles(4, [[0, 1]]), perm_from_cycles(4, [[2, 3]])]
    rot = perm_from_cycles(n, [list(range(n))])
    ref = [(n - i) % n for i in range(n)]
    return n, [rot, ref]


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
    gens = [perm_from_cycles(n, [[0, 1, 2]])]
    if n % 2 == 1:
        gens.append(perm_from_cycles(n, [list(range(n))]))
    else:
        gens.append(perm_from_cycles(n, [list(range(1, n))]))
    return n, gens


def _heisenberg_gens(p: int) -> tuple[int, list[Perm]]:
    if p not in (2, 3, 5):
        raise UnknownCatalogName(f"Heis(p) is provided for p in {{2, 3, 5}}, got {p}")

    def matrix_perm(m: list[list[int]]) -> Perm:
        out = [0] * (p ** 3)
        for v0 in range(p):
            for v1 in range(p):
                for v2 in range(p):
                    v = (v0, v1, v2)
                    w = [sum(m[r][c] * v[c] for c in range(3)) % p for r in range(3)]
                    out[v0 * p * p + v1 * p + v2] = w[0] * p * p + w[1] * p + w[2]
        return out

    x = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    y = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    return p ** 3, [matrix_perm(x), matrix_perm(y)]


def _sl23_gens() -> tuple[int, list[Perm]]:
    def matrix_perm(m: tuple[int, int, int, int]) -> Perm:
        out = [0] * 9
        for v0 in range(3):
            for v1 in range(3):
                w0 = (m[0] * v0 + m[1] * v1) % 3
                w1 = (m[2] * v0 + m[3] * v1) % 3
                out[3 * v0 + v1] = 3 * w0 + w1
        return out

    return 9, [matrix_perm((0, 2, 1, 0)), matrix_perm((1, 1, 0, 1))]


def _parse_int_arg(name: str, prefix: str) -> int:
    body = name[len(prefix) : -1]
    try:
        return int(body)
    except ValueError:
        raise UnknownCatalogName(f"bad argument in catalog name {name!r}") from None


def catalog_generators(name: str) -> tuple[int, list[Perm], str]:
    """Degree, permutation generators, and canonical label for a catalog name.

    Product expressions embed the factors on a disjoint union of points.
    """
    name = name.strip()
    if "x" in name:
        gens_out: list[Perm] = []
        labels = []
        parts = name.split("x")
        parts_data = [catalog_generators(part) for part in parts]
        total = sum(d for d, _, _ in parts_data)
        offset = 0
        for d, gens, lab in parts_data:
            for g in gens:
                embedded = list(range(total))
                for i, gi in enumerate(g):
                    embedded[offset + i] = offset + gi
                gens_out.append(embedded)
            labels.append(lab)
            offset += d
        return total, gens_out, "x".join(labels)

    if name.startswith("C(") and name.endswith(")"):
        degree, gens = _cyclic_gens(_parse_int_arg(name, "C("))
        return degree, gens, name
    if name.startswith("D(") and name.endswith(")"):
        degree, gens = _dihedral_gens(_parse_int_arg(name, "D("))
        return degree, gens, name
    if name == "Q8":
        degree, gens = _dicyclic_gens(2)
        return degree, gens, "Q8"
    if name.startswith("Dic(") and name.endswith(")"):
        degree, gens = _dicyclic_gens(_parse_int_arg(name, "Dic("))
        return degree, gens, name
    if name.startswith("S(") and name.endswith(")"):
        degree, gens = _symmetric_gens(_parse_int_arg(name, "S("))
        return degree, gens, name
    if name.startswith("A(") and name.endswith(")"):
        degree, gens = _alternating_gens(_parse_int_arg(name, "A("))
        return degree, gens, name
    if name.startswith("Heis(") and name.endswith(")"):
        degree, gens = _heisenberg_gens(_parse_int_arg(name, "Heis("))
        return degree, gens, name
    if name == "SL(2,3)":
        degree, gens = _sl23_gens()
        return degree, gens, name
    raise UnknownCatalogName(f"unknown catalog name {name!r}")


def catalog_get(name: str, max_order: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Build the named catalog group (product expressions allowed)."""
    name = name.strip()
    if "x" in name:
        parts = name.split("x")
        table = catalog_get(parts[0], max_order)
        for part in parts[1:]:
            table = direct_product(table, catalog_get(part, max_order), max_order)
        return table
    _, gens, label = catalog_generators(name)
    return build_from_perm_gens(gens, label, max_order)


def catalog_base_names(max_order: Optional[int] = None) -> list[str]:
    """All non-product catalog names, optionally capped by group order."""
    names: list[tuple[int, str]] = []
    names += [(n, f"C({n})") for n in range(1, 65)]
    names += [(m, f"D({m})") for m in range(2, 65, 2)]
    names.append((8, "Q8"))
    names += [(4 * n, f"Dic({n})") for n in range(1, 17)]
    facts = [1, 2, 6, 24, 120, 720, 5040, 40320]
    names += [(facts[n - 1], f"S({n})") for n in range(1, 9)]
    alt = [1, 1, 3, 12, 60, 360, 2520, 20160]
    names += [(alt[n - 1], f"A({n})") for n in range(1, 9)]
    names += [(p ** 3, f"Heis({p})") for p in (2, 3, 5)]
    names.append((24, "SL(2,3)"))
    if max_order is not None:
        names = [(o, n) for o, n in names if o <= max_order]
    return [n for _, n in sorted(names, key=lambda t: (t[0], t[1]))]


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
        mul = obj["mul"]
        if not isinstance(mul, list) or not all(isinstance(row, list) for row in mul):
            raise NotAGroup("identity", (), "mul must be a list of rows, each a list")
        if len(mul) > max_order:
            raise OrderExceeded(len(mul), max_order)
        return build_from_table(len(mul), mul, label)
    if kind == "perm_gens":
        return build_from_perm_gens(definition_field(obj, "gens", list), label, max_order)
    if kind == "product":
        factors = [group_from_definition(f, max_order)
                   for f in definition_field(obj, "factors", list)]
        if not factors:
            raise ValueError("product definition needs at least one factor")
        table = factors[0]
        for f in factors[1:]:
            table = direct_product(table, f, max_order)
        if label:
            table = replace(table, label=label)
        return table
    if kind == "catalog":
        table = catalog_get(definition_field(obj, "name", str), max_order)
        if label:
            table = replace(table, label=label)
        return table
    raise ValueError(f"unknown group definition kind {kind!r}")


def group_to_definition(g: GroupTable) -> dict:
    """A ``mul_table`` definition that reconstructs the identical table."""
    return {
        "label": g.label,
        "kind": "mul_table",
        "mul": g.mul.tolist(),
    }
