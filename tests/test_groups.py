"""Group table construction, validation, and the catalog."""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from nilprob import groups
from nilprob.errors import NotAGroup, OrderExceeded, UnknownCatalogName
from nilprob.groups import (
    build_from_perm_gens,
    build_from_table,
    catalog_base_names,
    catalog_generators,
    catalog_get,
    direct_product,
    group_from_definition,
    group_to_definition,
    validate_table,
)
from nilprob.perms import schreier_sims


def element_order(g, x):
    acc, n = x, 1
    while acc != 0:
        acc = g.mul[acc][x]
        n += 1
    return n


def census(g):
    return dict(Counter(element_order(g, x) for x in g.elements()))


def assert_real_witness(mul, exc):
    """An associativity witness (a, b, c) must really violate the law."""
    if exc.law == "associativity":
        a, b, c = exc.witness
        assert mul[mul[a][b]][c] != mul[a][mul[b][c]]


def test_trivial_group():
    g = build_from_table(1, [[0]], "trivial")
    assert g.order == 1
    assert g.inv == (0,)


def test_c2_from_table():
    g = build_from_table(2, [[0, 1], [1, 0]])
    assert g.order == 2
    assert g.mul[1][1] == 0


def test_rejects_associativity_violation():
    with pytest.raises(NotAGroup) as exc:
        validate_table(3, [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    assert exc.value.law == "associativity"
    assert_real_witness([[0, 1, 2], [1, 0, 2], [2, 2, 0]], exc.value)


def test_rejects_bad_identity():
    with pytest.raises(NotAGroup) as exc:
        validate_table(2, [[1, 0], [0, 1]])
    assert exc.value.law == "identity"


def test_rejects_missing_inverse():
    # left-zero semigroup row for element 1 kills the inverse
    with pytest.raises(NotAGroup):
        validate_table(3, [[0, 1, 2], [1, 1, 1], [2, 2, 2]])


def test_randomized_associativity_check_used_above_limit():
    # Order 300 is above the old exhaustive limit of 256, where only a
    # random sample of triples was checked.  Identity and inverses hold,
    # so the exact associativity test must reject the table every time.
    n = 300
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul[7][5] = 6  # break associativity somewhere off the identity row
    with pytest.raises(NotAGroup) as exc:
        validate_table(n, mul)
    assert exc.value.law == "associativity"
    assert_real_witness(mul, exc.value)


@pytest.mark.parametrize("name", ["S(4)", "Q8", "D(8)xC(2)"])
def test_every_swap_in_a_row_is_rejected(name):
    # Swapping two entries of a row leaves a repeated entry in a column,
    # so no such table is a group, whichever law the check trips on.
    g = catalog_get(name)
    for row in range(1, g.order):
        for a in range(1, g.order):
            for b in range(a + 1, g.order):
                mul = [list(r) for r in g.mul]
                mul[row][a], mul[row][b] = mul[row][b], mul[row][a]
                with pytest.raises(NotAGroup) as exc:
                    validate_table(g.order, mul)
                assert_real_witness(mul, exc.value)


@pytest.mark.parametrize(
    "n,mul,law,witness",
    [
        (2, [[0, 1]], "identity", ()),
        (2, [[0, 1], [1]], "identity", (1,)),
        (2, [[0, 1], [1, 2]], "identity", (1, 2)),
        (2, [[0, 1], [-1, 0]], "identity", (1, -1)),
        (2, [[0, 1], [1, 2 ** 70]], "identity", ()),
        (2, [[0, 1], [1, "x"]], "identity", ()),
        (2, [[0, [1]], [1, 0]], "identity", ()),
        (3, [[0, 2, 1], [1, 0, 2], [2, 1, 0]], "identity", (0, 1)),
        (3, [[0, 1, 2], [1, 0, 2], [1, 2, 0]], "identity", (2, 0)),
        # entries are never converted: 0.5 used to be read as 0, which made C(2)
        (2, [[0, 1], [1, 0.5]], "identity", ()),
        (2, [[0.0, 1.0], [1.0, 0.0]], "identity", ()),
        (2, [[False, True], [True, False]], "identity", ()),
        (2, np.array([[0, 1], [1, 0]], dtype=float), "identity", ()),
    ],
)
def test_rejects_malformed_tables(n, mul, law, witness):
    with pytest.raises(NotAGroup) as exc:
        validate_table(n, mul)
    assert (exc.value.law, exc.value.witness) == (law, witness)


def test_table_hash_is_stable():
    # cache keys: a change here needs a cache.SCHEMA_VERSION bump.  The
    # pins are the sha256 of each table's little-endian int32 bytes, so
    # they also fix the element order of permutation closures.
    pins = {
        "S(3)": "20149021346e78e4c62a0b835df1fe58599f1d6da2786ae7db18fcd626ff517a",
        "D(8)xC(2)": "30bea3ed54b3f8c354894e7dc17b421ce264de2630b46ccf2a264034c76b37b9",
        "C(64)": "de348af8f4b3379164358a6c253ba2673193d949760823cb8121f4c21b9a5dac",
        "D(64)": "0979d3767086a961bca758287f3d6c7086aba5534ad6b559292cd95569857d3a",
        "Dic(16)": "f25a1120c338ab7bf6261d81ae28c7355bc2cae6212007064363c8b671e7fe2e",
        "Heis(5)": "f9098ff730e5c4b41f5cad03f3f86ef536ed2d8a974b617e485dbd8f0db8d4c4",
        "SL(2,3)": "d0262b13d86295f3673da0f5065b9db4a3a2e05d1760ba42be8a28c11a3b565a",
        "A(5)": "931b73c5daa041efe10a5bf2d55602a743dcf5aee1293170a8005d94db09e71f",
        "S(5)": "1f2968875db1f451948da5acc21eaf65bd4617e521c696b98a4fe950e1e6099e",
    }
    for name, digest in pins.items():
        assert catalog_get(name).table_hash == digest, name


def test_product_factors_are_never_hashed(monkeypatch):
    # the hash is computed on first use, and only the product is keyed
    factors = []

    def recording_product(a, b, max_order=groups.DEFAULT_ORDER_CAP):
        factors.extend((a, b))
        return direct_product(a, b, max_order)

    monkeypatch.setattr(groups, "direct_product", recording_product)
    g = catalog_get("D(8)xC(2)")
    assert g.table_hash == catalog_get("D(8)xC(2)").table_hash
    assert [t.label for t in factors] == ["D(8)", "C(2)"] * 2
    assert all("table_hash" not in vars(t) for t in factors)


def test_relabelled_copy_has_the_same_hash():
    # group_from_definition relabels with dataclasses.replace; the cached
    # hash is not a field, so the copy computes it again from the table
    plain = catalog_get("S(3)")
    digest = plain.table_hash
    relabelled = dataclasses.replace(plain, label="Sym3")
    assert "table_hash" not in vars(relabelled)
    assert relabelled.table_hash == digest
    named = group_from_definition({"kind": "catalog", "name": "S(3)", "label": "Sym3"})
    assert named.label == "Sym3" and named.table_hash == digest


def naive_closure_table(gens):
    """Oracle: image tuples closed under composition, sorted, multiplied one by one."""
    seen = {tuple(range(len(gens[0])))}
    frontier = list(seen)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    elements = sorted(seen)
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple(q[x] for x in p)] for q in elements] for p in elements]


@pytest.mark.parametrize("gens", [
    [[1, 0, 2, 3], [1, 2, 3, 0]],
    [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]],
    [[2, 0, 1, 3, 4, 5], [0, 1, 2, 4, 5, 3], [3, 4, 5, 0, 1, 2]],
    [[1, 2, 3, 4, 5, 6, 0], [0, 6, 5, 4, 3, 2, 1]],
    catalog_generators("SL(2,3)")[1],
    catalog_generators("S(3)xC(4)")[1],
])
def test_perm_closure_matches_naive_closure(gens):
    g = build_from_perm_gens(gens)
    assert np.array_equal(g.mul, naive_closure_table(gens))


def test_large_cyclic_closure():
    # element i of C(n) is the rotation by i, so the table is addition mod n
    g = catalog_get("C(1024)")
    n = g.order
    assert n == 1024
    expected = (np.arange(n)[:, None] + np.arange(n)) % n
    assert np.array_equal(g.mul, expected)


def test_table_is_read_only_int32_copy():
    # a mul_table document is untrusted: validated, then copied
    source = [[0, 1], [1, 0]]
    g = group_from_definition({"kind": "mul_table", "mul": source})
    assert g.mul.dtype == np.int32 and g.inv.dtype == np.int32
    assert g.mul.flags.c_contiguous and not g.mul.flags.writeable
    assert not g.inv.flags.writeable
    source[0][0] = 1  # the caller's rows stay the caller's
    assert g.mul[0, 0] == 0
    assert g.mul.tolist() == [[0, 1], [1, 0]] and g.inv.tolist() == [0, 1]


def test_build_from_table_keeps_a_builders_array():
    # a builder hands over an int32 array it owns: kept without a copy,
    # made read-only; anything else is copied into a fresh int32 array
    source = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int32)
    g = build_from_table(3, source)
    assert g.mul is source
    assert not source.flags.writeable and not g.inv.flags.writeable
    assert g.inv.tolist() == [0, 2, 1]
    for other in (source.astype(np.int64), source.T.copy().T, source.tolist()):
        copied = build_from_table(3, other)
        assert copied.mul is not other and copied.mul.dtype == np.int32
        assert copied.mul.flags.c_contiguous and np.array_equal(copied.mul, source)


def test_validate_table_returns_a_fresh_int32_array():
    source = np.array([[0, 1], [1, 0]], dtype=np.int32)
    checked = validate_table(2, source)
    assert checked is not source and not np.shares_memory(checked, source)
    assert checked.dtype == np.int32 and checked.flags.c_contiguous
    assert np.array_equal(checked, source)


def test_perm_gens_c2():
    g = build_from_perm_gens([[1, 0]], "C2")
    assert g.order == 2


def test_perm_gens_s3():
    g = build_from_perm_gens([[1, 0, 2], [1, 2, 0]], "S3")
    assert g.order == 6


def test_perm_gens_order_exceeded():
    with pytest.raises(OrderExceeded) as exc:
        build_from_perm_gens([[1, 2, 3, 4, 0]], max_order=4)
    assert exc.value.order_lower_bound == 5


def test_identity_is_index_zero():
    g = catalog_get("S(4)")
    assert all(g.mul[0][x] == x and g.mul[x][0] == x for x in g.elements())


def test_direct_product_orders():
    c2 = catalog_get("C(2)")
    v4 = direct_product(c2, c2)
    assert v4.order == 4
    assert all(v4.inv[x] == x for x in v4.elements())  # Klein four: self-inverse
    s3 = catalog_get("S(3)")
    assert direct_product(s3, s3).order == 36


def test_direct_product_with_trivial_is_identity_table():
    s3 = catalog_get("S(3)")
    c1 = catalog_get("C(1)")
    prod = direct_product(s3, c1)
    assert np.array_equal(prod.mul, s3.mul)
    assert prod.table_hash == s3.table_hash


@pytest.mark.parametrize("left, right", [("S(3)", "C(4)"), ("Q8", "S(3)"), ("C(1)", "D(8)")])
def test_direct_product_matches_componentwise_product(left, right):
    a, b = catalog_get(left), catalog_get(right)
    g = direct_product(a, b)
    nb = b.order
    for x, y in itertools.product(g.elements(), repeat=2):
        expected = a.mul[x // nb, y // nb] * nb + b.mul[x % nb, y % nb]
        assert g.mul[x, y] == expected


def test_direct_product_order_cap():
    c64 = catalog_get("C(64)")
    with pytest.raises(OrderExceeded):
        direct_product(c64, c64, max_order=1000)


@pytest.mark.parametrize(
    "name,order,expected_census",
    [
        ("C(1)", 1, {1: 1}),
        ("C(6)", 6, {1: 1, 2: 1, 3: 2, 6: 2}),
        ("Q8", 8, {1: 1, 2: 1, 4: 6}),
        ("D(8)", 8, {1: 1, 2: 5, 4: 2}),
        ("Heis(2)", 8, {1: 1, 2: 5, 4: 2}),
        ("Dic(3)", 12, {1: 1, 2: 1, 3: 2, 4: 6, 6: 2}),
        ("A(4)", 12, {1: 1, 2: 3, 3: 8}),
        ("S(4)", 24, {1: 1, 2: 9, 3: 8, 4: 6}),
        ("SL(2,3)", 24, {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}),
        ("Heis(3)", 27, {1: 1, 3: 26}),
    ],
)
def test_catalog_census(name, order, expected_census):
    g = catalog_get(name)
    assert g.order == order
    assert census(g) == expected_census


def test_catalog_products():
    g = catalog_get("S(3)xS(3)")
    assert g.order == 36
    assert g.label == "S(3)xS(3)"
    assert catalog_get("C(2)xC(2)xC(2)").order == 8


def test_catalog_unknown_name():
    with pytest.raises(UnknownCatalogName):
        catalog_get("E8")
    with pytest.raises(UnknownCatalogName):
        catalog_get("S(9)")


def test_catalog_deterministic_tables():
    a = catalog_get("SL(2,3)")
    b = catalog_get("SL(2,3)")
    assert np.array_equal(a.mul, b.mul)
    assert a.table_hash == b.table_hash


def test_catalog_base_names_filter():
    names = catalog_base_names(12)
    assert "S(3)" in names and "A(4)" in names
    assert "S(4)" not in names
    assert all("x" not in n for n in names)


def test_catalog_generators_product_embedding():
    degree, gens, label = catalog_generators("C(2)xC(3)")
    assert degree == 5
    assert label == "C(2)xC(3)"
    from nilprob.perms import schreier_sims

    assert schreier_sims(gens).order == 6


def test_definition_roundtrip():
    g = catalog_get("Dic(3)")
    obj = group_to_definition(g)
    g2 = group_from_definition(obj)
    assert np.array_equal(g2.mul, g.mul)
    assert g2.label == g.label


def test_definition_kinds():
    mul = [[0, 1], [1, 0]]
    assert group_from_definition({"kind": "mul_table", "mul": mul}).order == 2
    assert group_from_definition({"kind": "perm_gens", "gens": [[1, 0]]}).order == 2
    assert group_from_definition({"kind": "catalog", "name": "Q8"}).order == 8
    prod = group_from_definition(
        {
            "kind": "product",
            "label": "pair",
            "factors": [
                {"kind": "catalog", "name": "S(3)"},
                {"kind": "mul_table", "mul": mul},
            ],
        }
    )
    assert prod.order == 12
    assert prod.label == "pair"
    with pytest.raises(ValueError):
        group_from_definition({"kind": "nope"})
    with pytest.raises(OrderExceeded):
        group_from_definition({"kind": "mul_table", "mul": mul}, max_order=1)


#: ``catalog_base_names()``: every non-product name, by order and then by name.
CATALOG_NAMES = """
    A(1) A(2) C(1) S(1) C(2) D(2) S(2) A(3) C(3) C(4) D(4) Dic(1) C(5) C(6) D(6) S(3)
    C(7) C(8) D(8) Dic(2) Heis(2) Q8 C(9) C(10) D(10) C(11) A(4) C(12) D(12) Dic(3)
    C(13) C(14) D(14) C(15) C(16) D(16) Dic(4) C(17) C(18) D(18) C(19) C(20) D(20)
    Dic(5) C(21) C(22) D(22) C(23) C(24) D(24) Dic(6) S(4) SL(2,3) C(25) C(26) D(26)
    C(27) Heis(3) C(28) D(28) Dic(7) C(29) C(30) D(30) C(31) C(32) D(32) Dic(8) C(33)
    C(34) D(34) C(35) C(36) D(36) Dic(9) C(37) C(38) D(38) C(39) C(40) D(40) Dic(10)
    C(41) C(42) D(42) C(43) C(44) D(44) Dic(11) C(45) C(46) D(46) C(47) C(48) D(48)
    Dic(12) C(49) C(50) D(50) C(51) C(52) D(52) Dic(13) C(53) C(54) D(54) C(55) C(56)
    D(56) Dic(14) C(57) C(58) D(58) C(59) A(5) C(60) D(60) Dic(15) C(61) C(62) D(62)
    C(63) C(64) D(64) Dic(16) S(5) Heis(5) A(6) S(6) A(7) S(7) A(8) S(8)
""".split()


def test_catalog_base_names_are_pinned():
    assert len(CATALOG_NAMES) == 133
    assert catalog_base_names() == CATALOG_NAMES
    # each name is listed at the order of the group its generators generate
    for name in CATALOG_NAMES:
        order = schreier_sims(catalog_generators(name)[1]).order
        assert name in catalog_base_names(order), name
        assert name not in catalog_base_names(order - 1), name


@pytest.mark.parametrize("name, message", [
    ("C(0)", "cyclic order must be >= 1, got 0"),
    ("D(3)", "dihedral order must be even and >= 2, got 3"),
    ("S(9)", "S(n) is provided for 1 <= n <= 8, got 9"),
    ("Heis(7)", "Heis(p) is provided for p in {2, 3, 5}, got 7"),
    ("C(x)", "unknown catalog name 'C('"),
    ("Foo(3)", "unknown catalog name 'Foo(3)'"),
    ("C()", "bad argument in catalog name 'C()'"),
    ("S(3)xDic(three)", "bad argument in catalog name 'Dic(three)'"),
])
def test_catalog_name_errors_are_pinned(name, message):
    for build in (catalog_get, catalog_generators):
        with pytest.raises(UnknownCatalogName) as info:
            build(name)
        assert str(info.value) == message


@pytest.mark.parametrize("doc, default", [
    ({"kind": "mul_table", "mul": [[0, 1], [1, 0]]}, "order-2 group"),
    ({"kind": "perm_gens", "gens": [[1, 0]]}, "perm group of degree 2"),
    ({"kind": "catalog", "name": "C(2)"}, "C(2)"),
    ({"kind": "product", "factors": [{"kind": "catalog", "name": "C(2)"}]}, "C(2)"),
], ids=["mul_table", "perm_gens", "catalog", "product"])
def test_definition_label_overrides_every_kind(doc, default):
    assert group_from_definition(doc).label == default
    assert group_from_definition({**doc, "label": ""}).label == default
    named = group_from_definition({**doc, "label": "two"})
    assert named.label == "two"
    assert named.table_hash == group_from_definition(doc).table_hash
