"""Group table construction, validation, and the catalog."""

from collections import Counter

import pytest

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
)


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
        build_from_table(3, [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    assert exc.value.law == "associativity"
    assert_real_witness([[0, 1, 2], [1, 0, 2], [2, 2, 0]], exc.value)


def test_rejects_bad_identity():
    with pytest.raises(NotAGroup) as exc:
        build_from_table(2, [[1, 0], [0, 1]])
    assert exc.value.law == "identity"


def test_rejects_missing_inverse():
    # left-zero semigroup row for element 1 kills the inverse
    with pytest.raises(NotAGroup):
        build_from_table(3, [[0, 1, 2], [1, 1, 1], [2, 2, 2]])


def test_randomized_associativity_check_used_above_limit():
    # Order 300 is above the old exhaustive limit of 256, where only a
    # random sample of triples was checked.  Identity and inverses hold,
    # so the exact associativity test must reject the table every time.
    n = 300
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul[7][5] = 6  # break associativity somewhere off the identity row
    with pytest.raises(NotAGroup) as exc:
        build_from_table(n, mul)
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
                    build_from_table(g.order, mul)
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
    ],
)
def test_rejects_malformed_tables(n, mul, law, witness):
    with pytest.raises(NotAGroup) as exc:
        build_from_table(n, mul)
    assert (exc.value.law, exc.value.witness) == (law, witness)


def test_table_hash_is_stable():
    # cache keys: a change here needs a cache.SCHEMA_VERSION bump
    assert catalog_get("S(3)").table_hash == (
        "ef287b0a147f67058dab99a4ac0a7cec8f6e0445a07d6376d6226c6b6085915c"
    )
    assert catalog_get("D(8)xC(2)").table_hash == (
        "73b863d9c16da720f26c895c40a039e2173912ecf24168fac1e999c34dac2665"
    )


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
    assert prod.mul == s3.mul
    assert prod.table_hash == s3.table_hash


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
    assert a.mul == b.mul
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
    assert g2.mul == g.mul
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
