"""Every builder's table is a group by construction.

``build_from_table`` trusts its input, so the group laws of permutation
closures, products, quotients and subgroup tables rest on the builders.
Here the untrusted-input validator checks their output instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilprob import groups
from nilprob.groups import (
    build_from_perm_gens,
    catalog_base_names,
    catalog_get,
    validate_table,
)
from nilprob.structure import normal_subgroups, quotient, subgroup_table

from test_exact import subgroup_pool

PRODUCTS = ["S(3)xS(3)", "D(8)xC(2)", "S(3)xD(24)"]


def assert_is_group(t):
    """``t`` passes the full validator, and ``t.inv`` is the two-sided inverse."""
    checked = validate_table(t.order, t.mul)
    assert checked.dtype == t.mul.dtype == np.int32
    assert np.array_equal(checked, t.mul), t.label
    assert t.inv.dtype == np.int32
    assert np.array_equal(t.inv, groups._inverses(checked)), t.label


@pytest.mark.parametrize("name", catalog_base_names(64))
def test_catalog_groups_are_groups(name):
    assert_is_group(catalog_get(name))


@pytest.mark.parametrize("name", PRODUCTS)
def test_products_and_their_quotients_are_groups(name):
    g = catalog_get(name)
    assert_is_group(g)
    for n in normal_subgroups(g):
        assert_is_group(quotient(g, n).target)


@pytest.mark.parametrize("name", PRODUCTS + ["S(4)", "Dic(3)"])
def test_subgroup_tables_are_groups(name):
    g = catalog_get(name)
    for h in subgroup_pool(g):
        table, elems = subgroup_table(g, h)
        assert_is_group(table)
        assert elems == list(h.elements)


perm_gens = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.permutations(list(range(d))), min_size=1, max_size=3)
)


@settings(max_examples=60, deadline=None)
@given(perm_gens)
def test_perm_closures_are_groups(gens):
    assert_is_group(build_from_perm_gens(gens))
