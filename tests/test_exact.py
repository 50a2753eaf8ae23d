"""Exact probability engine: oracle agreement, invariants, known values."""

import itertools
from fractions import Fraction

import pytest

from nilprob import exact
from nilprob.errors import BudgetExceeded, EmptyInput
from nilprob.exact import (
    commutator_distribution,
    cp,
    fraction_text,
    identity_shifts,
    iter_shift_values,
    np_bruteforce,
    np_fast,
    np_k,
    np_sup,
    parse_fraction,
)
from nilprob.groups import catalog_get, direct_product
from nilprob.structure import (
    center,
    conjugacy_classes,
    left_coset_reps,
    nilpotency_class,
    normal_subgroups,
    quotient,
    subgroup,
    subgroup_closure,
    subgroup_table,
    whole_group,
)

from seeded import stream_rng

SMALL = ["C(1)", "C(4)", "C(6)", "S(3)", "D(8)", "Q8", "C(2)xC(2)", "Dic(3)", "A(4)"]


def subgroup_pool(g):
    """Normal subgroups plus cyclic closures, deduplicated."""
    pool = {h.elements: h for h in normal_subgroups(g)}
    for x in g.elements():
        h = subgroup_closure(g, [x])
        pool.setdefault(h.elements, h)
    return sorted(pool.values(), key=lambda s: (s.order, s.elements))


def all_shift_values(g, h, k):
    """Oracle: (tuple, np(H; tuple)) for all [G:H]^(k+1) canonical shift tuples.

    One ``np_fast`` per tuple, in lexicographic order of the coset
    representatives; ``np_sup`` and the supremum checks are its maximum
    and lex-smallest maximizer.
    """
    return [(t, np_fast(g, h, t).value)
            for t in itertools.product(left_coset_reps(g, h), repeat=k + 1)]


def test_known_exact_values():
    s3 = catalog_get("S(3)")
    assert np_k(s3, 1).value == Fraction(1, 2)
    assert np_k(s3, 2).value == Fraction(3, 4)
    assert np_k(s3, 3).value == Fraction(7, 8)
    assert cp(s3) == Fraction(1, 2)
    assert cp(catalog_get("Q8")) == Fraction(5, 8)
    assert cp(catalog_get("D(8)")) == Fraction(5, 8)
    assert cp(catalog_get("S(4)")) == Fraction(5, 24)
    assert np_k(catalog_get("Q8"), 2).value == 1
    assert np_k(catalog_get("D(8)"), 2).value == 1
    assert np_k(catalog_get("S(3)xS(3)"), 2).value == Fraction(9, 16)


def test_np_counts_consistency():
    s3 = catalog_get("S(3)")
    res = np_k(s3, 2)
    assert res.counted_tuples == 162 and res.total_tuples == 216
    assert res.value == Fraction(res.counted_tuples, res.total_tuples)


def test_abelian_np_is_one():
    for name in ["C(1)", "C(6)", "C(2)xC(2)"]:
        g = catalog_get(name)
        res = np_bruteforce(g, whole_group(g), identity_shifts(1))
        assert res.value == 1


def test_relative_np_example():
    # shifted by a transposition in the first slot, A3 inside S3 at k=1
    s3 = catalog_get("S(3)")
    a3 = next(n for n in normal_subgroups(s3) if n.order == 3)
    transposition = next(
        x for x in s3.elements() if x and s3.mul[x][x] == 0
    )
    for fn in (np_bruteforce, np_fast):
        assert fn(s3, a3, (transposition, 0)).value == Fraction(1, 3)


def test_single_shift_degenerate_case():
    s3 = catalog_get("S(3)")
    a3 = next(n for n in normal_subgroups(s3) if n.order == 3)
    assert np_bruteforce(s3, a3, (0,)).value == Fraction(1, 3)
    assert np_fast(s3, a3, (0,)).value == Fraction(1, 3)
    t = next(x for x in s3.elements() if x and s3.mul[x][x] == 0)
    assert np_fast(s3, a3, (t,)).value == 0


def test_empty_shifts_rejected():
    s3 = catalog_get("S(3)")
    with pytest.raises(EmptyInput):
        np_fast(s3, whole_group(s3), ())


@pytest.mark.parametrize("name", SMALL)
def test_oracle_equivalence(name):
    # dp and brute force agree exactly, over normal subgroups and cyclic
    # closures, all coset-representative shift tuples; k = 3 is kept to
    # the tiniest groups for runtime
    g = catalog_get(name)
    ks = (1, 2, 3) if g.order <= 8 else (1, 2)
    for h in subgroup_pool(g):
        for k in ks:
            for tup in itertools.product(left_coset_reps(g, h), repeat=k + 1):
                fast = np_fast(g, h, tup)
                brute = np_bruteforce(g, h, tup)
                assert fast.value == brute.value, (name, h.order, k, tup)
                assert fast.total_tuples == brute.total_tuples


@pytest.mark.parametrize("name", ["S(3)", "Q8", "A(4)", "D(12)"])
def test_shift_invariance_whole_group(name):
    # for H = G the value ignores the shifts entirely (50 seeded tuples)
    g = catalog_get(name)
    top = whole_group(g)
    rng = stream_rng(2024)
    for k in (1, 2):
        expected = np_bruteforce(g, top, identity_shifts(k)).value
        for _ in range(50):
            shifts = tuple(rng.randrange(g.order) for _ in range(k + 1))
            assert np_bruteforce(g, top, shifts).value == expected


@pytest.mark.parametrize("name", ["S(3)", "Q8", "A(4)", "S(4)", "Dic(3)"])
def test_coset_dependence(name):
    # replacing a shift x_i by x_i * h (h in H) never changes the value
    g = catalog_get(name)
    for h in normal_subgroups(g):
        reps = left_coset_reps(g, h)
        for tup in itertools.product(reps, repeat=2):
            base = np_fast(g, h, tup).value
            for slot in range(2):
                for y in h.elements:
                    shifted = list(tup)
                    shifted[slot] = g.mul[shifted[slot]][y]
                    assert np_fast(g, h, tuple(shifted)).value == base


def test_np_le_cp_exhaustive_small():
    # shifted pair probabilities never exceed cp(H), all H, order <= 24
    for name in ["S(3)", "Q8", "A(4)", "S(4)", "D(12)", "SL(2,3)"]:
        g = catalog_get(name)
        for h in subgroup_pool(g):
            bound = cp(h)
            for _, val in all_shift_values(g, h, 1):
                assert val <= bound


def test_center_recursion_whole_group():
    # np_k(G) <= (1 + np_{k-1}(G / Z)) / 2 for k in {1, 2, 3}
    for name in ["S(3)", "Q8", "D(8)", "S(4)", "Dic(3)", "Heis(3)", "C(6)"]:
        g = catalog_get(name)
        q = quotient(g, center(g))
        hbar = whole_group(q.target)
        for k in (1, 2, 3):
            lhs = np_fast(g, whole_group(g), identity_shifts(k)).value
            rhs = Fraction(1, 2) * (
                1 + np_fast(q.target, hbar, identity_shifts(k - 1)).value
            )
            assert lhs <= rhs, (name, k, lhs, rhs)


def test_center_recursion_equality_at_s3_k2():
    s3 = catalog_get("S(3)")
    assert np_k(s3, 2).value == Fraction(1, 2) * (1 + cp(s3))


def test_np_sup_whole_group_is_np_k():
    for name in ["S(3)", "Q8", "A(4)"]:
        g = catalog_get(name)
        for k in (1, 2):
            sup, witness = np_sup(g, whole_group(g), k)
            assert sup == np_k(g, k).value
            assert witness == identity_shifts(k)


def test_np_sup_abelian_subgroup():
    s3 = catalog_get("S(3)")
    a3 = next(n for n in normal_subgroups(s3) if n.order == 3)
    sup, witness = np_sup(s3, a3, 1)
    assert sup == 1 and witness == (0, 0)


def test_np_sup_s3_k2():
    s3 = catalog_get("S(3)")
    sup, witness = np_sup(s3, whole_group(s3), 2)
    assert sup == Fraction(3, 4) and witness == (0, 0, 0)


def test_np_sup_witness_is_lex_smallest():
    # all shift tuples of A3 in S3 with a nontrivial coset give 1/3, so
    # the witness must be the first tuple in lexicographic order
    s3 = catalog_get("S(3)")
    a3 = next(n for n in normal_subgroups(s3) if n.order == 3)
    values = dict(all_shift_values(s3, a3, 1))
    maximum = max(values.values())
    expected = min(t for t, v in values.items() if v == maximum)
    assert np_sup(s3, a3, 1)[1] == expected


@pytest.mark.parametrize("name", SMALL)
def test_iter_shift_values_matches_per_tuple_dp(name):
    # the prefix-shared walk yields exactly the oracle's items whose last
    # coordinate is the coset H, in the same lexicographic order; a few
    # seeded tuples per case are also checked against brute force
    g = catalog_get(name)
    rng = stream_rng(7)
    for h in subgroup_pool(g):
        reps = left_coset_reps(g, h)
        for k in (1, 2, 3):
            if len(reps) ** (k + 1) > 2000:
                continue
            got = list(iter_shift_values(g, h, k))
            expected = [(t, v) for t, v in all_shift_values(g, h, k) if t[-1] == reps[0]]
            assert got == expected, (name, h.elements, k)
            for _ in range(3):
                tup, val = got[rng.randrange(len(got))]
                assert np_bruteforce(g, h, tup).value == val, (name, h.elements, k, tup)


def test_iter_shift_values_rejects_k_below_one():
    s3 = catalog_get("S(3)")
    for k in (0, -1):
        with pytest.raises(ValueError):
            next(iter_shift_values(s3, whole_group(s3), k))
        with pytest.raises(ValueError):
            np_sup(s3, whole_group(s3), k)


def tie_case():
    """S(3)xS(3) with its non-normal subgroup <(1 2 3), (1 2)(4 5)> of order 6."""
    g = catalog_get("S(3)xS(3)")
    return g, subgroup_closure(g, [7, 8])


def sup_cases():
    for name in SMALL:
        g = catalog_get(name)
        for h in subgroup_pool(g):
            yield name, g, h
    yield ("S(3)xS(3)", *tie_case())


@pytest.mark.parametrize("k", [1, 2])
def test_np_sup_witness_with_ties_in_last_coordinate(k):
    # H = <(1 2 3), (1 2)(4 5)> of order 6 is not normal in S(3)xS(3).
    # Its maximum is reached at more than one last coordinate of the
    # witness prefix; np_sup, which walks only last coordinate 0, must
    # still return the lex-smallest maximizer of the full walk.  The last
    # coordinate of a witness is always the coset H itself: rH ∩ C(w) is
    # empty or a coset of H ∩ C(w), so it is never larger than H ∩ C(w),
    # and every batch of the full walk peaks at its first item.
    g, h = tie_case()
    assert h.order == 6 and h.elements not in {n.elements for n in normal_subgroups(g)}
    values = all_shift_values(g, h, k)
    sup, witness = np_sup(g, h, k)
    assert sup == max(v for _, v in values)
    assert witness == min(t for t, v in values if v == sup) == identity_shifts(k)
    assert sum(1 for t, v in values if v == sup and t[:-1] == witness[:-1]) > 1
    n = len(left_coset_reps(g, h))
    for start in range(0, len(values), n):
        batch = [v for _, v in values[start:start + n]]
        assert batch[0] == max(batch)


def test_np_sup_matches_full_enumeration():
    # the reduced walk is the oracle's items whose last coordinate is the
    # coset H, and gives the maximum of all of them and its lex-smallest
    # maximizer, normal and non-normal H alike
    for name, g, h in sup_cases():
        for k in (1, 2, 3):
            values = all_shift_values(g, h, k)
            assert list(iter_shift_values(g, h, k)) == [
                (t, v) for t, v in values if t[-1] == 0], (name, h.elements, k)
            best = max(v for _, v in values)
            witness = min(t for t, v in values if v == best)
            assert np_sup(g, h, k) == (best, witness), (name, h.elements, k)


def test_np_sup_draws_its_items_through_iter_shift_values(monkeypatch):
    # np_sup must consume the public generator, whose items the benchmark
    # counts; S(3)x1 in S(3)xD(24) has index 24, so k = 3 draws 24^3 items
    drawn = []
    walk = exact.iter_shift_values

    def counted(*args, **kwargs):
        for item in walk(*args, **kwargs):
            drawn.append(item)
            yield item

    monkeypatch.setattr(exact, "iter_shift_values", counted)
    g = catalog_get("S(3)xD(24)")
    normals = normal_subgroups(g)
    h = normals[7]
    assert h.order == 6 and nilpotency_class(h) is None
    assert np_sup(g, h, 3) == (Fraction(7, 8), (0, 0, 0, 0))
    assert len(drawn) == 24 ** 3
    # an abelian H stops at the first item, the identity shifts with value 1
    drawn.clear()
    abelian = normals[23]
    assert abelian.order == 36 and nilpotency_class(abelian) == 1
    assert np_sup(g, abelian, 1) == (1, (0, 0))
    assert drawn == [((0, 0), 1)]


def test_class_characterization_small():
    # sup == 1 exactly when the subgroup is nilpotent of class <= k
    for name in ["S(3)", "Q8", "S(4)", "Dic(3)", "C(12)"]:
        g = catalog_get(name)
        for h in subgroup_pool(g):
            cls = nilpotency_class(h)
            for k in (1, 2):
                sup, _ = np_sup(g, h, k)
                assert (sup == 1) == (cls is not None and cls <= k)


def test_direct_product_multiplicativity():
    pairs = [("S(3)", "S(3)"), ("S(3)", "Q8"), ("A(4)", "C(2)")]
    for a_name, b_name in pairs:
        a, b = catalog_get(a_name), catalog_get(b_name)
        prod = direct_product(a, b)
        for k in (1, 2):
            assert np_k(prod, k).value == np_k(a, k).value * np_k(b, k).value


def test_commutator_distribution_s3():
    s3 = catalog_get("S(3)")
    dist = commutator_distribution(s3, whole_group(s3), identity_shifts(1), 2)
    three_cycles = [x for x in s3.elements() if x and s3.mul[x][x] != 0]
    assert dist[0] == 18
    assert all(dist[c] == 9 for c in three_cycles)
    assert all(x not in dist for x in s3.elements() if s3.mul[x][x] == 0 and x != 0)


def test_commutator_distribution_stage_one():
    s3 = catalog_get("S(3)")
    a3 = next(n for n in normal_subgroups(s3) if n.order == 3)
    t = next(x for x in s3.elements() if x and s3.mul[x][x] == 0)
    dist = commutator_distribution(s3, a3, (t, 0), 1)
    coset = {s3.mul[t][y] for y in a3.elements}
    assert set(dist) == coset
    assert all(c == 1 for c in dist.values())


@pytest.mark.parametrize("name", ["S(3)", "Q8", "A(4)"])
def test_commutator_distribution_mass_conservation(name):
    g = catalog_get(name)
    for h in normal_subgroups(g):
        for m in (1, 2, 3):
            dist = commutator_distribution(g, h, identity_shifts(2), m)
            assert sum(dist.values()) == h.order ** m


def test_budget_errors_are_precise():
    s4 = catalog_get("S(4)")
    with pytest.raises(BudgetExceeded) as exc:
        np_bruteforce(s4, whole_group(s4), identity_shifts(3), budget=1000)
    assert exc.value.required == 24 ** 4
    assert exc.value.budget == 1000
    a4 = next(n for n in normal_subgroups(s4) if n.order == 12)
    with pytest.raises(BudgetExceeded) as exc2:
        np_sup(s4, a4, 2, budget=7)
    assert exc2.value.required == 2 ** 3
    # H = 1 has class 0 <= k: the supremum is exempt, and the walk stops
    # at its first item, the identity tuple with value 1
    trivial = subgroup(s4, (0,))
    assert np_sup(s4, trivial, 2, budget=100) == (Fraction(1), identity_shifts(2))
    assert next(iter_shift_values(s4, trivial, 2, budget=100)) == (identity_shifts(2), 1)


def test_cp_of_subgroup_ref():
    sl = catalog_get("SL(2,3)")
    q8 = next(n for n in normal_subgroups(sl) if n.order == 8)
    assert cp(q8) == Fraction(5, 8)
    assert cp(whole_group(sl)) == cp(sl) == Fraction(7, 24)


@pytest.mark.parametrize("name", SMALL)
def test_cp_counts_commuting_pairs(name):
    # cp(H) from the commuting pairs of H's block equals k(H)/|H| from its classes
    g = catalog_get(name)
    for h in subgroup_pool(g):
        table, _ = subgroup_table(g, h)
        assert cp(h) == Fraction(conjugacy_classes(table).num_classes, h.order)
    assert cp(g) == Fraction(conjugacy_classes(g).num_classes, g.order)


@pytest.mark.parametrize("name", SMALL + ["S(4)", "SL(2,3)"])
def test_array_dp_matches_bruteforce(name):
    g = catalog_get(name)
    rng = stream_rng(606)
    for h in subgroup_pool(g):
        for k in (1, 2, 3):
            if h.order ** (k + 1) > 50_000:
                continue
            for _ in range(4):
                shifts = tuple(rng.randrange(g.order) for _ in range(k + 1))
                fast = np_fast(g, h, shifts)
                brute = np_bruteforce(g, h, shifts)
                assert (fast.counted_tuples, fast.total_tuples) == (
                    brute.counted_tuples, brute.total_tuples
                ), (name, h.elements, shifts)


def test_array_dp_falls_back_above_int64():
    # 6^24 < 2^63 <= 6^25: k = 23 counts in int64 close to the limit,
    # k = 24 in Python ints; np_k(S(3)) = 1 - 2^-k
    s3 = catalog_get("S(3)")
    for k in (23, 24):
        res = np_k(s3, k)
        total = 6 ** (k + 1)
        assert res.value == 1 - Fraction(1, 2 ** k)
        assert res.total_tuples == total
        assert res.counted_tuples == total - total // 2 ** k
    # below 1, so np_sup goes on from the forward identity tuple to the
    # backward pass, in Python ints too
    assert np_sup(s3, whole_group(s3), 24) == (1 - Fraction(1, 2 ** 24), identity_shifts(24))



def test_python_int_counts_match_int64(monkeypatch):
    # counts that can reach 2^63 are kept as Python ints; with that dtype
    # forced on small cases, both passes must agree with the int64 arrays
    def evaluate():
        out = []
        for name in ["S(3)", "Q8", "A(4)"]:
            g = catalog_get(name)
            for h in subgroup_pool(g):
                for k in (1, 2, 3):
                    shifts = left_coset_reps(g, h)[-1:] * (k + 1)
                    out.append((list(iter_shift_values(g, h, k)), np_fast(g, h, shifts)))
        return out

    expected = evaluate()
    monkeypatch.setattr(exact, "_count_dtype", lambda total: object)
    assert evaluate() == expected


# -- untwisted tuples and the transfer cells ---------------------------------------

UNTWISTED_GROUPS = ["S(4)", "SL(2,3)", "D(8)xC(2)", "S(3)xS(3)", "Q8xC(2)"]

#: Largest |H|^(k+1) that the untwisted oracle enumerates by brute force.
UNTWISTED_BRUTE_CAP = 400_000


def untwisted_results(g, cases):
    """np_fast at trivial shifts and at shifts inside H, cp, and np_sup with its first item."""
    out = []
    for h, k in cases:
        inside = (h.elements[-1],) * (k + 1)
        out.append((np_fast(g, h, identity_shifts(k)).counted_tuples,
                    np_fast(g, h, inside).counted_tuples,
                    cp(h), next(iter_shift_values(g, h, k)), np_sup(g, h, k)))
    return out


@pytest.mark.parametrize("name", UNTWISTED_GROUPS)
def test_untwisted_routes_match_bruteforce(name):
    # every normal and cyclic subgroup: shifts in H count like trivial ones, and
    # cp, the identity tuple of the sup and the sup itself agree with brute force
    g = catalog_get(name)
    cases = [(h, k) for h in subgroup_pool(g) for k in (1, 2, 3)
             if h.order ** (k + 1) <= UNTWISTED_BRUTE_CAP]
    brute = [np_bruteforce(g, h, identity_shifts(k)) for h, k in cases]
    for (h, k), want, (ones, inside, cp_h, first, sup) in zip(cases, brute,
                                                              untwisted_results(g, cases)):
        assert ones == inside == want.counted_tuples, (name, h.elements, k)
        assert first == (identity_shifts(k), want.value)
        if k == 1:
            assert cp_h == want.value
        if g.order ** (k + 1) <= 20_000:
            reps = left_coset_reps(g, h)
            best = max(np_bruteforce(g, h, t).value
                       for t in itertools.product(reps, repeat=k + 1))
            assert sup[0] == best


def test_class_route_counts_in_python_ints():
    # |G|^7 = 2^77: the counts are object arrays, and np_k is multiplicative over
    # direct products, in its counts too
    g = catalog_get("D(64)xD(32)")
    assert exact._count_dtype(g.order ** 7) is object
    factors = [np_k(catalog_get(name), 6) for name in ("D(64)", "D(32)")]
    res = np_k(g, 6)
    assert res.value == factors[0].value * factors[1].value
    assert res.counted_tuples == factors[0].counted_tuples * factors[1].counted_tuples


@pytest.mark.parametrize("name", ["S(4)", "SL(2,3)", "S(3)xS(3)"])
def test_cached_cells_stay_within_block_cells(monkeypatch, name):
    # with room for only a few cosets' cells, the rest are computed per call,
    # and no value changes
    g = catalog_get(name)

    def evaluate():
        out = []
        for h in subgroup_pool(g):
            for k in (1, 2, 3):
                reps = left_coset_reps(g, h)
                if len(reps) ** (k + 1) <= 20_000:
                    out.append(list(iter_shift_values(g, h, k)))
                out.append(np_fast(g, h, reps[-1:] * (k + 1)).counted_tuples)
            out.append(commutator_distribution(g, h, reps[-1:] * 3, 3))
            cached.append(sum(len(cells[1]) for cells in h._orbits.cells.values()))
        return out

    cached = []
    expected = evaluate()
    assert max(cached) > 2 * g.order
    monkeypatch.setattr(exact, "BLOCK_CELLS", 2 * g.order)
    cached = []
    assert evaluate() == expected
    assert max(cached) <= 2 * g.order


@pytest.mark.parametrize("value, text", [
    (Fraction(0), "0/1"), (Fraction(1), "1/1"), (Fraction(3, 4), "3/4"),
    (Fraction(-5, 8), "-5/8"), (Fraction(2 ** 70, 3), f"{2 ** 70}/3"),
])
def test_fraction_text_round_trips(value, text):
    assert fraction_text(value) == text
    assert parse_fraction(text) == value


@pytest.mark.parametrize("text", ["abc", "1/0", "2/4", " 1/2", "1/2 ", "1", "0.5", "1/2/3",
                                  "", 0.5, 1, None, ["1/2"]])
def test_parse_fraction_takes_only_fraction_text(text):
    with pytest.raises(ValueError):
        parse_fraction(text)
