"""The inequality harness: individual checks and corpus runs."""

import io
import json
import os
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilprob import verify as verify_module
from nilprob.errors import BudgetExceeded
from nilprob import structure
from nilprob.exact import cp, identity_shifts, np_fast
from nilprob.groups import catalog_get
from nilprob.structure import center, normal_subgroups
from nilprob.verify import (
    ALL_CHECKS,
    CheckOutcome,
    CorpusConfig,
    GroupVerifier,
    MUST_HOLD_CHECKS,
    PROBE_CHECKS,
    VerificationReport,
    _encode_json,
    check_center_recursion,
    check_class_characterization,
    check_gap_bound,
    check_npleqcp,
    check_series_bound,
    check_shift_monotonicity,
    check_submultiplicativity,
    default_corpus_names,
    gap_constant,
    gap_constant_tight,
    max_bad_series_length,
    run_corpus,
    _subgroup_params,
)

from test_exact import SMALL, all_shift_values, subgroup_pool, tie_case


def _aggregate(outcomes: list[CheckOutcome]) -> list[CheckOutcome]:
    """Oracle: collapse a per-tuple outcome list to its worst representative.

    The returned outcome carries the number of tuples checked and the
    shifts of the largest margin lhs - rhs; a failing outcome is worse
    than any holding one.  One-outcome lists pass through unchanged.
    """
    if len(outcomes) <= 1:
        return outcomes
    worst = outcomes[0]
    all_hold = True
    for o in outcomes:
        all_hold = all_hold and o.holds
        if not o.holds and worst.holds:
            worst = o
        elif o.holds == worst.holds and _margin(o) > _margin(worst):
            worst = o
    params = dict(worst.params)
    params["tuples_checked"] = len(outcomes)
    return [
        CheckOutcome(
            worst.check_id, worst.group, params, worst.lhs, worst.rhs,
            all_hold, worst.witness,
        )
    ]


def _margin(o: CheckOutcome) -> Fraction:
    return o.lhs - o.rhs


def per_tuple_npleqcp(g, h):
    """Oracle: one np_le_cp outcome per shift pair, from the full walk."""
    rhs = cp(h)
    base = _subgroup_params(h)
    if rhs == 1:
        return [CheckOutcome("np_le_cp", g.label, {**base, "vacuous": True},
                             Fraction(1), rhs, True)]
    return [
        CheckOutcome("np_le_cp", g.label, {**base, "shifts": list(tup)}, val, rhs, val <= rhs)
        for tup, val in all_shift_values(g, h, 1)
    ]


def per_tuple_shift_monotonicity(g, n, k):
    """Oracle: one shift_monotonicity outcome per shift tuple, from the full walk."""
    rhs = np_fast(g, n, identity_shifts(k)).value
    base = {**_subgroup_params(n, "n"), "k": k}
    if rhs == 1:
        return [CheckOutcome("shift_monotonicity", g.label, {**base, "vacuous": True},
                             Fraction(1), rhs, True)]
    return [
        CheckOutcome("shift_monotonicity", g.label, {**base, "shifts": list(tup)},
                     val, rhs, val <= rhs)
        for tup, val in all_shift_values(g, n, k)
    ]


def verifier(name: str, **cfg) -> GroupVerifier:
    return GroupVerifier(catalog_get(name), CorpusConfig(**cfg))


def normal_of_order(v: GroupVerifier, n: int):
    return next(h for h in v.normals if h.order == n)


def test_gap_constants():
    assert gap_constant(1) == Fraction(5, 8)
    assert gap_constant(2) == Fraction(13, 16)
    assert gap_constant_tight(1) == Fraction(1, 4)
    assert gap_constant_tight(2) == Fraction(5, 8)
    for k in range(1, 10):
        assert gap_constant(k) > gap_constant_tight(k)


def test_npleqcp_abelian_vacuous():
    v = verifier("S(3)")
    out = check_npleqcp(v, normal_of_order(v, 3))
    assert out.holds and out.rhs == 1
    assert out.params["vacuous"]


def test_npleqcp_s4_a4():
    v = verifier("S(4)")
    out = check_npleqcp(v, normal_of_order(v, 12))
    assert out.params["tuples_checked"] == 4  # two cosets, shift pairs
    assert out.holds and out.rhs == Fraction(1, 3)
    assert out.lhs == out.rhs and out.params["shifts"] == [0, 0]


def test_center_recursion_whole_group_examples():
    v = verifier("S(3)")
    out = check_center_recursion(v, v.top, 2)
    assert len(out) == 1
    o = out[0]
    assert o.holds and o.lhs == Fraction(3, 4) and o.rhs == Fraction(3, 4)

    v = verifier("Q8")
    out = check_center_recursion(v, v.top, 2)
    assert out[0].holds and out[0].lhs == 1 and out[0].rhs == 1


def test_center_recursion_central_subgroup_trivial_shifts():
    # for central H the trivial-shift instance has rhs exactly 1
    v = verifier("Q8")
    out = check_center_recursion(v, center(v.g), 1)
    trivial = next(o for o in out if o.params["shifts"] == [0, 0])
    assert trivial.rhs == 1 and trivial.holds


def test_center_recursion_proper_subgroup_is_not_an_inequality():
    # the README's example: A3 in S3 at k = 1, trivial shifts
    v = verifier("S(3)")
    trivial = check_center_recursion(v, normal_of_order(v, 3), 1)[0]
    assert trivial.params["shifts"] == [0, 0]
    assert (trivial.lhs, trivial.rhs, trivial.holds) == (1, Fraction(2, 3), False)


def test_class_characterization_examples():
    v = verifier("C(6)")
    o = check_class_characterization(v, v.top, 1)
    assert o.holds and o.lhs == 1

    v = verifier("S(3)")
    assert check_class_characterization(v, normal_of_order(v, 3), 1).holds

    o = check_class_characterization(v, v.top, 3)
    assert o.holds
    assert o.lhs == Fraction(7, 8)  # below 1, and S3 is not nilpotent


def test_gap_bound_skips_low_class():
    v = verifier("C(12)")
    assert check_gap_bound(v, v.top, 1) == []
    v = verifier("Q8")
    assert check_gap_bound(v, v.top, 2) == []


def test_gap_bound_s3():
    v = verifier("S(3)")
    for k, value, tight_holds in [(1, Fraction(1, 2), False), (2, Fraction(3, 4), False)]:
        loose, tight = check_gap_bound(v, v.top, k)
        assert loose.check_id == "gap_bound" and loose.holds
        assert loose.lhs == value
        assert tight.check_id == "gap_bound_tight"
        assert tight.holds == tight_holds


def test_gap_bound_sharp_at_q8():
    v = verifier("Q8")
    loose, tight = check_gap_bound(v, v.top, 1)
    assert loose.lhs == loose.rhs == Fraction(5, 8)
    assert loose.holds and not tight.holds


def test_submultiplicativity_examples():
    v = verifier("S(3)")
    o = check_submultiplicativity(v, normal_of_order(v, 3), v.top, 1)
    assert o.holds and o.lhs == Fraction(1, 2) and o.rhs == 1

    o = check_submultiplicativity(v, normal_of_order(v, 1), v.top, 1)
    assert o.holds and o.lhs == o.rhs == Fraction(1, 2)

    v = verifier("S(3)xS(3)")
    o = check_submultiplicativity(v, normal_of_order(v, 9), v.top, 1)
    assert o.holds and o.lhs == Fraction(1, 4) and o.rhs == 1


def test_submultiplicativity_requires_containment():
    v = verifier("S(4)")
    with pytest.raises(ValueError):
        check_submultiplicativity(v, normal_of_order(v, 12), normal_of_order(v, 4), 1)


def test_shift_monotonicity_vacuous_for_abelian():
    v = verifier("S(3)")
    out = check_shift_monotonicity(v, normal_of_order(v, 3), 1)
    assert out.holds and out.params["vacuous"]


def test_shift_monotonicity_s4_a4():
    v = verifier("S(4)")
    a4 = normal_of_order(v, 12)
    for k in (1, 2):
        out = check_shift_monotonicity(v, a4, k)
        assert out.params["tuples_checked"] == 2 ** (k + 1)
        assert out.holds
        # the trivial shifts attain the supremum and come first
        assert out.params["shifts"] == [0] * (k + 1) and out.lhs == out.rhs


def test_max_bad_series_length():
    k = 1
    assert max_bad_series_length(normal_subgroups(catalog_get("C(12)")), k)[0] == -1
    assert max_bad_series_length(normal_subgroups(catalog_get("C(1)")), k)[0] == -1

    r, chain = max_bad_series_length(normal_subgroups(catalog_get("S(3)")), k)
    assert r == 0
    assert [c.order for c in chain] == [6, 1]

    normals = normal_subgroups(catalog_get("S(3)xS(3)"))
    r, chain = max_bad_series_length(normals, k)
    assert r == 1
    assert [c.order for c in chain] == [36, 6, 1]

    # at k = 2 the S3 factors are still not nilpotent, so r stays 1
    assert max_bad_series_length(normals, 2)[0] == 1


def test_series_bound_examples():
    loose, tight = check_series_bound(verifier("S(3)"), 1)
    assert loose.holds
    assert abs(loose.rhs - 1.4747) < 1e-3  # ln(1/2)/ln(5/8)
    assert tight.holds  # 0 < ln(1/2)/ln(1/4) = 0.5

    loose, tight = check_series_bound(verifier("S(3)xS(3)"), 1)
    assert loose.holds and abs(loose.rhs - 2.9497) < 1e-3
    assert not tight.holds and abs(tight.rhs - 1.0) < 1e-12
    # the equality boundary, decided exactly: np_1 = 1/4 is the tight
    # constant and r = 1, and (1/4)^1 > 1/4 is false
    assert tight.params["np_k"] == gap_constant_tight(1) == Fraction(1, 4)
    assert tight.params["r"] == 1 and tight.holds is False

    assert check_series_bound(verifier("C(1)"), 1) == []


def test_run_corpus_empty():
    report = run_corpus(CorpusConfig(group_names=[]))
    assert report.must_hold_ok
    assert report.summary()["checks"] == 0


def test_run_corpus_collects_bad_definitions():
    cfg = CorpusConfig(group_names=["S(3)", "NotAGroupName"], ks=(1,))
    report = run_corpus(cfg)
    assert report.must_hold_ok
    assert any("NotAGroupName" in s["group"] for s in report.skipped)


def test_run_corpus_skips_a_definition_nested_too_deeply():
    # past the interpreter's recursion limit a definition is bad input, like any other
    deep = {"kind": "catalog", "name": "C(2)", "label": "deep"}
    for _ in range(3000):
        deep = {"kind": "product", "factors": [deep], "label": "deep"}
    good = {"kind": "catalog", "name": "C(3)", "label": "three"}
    report = run_corpus(CorpusConfig(definitions=[deep, good], ks=(1,)))
    assert [s["group"] for s in report.skipped] == ["deep"]
    assert "recursion" in report.skipped[0]["reason"]
    assert {o.group for o in report.outcomes} == {"three"}


def test_run_corpus_respects_order_cap():
    cfg = CorpusConfig(group_names=["C(100)"], ks=(1,), max_order=64)
    report = run_corpus(cfg)
    assert any(s["group"] == "C(100)" for s in report.skipped)


def test_run_corpus_small_is_clean():
    cfg = CorpusConfig(
        group_names=["S(3)", "Q8", "C(6)", "S(4)", "SL(2,3)"], ks=(1, 2),
        k_order_limits={},
    )
    report = run_corpus(cfg)
    assert report.must_hold_ok
    assert report.summary()["checks"] > 100
    # probes are the only failures, and they are collected as findings
    assert all(f.check_id in PROBE_CHECKS for f in report.findings)
    assert any(
        f.group == "S(3)" and f.check_id == "gap_bound_tight" and f.params["k"] == 2
        for f in report.findings
    )


def test_run_corpus_sharpness_witnesses():
    cfg = CorpusConfig(group_names=["S(3)", "Q8", "D(8)"], ks=(1, 2), k_order_limits={})
    report = run_corpus(cfg)
    sharp = {(s.group, s.check_id) for s in report.sharpness}
    assert ("Q8", "gap_bound") in sharp
    assert ("D(8)", "gap_bound") in sharp
    assert ("S(3)", "center_recursion") in sharp


def test_run_corpus_cyclic_subgroup_flag():
    cfg = CorpusConfig(group_names=["S(4)"], ks=(1,), include_cyclic_subgroups=True,
                       k_order_limits={})
    report = run_corpus(cfg)
    assert report.must_hold_ok
    cfg_plain = CorpusConfig(group_names=["S(4)"], ks=(1,), k_order_limits={})
    assert report.summary()["checks"] > run_corpus(cfg_plain).summary()["checks"]


def test_report_json_deterministic():
    cfg = CorpusConfig(group_names=["S(3)", "Q8"], ks=(1, 2), k_order_limits={})
    a = json.dumps(run_corpus(cfg).to_json(include_timing=False), sort_keys=True)
    b = json.dumps(run_corpus(cfg).to_json(include_timing=False), sort_keys=True)
    assert a == b


def test_report_schema():
    cfg = CorpusConfig(group_names=["S(3)"], ks=(1,), k_order_limits={})
    doc = run_corpus(cfg).to_json()
    assert set(doc) >= {"summary", "outcomes", "findings", "environment", "skipped"}
    assert doc["environment"]["budgets"]["shift_budget"] > 0
    for o in doc["outcomes"]:
        assert set(o) >= {"check", "group", "params", "lhs", "rhs", "holds"}
        assert o["check"] in ALL_CHECKS


def test_default_corpus_names():
    names = default_corpus_names()
    assert "S(3)xS(3)" in names
    assert "Q8" in names and "Heis(3)" in names
    assert "S(5)" not in names  # order 120 is over the cap
    assert len(names) > 100


def test_all_checks_partition():
    assert set(MUST_HOLD_CHECKS) | set(PROBE_CHECKS) == set(ALL_CHECKS)
    assert not set(MUST_HOLD_CHECKS) & set(PROBE_CHECKS)


def test_threaded_run_matches_serial():
    for names, overrides, refused in [
        (["S(3)", "Q8", "A(4)"], {"ks": (1,), "k_order_limits": {}}, 0),
        # 16 calls over S(3)x1 and 1xS(3) at k = 2 are refused, in a worker as in series
        (["S(3)xS(3)", "S(3)"], {"shift_budget": 200}, 16),
    ]:
        serial = run_corpus(CorpusConfig(group_names=names, **overrides))
        par = run_corpus(CorpusConfig(group_names=names, threads=2, **overrides))
        assert len(serial.skipped) == refused
        a = json.dumps(serial.to_json(include_timing=False), sort_keys=True)
        b = json.dumps(par.to_json(include_timing=False), sort_keys=True)
        assert a == b


def test_aggregate_picks_the_worst_margin_exactly():
    # both hold, and their margins differ by 10^-30, which floats cannot
    # see; the reported outcome must be the one with the larger lhs
    rhs = Fraction(1, 2)
    near = Fraction(1, 3)
    nearer = near + Fraction(1, 10 ** 30)
    assert float(near) - float(rhs) == float(nearer) - float(rhs)
    outcomes = [
        CheckOutcome("np_le_cp", "G", {"shifts": [0, 0]}, near, rhs, True),
        CheckOutcome("np_le_cp", "G", {"shifts": [0, 1]}, nearer, rhs, True),
    ]
    (worst,) = _aggregate(outcomes)
    assert worst.lhs == nearer and worst.params == {"shifts": [0, 1], "tuples_checked": 2}
    assert worst.holds


def supremum_cases():
    # most subgroups of SMALL are nilpotent, hence vacuous; the larger
    # groups add subgroups of small index with many non-vacuous tuples
    for name in SMALL + ["S(4)", "S(3)xS(3)", "D(12)"]:
        v = verifier(name)
        for h in subgroup_pool(v.g):
            yield v, h
    g, h = tie_case()
    yield GroupVerifier(g, CorpusConfig()), h


@pytest.mark.parametrize("k", [1, 2, 3])
def test_supremum_checks_match_aggregated_per_tuple_outcomes(k):
    # the supremum and its lex-smallest maximiser are exactly what the
    # worst-tuple aggregation of the full walk reported
    outcomes = []
    for v, h in supremum_cases():
        g = v.g
        if (g.order // h.order) ** (k + 1) > 2000:
            continue
        if k == 1:
            (expected,) = _aggregate(per_tuple_npleqcp(g, h))
            outcomes.append(check_npleqcp(v, h))
            assert outcomes[-1] == expected, (g.label, h.elements)
        (expected,) = _aggregate(per_tuple_shift_monotonicity(g, h, k))
        outcomes.append(check_shift_monotonicity(v, h, k))
        assert outcomes[-1] == expected, (g.label, h.elements, k)
    assert sum("tuples_checked" in o.params for o in outcomes) >= 5


# -- the streamed report writer --------------------------------------------------


def _dumped(report: VerificationReport, include_timing: bool) -> str:
    return json.dumps(report.to_json(include_timing), sort_keys=True, indent=2) + "\n"


def _written(report: VerificationReport, include_timing: bool) -> str:
    buf = io.StringIO()
    report.write_json(buf, include_timing)
    return buf.getvalue()


@pytest.mark.parametrize("include_timing", [False, True])
def test_write_json_matches_json_dump_on_a_corpus(include_timing):
    cfg = CorpusConfig(group_names=["S(3)", "Q8", "D(8)", "SL(2,3)"], ks=(1, 2),
                       k_order_limits={})
    report = run_corpus(cfg)
    assert report.findings and report.sharpness
    assert _written(report, include_timing) == _dumped(report, include_timing)


def _hand_built_reports():
    yield VerificationReport()
    odd = CheckOutcome(
        "series_bound", 'SL(2,3) "quoted", ünïcode',
        {"k": 1, "r": -1, "np_k": Fraction(1, 3), "shifts": (0, 5), "nested": [(1, 2), []]},
        -1, float("nan"), False, {"chain_orders": [], "note": None, "ratio": -0.25},
    )
    plain = CheckOutcome("np_le_cp", "C(2)", {}, Fraction(1), Fraction(1), True)
    yield VerificationReport(
        outcomes=[plain, odd],
        skipped=[{"group": "SL(2,3)", "reason": 'order 24 > "cap", or not'},
                 {"group": "Ω", "reason": "tab\there\nnewline"},
                 {"group": "S(4)", "check": "class_characterization", "k": 2, "h_order": 12,
                  "h_elements": [0, 3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23],
                  "reason": "shift tuple enumeration needs 8 iterations, budget is 3"}],
        not_applicable=3,
        environment={"seed": None, "ks": (1, 2), "budgets": {}, "inf": float("inf")},
        timing={"C(2)": 0.001, "SL(2,3)": 1e-7},
    )


@pytest.mark.parametrize("report", list(_hand_built_reports()))
@pytest.mark.parametrize("include_timing", [False, True])
def test_write_json_matches_json_dump_on_hand_built_reports(report, include_timing):
    assert _written(report, include_timing) == _dumped(report, include_timing)


_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([2 ** 70, -(2 ** 70), -0.0, 1e300, "SL(2,3)", '"'])
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=25,
)


@given(value=_json_values, depth=st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_encode_json_matches_json_dumps(value, depth):
    indent = "  " * depth
    expected = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)
    assert _encode_json(value, indent) == expected


def test_encode_json_takes_str_keys_only():
    # json.dumps would write the first five as text; report keys are all str
    for key in (2, -1.5, False, None, float("nan"), (1, 2)):
        with pytest.raises(TypeError):
            _encode_json({key: 0}, "")
        with pytest.raises(TypeError):
            _encode_json([{"a": {key: []}}], "  ")
    with pytest.raises(TypeError):
        _encode_json([Fraction(1, 2)], "")


# -- per-group memos --------------------------------------------------------------


def _counting(monkeypatch, module, name: str) -> list:
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_identity_witness_seeds_the_np_memo(monkeypatch):
    v = verifier("S(4)")
    a4 = normal_of_order(v, 12)
    value, witness = v.sup(v.g, a4, 1)
    assert witness == identity_shifts(1)
    calls = _counting(monkeypatch, verify_module, "np_fast")
    out = check_shift_monotonicity(v, a4, 1)
    assert calls == [] and out.rhs == value == np_fast(v.g, a4, (0, 0)).value
    assert out == check_shift_monotonicity(verifier("S(4)"), a4, 1)


def test_shift_monotonicity_computes_rhs_when_the_witness_is_not_the_identity(monkeypatch):
    v = verifier("S(4)")
    a4 = normal_of_order(v, 12)
    # a fake supremum attained elsewhere: its value must not stand in for
    # the identity tuple's
    monkeypatch.setattr(verify_module, "np_sup", lambda g, h, k, budget: (Fraction(1, 2), (0, 1)))
    assert v.sup(v.g, a4, 1) == (Fraction(1, 2), (0, 1))
    calls = _counting(monkeypatch, verify_module, "np_fast")
    out = check_shift_monotonicity(v, a4, 1)
    assert len(calls) == 1
    assert out.rhs == np_fast(v.g, a4, (0, 0)).value == cp(a4)
    assert out.lhs == Fraction(1, 2) and out.params["shifts"] == [0, 1]


def test_np_memo_checks_the_tuple_budget_before_the_lookup():
    g = catalog_get("S(4)")
    a4 = normal_of_order(verifier("S(4)"), 12)
    work = 3 * g.order * a4.order
    enough = GroupVerifier(g, CorpusConfig(tuple_budget=work))
    assert enough.np(g, a4, (0, 0, 0)) == np_fast(g, a4, (0, 0, 0)).value
    short = GroupVerifier(g, CorpusConfig(tuple_budget=work - 1))
    short.sup(g, a4, 2)  # an identity witness, so np at (0, 0, 0) is memoised
    with pytest.raises(BudgetExceeded):
        short.np(g, a4, (0, 0, 0))
    with pytest.raises(BudgetExceeded):
        check_shift_monotonicity(short, a4, 2)


def test_groups_over_the_shift_budget_only_at_h_of_class_at_most_k_are_kept():
    # at the default budget, S(5) and Heis(5) exceed it only at H = 1 and
    # k = 2 (120^3 and 125^3 shift tuples), where the identity tuple gives 1
    report = run_corpus(CorpusConfig(group_names=["S(5)", "Heis(5)"]))
    assert report.skipped == []
    assert Counter(o.group for o in report.outcomes) == {"S(5)": 41, "Heis(5)": 113}
    trivial = [o for o in report.outcomes if o.check_id == "class_characterization"
               and o.params["h_order"] == 1 and o.params["k"] == 2]
    assert [(o.group, o.lhs, o.holds) for o in trivial] == [
        ("Heis(5)", Fraction(1), True), ("S(5)", Fraction(1), True)]


@pytest.mark.parametrize("name", ["S(4)", "D(12)", "SL(2,3)", "C(2)xQ8"])
def test_one_lower_central_walk_per_subgroup(monkeypatch, name):
    v = verifier(name, include_cyclic_subgroups=True, k_order_limits={})
    walks = _counting(monkeypatch, structure, "_lcs_within")
    v.run()
    walked = [h.elements for (h,) in walks]
    subgroups = {h.elements for h in v.subgroup_sources() + v.normals}
    assert sorted(walked) == sorted(subgroups)


def test_threads_are_bounded_by_groups_and_cpus(monkeypatch):
    import concurrent.futures

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    names = ["S(3)", "Q8", "C(4)"]
    serial = run_corpus(CorpusConfig(group_names=names, ks=(1,))).to_json(False)
    for cpus, threads, workers in [(64, 100_000, 3), (2, 100_000, 2), (64, 2, 2)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = CorpusConfig(group_names=names, ks=(1,), threads=threads)
        assert run_corpus(cfg).to_json(False) == serial
        assert pools[-1] == workers
    # one CPU, or one group, runs in-process
    for cpus, names in [(1, ["S(3)", "Q8"]), (None, ["S(3)", "Q8"]), (64, ["S(3)"])]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        run_corpus(CorpusConfig(group_names=names, ks=(1,), threads=100_000))
    assert len(pools) == 3
