"""The benchmark's own tests; from the checkout root: ``python3 -m pytest perfbench/tests -q``."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import CorpusVerify, ExactLarge, McEstimate, SupShifts, WORKLOADS  # noqa: E402

# -- self-time arithmetic --------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    # 0 root [0, 10]; 1 [1, 4] with child 2 [2, 3]; 3 [5, 9] and 4 [8, 9.5]
    # overlap; 5 [9.5, 11] sticks out of the root and is clipped to [9.5, 10].
    parent = [-1, 0, 1, 0, 0, 0]
    start = [0.0, 1.0, 2.0, 5.0, 8.0, 9.5]
    end = [10.0, 4.0, 3.0, 9.0, 9.5, 11.0]
    got = spans.self_times(parent, start, end)
    # root children cover [1, 4] + [5, 9.5] + [9.5, 10] = 3 + 4.5 + 0.5
    assert got == pytest.approx([2.0, 2.0, 1.0, 4.0, 1.5, 1.5])


def test_layer_metrics_sum_self_times_and_count_calls():
    data = {
        "names": ["cli.main", "verify.run_corpus", "exact.np_fast", "exact.np_k"],
        "name": [0, 1, 3, 2, 2],
        "parent": [-1, 0, 1, 2, 1],
        "start": [0.0, 1.0, 2.0, 2.5, 5.0],
        "end": [10.0, 8.0, 4.0, 3.5, 6.0],
        "counts": {"verify.outcomes": 7},
    }
    metrics, total = spans.layer_metrics(data)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["verify.self_s"] == pytest.approx(4.0)
    assert metrics["exact.dp_s"] == pytest.approx(3.0)  # np_k 1 + np_fast 1 + np_fast 1
    assert metrics["exact.dp_calls"] == 2  # np_k is counted through its np_fast call
    assert metrics["verify.outcomes"] == 7
    assert metrics["perms.draws"] == 0
    assert total == pytest.approx(10.0)  # self times add up to the root's duration


def test_layer_metrics_reject_unclaimed_spans():
    data = {"names": ["nowhere.f"], "name": [0], "parent": [-1], "start": [0.0],
            "end": [1.0], "counts": {}}
    with pytest.raises(ValueError, match="nowhere.f"):
        spans.layer_metrics(data)


def test_every_span_belongs_to_one_metric():
    names = [s for group in spans.TIME_METRICS.values() for s in group]
    assert len(names) == len(set(names))
    for group in spans.CALL_COUNTS.values():
        assert set(group) <= set(names)


def test_recorder_nests_calls_and_splits_generators():
    rec = spans.Recorder()

    def gen(n):
        yield from range(n)

    inner = rec.wrap("inner", lambda x: x + 1)
    items = rec.wrap_generator("gen", gen, "items")
    outer = rec.wrap("outer", lambda: [inner(i) for i in items(3)])
    assert outer() == [1, 2, 3]
    names = [rec.names[i] for i in rec.span_name]
    assert names == ["outer", "gen", "inner", "gen", "inner", "gen", "inner", "gen"]
    assert set(rec.span_parent[1:]) == {0}  # the generator's steps hang off the consumer
    assert rec.counts["items"] == 3
    assert all(e >= s for s, e in zip(rec.span_start, rec.span_end))


# -- expected values, from code that shares nothing with nilprob -----------------


def test_exact_large_expectation_is_the_product_of_its_factors():
    d64 = reference.np_brute(reference.dihedral(64), 2)
    d32 = reference.np_brute(reference.dihedral(32), 2)
    assert (d64, d32) == (Fraction(43, 64), Fraction(23, 32))
    assert WORKLOADS["exact_large"].expected == d64 * d32 == Fraction(989, 2048)


def test_np_k_is_multiplicative_on_a_small_product():
    a, b = reference.dihedral(12), reference.dihedral(4)
    assert reference.np_brute(reference.product(a, b), 2) == (
        reference.np_brute(a, 2) * reference.np_brute(b, 2))


def test_library_oracle_agrees_on_the_factors():
    import nilprob as nb
    from nilprob.exact import identity_shifts, np_bruteforce

    for name, value in (("D(64)", Fraction(43, 64)), ("D(32)", Fraction(23, 32)),
                        ("S(3)", None)):
        g = nb.catalog_get(name)
        k = 3 if value is None else 2
        got = np_bruteforce(g, nb.whole_group(g), identity_shifts(k)).value
        assert got == (value if value is not None else WORKLOADS["sup_shifts"].expected)


def test_sup_shifts_and_mc_expectations():
    assert reference.np_brute(reference.symmetric(3), 3) == WORKLOADS["sup_shifts"].expected
    assert reference.partitions(8) == 22
    assert reference.cp_symmetric(8) == WORKLOADS["mc_estimate"].cp == Fraction(22, 40320)
    assert reference.cp_symmetric(5) == reference.np_brute(reference.symmetric(5), 1)


# -- toy-size runs through the same code path ------------------------------------

TOY = {
    "corpus_verify": CorpusVerify(("C(4)", "S(3)", "Q8")),
    "exact_large": ExactLarge("D(12)xD(4)", 2, reference.np_brute(
        reference.product(reference.dihedral(12), reference.dihedral(4)), 2)),
    "sup_shifts": SupShifts("S(3)xD(4)", normal_index=9, k=3, h_order=6, index=4,
                            expected=reference.np_brute(reference.symmetric(3), 3)),
    "mc_estimate": McEstimate("S(5)", (300, 200), reference.cp_symmetric(5)),
}


def _run(workload, tmp_path, trace, seed=7):
    return run.run_benchmark(workload, ROOT, seed, 0, trace, tmp_path / "scratch",
                             tmp_path / "counters.json")


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload_untraced(name, tmp_path):
    result, details = _run(TOY[name], tmp_path, False)
    assert details["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_ITERATIONS * len(TOY[name].argvs(7, tmp_path))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["stats"]["setup_s"]["n"] == run.SETUP_PROBES + run.MIN_ITERATIONS


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload_traced(name, tmp_path):
    result, details = _run(TOY[name], tmp_path, True)
    assert details["problems"] == []
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["trace.coverage"]["value"] >= run.COVERAGE_BAR


def test_changed_counter_fails_the_next_traced_run(tmp_path):
    toy = TOY["sup_shifts"]
    assert _run(toy, tmp_path, True)[0]["correct"]
    state_path = tmp_path / "counters.json"
    state = json.loads(state_path.read_text())
    (key,) = state
    state[key]["exact.shift_tuples"] += 1
    state_path.write_text(json.dumps(state))
    result, details = _run(toy, tmp_path, True)
    assert not result["correct"]
    assert any("exact.shift_tuples" in p for p in details["problems"])


def test_wrong_output_counts_as_failed(tmp_path):
    wrong = ExactLarge("D(12)xD(4)", 2, Fraction(1, 2))
    result, details = _run(wrong, tmp_path, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_ITERATIONS
    assert "expected 1/2" in details["problems"][0]


def test_seed_reaches_the_sampler():
    argvs = WORKLOADS["mc_estimate"].argvs(1234, Path("."))
    assert [a[a.index("--seed") + 1] for a in argvs] == ["1234", "1234"]


# -- the benchmark's contract ----------------------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
