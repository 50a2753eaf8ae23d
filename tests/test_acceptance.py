"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Criteria 3, 4, 5, the report half of criterion 8 and the two
corpus pins at the end share one default-corpus verification run
(module-scoped fixture).
"""

import contextlib
import hashlib
import io
import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nilprob import structure
from nilprob.cli import main
from nilprob.exact import identity_shifts, np_bruteforce, np_fast, np_k
from nilprob.groups import catalog_base_names, catalog_generators, catalog_get
from nilprob.montecarlo import estimate_np
from nilprob.perms import schreier_sims
from nilprob.structure import left_coset_reps, normal_subgroups, whole_group

from seeded import stream_rng


def report_line(number, passed, description):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description}")


class criterion:
    """Prints the criterion line whether or not the body raised."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        report_line(self.number, exc_type is None, self.description)
        return False


#: Per-group digests of the default corpus's (group, check, k, lhs, holds) rows.
CORPUS_ROWS = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "corpus_rows.json"


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    """Two identical default-corpus CLI runs; reports written to disk.

    Also returns how often each run walked a lower central series.
    """
    tmp = tmp_path_factory.mktemp("verify")
    paths = [tmp / "report1.json", tmp / "report2.json"]
    codes, walks = [], []
    lcs_within = structure._lcs_within
    start = time.monotonic()
    for path in paths:
        calls = []

        def counted(h):
            calls.append(h)
            return lcs_within(h)

        with contextlib.redirect_stdout(io.StringIO()), pytest.MonkeyPatch.context() as mp:
            mp.setattr(structure, "_lcs_within", counted)
            codes.append(
                main(
                    ["--format", "json", "--no-cache", "verify",
                     "--report", str(path)]
                )
            )
        walks.append(len(calls))
    elapsed = time.monotonic() - start
    docs = [json.loads(p.read_text()) for p in paths]
    return codes, docs, [p.read_bytes() for p in paths], elapsed, walks


def test_criterion_1_exact_values():
    with criterion(1, "exact desk values via the brute-force oracle"):
        cases = [
            ("S(3)", 1, Fraction(1, 2)),
            ("Q8", 1, Fraction(5, 8)),
            ("D(8)", 1, Fraction(5, 8)),
            ("S(4)", 1, Fraction(5, 24)),
            ("S(3)", 2, Fraction(3, 4)),
            ("S(3)", 3, Fraction(7, 8)),
            ("Q8", 2, Fraction(1)),
            ("D(8)", 2, Fraction(1)),
            ("S(3)xS(3)", 2, Fraction(9, 16)),
        ]
        for name, k, expected in cases:
            g = catalog_get(name)
            start = time.monotonic()
            value = np_bruteforce(g, whole_group(g), identity_shifts(k)).value
            elapsed = time.monotonic() - start
            assert value == expected, (name, k, value, expected)
            assert elapsed < 1.0, (name, k, elapsed)
        # the k = 1 cases above are commuting probabilities: cp agrees
        from nilprob.exact import cp

        for name, k, expected in cases:
            if k == 1:
                assert cp(catalog_get(name)) == expected


def _oracle_sweep(limit_orders=16, ks=(1, 2, 3)):
    mismatches = 0
    comparisons = 0
    for name in catalog_base_names(limit_orders):
        g = catalog_get(name)
        for h in normal_subgroups(g):
            for k in ks:
                for tup in itertools.product(left_coset_reps(g, h), repeat=k + 1):
                    fast = np_fast(g, h, tup)
                    brute = np_bruteforce(g, h, tup)
                    comparisons += 1
                    if (fast.value, fast.total_tuples) != (
                        brute.value,
                        brute.total_tuples,
                    ):
                        mismatches += 1
    return comparisons, mismatches


def test_criterion_2_oracle_equivalence():
    with criterion(2, "dp path equals brute force on all of order <= 16"):
        comparisons, mismatches = _oracle_sweep()
        assert mismatches == 0
        assert comparisons > 500000  # every subgroup, every tuple, k in 1..3


def test_criterion_3_theorem_suite(corpus_run):
    with criterion(3, "must-hold suite clean on the default corpus, exit 0"):
        codes, docs, _, elapsed, _ = corpus_run
        assert codes[0] == 0
        assert docs[0]["summary"]["violations"] == 0
        assert docs[0]["violations"] == []
        assert elapsed < 1800.0
        # the corpus really covered the advertised groups
        groups_seen = {o["group"] for o in docs[0]["outcomes"]}
        assert {"S(3)", "Q8", "D(8)", "S(4)", "A(5)", "Heis(3)", "S(3)xS(3)",
                "D(64)", "SL(2,3)"} <= groups_seen


def test_criterion_4_sharpness_witnesses(corpus_run):
    with criterion(4, "sharpness: Q8/D(8) at 5/8 and S(3) recursion at 3/4"):
        _, docs, _, _, _ = corpus_run
        sharp = {
            (s["group"], s["check"], s["params"].get("k"), s["lhs"])
            for s in docs[0]["sharpness"]
        }
        assert ("Q8", "gap_bound", 1, "5/8") in sharp
        assert ("D(8)", "gap_bound", 1, "5/8") in sharp
        assert ("S(3)", "center_recursion", 2, "3/4") in sharp


def test_criterion_5_tight_constant_findings(corpus_run):
    with criterion(5, "tight-constant findings recorded while exiting 0"):
        codes, docs, _, _, _ = corpus_run
        assert codes[0] == 0  # findings never fail the run
        findings = {
            (f["group"], f["check"], f["params"].get("k")) for f in docs[0]["findings"]
        }
        assert ("S(3)", "gap_bound_tight", 2) in findings
        assert ("S(3)xS(3)", "series_bound_tight", 1) in findings
        s3_gap = next(
            f for f in docs[0]["findings"]
            if f["group"] == "S(3)" and f["check"] == "gap_bound_tight"
            and f["params"]["k"] == 2
        )
        assert s3_gap["lhs"] == "3/4" and s3_gap["rhs"] == "5/8"


def test_criterion_6_shift_invariance():
    with criterion(6, "50 seeded shift tuples reproduce np_k exactly, order <= 24"):
        rng = stream_rng(606)
        for name in catalog_base_names(24):
            g = catalog_get(name)
            top = whole_group(g)
            for k in (1, 2):
                expected = np_k(g, k).value
                for _ in range(50):
                    shifts = tuple(rng.randrange(g.order) for _ in range(k + 1))
                    assert np_fast(g, top, shifts).value == expected, (name, k, shifts)


def test_criterion_7_monte_carlo():
    with criterion(7, "S(5) interval covers 7/120; S(3) calibration >= 90%"):
        start = time.monotonic()
        _, gens, _ = catalog_generators("S(5)")
        s5 = schreier_sims(gens)
        result = estimate_np(s5, 1, 100000, seed=42)
        assert result.ci_low <= 7 / 120 <= result.ci_high

        _, gens3, _ = catalog_generators("S(3)")
        s3 = schreier_sims(gens3)
        covered = 0
        for seed in range(200):
            est = estimate_np(s3, 1, 10 ** 4, seed=seed)
            if est.ci_low <= 0.5 <= est.ci_high:
                covered += 1
        assert covered >= 180
        assert time.monotonic() - start <= 60.0


def test_criterion_8_determinism(corpus_run):
    with criterion(8, "reruns reproduce values and reports bit-identically"):
        # criterion 1 values
        s3 = catalog_get("S(3)")
        assert np_bruteforce(s3, whole_group(s3), identity_shifts(2)).value == \
            np_bruteforce(s3, whole_group(s3), identity_shifts(2)).value
        # criterion 2 slice
        q8 = catalog_get("Q8")
        h = normal_subgroups(q8)[1]
        runs = [
            [np_fast(q8, h, t).value
             for t in itertools.product(left_coset_reps(q8, h), repeat=2)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        # criterion 3 report files
        codes, _, blobs, _, _ = corpus_run
        assert codes[0] == codes[1] == 0
        assert blobs[0] == blobs[1]
        # criterion 7 estimator
        _, gens, _ = catalog_generators("S(5)")
        s5 = schreier_sims(gens)
        assert estimate_np(s5, 1, 20000, seed=42) == estimate_np(s5, 1, 20000, seed=42)


def test_corpus_rows_match_the_reference_digests(corpus_run):
    # all 9407 rows, pinned per group in the digest format of perfbench/workloads.py
    _, docs, _, _, _ = corpus_run
    reference = json.loads(CORPUS_ROWS.read_text(encoding="utf-8"))
    rows: dict[str, list[str]] = {}
    for o in docs[0]["outcomes"]:
        row = [o["group"], o["check"], o["params"].get("k"), o["lhs"], o["holds"]]
        rows.setdefault(o["group"], []).append(json.dumps(row))
    assert len(docs[0]["outcomes"]) == reference["outcomes"] == 9407
    assert sorted(rows) == sorted(reference["groups"])
    for group, expected in reference["groups"].items():
        digest = hashlib.sha256("\n".join(rows[group]).encode()).hexdigest()
        assert (len(rows[group]), digest) == (expected["rows"], expected["sha256"]), group


def test_corpus_walks_each_lower_central_series_once(corpus_run):
    # one walk per distinct subgroup source (the normal subgroups of each
    # group, G among them); walking for the class and again for the series
    # bound took 1250
    _, _, _, _, walks = corpus_run
    assert walks == [627, 627]


def test_budget_refusals_drop_single_outcomes(corpus_run, tmp_path):
    # at --budget-shifts 200 the suprema over S(3)x1 and 1xS(3) in S(3)xS(3)
    # at k = 2 (6^3 = 216 shift tuples) are refused; each refused call is one
    # skipped entry, and every other outcome is the default-budget run's
    _, docs, _, _, _ = corpus_run
    path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--budget-shifts", "200", "verify", "--no-cache", "--report", str(path)])
    doc = json.loads(path.read_text())
    assert code == 0 and len(doc["outcomes"]) == 9389
    rest = iter(docs[0]["outcomes"])
    assert all(any(o == full for full in rest) for o in doc["outcomes"])  # in order
    distinct = {json.dumps(s, sort_keys=True) for s in doc["skipped"]}
    assert len(doc["skipped"]) == len(distinct) == 16
    assert all(s["group"] == "S(3)xS(3)" and s["k"] == 2 and s["reason"].endswith("budget is 200")
               for s in doc["skipped"])
    assert doc["summary"]["skipped"] == 16
    assert doc["summary"]["not_applicable"] == docs[0]["summary"]["not_applicable"] == 1257


def test_readme_library_example_runs():
    # the first code block under "## Library" in the README, as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "run_corpus(nb.CorpusConfig.default())" in code
    exec(compile(code, "README.md", "exec"), {})
