"""Command-line interface end to end."""

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nilprob import cli, structure
from nilprob.cache import CACHE_FILENAME, np_key, sup_key
from nilprob.cli import main
from nilprob.errors import EmptyInput
from nilprob.groups import catalog_get, group_from_definition, group_to_definition


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_np_command_value(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "np", "--group", "S(3)", "--k", "2", "--no-cache"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "3/4"
    assert doc["method"] == "dp"


def test_np_trivial_cyclic(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "np", "--group", "C(6)", "--k", "1", "--no-cache"
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/1"


def test_np_relative_with_shifts(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "np", "--group", "S(3)", "--k", "1",
        "--subgroup-normal", "1", "--shifts", "1,0", "--no-cache",
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/3"


def test_np_sup_flag(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "np", "--group", "S(3)", "--k", "1",
        "--subgroup-normal", "1", "--sup", "--no-cache",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1/1"
    assert doc["witness_shifts"] == [0, 0]


def test_np_cp_flag(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "np", "--group", "Q8", "--cp", "--no-cache"
    )
    assert code == 0
    assert json.loads(out)["value"] == "5/8"


def test_np_uses_cache(capsys, tmp_path):
    args = ["--format", "json", "--cache-dir", str(tmp_path),
            "np", "--group", "S(3)", "--k", "2"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(out)["method"] == "dp"
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "cache" and doc["value"] == "3/4"


# a supremum over H of class at most k is exempt from the shift budget, so
# the refused suprema are over A(4), the non-nilpotent normal subgroup of
# index 2 in S(4): 2^(k+1) shift tuples
@pytest.mark.parametrize("argv, budget", [
    (["np", "--group", "S(4)", "--k", "3", "--sup", "--subgroup-normal", "2"],
     ["--budget-shifts", "10"]),
    (["np", "--group", "S(4)", "--k", "2"], ["--budget-tuples", "10"]),
    (["verify", "--group", "S(4)", "--checks", "class_characterization"],
     ["--budget-shifts", "3"]),
], ids=["np-sup", "np", "verify"])
def test_budgets_apply_whatever_the_cache_holds(capsys, tmp_path, argv, budget):
    # a run at the default budgets fills the cache; a lower budget must
    # then refuse exactly what it refuses without a cache
    cached = ["--format", "json", "--cache-dir", str(tmp_path)]
    assert run_cli(capsys, *cached, *argv)[0] == 0
    warm = run_cli(capsys, *cached, *argv, *budget)
    cold = run_cli(capsys, "--format", "json", "--no-cache", *argv, *budget)
    assert warm == cold
    if argv[0] == "np":
        assert cold[0] == 2 and "budget is 10" in cold[2]
    else:
        # a refused call drops its outcome only: A(4), of order 12, at each k
        doc = json.loads(cold[1])
        assert cold[0] == 0 and len(doc["outcomes"]) == 9
        assert [(s["group"], s["check"], s["h_order"], s["k"]) for s in doc["skipped"]] == [
            ("S(4)", "class_characterization", 12, k) for k in (1, 2, 3)]


def test_np_bad_group_exits_2(capsys):
    code, _, err = run_cli(capsys, "np", "--group", "Nope(3)", "--no-cache")
    assert code == 2
    assert "cannot resolve group" in err


def test_mul_table_above_max_order_exits_2(capsys):
    doc = json.dumps({"kind": "mul_table",
                      "mul": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]})
    code, out, err = run_cli(
        capsys, "np", "--group-json", doc, "--max-order", "2", "--k", "1", "--no-cache"
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_np_budget_error_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "--budget-shifts", "2", "np", "--group", "S(4)",
        "--subgroup-normal", "2", "--k", "1", "--sup", "--no-cache",
    )
    assert code == 2
    assert "budget" in err


def test_np_sup_over_h_of_class_at_most_k_has_no_shift_budget(capsys):
    # H = 1 in S(4) at k = 1: 576 shift tuples, but np_1(1) = 1 at the identity
    code, out, _ = run_cli(
        capsys, "--budget-shifts", "2", "--format", "json", "np", "--group", "S(4)",
        "--subgroup-normal", "0", "--k", "1", "--sup", "--no-cache",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1/1" and doc["witness_shifts"] == [0, 0]


def test_estimate_refuses_an_oversized_chain(capsys):
    # 200,000 transversal rows of degree 200,000 would need 40 billion
    # cells; the orbit is found first and refused before any row is
    # stored.  A subprocess with capped address space keeps a regression
    # from taking the machine's memory.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 10 ** 9, 3 * 10 ** 9))

    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "nilprob.cli", "estimate", "--group", "C(200000)",
         "--k", "1", "--samples", "100"],
        env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=cap_memory,
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.splitlines() == [
        "error: cannot build permutation group: stabilizer chain transversals "
        "(orbit points x degree 200000) would exceed 16777216 cells"
    ]


def test_estimate_command(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "estimate", "--group", "S(5)",
        "--k", "1", "--samples", "20000", "--seed", "42",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 20000
    assert doc["ci_low"] <= 7 / 120 <= doc["ci_high"]


def test_estimate_gens_file(capsys, tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"kind": "perm_gens", "label": "C2", "gens": [[1, 0]]}))
    code, out, _ = run_cli(
        capsys, "--format", "json", "estimate", "--gens-file", str(path),
        "--k", "1", "--samples", "100", "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["point"] == 1.0


@pytest.mark.parametrize("doc, reason", [
    ([1], "--gens-file needs a perm_gens definition"),
    ({"kind": "perm_gens", "gens": 5},
     "cannot build permutation group: 'gens' must be a list, got 5"),
    ({"kind": "perm_gens", "gens": [[1.0, 0]]},
     "cannot build permutation group: not a list of integers: [1.0, 0]"),
    ({"kind": "perm_gens", "gens": [[1, 0]], "label": 5},
     "cannot build permutation group: 'label' must be a str, got 5"),
], ids=["not-an-object", "gens-int", "entry-float", "label-int"])
def test_estimate_ill_typed_gens_file_exits_2(capsys, tmp_path, doc, reason):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "estimate", "--gens-file", str(path), "--samples", "10")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {reason}"]


@pytest.mark.parametrize("z", ["nan", "inf", "-1"])
def test_estimate_bad_z_exits_2(capsys, z):
    code, out, err = run_cli(
        capsys, "--format", "json", "estimate", "--group", "S(3)", "--k", "1",
        "--samples", "100", "--z", z,
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_estimate_seed_outside_64_bits_exits_2(capsys, seed):
    # -1 and 2^64 - 1 used to give the same stream; 0 and 2^64 - 1 are the ends
    code, out, err = run_cli(
        capsys, "estimate", "--group", "S(4)", "--samples", "100", "--seed", str(seed),
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: seed must be in [0, 2^64), got {seed}"]
    for inside in (0, (1 << 64) - 1):
        code, _, _ = run_cli(
            capsys, "estimate", "--group", "S(4)", "--samples", "100", "--seed", str(inside),
        )
        assert code == 0


def test_estimate_zero_samples_usage_error(capsys):
    code, out, err = run_cli(capsys, "estimate", "--group", "S(5)", "--samples", "0")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --samples must be at least 1, got 0"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--group", "S(3)", "--checks", "bogus"], "unknown check 'bogus'; known: "),
    (["np", "--k", "1"], "exactly one of --group / --group-file / --group-json is required"),
    (["describe", "--group", "S(3)", "--group-json", "{}"],
     "exactly one of --group / --group-file / --group-json is required"),
    (["estimate", "--samples", "10"], "exactly one of --group / --gens-file is required"),
])
def test_usage_errors_after_parsing_print_one_line(capsys, argv, message):
    # no usage block: the same single error line as every other rejected input
    code, out, err = run_cli(capsys, "--no-cache", *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


def test_verify_small_corpus(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "outcomes.csv"
    code, out, _ = run_cli(
        capsys, "--format", "json", "verify", "--group", "S(3)", "--group", "Q8",
        "--no-cache", "--report", str(report_path), "--csv", str(csv_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["violations"] == 0
    saved = json.loads(report_path.read_text())
    assert saved["summary"] == doc["summary"]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "group,k,check,lhs,rhs,holds"
    assert len(lines) == doc["summary"]["checks"] + 1


def test_verify_malformed_corpus_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "corpus.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--corpus-file", str(bad), "--no-cache")
    assert code == 2
    assert "corpus" in err


def test_verify_abelian_corpus_skips_gap_checks(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "verify", "--group", "C(6)", "--group", "C(8)",
        "--no-cache", "--checks", "gap_bound", "gap_bound_tight",
    )
    assert code == 0
    doc = json.loads(out)
    # 4 normal subgroups each, all abelian, at k = 1, 2, 3: no gap check applies
    assert doc["summary"]["checks"] == doc["summary"]["skipped"] == 0
    assert doc["summary"]["not_applicable"] == 2 * 4 * 3


def test_verify_that_ran_no_group_exits_2(capsys, tmp_path):
    # every group skipped: the report and CSV are still written, then exit 2
    report_path, csv_path = tmp_path / "report.json", tmp_path / "outcomes.csv"
    code, out, err = run_cli(capsys, "verify", "--group", "NOPE", "--group", "C(9000)",
                             "--no-cache", "--report", str(report_path), "--csv", str(csv_path))
    assert code == 2
    assert out.startswith(
        "checks=0 passed=0 violations=0 findings=0 sharpness=0 skipped=2 not_applicable=0\n")
    assert err.splitlines() == ["error: nothing verified: 2 skipped, no group ran"]
    assert [s["group"] for s in json.loads(report_path.read_text())["skipped"]] == [
        "NOPE", "C(9000)"]
    assert csv_path.read_text() == "group,k,check,lhs,rhs,holds\n"

    # a group that ran without giving an outcome is not skipped: its calls,
    # one per k, did not apply
    code, out, err = run_cli(capsys, "verify", "--group", "C(1)", "--checks", "series_bound",
                             "--no-cache")
    assert code == 0 and err == ""
    assert out.startswith(
        "checks=0 passed=0 violations=0 findings=0 sharpness=0 skipped=0 not_applicable=3\n")


def test_verify_with_a_refused_call_is_not_nothing_verified(capsys):
    # a refused call is one entry, not a skipped group: A(4) at k = 1 is
    # refused, the other 3 subgroups run
    code, out, err = run_cli(capsys, "--budget-shifts", "3", "--format", "json", "verify",
                             "--group", "S(4)", "--k", "1", "--checks", "class_characterization",
                             "--no-cache")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert len(doc["outcomes"]) == 3
    assert [(s["check"], s["k"], s["h_order"]) for s in doc["skipped"]] == [
        ("class_characterization", 1, 12)]


def test_closed_stdout_exits_141_without_a_traceback(capsys, monkeypatch, tmp_path):
    class ClosedPipe(io.TextIOBase):
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        code = main(["verify", "--group", "S(3)", "--k", "1", "--no-cache"])
        # the descriptor behind stdout now writes to the null device
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert code == 141
    assert capsys.readouterr().err == ""


def test_describe(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "describe", "--group", "Q8")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8
    assert doc["nilpotency_class"] == 2
    assert doc["center_order"] == 2
    assert doc["normal_subgroups"] == 6

    code, out, _ = run_cli(capsys, "--format", "json", "describe", "--group", "S(3)")
    doc = json.loads(out)
    assert doc["nilpotency_class"] == "not nilpotent"
    assert doc["lower_central_orders"] == [6, 3, 3]

    code, out, _ = run_cli(capsys, "--format", "json", "describe", "--group", "C(1)")
    assert json.loads(out)["nilpotency_class"] == 0


def test_describe_above_lattice_cap(capsys):
    # no order cap: D(32)xD(32) (order 1024) lists its lattice
    code, out, _ = run_cli(capsys, "--format", "json", "describe", "--group", "D(32)xD(32)")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 1024 and doc["classes"] == 121 and doc["cp"] == "121/1024"
    assert doc["center_order"] == 4 and doc["nilpotency_class"] == 4
    assert doc["lower_central_orders"] == [1024, 64, 16, 4, 1]
    assert doc["normal_subgroups"] == len(doc["normal_subgroup_orders"]) == 151
    orders = doc["normal_subgroup_orders"]
    assert orders[0] == 1 and orders[-1] == 1024 and orders == sorted(orders)

    # D(16)xD(16)xD(16) passes the work cap: only the lattice is not computed
    reason = ("normal-subgroup lattice search stopped: 401 subgroups found with "
              "216 class closures in order 4096 touch 540291072 cells, above the "
              "work cap 536870912")
    code, out, _ = run_cli(capsys, "describe", "--group", "D(16)xD(16)xD(16)")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert lines["normal_subgroups"] == lines["normal_subgroup_orders"] == f"not computed: {reason}"
    assert lines["classes"] == "343" and lines["lower_central_orders"] == "[4096, 64, 8, 1]"
    code, out, _ = run_cli(capsys, "--format", "json", "describe", "--group", "D(16)xD(16)xD(16)")
    doc = json.loads(out)
    assert code == 0 and doc["center_order"] == 8
    assert doc["normal_subgroups"] is None and doc["normal_subgroup_orders"] is None


def test_lattice_search_past_its_work_cap_exits_2(capsys):
    # C(2)^9 has 8,283,458 normal subgroups; the search stops after 1866
    c2_9 = "x".join(["C(2)"] * 9)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "np", "--group", c2_9, "--k", "1",
                             "--subgroup-normal", "1", "--no-cache")
    assert time.perf_counter() - start < 30
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: normal-subgroup lattice search stopped: 1866 subgroups found with "
        "512 class closures in order 512 touch 537085440 cells, above the work cap 536870912"
    ]


def test_describe_and_verify_past_the_lattice_work_cap(capsys, monkeypatch):
    # C(2)^3 has 8 class closures, so the trivial subgroup counts 8 x (1 + 8)
    # cells and the first one found 8 x (2 + 8), which passes a cap of 120;
    # all of S(3)'s lattice counts 6 x (1 + 3) + 6 x (3 + 3) + 6 x (6 + 3) = 114
    monkeypatch.setattr(structure, "LATTICE_WORK_CAP", 120)
    reason = ("normal-subgroup lattice search stopped: 2 subgroups found with "
              "8 class closures in order 8 touch 152 cells, above the work cap 120")
    code, out, _ = run_cli(capsys, "describe", "--group", "C(2)xC(2)xC(2)")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert lines["normal_subgroups"] == f"not computed: {reason}"
    assert lines["normal_subgroup_orders"] == lines["normal_subgroups"]
    assert lines["classes"] == "8"
    code, out, _ = run_cli(capsys, "--format", "json", "describe", "--group", "C(2)xC(2)xC(2)")
    doc = json.loads(out)
    assert code == 0 and doc["normal_subgroups"] is None and doc["center_order"] == 8
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "--group", "C(2)xC(2)xC(2)",
                           "--group", "S(3)", "--k", "1", "--no-cache")
    report = json.loads(out)
    assert code == 0 and report["skipped"] == [{"group": "C(2)xC(2)xC(2)", "reason": reason}]
    assert {o["group"] for o in report["outcomes"]} == {"S(3)"}


def test_verify_skips_repeated_labels(capsys, tmp_path):
    def verify(*argv):
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "--k", "1",
                               "--no-cache", "--include-timing", *argv)
        assert code == 0
        return json.loads(out)

    once = verify("--group", "S(3)")
    twice = verify("--group", "S(3)", "--group", "S(3)")
    assert twice["skipped"] == [{"group": "S(3)", "reason": "duplicate label"}]
    assert twice["outcomes"] == once["outcomes"] and list(twice["timing"]) == ["S(3)"]

    # two definitions under one label: the first is verified
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"kind": "catalog", "name": "S(3)", "label": "six"},
                                  {"kind": "catalog", "name": "C(6)", "label": "six"}]))
    report = verify("--corpus-file", str(corpus))
    assert report["skipped"] == [{"group": "six", "reason": "duplicate label"}]
    assert [o["lhs"] for o in report["outcomes"]] == [o["lhs"] for o in once["outcomes"]]


def test_describe_emit_definition_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "describe", "--group", "Dic(3)", "--emit-definition")
    assert code == 0
    rebuilt = group_from_definition(json.loads(out))
    assert np.array_equal(rebuilt.mul, catalog_get("Dic(3)").mul)


@pytest.mark.parametrize("source", [
    ("--group", "C(1)"), ("--group", "S(3)"), ("--group", "SL(2,3)"),
    ("--group", "D(16)xD(16)"),
    ("--group-json", json.dumps({"kind": "catalog", "name": "Q8", "label": 'Ω "q"\t'})),
])
def test_describe_emit_definition_is_json_dumps_of_the_definition(capsys, source):
    # the CLI writes the definition a row at a time; the bytes are the dict's
    code, out, _ = run_cli(capsys, "describe", *source, "--emit-definition")
    assert code == 0
    g = cli._resolve_group(cli.build_parser().parse_args(["describe", *source]))
    assert out == json.dumps(group_to_definition(g), sort_keys=True) + "\n"


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--max-order-filter", "8")
    assert code == 0
    names = out.split()
    assert "Q8" in names and "C(8)" in names and "S(4)" not in names


@pytest.mark.parametrize("argv, k", [
    (("np", "--group", "C(2)xC(2)", "--k", "0"), 0),
    (("np", "--group", "S(3)", "--k", "0", "--sup"), 0),
    (("np", "--group", "S(3)", "--k", "-1", "--sup"), -1),
    (("estimate", "--group", "S(3)", "--k", "0", "--samples", "10"), 0),
    (("verify", "--group", "S(3)", "--k", "1", "--k", "0"), 0),
])
def test_k_below_one_exits_2(capsys, argv, k):
    code, out, err = run_cli(capsys, "--no-cache", *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --k must be at least 1, got {k}"]


@pytest.mark.parametrize("argv", [
    ("np", "--group", "S(3)", "--k", "1001"),
    ("estimate", "--group", "S(3)", "--k", "1001", "--samples", "10"),
    ("verify", "--group", "S(3)", "--k", "1", "--k", "1001"),
])
def test_k_above_the_cap_exits_2(capsys, argv):
    # past it a value's digits pass Python's int <-> str limit
    code, out, err = run_cli(capsys, "--no-cache", *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --k must be at most {cli.MAX_K}, got 1001"]


def test_k_at_the_cap_prints_and_reads_back_from_the_cache(capsys, tmp_path):
    argv = ("--format", "json", "np", "--group", "S(3)", "--k", str(cli.MAX_K),
            "--cache-dir", str(tmp_path))
    docs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        docs.append(json.loads(out))
    assert [doc["method"] for doc in docs] == ["dp", "cache"]
    assert docs[0]["value"] == docs[1]["value"]
    assert docs[0]["total"] == 6 ** (cli.MAX_K + 1)


@pytest.mark.parametrize("k", [54, cli.MAX_K])
def test_series_bound_ratio_is_finite_where_the_constant_rounds_to_one(capsys, tmp_path, k):
    # float(1 - 3/2^(k+2)) is 1.0 from k = 54 on, so ln of it is taken by log1p
    report = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--group", "S(3)", "--k", str(k), "--no-cache",
                           "--checks", "series_bound", "series_bound_tight",
                           "--report", str(report))
    assert code == 0 and err == ""
    outcomes = json.loads(report.read_text())["outcomes"]
    assert [o["check"] for o in outcomes] == ["series_bound", "series_bound_tight"]
    assert all(math.isfinite(o["rhs"]) for o in outcomes)


@pytest.mark.parametrize("inside", [False, True])
def test_cache_dir_naming_a_file_exits_2(capsys, tmp_path, inside):
    path = tmp_path / "not-a-dir"
    path.write_text("")
    target = path / "sub" if inside else path
    code, out, err = run_cli(
        capsys, "np", "--group", "S(3)", "--k", "1", "--cache-dir", str(target)
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot use cache directory {target}")


@pytest.mark.parametrize("ks", [("1", "1"), ("2", "1", "3", "2")])
def test_verify_repeated_k_exits_2(capsys, tmp_path, ks):
    report = tmp_path / "report.json"
    argv = [arg for k in ks for arg in ("--k", k)]
    code, out, err = run_cli(
        capsys, "verify", "--group", "S(3)", "--no-cache", *argv, "--report", str(report)
    )
    assert code == 2 and out == "" and not report.exists()
    assert err.splitlines() == [
        f"error: --k {ks[-1]} is given more than once; each k is checked once"
    ]


def test_verify_checks_without_names_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--group", "S(3)", "--no-cache", "--checks")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: --checks needs at least one name; known: np_le_cp, ")


@pytest.mark.parametrize("groups", [["S(3)"], ["S(3)", "Q8"]])
def test_verify_threads_still_validate_the_cache_dir(capsys, tmp_path, groups):
    path = tmp_path / "not-a-dir"
    path.write_text("")
    argv = [arg for g in groups for arg in ("--group", g)]
    code, out, err = run_cli(
        capsys, "verify", *argv, "--threads", "2", "--cache-dir", str(path)
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot use cache directory {path}: ")


def test_verify_workers_neither_read_nor_write_the_cache(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    code, _, _ = run_cli(capsys, "verify", "--group", "S(3)", "--group", "Q8",
                         "--k", "1", "--threads", "2", "--cache-dir", str(cache_dir))
    assert code == 0
    assert cache_dir.is_dir() and not (cache_dir / CACHE_FILENAME).exists()


def test_verify_report_closes_every_file(tmp_path):
    # the cache's append handle included: an unclosed file would print a
    # ResourceWarning, which -W error turns into a message on stderr
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-m", "nilprob.cli", "verify",
         "--group", "S(3)", "--group", "Q8", "--k", "1", "--report", str(tmp_path / "r.json"),
         "--csv", str(tmp_path / "r.csv"), "--cache-dir", str(tmp_path / "cache")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0 and run.stderr == ""
    assert (tmp_path / "cache" / CACHE_FILENAME).stat().st_size > 0
    assert json.loads((tmp_path / "r.json").read_text())["summary"]["violations"] == 0


def test_budget_hint_only_for_budget_errors(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, "--budget-shifts", "3", "np", "--group", "S(4)",
        "--subgroup-normal", "2", "--k", "1", "--sup", "--no-cache",
    )
    assert code == 2
    assert "hint: raise --budget-tuples/--budget-shifts" in err

    def fail(*args):
        raise EmptyInput("nothing left in the budget of elements")

    monkeypatch.setattr(cli, "np_sup", fail)
    code, _, err = run_cli(
        capsys, "np", "--group", "S(3)", "--k", "1", "--sup", "--no-cache",
    )
    assert code == 2
    assert err.splitlines() == ["error: nothing left in the budget of elements"]


@pytest.mark.parametrize("mul", [[1, 2], [[0, 1], 1], [[0, 1], "10"]])
def test_mul_table_rows_must_be_lists(capsys, mul):
    doc = json.dumps({"kind": "mul_table", "mul": mul})
    code, out, err = run_cli(capsys, "np", "--group-json", doc, "--no-cache")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: cannot resolve group: not a group: identity law fails at () "
        "(mul must be a list of rows, each a list)"
    ]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exits_2(capsys, threads):
    code, out, err = run_cli(
        capsys, "--threads", threads, "verify", "--group", "S(3)", "--no-cache"
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --threads must be at least 1, got {threads}"]


def test_verify_empty_corpus_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "--corpus-max-order", "0", "--no-cache")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the corpus is empty")
    # an empty corpus file is an empty corpus too, not the default one
    empty = tmp_path / "corpus.json"
    empty.write_text("[]")
    code, out, err = run_cli(capsys, "verify", "--corpus-file", str(empty), "--no-cache")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: the corpus is empty: {empty} lists no group"]


@pytest.mark.parametrize("name, n", [("C(0)", 0), ("C(-1)", -1), ("C(0)xS(3)", 0)])
def test_cyclic_order_below_one_exits_2(capsys, name, n):
    code, out, err = run_cli(capsys, "describe", "--group", name)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: cannot resolve group: cyclic order must be >= 1, got {n}"
    ]


FIVE_THOUSAND_CYCLE = json.dumps(
    {"kind": "perm_gens", "gens": [list(range(1, 5000)) + [0]]}
)


@pytest.mark.parametrize("flag, group, order", [
    ("--group", "C(200000)", 200000),
    ("--group", "D(400000)", 200000),
    ("--group-json", FIVE_THOUSAND_CYCLE, 5000),
], ids=["C(200000)", "D(400000)", "5000-cycle"])
def test_generator_order_above_cap_exits_2(capsys, flag, group, order):
    # refused from the generator's order alone, before the closure search
    # stores any element
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "np", flag, group, "--no-cache")
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: cannot resolve group: group order is at least {order}, above the cap 4096"
    ]


def test_csv_quotes_fields_with_commas(capsys, tmp_path):
    out_path = tmp_path / "o.csv"
    code, _, _ = run_cli(capsys, "verify", "--group", "SL(2,3)", "--k", "1",
                         "--no-cache", "--csv", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("group,k,check,lhs,rhs,holds\n")
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) > 1 and all(len(row) == 6 for row in rows)
    assert {row[0] for row in rows[1:]} == {"SL(2,3)"}

    code, out, _ = run_cli(capsys, "--format", "csv", "describe", "--group", "S(3)")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["group", "property", "value"]
    assert all(len(row) == 3 for row in rows)
    assert ["S(3)", "lower_central_orders", "[6, 3, 3]"] in rows


@pytest.mark.parametrize("doc, reason", [
    ({"kind": "product", "factors": 5}, "'factors' must be a list, got 5"),
    ({"kind": "catalog", "name": 5}, "'name' must be a str, got 5"),
    ({"kind": "perm_gens", "gens": 5}, "'gens' must be a list, got 5"),
    ({"kind": "perm_gens", "gens": [5]}, "not a list of integers: 5"),
    ({"kind": "perm_gens", "gens": [[0.5, 1]]}, "not a list of integers: [0.5, 1]"),
    ({"kind": "perm_gens", "gens": [[True, False]]}, "not a list of integers: [True, False]"),
    ({"kind": "catalog", "name": "S(3)", "label": 5}, "'label' must be a str, got 5"),
    ({"kind": "catalog", "name": "S(3)", "label": [1]}, "'label' must be a str, got [1]"),
    (1, "group definition must be a JSON object"),
    # a missing payload key is named, not reported as a bare KeyError
    ({"kind": "mul_table"}, "'mul' must be a list, got None"),
    ({"kind": "mul_table", "mul": 5}, "'mul' must be a list, got 5"),
    ({"kind": "perm_gens"}, "'gens' must be a list, got None"),
], ids=["factors-int", "name-int", "gens-int", "gen-int", "entry-float", "entry-bool",
        "label-int", "label-list", "not-an-object", "mul-missing", "mul-int", "gens-missing"])
def test_ill_typed_definitions_are_rejected(capsys, tmp_path, doc, reason):
    code, out, err = run_cli(capsys, "np", "--group-json", json.dumps(doc), "--no-cache")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: cannot resolve group: {reason}"]

    # in a corpus the same document is skipped, next to a good definition
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([doc, {"kind": "catalog", "name": "C(3)", "label": "three"}]))
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "--corpus-file",
                           str(corpus), "--k", "1", "--no-cache")
    assert code == 0
    report = json.loads(out)
    assert report["skipped"] == [{"group": "<definition>", "reason": reason}]
    assert {o["group"] for o in report["outcomes"]} == {"three"}


@pytest.mark.parametrize("flags", [
    ["--sup", "--shifts", "1,2"],
    ["--cp", "--sup"],
    ["--cp", "--shifts", "0,0"],
    ["--sup", "--method", "brute"],
    ["--cp", "--method", "brute"],
])
def test_np_conflicting_flags_exit_2(capsys, flags):
    code, out, err = run_cli(capsys, "np", "--group", "S(3)", "--no-cache", *flags)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


#: ``estimate --format json`` output of the per-level sampler, which the
#: merged sampling tables reproduce byte for byte: a change to the sample
#: stream has to change these lines on purpose.
PINNED_ESTIMATES = [
    ("S(8)", 1, 200000, 0,
     '{"chunk_size": 8192, "ci_high": 0.0006244882628884948, '
     '"ci_low": 0.0004246995843113361, "group": "S(8)", "hits": 103, "k": 1, '
     '"order": "40320", "point": 0.000515, "samples": 200000, "seed": 0, "z": 1.96}'),
    ("S(8)", 2, 100000, 0,
     '{"chunk_size": 8192, "ci_high": 0.0015324463735858012, '
     '"ci_low": 0.001085869041209224, "group": "S(8)", "hits": 129, "k": 2, '
     '"order": "40320", "point": 0.00129, "samples": 100000, "seed": 0, "z": 1.96}'),
    ("S(8)", 1, 200000, 1,
     '{"chunk_size": 8192, "ci_high": 0.0007445430238741867, '
     '"ci_low": 0.000524640597646811, "group": "S(8)", "hits": 125, "k": 1, '
     '"order": "40320", "point": 0.000625, "samples": 200000, "seed": 1, "z": 1.96}'),
    ("S(8)", 2, 100000, 1,
     '{"chunk_size": 8192, "ci_high": 0.0014889891993308045, '
     '"ci_low": 0.0010493292886261621, "group": "S(8)", "hits": 125, "k": 2, '
     '"order": "40320", "point": 0.00125, "samples": 100000, "seed": 1, "z": 1.96}'),
    ("S(8)", 1, 200000, 2,
     '{"chunk_size": 8192, "ci_high": 0.0006573283759384986, '
     '"ci_low": 0.0004518583188034686, "group": "S(8)", "hits": 109, "k": 1, '
     '"order": "40320", "point": 0.000545, "samples": 200000, "seed": 2, "z": 1.96}'),
    ("S(8)", 2, 100000, 2,
     '{"chunk_size": 8192, "ci_high": 0.0014889891993308045, '
     '"ci_low": 0.0010493292886261621, "group": "S(8)", "hits": 125, "k": 2, '
     '"order": "40320", "point": 0.00125, "samples": 100000, "seed": 2, "z": 1.96}'),
    ("A(7)", 1, 50000, 3,
     '{"chunk_size": 8192, "ci_high": 0.003691587224504174, '
     '"ci_low": 0.0027047533318581996, "group": "A(7)", "hits": 158, "k": 1, '
     '"order": "2520", "point": 0.00316, "samples": 50000, "seed": 3, "z": 1.96}'),
    ("A(7)", 2, 50000, 3,
     '{"chunk_size": 8192, "ci_high": 0.00743288695772418, '
     '"ci_low": 0.006002912742913221, "group": "A(7)", "hits": 334, "k": 2, '
     '"order": "2520", "point": 0.00668, "samples": 50000, "seed": 3, "z": 1.96}'),
    # wide chains: Dic(1000)'s orbit of 4000 points rejects words; D(4096)
    # samples from two tables, one level each
    ("Dic(1000)", 2, 2000, 4,
     '{"chunk_size": 262, "ci_high": 0.6434916885438128, '
     '"ci_low": 0.6010386176440616, "group": "Dic(1000)", "hits": 1245, "k": 2, '
     '"order": "4000", "point": 0.6225, "samples": 2000, "seed": 4, "z": 1.96}'),
    ("D(4096)", 2, 2000, 4,
     '{"chunk_size": 512, "ci_high": 0.6499054175987882, '
     '"ci_low": 0.6075999660602796, "group": "D(4096)", "hits": 1258, "k": 2, '
     '"order": "4096", "point": 0.629, "samples": 2000, "seed": 4, "z": 1.96}'),
]


@pytest.mark.parametrize("group, k, samples, seed, expected", PINNED_ESTIMATES)
def test_estimate_stream_is_pinned(capsys, group, k, samples, seed, expected):
    code, out, _ = run_cli(
        capsys, "--format", "json", "estimate", "--group", group, "--k", str(k),
        "--samples", str(samples), "--seed", str(seed),
    )
    assert code == 0
    assert out == expected + "\n"


@pytest.mark.parametrize("checks", [("gap_bound", "gap_bound"),
                                    ("np_le_cp", "gap_bound", "np_le_cp")])
def test_verify_repeated_checks_exits_2(capsys, tmp_path, checks):
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--group", "S(3)", "--no-cache",
                             "--checks", *checks, "--report", str(report))
    assert code == 2 and out == "" and not report.exists()
    assert err.splitlines() == [
        f"error: --checks {checks[-1]} is given more than once; each check runs once"
    ]


def test_verify_format_csv_writes_the_csv_rows(capsys, tmp_path):
    # stdout carries the same rows as --csv, so SL(2,3) is quoted there too
    csv_path = tmp_path / "o.csv"
    code, out, _ = run_cli(capsys, "--format", "csv", "verify", "--group", "SL(2,3)",
                           "--group", "S(3)", "--k", "1", "--no-cache", "--csv", str(csv_path))
    assert code == 0
    assert out == csv_path.read_text()
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["group", "k", "check", "lhs", "rhs", "holds"]
    assert len(rows) > 2 and all(len(row) == 6 for row in rows)
    assert {row[0] for row in rows[1:]} == {"S(3)", "SL(2,3)"}
    assert '"SL(2,3)"' in out


def test_catalog_format_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "catalog", "--max-order-filter", "24")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name"]
    assert [row for row in rows[1:] if len(row) != 1] == []
    code, table, _ = run_cli(capsys, "catalog", "--max-order-filter", "24")
    assert [name for (name,) in rows[1:]] == table.split()
    assert '"SL(2,3)"\n' in out and "Q8\n" in out


def _np_argv(cache_flags, sup):
    return ["--format", "json", "np", "--group", "S(3)", "--k", "1", *cache_flags,
            *(["--sup"] if sup else [])]


@pytest.mark.parametrize("sup, fields", [
    (False, {"value": "1/2", "total": 36}),  # "counted" is missing
    (False, {"value": "abc", "counted": 18, "total": 36}),
    (False, {"value": "1/0", "counted": 18, "total": 36}),
    (False, {"value": "1/2", "counted": "18", "total": 36}),
    (False, {"value": 0.5, "counted": 18, "total": 36}),
    (True, {"value": "1/2", "witness": "00"}),
    (True, {"value": "1/2", "witness": [0, None]}),
    (True, {"value": "1/2"}),
], ids=["np-no-counted", "np-abc", "np-1/0", "np-counted-str", "np-float",
        "sup-witness-str", "sup-witness-none", "sup-no-witness"])
def test_malformed_cache_line_is_skipped(capsys, tmp_path, sup, fields):
    g = catalog_get("S(3)")
    elements = tuple(range(g.order))
    key = sup_key(g.table_hash, elements, 1) if sup else np_key(g.table_hash, elements, (0, 0))
    path = tmp_path / CACHE_FILENAME
    path.write_text(json.dumps({"schema": 2, "key": key, "kind": "sup" if sup else "np",
                                **fields}) + "\n")
    want = run_cli(capsys, *_np_argv(["--no-cache"], sup))
    got = run_cli(capsys, *_np_argv(["--cache-dir", str(tmp_path)], sup))
    assert got == want and want[0] == 0
    # the value is computed again and appended after the skipped line, then read back
    assert len(path.read_text().splitlines()) == 2
    code, out, _ = run_cli(capsys, *_np_argv(["--cache-dir", str(tmp_path)], sup))
    assert code == 0
    assert {**json.loads(out), "method": None} == {**json.loads(want[1]), "method": None}


def _nested(depth):
    doc = '{"kind": "catalog", "name": "C(2)"}'
    for _ in range(depth):
        doc = '{"kind": "product", "factors": [' + doc + ']}'
    return doc


@pytest.mark.parametrize("flag", ["--group-json", "--group-file", "--corpus-file",
                                  "--gens-file"])
def test_deeply_nested_input_exits_2(capsys, tmp_path, flag):
    # nested past the interpreter's recursion limit: bad input, not a traceback
    doc = _nested(3000)
    if flag == "--corpus-file":
        doc = f"[{doc}]"
    elif flag == "--gens-file":
        doc = '{"kind": "perm_gens", "gens": ' + "[" * 3000 + "]" * 3000 + "}"
    path = tmp_path / "doc.json"
    path.write_text(doc)
    command = {"--corpus-file": "verify", "--gens-file": "estimate"}.get(flag, "describe")
    code, out, err = run_cli(capsys, command, "--no-cache", flag,
                             doc if flag == "--group-json" else str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "recursion" in err
