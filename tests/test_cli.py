"""Command-line interface end to end."""

import csv
import io
import json

import numpy as np
import pytest

from nilprob import cli
from nilprob.cli import main
from nilprob.errors import EmptyInput
from nilprob.groups import catalog_get, group_from_definition


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
        "--subgroup-normal", "0", "--k", "1", "--sup", "--no-cache",
    )
    assert code == 2
    assert "budget" in err


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
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "estimate", "--group", "S(5)", "--samples", "0")
    assert exc.value.code == 2


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
    assert doc["summary"]["checks"] == 0
    assert doc["summary"]["skipped"] > 0


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
    code, out, _ = run_cli(capsys, "--format", "json", "describe", "--group", "D(32)xD(32)")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 1024 and doc["classes"] == 121 and doc["cp"] == "121/1024"
    assert doc["center_order"] == 4 and doc["nilpotency_class"] == 4
    assert doc["lower_central_orders"] == [1024, 64, 16, 4, 1]
    assert doc["normal_subgroups"] is None and doc["normal_subgroup_orders"] is None

    code, out, _ = run_cli(capsys, "describe", "--group", "D(32)xD(32)")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    marker = "not computed: above the lattice cap 512"
    assert lines["normal_subgroups"] == lines["normal_subgroup_orders"] == marker
    assert lines["classes"] == "121"


def test_describe_emit_definition_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "describe", "--group", "Dic(3)", "--emit-definition")
    assert code == 0
    rebuilt = group_from_definition(json.loads(out))
    assert np.array_equal(rebuilt.mul, catalog_get("Dic(3)").mul)


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


def test_budget_hint_only_for_budget_errors(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, "--budget-shifts", "10", "np", "--group", "S(3)",
        "--subgroup-normal", "0", "--k", "1", "--sup", "--no-cache",
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
], ids=["factors-int", "name-int", "gens-int", "gen-int", "entry-float", "entry-bool",
        "label-int", "label-list", "not-an-object"])
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
