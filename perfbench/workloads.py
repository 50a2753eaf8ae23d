"""The benchmark's workloads: the CLI calls each one makes and how its outputs are checked.

Each workload object gives the argument lists of its CLI calls for one
iteration (:meth:`argvs`) and checks what those calls wrote
(:meth:`check`).  ``check`` returns one error message (or ``None``) per
call and the number of work items the iteration completed, which
``samples_per_s`` divides by ``run_s``.

Expected values are fixed here.  Where an independent reference exists
it is used, and ``tests/test_perfbench.py`` recomputes it with code that
shares nothing with nilprob (``reference.py``):

* ``exact_large``: np_2(D(64)xD(32)) = np_2(D(64)) * np_2(D(32)) = 43/64 * 23/32,
  because np_k is multiplicative over direct products;
* ``sup_shifts``: the supremum for the normal subgroup S(3)x1 is np_3(S(3)) = 7/8
  at trivial shifts (shift monotonicity for normal subgroups);
* ``mc_estimate``: cp(S(8)) = p(8)/8! = 22/40320 lies in the k=1 interval and
  below the k=2 upper end (np_k is nondecreasing in k).  The intervals are
  recomputed here from the reported hit counts with z = 5, so an honest
  sampler fails the check about once in two million estimates; the CLI's
  own 1.96 interval is only checked against the same formula.
* ``corpus_verify`` has no independent reference: its (group, check, k,
  lhs, holds) rows are compared with per-group digests of the rows the
  seed commit produced (``reference/corpus_rows.json``).  That is a
  regression check, not an independent one.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

REFERENCE = Path(__file__).with_name("reference") / "corpus_rows.json"

#: z of the intervals the benchmark recomputes for its own checks.
CHECK_Z = 5.0

Errors = list[Optional[str]]


def wilson(hits: int, samples: int, z: float) -> tuple[float, float]:
    """Wilson score interval, written out independently of nilprob."""
    p = hits / samples
    z2 = z * z
    centre = (p + z2 / (2 * samples)) / (1 + z2 / samples)
    half = z / (1 + z2 / samples) * math.sqrt(p * (1 - p) / samples + z2 / (4 * samples ** 2))
    return max(0.0, centre - half), min(1.0, centre + half)


def _fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _call_failure(call: dict) -> Optional[str]:
    if call["error"] is not None:
        return "raised: " + call["error"].strip().splitlines()[-1]
    if call["rc"] != 0:
        return f"exit code {call['rc']}"
    return None


def corpus_rows(report: dict) -> dict[str, list[str]]:
    """The report's (group, check, k, lhs, holds) rows, grouped by group, in order."""
    rows: dict[str, list[str]] = {}
    for o in report["outcomes"]:
        row = [o["group"], o["check"], o["params"].get("k"), o["lhs"], o["holds"]]
        rows.setdefault(o["group"], []).append(json.dumps(row))
    return rows


def digest(rows: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


class CorpusVerify:
    """``nilprob verify --report <tmp>`` on the default corpus, or on ``groups``."""

    name = "corpus_verify"

    def __init__(self, groups: Sequence[str] = ()):
        self.groups = tuple(groups)

    def argvs(self, seed: int, work: Path) -> list[list[str]]:
        argv = ["verify", "--report", str(work / "report.json"),
                "--cache-dir", str(work / "cache")]
        for g in self.groups:
            argv += ["--group", g]
        return [argv]

    def check(self, work: Path, calls: list[dict]) -> tuple[Errors, int]:
        failure = _call_failure(calls[0])
        if failure is not None:
            return [failure], 0
        report = _read_json(work / "report.json")
        reference = _read_json(REFERENCE)["groups"]
        expected = {g: reference[g] for g in self.groups} if self.groups else reference
        rows = corpus_rows(report)
        summary = report["summary"]
        problems = []
        if summary["violations"] != 0:
            problems.append(f"{summary['violations']} violations")
        if report["skipped"]:
            problems.append(f"skipped groups: {report['skipped']}")
        want = sum(e["rows"] for e in expected.values())
        if len(report["outcomes"]) != want:
            problems.append(f"{len(report['outcomes'])} outcomes, expected {want}")
        if set(rows) != set(expected):
            problems.append(f"groups differ: {sorted(set(rows) ^ set(expected))}")
        bad = [g for g in sorted(set(rows) & set(expected))
               if digest(rows[g]) != expected[g]["sha256"]]
        if bad:
            problems.append(f"rows differ from the seed's for {bad}")
        table = (work / "stdout0.txt").read_text(encoding="utf-8")
        head = "checks={checks} passed={passed} violations={violations} ".format(**summary)
        if not table.startswith(head):
            problems.append("table summary line does not match the report")
        return ["; ".join(problems) or None], len(report["outcomes"])


class ExactLarge:
    """``nilprob np --group <A>x<B> --k <k>``: one DP over a big table."""

    name = "exact_large"

    def __init__(self, group: str = "D(64)xD(32)", k: int = 2,
                 expected: Fraction = Fraction(43, 64) * Fraction(23, 32)):
        self.group, self.k, self.expected = group, k, expected

    def argvs(self, seed: int, work: Path) -> list[list[str]]:
        return [["np", "--group", self.group, "--k", str(self.k), "--format", "json",
                 "--cache-dir", str(work / "cache")]]

    def check(self, work: Path, calls: list[dict]) -> tuple[Errors, int]:
        failure = _call_failure(calls[0])
        if failure is not None:
            return [failure], 0
        out = _read_json(work / "stdout0.txt")
        problems = []
        if _fraction(out["value"]) != self.expected:
            problems.append(f"np_{self.k} = {out['value']}, expected {self.expected}")
        if out["total"] != out["h_order"] ** (self.k + 1):
            problems.append(f"total {out['total']} is not |G|^{self.k + 1}")
        if Fraction(out["counted"], out["total"]) != self.expected:
            problems.append("counted/total disagrees with the value")
        return ["; ".join(problems) or None], out["total"]


class SupShifts:
    """``nilprob np --group G --k k --subgroup-normal i --sup``: many tiny DPs."""

    name = "sup_shifts"

    def __init__(self, group: str = "S(3)xD(24)", normal_index: int = 7, k: int = 3,
                 h_order: int = 6, index: int = 24, expected: Fraction = Fraction(7, 8)):
        self.group, self.normal_index, self.k = group, normal_index, k
        self.h_order, self.index, self.expected = h_order, index, expected

    def argvs(self, seed: int, work: Path) -> list[list[str]]:
        return [["np", "--group", self.group, "--k", str(self.k),
                 "--subgroup-normal", str(self.normal_index), "--sup", "--format", "json",
                 "--cache-dir", str(work / "cache")]]

    def check(self, work: Path, calls: list[dict]) -> tuple[Errors, int]:
        failure = _call_failure(calls[0])
        if failure is not None:
            return [failure], 0
        out = _read_json(work / "stdout0.txt")
        problems = []
        if out["h_order"] != self.h_order:
            problems.append(f"|H| = {out['h_order']}, expected {self.h_order}")
        if _fraction(out["value"]) != self.expected:
            problems.append(f"sup = {out['value']}, expected {self.expected}")
        if out["witness_shifts"] != [0] * (self.k + 1):
            problems.append(f"witness {out['witness_shifts']}, expected trivial shifts")
        return ["; ".join(problems) or None], self.index ** (self.k + 1)


class McEstimate:
    """``nilprob estimate --group G --k 1``, then ``--k 2``, seeded by the workload seed."""

    name = "mc_estimate"

    def __init__(self, group: str = "S(8)", samples: tuple[int, int] = (200_000, 100_000),
                 cp: Fraction = Fraction(22, 40320)):
        self.group, self.samples, self.cp = group, samples, cp

    def argvs(self, seed: int, work: Path) -> list[list[str]]:
        return [["estimate", "--group", self.group, "--k", str(k), "--samples", str(n),
                 "--seed", str(seed), "--format", "json"]
                for k, n in zip((1, 2), self.samples)]

    def check(self, work: Path, calls: list[dict]) -> tuple[Errors, int]:
        errors: Errors = []
        items = 0
        for i, (call, k, n) in enumerate(zip(calls, (1, 2), self.samples)):
            failure = _call_failure(call)
            if failure is not None:
                errors.append(failure)
                continue
            out = _read_json(work / f"stdout{i}.txt")
            problems = []
            if (out["k"], out["samples"]) != (k, n) or not 0 <= out["hits"] <= n:
                problems.append(f"k={out['k']} samples={out['samples']} hits={out['hits']}")
            else:
                items += n
                low, high = wilson(out["hits"], n, out["z"])
                if abs(low - out["ci_low"]) > 1e-9 or abs(high - out["ci_high"]) > 1e-9:
                    problems.append("reported interval is not the Wilson interval")
                low, high = wilson(out["hits"], n, CHECK_Z)
                if k == 1 and not low <= self.cp <= high:
                    problems.append(f"cp = {self.cp} outside [{low}, {high}] at z={CHECK_Z}")
                if k == 2 and high < self.cp:
                    problems.append(f"np_2 upper end {high} below cp = {self.cp}")
            errors.append("; ".join(problems) or None)
        return errors, items


WORKLOADS = {w.name: w for w in (CorpusVerify(), ExactLarge(), SupShifts(), McEstimate())}
