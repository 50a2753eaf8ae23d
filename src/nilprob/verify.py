"""Inequality-checking harness over a corpus of finite groups.

Each check replays one exact inequality between nilpotence probabilities
on concrete groups.  Checks come in two strengths:

* must-hold checks, whose failure fails the run;
* probe checks with the tighter gap constant 1 - 3/2^(k+1), whose
  failures are collected as findings without failing the run.  The
  must-hold variant uses 1 - 3/2^(k+2), the constant obtained by
  iterating the center recursion down to the 5/8 commuting-probability
  bound for nonabelian groups.

Equality cases of must-hold inequalities (below 1) are reported as
sharpness witnesses.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import __version__ as _version
from .errors import BudgetExceeded, NilprobError
from .exact import (
    DEFAULT_SHIFT_BUDGET,
    DEFAULT_TUPLE_BUDGET,
    cp,
    identity_shifts,
    iter_shift_values,
    np_fast,
    np_k,
    np_sup,
)
from .groups import GroupTable, catalog_base_names, catalog_get, group_from_definition
from .structure import (
    NORMAL_LATTICE_CAP,
    QuotientMap,
    SubgroupRef,
    center,
    image_subgroup,
    lcs_term,
    left_coset_reps,
    nilpotency_class,
    normal_subgroups,
    quotient,
    subgroup,
    subgroup_closure,
    whole_group,
)

MUST_HOLD_CHECKS = (
    "np_le_cp",
    "center_recursion",
    "class_characterization",
    "gap_bound",
    "submultiplicativity",
    "shift_monotonicity",
    "series_bound",
)
PROBE_CHECKS = ("gap_bound_tight", "series_bound_tight")
ALL_CHECKS = MUST_HOLD_CHECKS + PROBE_CHECKS


def gap_constant(k: int) -> Fraction:
    """Supportable gap constant 1 - 3/2^(k+2); equals 5/8 at k = 1."""
    return 1 - Fraction(3, 2 ** (k + 2))


def gap_constant_tight(k: int) -> Fraction:
    """Tighter probe constant 1 - 3/2^(k+1); violations become findings."""
    return 1 - Fraction(3, 2 ** (k + 1))


@dataclass(frozen=True)
class CheckOutcome:
    """One verified relation: ``holds`` is ``lhs <= rhs`` unless stated."""

    check_id: str
    group: str
    params: dict
    lhs: object
    rhs: object
    holds: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "check": self.check_id,
            "group": self.group,
            "params": _jsonify(self.params),
            "lhs": _jsonify(self.lhs),
            "rhs": _jsonify(self.rhs),
            "holds": self.holds,
        }
        if self.witness is not None:
            out["witness"] = _jsonify(self.witness)
        return out


def _jsonify(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _subgroup_params(h: SubgroupRef, role: str = "h") -> dict:
    params = {f"{role}_order": h.order}
    if h.order <= 16:
        params[f"{role}_elements"] = list(h.elements)
    return params


# -- individual checks ---------------------------------------------------------


def check_npleqcp(
    g: GroupTable,
    h: SubgroupRef,
    shift_budget: int = DEFAULT_SHIFT_BUDGET,
) -> list[CheckOutcome]:
    """Shifted pair probability never exceeds the commuting probability.

    One outcome per coset-representative pair (x, y).  When cp(H) = 1 the
    inequality is a tautology for probabilities, so a single vacuous
    outcome stands in for the whole enumeration.
    """
    rhs = cp(h)
    base = _subgroup_params(h)
    if rhs == 1:
        return [
            CheckOutcome(
                "np_le_cp",
                g.label,
                {**base, "vacuous": True},
                Fraction(1),
                rhs,
                True,
            )
        ]
    out = []
    for (x, y), val in iter_shift_values(g, h, 1, shift_budget):
        out.append(
            CheckOutcome(
                "np_le_cp", g.label, {**base, "shifts": [x, y]}, val, rhs, val <= rhs
            )
        )
    return out


def check_center_recursion(
    g: GroupTable,
    h: SubgroupRef,
    k: int,
    shift_budget: int = DEFAULT_SHIFT_BUDGET,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
    _quot: Optional[QuotientMap] = None,
) -> list[CheckOutcome]:
    """np(H; x_1..x_{k+1}) <= (1 + np(H/(Z cap H); first k image shifts)) / 2.

    Z is the center of the ambient group; the quotient value is the one
    step shorter probability computed through the quotient map.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    z = center(g)
    kern = subgroup(g, set(z.elements) & set(h.elements))
    if _quot is not None and _quot.kernel.elements == kern.elements:
        qmap = _quot
    else:
        qmap = quotient(g, kern)
    hbar = image_subgroup(qmap, h)
    project = qmap.project
    base = {**_subgroup_params(h), "k": k, "kernel_order": kern.order}
    out = []
    reps = left_coset_reps(g, h)
    if len(reps) ** (k + 1) > shift_budget:
        raise BudgetExceeded(
            "center recursion shift tuples", len(reps) ** (k + 1), shift_budget
        )
    for tup in itertools.product(reps, repeat=k + 1):
        lhs = np_fast(g, h, tup, tuple_budget).value
        image = tuple(project[x] for x in tup[:k])
        rhs = Fraction(1, 2) * (1 + np_fast(qmap.target, hbar, image, tuple_budget).value)
        out.append(
            CheckOutcome(
                "center_recursion",
                g.label,
                {**base, "shifts": list(tup)},
                lhs,
                rhs,
                lhs <= rhs,
            )
        )
    return out


def check_class_characterization(
    g: GroupTable,
    h: SubgroupRef,
    k: int,
    shift_budget: int = DEFAULT_SHIFT_BUDGET,
    _sup: Optional[Callable] = None,
) -> CheckOutcome:
    """The supremum hits 1 exactly when H is nilpotent of class at most k."""
    sup = _sup if _sup is not None else (lambda gg, hh, kk: np_sup(gg, hh, kk, shift_budget))
    value, witness = sup(g, h, k)
    cls = nilpotency_class(h)
    nilpotent_le_k = cls is not None and cls <= k
    holds = (value == 1) == nilpotent_le_k
    return CheckOutcome(
        "class_characterization",
        g.label,
        {**_subgroup_params(h), "k": k, "nilpotency_class": cls},
        value,
        Fraction(1),
        holds,
        witness={"max_shifts": list(witness)},
    )


def check_gap_bound(
    g: GroupTable,
    h: SubgroupRef,
    k: int,
    shift_budget: int = DEFAULT_SHIFT_BUDGET,
    _sup: Optional[Callable] = None,
) -> list[CheckOutcome]:
    """Bounded-away-from-1 checks for H of nilpotency class above k.

    Returns the must-hold outcome against 1 - 3/2^(k+2) and the probe
    outcome against 1 - 3/2^(k+1); empty when the check does not apply.
    """
    cls = nilpotency_class(h)
    if cls is not None and cls <= k:
        return []
    sup = _sup if _sup is not None else (lambda gg, hh, kk: np_sup(gg, hh, kk, shift_budget))
    value, witness = sup(g, h, k)
    params = {**_subgroup_params(h), "k": k, "nilpotency_class": cls}
    wit = {"max_shifts": list(witness)}
    loose = gap_constant(k)
    tight = gap_constant_tight(k)
    return [
        CheckOutcome("gap_bound", g.label, params, value, loose, value <= loose, wit),
        CheckOutcome(
            "gap_bound_tight", g.label, params, value, tight, value <= tight, wit
        ),
    ]


def check_submultiplicativity(
    g: GroupTable,
    n: SubgroupRef,
    h: SubgroupRef,
    k: int,
    shift_budget: int = DEFAULT_SHIFT_BUDGET,
    _quot: Optional[QuotientMap] = None,
    _sup: Optional[Callable] = None,
) -> CheckOutcome:
    """np sup of H is at most (sup of H/N in G/N) * (sup of N in G)."""
    if not set(n.elements) <= set(h.elements):
        raise ValueError("N must be contained in H")
    sup = _sup if _sup is not None else (lambda gg, hh, kk: np_sup(gg, hh, kk, shift_budget))
    qmap = _quot if _quot is not None else quotient(g, n)
    hbar = image_subgroup(qmap, h)
    lhs, _ = sup(g, h, k)
    quot_val, _ = sup(qmap.target, hbar, k)
    n_val, _ = sup(g, n, k)
    rhs = quot_val * n_val
    params = {
        **_subgroup_params(h),
        **_subgroup_params(n, "n"),
        "k": k,
        "quotient_factor": quot_val,
        "kernel_factor": n_val,
    }
    return CheckOutcome(
        "submultiplicativity", g.label, params, lhs, rhs, lhs <= rhs
    )


def check_shift_monotonicity(
    g: GroupTable,
    n: SubgroupRef,
    k: int,
    shift_budget: int = DEFAULT_SHIFT_BUDGET,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> list[CheckOutcome]:
    """For normal N, trivial shifts maximize the shifted probability.

    One outcome per coset-representative tuple; a single vacuous outcome
    when the trivial-shift value is already 1.
    """
    rhs = np_fast(g, n, identity_shifts(k), tuple_budget).value
    base = {**_subgroup_params(n, "n"), "k": k}
    if rhs == 1:
        return [
            CheckOutcome(
                "shift_monotonicity",
                g.label,
                {**base, "vacuous": True},
                Fraction(1),
                rhs,
                True,
            )
        ]
    out = []
    for tup, val in iter_shift_values(g, n, k, shift_budget):
        out.append(
            CheckOutcome(
                "shift_monotonicity",
                g.label,
                {**base, "shifts": list(tup)},
                val,
                rhs,
                val <= rhs,
            )
        )
    return out


def max_bad_series_length(
    g: GroupTable,
    k: int,
    normals: Optional[Sequence[SubgroupRef]] = None,
) -> tuple[int, list[SubgroupRef]]:
    """Longest normal series of G whose factors all have class above k.

    Series run 1 = G_{r+1} <= ... <= G_0 = G through normal subgroups of
    G; a factor A/B is "bad" when it is not nilpotent of class at most k,
    equivalently when the (k+1)-st lower-central term of A is not inside
    B.  Returns r (the number of factors minus one) and a witness chain
    from G down to 1; r = -1 when no such series exists.
    """
    if normals is None:
        normals = normal_subgroups(g)
    elements = [n.elements for n in normals]
    sets = [set(e) for e in elements]
    gamma = {e: set(lcs_term(g, e, k)) for e in elements}

    def bad(a: int, b: int) -> bool:
        return not gamma[elements[a]] <= sets[b]

    order = {e: i for i, e in enumerate(elements)}
    trivial = order[(0,)]
    top = order[tuple(range(g.order))]

    best: dict[int, tuple[int, list[int]]] = {trivial: (0, [trivial])}

    def solve(i: int) -> tuple[int, list[int]]:
        if i in best:
            return best[i]
        best_len, best_chain = -1, []
        for j in range(len(normals)):
            if j == i or not sets[j] < sets[i]:
                continue
            if not bad(i, j):
                continue
            sub_len, sub_chain = solve(j)
            if sub_len >= 0 and sub_len + 1 > best_len:
                best_len, best_chain = sub_len + 1, [i] + sub_chain
        best[i] = (best_len, best_chain)
        return best[i]

    length, chain = solve(top)
    if length < 1:
        return -1, []
    return length - 1, [normals[i] for i in chain]


def check_series_bound(
    g: GroupTable,
    k: int,
    normals: Optional[Sequence[SubgroupRef]] = None,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> list[CheckOutcome]:
    """Series length against ln(np_k(G)) / ln(constant), both constants.

    With 0 < constant < 1, ``r < ln(np_k) / ln(constant)`` is equivalent
    to ``constant**r > np_k``, which is decided exactly in fractions;
    equality counts as a violation.  The float ratio is only reported as
    ``rhs``.  Reports both r and the factor count r + 1.
    """
    if g.order == 1:
        return []
    npk = np_k(g, k, tuple_budget).value
    r, chain = max_bad_series_length(g, k, normals)
    witness = {"chain_orders": [c.order for c in chain]} if chain else None
    out = []
    for check_id, const in (
        ("series_bound", gap_constant(k)),
        ("series_bound_tight", gap_constant_tight(k)),
    ):
        bound = math.log(float(npk)) / math.log(float(const))
        holds = const ** r > npk
        out.append(
            CheckOutcome(
                check_id,
                g.label,
                {"k": k, "r": r, "factors": r + 1, "np_k": npk},
                r,
                bound,
                holds,
                witness,
            )
        )
    return out


# -- corpus runner --------------------------------------------------------------


def default_corpus_names(max_order: int = 64) -> list[str]:
    """Catalog names of order at most ``max_order`` plus the S(3)xS(3) product."""
    names = catalog_base_names(max_order)
    if max_order >= 36:
        names.append("S(3)xS(3)")
    return names


@dataclass
class CorpusConfig:
    """What to verify and with which budgets."""

    group_names: Sequence[str] = ()
    definitions: Sequence[dict] = ()
    ks: Sequence[int] = (1, 2, 3)
    #: per-k order ceiling; k values missing from this map apply everywhere
    k_order_limits: dict = field(default_factory=lambda: {3: 24})
    checks: Sequence[str] = ALL_CHECKS
    include_cyclic_subgroups: bool = False
    shift_budget: int = DEFAULT_SHIFT_BUDGET
    tuple_budget: int = DEFAULT_TUPLE_BUDGET
    max_order: int = 4096
    threads: int = 1

    @classmethod
    def default(cls, **overrides) -> "CorpusConfig":
        cfg = cls(group_names=default_corpus_names(), **overrides)
        return cfg


@dataclass
class VerificationReport:
    """Aggregated outcomes of a corpus run."""

    outcomes: list[CheckOutcome] = field(default_factory=list)
    findings: list[CheckOutcome] = field(default_factory=list)
    sharpness: list[CheckOutcome] = field(default_factory=list)
    violations: list[CheckOutcome] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    checks_run: int = 0
    gap_checks_skipped: int = 0
    environment: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    @property
    def must_hold_ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        return {
            "checks": self.checks_run,
            "passed": self.checks_run - len(self.violations) - len(self.findings),
            "violations": len(self.violations),
            "findings": len(self.findings),
            "skipped": len(self.skipped) + self.gap_checks_skipped,
            "sharpness": len(self.sharpness),
        }

    def to_json(self, include_timing: bool = True) -> dict:
        out = {
            "summary": self.summary(),
            "outcomes": [o.to_json() for o in self.outcomes],
            "findings": [o.to_json() for o in self.findings],
            "sharpness": [o.to_json() for o in self.sharpness],
            "violations": [o.to_json() for o in self.violations],
            "skipped": self.skipped,
            "environment": self.environment,
        }
        if include_timing:
            out["timing"] = self.timing
        return out


def _aggregate(outcomes: list[CheckOutcome]) -> list[CheckOutcome]:
    """Collapse a per-tuple outcome list to its worst representative.

    Keeps reports readable: the returned outcome carries the number of
    tuples checked and the shifts of the largest left-hand side; failing
    outcomes are never collapsed away (the worst one is failing too).
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


def _margin(o: CheckOutcome) -> float:
    try:
        return float(o.lhs) - float(o.rhs)
    except (TypeError, ValueError):
        return 0.0


def _is_sharp(o: CheckOutcome) -> bool:
    """Equality witnesses below 1 on the bound checks.

    np_le_cp is excluded: its H = G instances are equalities by shift
    invariance and would flood the list.
    """
    if o.check_id not in ("gap_bound", "center_recursion"):
        return False
    if not o.holds or not isinstance(o.lhs, Fraction) or not isinstance(o.rhs, Fraction):
        return False
    return o.lhs == o.rhs and o.rhs < 1


class _GroupVerifier:
    """Runs all configured checks on one group, sharing heavy intermediates."""

    def __init__(self, table: GroupTable, cfg: CorpusConfig, cache=None):
        self.g = table
        self.cfg = cfg
        self.cache = cache
        self.normals = normal_subgroups(table)
        self._sup_memo: dict = {}
        self._quot_memo: dict = {}

    def subgroup_sources(self) -> list[SubgroupRef]:
        subs = {h.elements: h for h in self.normals}
        top = whole_group(self.g)
        subs.setdefault(top.elements, top)
        if self.cfg.include_cyclic_subgroups:
            for x in self.g.elements():
                sub = subgroup_closure(self.g, [x])
                subs.setdefault(sub.elements, sub)
        return sorted(subs.values(), key=lambda s: (s.order, s.elements))

    def sup(self, g: GroupTable, h: SubgroupRef, k: int):
        key = (g.table_hash, h.elements, k)
        if key in self._sup_memo:
            return self._sup_memo[key]
        if self.cache is not None:
            hit = self.cache.get_sup(g.table_hash, h.elements, k)
            if hit is not None:
                self._sup_memo[key] = hit
                return hit
        value = np_sup(g, h, k, self.cfg.shift_budget)
        self._sup_memo[key] = value
        if self.cache is not None:
            self.cache.put_sup(g.table_hash, h.elements, k, value)
        return value

    def quot(self, n: SubgroupRef) -> QuotientMap:
        if n.elements not in self._quot_memo:
            self._quot_memo[n.elements] = quotient(self.g, n)
        return self._quot_memo[n.elements]

    def ks_for_group(self):
        for k in self.cfg.ks:
            limit = self.cfg.k_order_limits.get(k)
            if limit is None or self.g.order <= limit:
                yield k

    def run(self) -> tuple[list[CheckOutcome], int]:
        cfg = self.cfg
        selected = set(cfg.checks)
        raw: list[CheckOutcome] = []
        gap_skips = 0
        sources = self.subgroup_sources()

        if "np_le_cp" in selected:
            for h in sources:
                raw.extend(_aggregate(check_npleqcp(self.g, h, cfg.shift_budget)))

        for k in self.ks_for_group():
            if "center_recursion" in selected:
                top = whole_group(self.g)
                z = center(self.g)
                raw.extend(
                    _aggregate(
                        check_center_recursion(
                            self.g, top, k, cfg.shift_budget, cfg.tuple_budget,
                            _quot=self.quot(z),
                        )
                    )
                )
            if "class_characterization" in selected:
                for h in sources:
                    raw.append(
                        check_class_characterization(self.g, h, k, _sup=self.sup)
                    )
            if "gap_bound" in selected or "gap_bound_tight" in selected:
                for h in sources:
                    pair = check_gap_bound(self.g, h, k, _sup=self.sup)
                    if not pair:
                        gap_skips += 1
                    raw.extend(o for o in pair if o.check_id in selected)
            if "submultiplicativity" in selected:
                for n in self.normals:
                    quot_map = self.quot(n)
                    n_set = set(n.elements)
                    hs = [whole_group(self.g)] + [
                        h for h in self.normals
                        if n_set <= set(h.elements) and h.order < self.g.order
                    ]
                    for h in hs:
                        raw.append(
                            check_submultiplicativity(
                                self.g, n, h, k, cfg.shift_budget,
                                _quot=quot_map, _sup=self.sup,
                            )
                        )
            if "shift_monotonicity" in selected:
                for n in self.normals:
                    raw.extend(
                        _aggregate(
                            check_shift_monotonicity(
                                self.g, n, k, cfg.shift_budget, cfg.tuple_budget
                            )
                        )
                    )
            if "series_bound" in selected or "series_bound_tight" in selected:
                raw.extend(
                    o
                    for o in check_series_bound(
                        self.g, k, self.normals, cfg.tuple_budget
                    )
                    if o.check_id in selected
                )
        return raw, gap_skips


def _resolve_groups(cfg: CorpusConfig) -> tuple[list[GroupTable], list[dict]]:
    tables: list[GroupTable] = []
    skipped: list[dict] = []
    for name in cfg.group_names:
        try:
            tables.append(catalog_get(name, cfg.max_order))
        except NilprobError as exc:
            skipped.append({"group": name, "reason": str(exc)})
    for definition in cfg.definitions:
        try:
            tables.append(group_from_definition(definition, cfg.max_order))
        except (NilprobError, ValueError, KeyError) as exc:
            label = definition.get("label") if isinstance(definition, dict) else None
            skipped.append({"group": label if isinstance(label, str) else "<definition>",
                            "reason": str(exc)})
    return tables, skipped


def _verify_one(
    table: GroupTable, cfg: CorpusConfig, cache=None
) -> tuple[str, list, int, float, Optional[dict]]:
    start = time.perf_counter()
    try:
        verifier = _GroupVerifier(table, cfg, cache)
        outcomes, gap_skips = verifier.run()
        return table.label, outcomes, gap_skips, time.perf_counter() - start, None
    except NilprobError as exc:
        skip = {"group": table.label, "reason": str(exc)}
        return table.label, [], 0, time.perf_counter() - start, skip


def run_corpus(cfg: CorpusConfig, cache=None) -> VerificationReport:
    """Run every selected check over the configured corpus.

    Per-group errors are collected into the report, never raised.  The
    report is deterministic: groups are processed in sorted label order
    and outcome lists keep a fixed check ordering.
    """
    report = VerificationReport()
    report.environment = {
        "version": _version,
        "seed": None,
        "budgets": {
            "shift_budget": cfg.shift_budget,
            "tuple_budget": cfg.tuple_budget,
            "lattice_cap": NORMAL_LATTICE_CAP,
            "max_order": cfg.max_order,
        },
        "ks": list(cfg.ks),
        "k_order_limits": {str(k): v for k, v in sorted(cfg.k_order_limits.items())},
        "checks": list(cfg.checks),
    }

    tables, skipped = _resolve_groups(cfg)
    report.skipped.extend(skipped)
    tables.sort(key=lambda t: t.label)

    if cfg.threads > 1 and len(tables) > 1:
        import concurrent.futures

        # the cache is in-process state, so workers run without it
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(_verify_one, tables, itertools.repeat(cfg)))
    else:
        results = [_verify_one(table, cfg, cache) for table in tables]

    results.sort(key=lambda r: r[0])
    for label, outcomes, gap_skips, elapsed, skip in results:
        report.timing[label] = round(elapsed, 6)
        report.gap_checks_skipped += gap_skips
        if skip is not None:
            report.skipped.append(skip)
        for outcome in outcomes:
            report.checks_run += 1
            report.outcomes.append(outcome)
            if _is_sharp(outcome):
                report.sharpness.append(outcome)
            if not outcome.holds:
                if outcome.check_id in PROBE_CHECKS:
                    report.findings.append(outcome)
                else:
                    report.violations.append(outcome)
    return report


def render_report_table(report: VerificationReport) -> str:
    """Human-readable fixed-width summary of a report."""
    lines = []
    s = report.summary()
    lines.append(
        "checks={checks} passed={passed} violations={violations} "
        "findings={findings} sharpness={sharpness} skipped={skipped}".format(**s)
    )
    lines.append("")
    header = f"{'group':<18} {'check':<24} {'k':>2} {'lhs':>12} {'rhs':>12}  status"
    lines.append(header)
    lines.append("-" * len(header))
    for o in report.outcomes:
        k = o.params.get("k", "-")
        status = "ok" if o.holds else ("finding" if o.check_id in PROBE_CHECKS else "FAIL")
        lines.append(
            f"{o.group:<18} {o.check_id:<24} {k!s:>2} "
            f"{_fmt_val(o.lhs):>12} {_fmt_val(o.rhs):>12}  {status}"
        )
    if report.sharpness:
        lines.append("")
        lines.append("sharpness witnesses:")
        for o in report.sharpness:
            lines.append(
                f"  {o.group}: {o.check_id} at k={o.params.get('k', 1)} "
                f"with value {_fmt_val(o.lhs)}"
            )
    if report.findings:
        lines.append("")
        lines.append("findings (tight-constant probes that fail):")
        for o in report.findings:
            lines.append(
                f"  {o.group}: {o.check_id} k={o.params.get('k')} "
                f"lhs={_fmt_val(o.lhs)} rhs={_fmt_val(o.rhs)}"
            )
    return "\n".join(lines)


def _fmt_val(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)
