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

``GroupVerifier.run`` runs the checks of one table, ``_CHECKS``, in one
loop.  A call that a budget refuses becomes one ``skipped`` entry and the
group's other calls still run; a call that gives no outcome is counted as
not applicable.

Every check takes a ``GroupVerifier`` first: the group G, its normal
subgroups, the run's budgets and three memos, the supremum ``np_sup`` per
(table, subgroup, k), np(H; shifts) per tuple and the quotient G/N per
normal N.  So a corpus run computes each per-group intermediate once.  A
supremum whose witness is the identity tuple also fills np at that
tuple.  The lower central series is cached on each ``SubgroupRef``, so a
class is a cheap read.  The right-hand side of ``np_le_cp`` and
``shift_monotonicity`` is the same for every tuple, so their worst tuple
is the supremum's lexicographically smallest maximiser.

``VerificationReport`` stores the outcomes; its findings, violations and
sharpness witnesses are filters of them.  ``write_json`` streams the
report one outcome at a time, in the bytes of
``json.dump(..., sort_keys=True, indent=2)``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, TextIO

from . import __version__ as _version
from .errors import BudgetExceeded, NilprobError
from .exact import (
    DEFAULT_SHIFT_BUDGET,
    DEFAULT_TUPLE_BUDGET,
    cp,
    fraction_text,
    identity_shifts,
    np_fast,
    np_sup,
    require_dp_budget,
)
from .groups import GroupTable, catalog_base_names, catalog_get, group_from_definition
from .structure import (
    QuotientMap,
    SubgroupRef,
    center,
    image_subgroup,
    left_coset_reps,
    lower_central_series,
    nilpotency_class,
    normal_subgroups,
    quotient,
    subgroup,
    subgroup_closure,
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
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        # element lists are the bulk of a report: ints pass without a call
        return [v if type(v) is int else _jsonify(v) for v in value]
    # plain scalars first: the Fraction test is an ABC check, and slow
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, Fraction):
        return fraction_text(value)
    return value


def _subgroup_params(h: SubgroupRef, role: str = "h") -> dict:
    params = {f"{role}_order": h.order}
    if h.order <= 16:
        params[f"{role}_elements"] = list(h.elements)
    return params


# -- individual checks ---------------------------------------------------------


def _sup_outcome(check_id: str, v: GroupVerifier, h: SubgroupRef, k: int, base: dict,
                 rhs: Fraction) -> CheckOutcome:
    """sup over shift tuples <= rhs, reported at the lex-smallest maximising tuple.

    When rhs = 1 the inequality is a tautology for probabilities, and a
    vacuous outcome stands in for the supremum.
    """
    if rhs == 1:
        params = {**base, "vacuous": True}
        return CheckOutcome(check_id, v.g.label, params, Fraction(1), rhs, True)
    value, witness = v.sup(v.g, h, k)
    params = {**base, "shifts": list(witness)}
    count = (v.g.order // h.order) ** (k + 1)
    if count > 1:
        params["tuples_checked"] = count
    return CheckOutcome(check_id, v.g.label, params, value, rhs, value <= rhs)


def check_npleqcp(v: GroupVerifier, h: SubgroupRef) -> CheckOutcome:
    """Shifted pair probability never exceeds the commuting probability.

    The right-hand side cp(H) is the same for every shift pair, so the
    outcome is the supremum over pairs (x, y) with its lex-smallest
    maximising pair; vacuous when cp(H) = 1.
    """
    return _sup_outcome("np_le_cp", v, h, 1, _subgroup_params(h), cp(h))


def check_center_recursion(v: GroupVerifier, h: SubgroupRef, k: int) -> list[CheckOutcome]:
    """np(H; x_1..x_{k+1}) <= (1 + np(H/(Z cap H); first k image shifts)) / 2.

    Z is the center of the ambient group; the quotient value is the one
    step shorter probability computed through the quotient map.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    g = v.g
    kern = subgroup(g, set(center(g).elements) & set(h.elements))
    qmap = v.quot(kern)
    hbar = image_subgroup(qmap, h)
    project = qmap.project
    base = {**_subgroup_params(h), "k": k, "kernel_order": kern.order}
    out = []
    reps = left_coset_reps(g, h)
    budget = v.cfg.shift_budget
    if len(reps) ** (k + 1) > budget:
        raise BudgetExceeded("center recursion shift tuples", len(reps) ** (k + 1), budget)
    for tup in itertools.product(reps, repeat=k + 1):
        lhs = v.np(g, h, tup)
        image = tuple(project[x] for x in tup[:k])
        rhs = Fraction(1, 2) * (1 + v.np(qmap.target, hbar, image))
        params = {**base, "shifts": list(tup)}
        out.append(CheckOutcome("center_recursion", g.label, params, lhs, rhs, lhs <= rhs))
    return out


def check_class_characterization(v: GroupVerifier, h: SubgroupRef, k: int) -> CheckOutcome:
    """The supremum hits 1 exactly when H is nilpotent of class at most k."""
    value, witness = v.sup(v.g, h, k)
    cls = nilpotency_class(h)
    holds = (value == 1) == (cls is not None and cls <= k)
    params = {**_subgroup_params(h), "k": k, "nilpotency_class": cls}
    return CheckOutcome("class_characterization", v.g.label, params, value, Fraction(1), holds,
                        witness={"max_shifts": list(witness)})


def check_gap_bound(v: GroupVerifier, h: SubgroupRef, k: int) -> list[CheckOutcome]:
    """Bounded-away-from-1 checks for H of nilpotency class above k.

    Returns the must-hold outcome against 1 - 3/2^(k+2) and the probe
    outcome against 1 - 3/2^(k+1); empty when the check does not apply.
    """
    cls = nilpotency_class(h)
    if cls is not None and cls <= k:
        return []
    value, witness = v.sup(v.g, h, k)
    params = {**_subgroup_params(h), "k": k, "nilpotency_class": cls}
    wit = {"max_shifts": list(witness)}
    loose = gap_constant(k)
    tight = gap_constant_tight(k)
    label = v.g.label
    return [
        CheckOutcome("gap_bound", label, params, value, loose, value <= loose, wit),
        CheckOutcome("gap_bound_tight", label, params, value, tight, value <= tight, wit),
    ]


def check_submultiplicativity(
    v: GroupVerifier, n: SubgroupRef, h: SubgroupRef, k: int
) -> CheckOutcome:
    """np sup of H is at most (sup of H/N in G/N) * (sup of N in G)."""
    if not set(n.elements) <= set(h.elements):
        raise ValueError("N must be contained in H")
    g = v.g
    qmap = v.quot(n)
    hbar = image_subgroup(qmap, h)
    lhs, _ = v.sup(g, h, k)
    quot_val, _ = v.sup(qmap.target, hbar, k)
    n_val, _ = v.sup(g, n, k)
    rhs = quot_val * n_val
    params = {
        **_subgroup_params(h),
        **_subgroup_params(n, "n"),
        "k": k,
        "quotient_factor": quot_val,
        "kernel_factor": n_val,
    }
    return CheckOutcome("submultiplicativity", g.label, params, lhs, rhs, lhs <= rhs)


def check_shift_monotonicity(v: GroupVerifier, n: SubgroupRef, k: int) -> CheckOutcome:
    """For normal N, trivial shifts maximize the shifted probability.

    The right-hand side, the trivial-shift value, is the same for every
    tuple, so the outcome is the supremum over tuples with its
    lex-smallest maximising tuple; vacuous when the trivial-shift value
    is already 1.
    """
    rhs = v.np(v.g, n, identity_shifts(k))
    return _sup_outcome("shift_monotonicity", v, n, k, {**_subgroup_params(n, "n"), "k": k}, rhs)


def max_bad_series_length(
    normals: Sequence[SubgroupRef], k: int
) -> tuple[int, list[SubgroupRef]]:
    """Longest normal series of G whose factors all have class above k.

    ``normals`` are the normal subgroups of G as ``normal_subgroups``
    returns them: by order, so the trivial subgroup first and G last.
    Series run 1 = G_{r+1} <= ... <= G_0 = G through them; a factor A/B
    is "bad" when it is not nilpotent of class at most k, equivalently
    when the (k+1)-st lower-central term of A is not inside B.  As every
    B < A comes before A, one forward pass extends to each A the longest
    series below it, the lowest B winning ties.  Returns r (the number of
    factors minus one) and a witness chain from G down to 1; r = -1 when
    no such series exists.
    """
    sets = [set(n.elements) for n in normals]
    reached: list[tuple[int, int, list[int]]] = []  # (index, factors, chain down to 1)
    for i, n in enumerate(normals):
        series = lower_central_series(n)
        gamma = set(series[min(k, len(series) - 1)].elements)
        length, chain = (0, [0]) if i == 0 else (-1, [])
        for j, sub_len, sub_chain in reached:
            if sub_len >= length and not gamma <= sets[j] and sets[j] < sets[i]:
                length, chain = sub_len + 1, [i] + sub_chain
        if length >= 0:
            reached.append((i, length, chain))

    i, length, chain = reached[-1]
    if i < len(normals) - 1 or length < 1:
        return -1, []
    return length - 1, [normals[i] for i in chain]


def check_series_bound(v: GroupVerifier, k: int) -> list[CheckOutcome]:
    """Series length against ln(np_k(G)) / ln(constant), both constants.

    With 0 < constant < 1, ``r < ln(np_k) / ln(constant)`` is equivalent
    to ``constant**r > np_k``, which is decided exactly in fractions;
    equality counts as a violation.  The float ratio is only reported as
    ``rhs``.  Reports both r and the factor count r + 1.
    """
    if v.g.order == 1:
        return []
    if k < 1:
        raise ValueError("k must be at least 1")
    npk = v.np(v.g, v.top, identity_shifts(k))
    r, chain = max_bad_series_length(v.normals, k)
    witness = {"chain_orders": [c.order for c in chain]} if chain else None
    params = {"k": k, "r": r, "factors": r + 1, "np_k": npk}
    return [
        CheckOutcome(check_id, v.g.label, params, r,
                     math.log(float(npk)) / math.log(float(const)), const ** r > npk, witness)
        for check_id, const in (("series_bound", gap_constant(k)),
                                ("series_bound_tight", gap_constant_tight(k)))
    ]


def _each_source(v: GroupVerifier, sources: list[SubgroupRef]) -> list[dict]:
    return [{"h": h} for h in sources]


def _normal_pairs(v: GroupVerifier, sources: list[SubgroupRef]) -> list[dict]:
    """N and H for each normal N: H = G first, then each proper normal H containing N."""
    pairs = []
    for n in v.normals:
        n_set = set(n.elements)
        pairs.append({"n": n, "h": v.top})
        pairs += [{"n": n, "h": h} for h in v.normals
                  if n_set <= set(h.elements) and h.order < v.g.order]
    return pairs


#: Every check, in run order: the check names its function emits, the
#: function, each call's subgroup arguments by parameter name for a verifier
#: and its subgroup sources, and whether it runs for each k (passed as ``k``)
#: or once per group, at k = 1.  A refused call's entry prefixes its
#: subgroups' params with these names (``h_order``, ``n_order``).
_CHECKS = (
    (("np_le_cp",), check_npleqcp, _each_source, False),
    # H = G: a single shift tuple, so a single outcome
    (("center_recursion",), check_center_recursion, lambda v, hs: [{"h": v.top}], True),
    (("class_characterization",), check_class_characterization, _each_source, True),
    (("gap_bound", "gap_bound_tight"), check_gap_bound, _each_source, True),
    (("submultiplicativity",), check_submultiplicativity, _normal_pairs, True),
    (("shift_monotonicity",), check_shift_monotonicity,
     lambda v, hs: [{"n": n} for n in v.normals], True),
    (("series_bound", "series_bound_tight"), check_series_bound, lambda v, hs: [{}], True),
)


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
        return cls(group_names=default_corpus_names(), **overrides)


@dataclass
class VerificationReport:
    """Aggregated outcomes of a corpus run; every outcome list is a filter of ``outcomes``."""

    outcomes: list[CheckOutcome] = field(default_factory=list)
    #: groups that did not run and refused calls, each with its reason
    skipped: list[dict] = field(default_factory=list)
    #: check calls that ran and gave no outcome, such as gap checks on H of class <= k
    not_applicable: int = 0
    environment: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    @property
    def findings(self) -> list[CheckOutcome]:
        """Failed probes."""
        return [o for o in self.outcomes if not o.holds and o.check_id in PROBE_CHECKS]

    @property
    def violations(self) -> list[CheckOutcome]:
        """Failed must-hold checks."""
        return [o for o in self.outcomes if not o.holds and o.check_id not in PROBE_CHECKS]

    @property
    def sharpness(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if _is_sharp(o)]

    @property
    def must_hold_ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        violations, findings = len(self.violations), len(self.findings)
        return {
            "checks": len(self.outcomes),
            "passed": len(self.outcomes) - violations - findings,
            "violations": violations,
            "findings": findings,
            "skipped": len(self.skipped),
            "not_applicable": self.not_applicable,
            "sharpness": len(self.sharpness),
        }

    def _document(self, include_timing: bool) -> dict:
        """The report's top-level fields, outcome lists still as ``CheckOutcome``s."""
        out = {
            "summary": self.summary(),
            "outcomes": self.outcomes,
            "findings": self.findings,
            "sharpness": self.sharpness,
            "violations": self.violations,
            "skipped": self.skipped,
            "environment": self.environment,
        }
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_json(self, include_timing: bool = True) -> dict:
        out = self._document(include_timing)
        for key in _OUTCOME_LISTS:
            out[key] = [o.to_json() for o in out[key]]
        return out

    def write_json(self, fh: TextIO, include_timing: bool = True) -> None:
        """Write ``to_json(include_timing)`` to ``fh``, one outcome at a time.

        The bytes are those of ``json.dump(..., sort_keys=True, indent=2)``
        followed by a newline, but neither the document nor its text is
        ever held whole.
        """
        doc = self._document(include_timing)
        sep = "{\n  "
        for key in sorted(doc):
            fh.write(f"{sep}{encode_basestring_ascii(key)}: ")
            sep = ",\n  "
            value = doc[key]
            if key not in _OUTCOME_LISTS or not value:
                fh.write(_encode_json(value, "  "))
                continue
            item_sep = "[\n    "
            for outcome in value:
                fh.write(item_sep + _encode_json(outcome.to_json(), "    "))
                item_sep = ",\n    "
            fh.write("\n  ]")
        fh.write("\n}\n")


_OUTCOME_LISTS = ("outcomes", "findings", "sharpness", "violations")

#: The C encoder, for the scalars that are neither str nor int: floats
#: (``NaN`` and ``Infinity`` included), bools and None.  Anything else
#: raises ``TypeError``, as in ``json.dumps``.
_c_encoder = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", ", ",
    True, False, True,
)


def _encode_json(value, indent: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, nested at ``indent``.

    Dict keys must be str, as every report key is; any other key raises
    ``TypeError``, where ``json.dumps`` would write an int key as text.
    """
    out: list[str] = []
    _encode_into(value, indent, out)
    return "".join(out)


def _encode_into(value, indent: str, out: list[str]) -> None:
    """Append the text of ``value`` to ``out``, type by type as ``json`` does.

    str and exact int (not bool) become text here, lists and tuples
    arrays, dicts objects with sorted keys; the C encoder takes the rest.
    A dict's plain str and int values are written in its loop, saving a call.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        if all(type(v) is int for v in value):
            # element lists: one join instead of one call per entry
            out.append(f"[\n{inner}{sep.join(map(int.__repr__, value))}\n{indent}]")
            return
        out.append("[\n" + inner)
        _encode_into(value[0], inner, out)
        for v in value[1:]:
            out.append(sep)
            _encode_into(v, inner, out)
        out.append(f"\n{indent}]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            item = value[key]
            head = f"{sep}{encode_basestring_ascii(key)}: "
            if type(item) is str:
                out.append(head + encode_basestring_ascii(item))
            elif type(item) is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _encode_into(item, inner, out)
            sep = ",\n" + inner
        out.append(f"\n{indent}}}")
    else:
        out.append("".join(_c_encoder(value, 0)))


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


class GroupVerifier:
    """One group's checks and the intermediates they share.

    ``normals`` are the normal subgroups of G by order, so ``top``, the
    last, is G itself.  ``np`` checks the tuple budget of ``cfg`` before
    its memo lookup.  ``sup``'s memo holds only values that passed the
    shift budget, which ``ResultCache.sup`` checks before its lookup and
    ``np_sup`` before it computes.  So a run refuses the same inputs
    whatever the memos and the cache hold.
    """

    def __init__(self, table: GroupTable, cfg: CorpusConfig, cache=None):
        self.g = table
        self.cfg = cfg
        self.cache = cache
        self.normals = normal_subgroups(table)
        self.top = self.normals[-1]
        self._sup_memo: dict = {}
        self._np_memo: dict = {}
        self._quot_memo: dict = {}

    def subgroup_sources(self) -> list[SubgroupRef]:
        subs = {h.elements: h for h in self.normals}
        if self.cfg.include_cyclic_subgroups:
            for x in self.g.elements():
                sub = subgroup_closure(self.g, [x])
                subs.setdefault(sub.elements, sub)
        return sorted(subs.values(), key=lambda s: (s.order, s.elements))

    def sup(self, g: GroupTable, h: SubgroupRef, k: int) -> tuple[Fraction, tuple[int, ...]]:
        """``np_sup`` through the memo and the cache; ``g`` is G or a quotient of it."""
        key = (g.table_hash, h.elements, k)
        value = self._sup_memo.get(key)
        if value is not None:
            return value
        compute = np_sup if self.cache is None else self.cache.sup
        value = self._sup_memo[key] = compute(g, h, k, self.cfg.shift_budget)
        sup, witness = value
        if witness == identity_shifts(k):
            # a maximiser's value is the supremum, exactly
            self._np_memo.setdefault((g.table_hash, h.elements, witness), sup)
        return value

    def np(self, g: GroupTable, h: SubgroupRef, shifts: Sequence[int]) -> Fraction:
        """np(H; shifts) through the memo; ``g`` is G or a quotient of it."""
        budget = self.cfg.tuple_budget
        require_dp_budget(g, h, len(shifts), budget)
        key = (g.table_hash, h.elements, tuple(shifts))
        value = self._np_memo.get(key)
        if value is None:
            value = self._np_memo[key] = np_fast(g, h, shifts, budget).value
        return value

    def quot(self, n: SubgroupRef) -> QuotientMap:
        """G/N for a normal subgroup N of G."""
        if n.elements not in self._quot_memo:
            self._quot_memo[n.elements] = quotient(self.g, n)
        return self._quot_memo[n.elements]

    def run(self) -> tuple[list[CheckOutcome], list[dict], int]:
        """Every selected check, in ``_CHECKS`` order, for each k this group's order allows.

        Returns the outcomes of the selected names, one ``skipped`` entry
        per call refused by a budget (the other calls still run), and the
        number of calls that gave no outcome.
        """
        selected = set(self.cfg.checks)
        limits = self.cfg.k_order_limits
        ks = [k for k in self.cfg.ks if self.g.order <= limits.get(k, self.g.order)]
        plan = [(1, row) for row in _CHECKS if not row[-1]]
        plan += [(k, row) for k in ks for row in _CHECKS if row[-1]]
        sources = self.subgroup_sources()
        outcomes: list[CheckOutcome] = []
        refused: list[dict] = []
        not_applicable = 0
        for k, (names, check, arguments, per_k) in plan:
            if selected.isdisjoint(names):
                continue
            for subs in arguments(self, sources):
                try:
                    out = check(self, **subs, k=k) if per_k else check(self, **subs)
                except BudgetExceeded as exc:
                    entry = {"group": self.g.label, "k": k,
                             "check": next(c for c in names if c in selected)}
                    for role, sub in subs.items():
                        entry.update(_subgroup_params(sub, role))
                    entry["reason"] = str(exc)
                    refused.append(entry)
                    continue
                out = [out] if isinstance(out, CheckOutcome) else out
                not_applicable += not out
                outcomes += [o for o in out if o.check_id in selected]
        return outcomes, refused, not_applicable


def _resolve_groups(cfg: CorpusConfig) -> tuple[list[GroupTable], list[dict]]:
    """The corpus's tables, the first one of each label, and the skipped entries."""
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
        except (NilprobError, ValueError, KeyError, RecursionError) as exc:
            label = definition.get("label") if isinstance(definition, dict) else None
            skipped.append({"group": label if isinstance(label, str) else "<definition>",
                            "reason": str(exc)})
    unique: dict[str, GroupTable] = {}
    for table in tables:
        if unique.setdefault(table.label, table) is not table:
            skipped.append({"group": table.label, "reason": "duplicate label"})
    return list(unique.values()), skipped


def _verify_one(
    table: GroupTable, cfg: CorpusConfig, cache=None
) -> tuple[str, list, list[dict], int, float]:
    """One group's outcomes, ``skipped`` entries, not-applicable count and seconds.

    A budget refusal drops one call; any other error skips the whole group.
    """
    start = time.perf_counter()
    try:
        outcomes, skipped, not_applicable = GroupVerifier(table, cfg, cache).run()
    except NilprobError as exc:
        outcomes, skipped, not_applicable = [], [{"group": table.label, "reason": str(exc)}], 0
    return table.label, outcomes, skipped, not_applicable, time.perf_counter() - start


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
            "max_order": cfg.max_order,
        },
        "ks": list(cfg.ks),
        "k_order_limits": {str(k): v for k, v in sorted(cfg.k_order_limits.items())},
        "checks": list(cfg.checks),
    }

    tables, skipped = _resolve_groups(cfg)
    report.skipped.extend(skipped)
    tables.sort(key=lambda t: t.label)

    # every worker starts at the first submit, so never more than there is work for
    workers = min(cfg.threads, len(tables), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures

        # the cache is in-process state, so workers run without it
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_one, tables, itertools.repeat(cfg)))
    else:
        results = [_verify_one(table, cfg, cache) for table in tables]

    results.sort(key=lambda r: r[0])
    for label, outcomes, skipped, not_applicable, elapsed in results:
        report.timing[label] = round(elapsed, 6)
        report.outcomes.extend(outcomes)
        report.skipped.extend(skipped)
        report.not_applicable += not_applicable
    return report


def render_report_table(report: VerificationReport) -> str:
    """Human-readable fixed-width summary of a report."""
    lines = []
    s = report.summary()
    lines.append(
        "checks={checks} passed={passed} violations={violations} "
        "findings={findings} sharpness={sharpness} skipped={skipped} "
        "not_applicable={not_applicable}".format(**s)
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
    sharpness, findings = report.sharpness, report.findings
    if sharpness:
        lines.append("")
        lines.append("sharpness witnesses:")
        for o in sharpness:
            lines.append(
                f"  {o.group}: {o.check_id} at k={o.params.get('k', 1)} "
                f"with value {_fmt_val(o.lhs)}"
            )
    if findings:
        lines.append("")
        lines.append("findings (tight-constant probes that fail):")
        for o in findings:
            lines.append(
                f"  {o.group}: {o.check_id} k={o.params.get('k')} "
                f"lhs={_fmt_val(o.lhs)} rhs={_fmt_val(o.rhs)}"
            )
    return "\n".join(lines)


def _fmt_val(v) -> str:
    return f"{v:.4f}" if isinstance(v, float) else str(_jsonify(v))
