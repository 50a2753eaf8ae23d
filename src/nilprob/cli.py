"""Command-line front end: np, estimate, verify, describe, catalog."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .cache import ResultCache, default_cache_dir, np_key
from .errors import BudgetExceeded, LatticeTooLarge, NilprobError
from .exact import (
    DEFAULT_SHIFT_BUDGET,
    DEFAULT_TUPLE_BUDGET,
    cp,
    fraction_text,
    identity_shifts,
    np_bruteforce,
    np_fast,
    np_sup,
    require_dp_budget,
)
from .groups import (
    GroupTable,
    catalog_base_names,
    catalog_generators,
    catalog_get,
    definition_field,
    group_from_definition,
    write_definition,
)
from .montecarlo import DEFAULT_Z, estimate_np
from .perms import schreier_sims
from .structure import (
    SubgroupRef,
    center,
    conjugacy_classes,
    lower_central_series,
    nilpotency_class,
    normal_subgroups,
    subgroup_closure,
    whole_group,
)
from .verify import (
    ALL_CHECKS,
    CorpusConfig,
    default_corpus_names,
    render_report_table,
    run_corpus,
)


def _resolve_group(args) -> GroupTable:
    sources = [s for s in (args.group, args.group_file, args.group_json) if s]
    if len(sources) != 1:
        raise _UsageError("exactly one of --group / --group-file / --group-json is required")
    try:
        if args.group:
            return catalog_get(args.group, args.max_order)
        if args.group_file:
            with open(args.group_file, "r", encoding="utf-8") as fh:
                return group_from_definition(json.load(fh), args.max_order)
        return group_from_definition(json.loads(args.group_json), args.max_order)
    except (NilprobError, ValueError, KeyError, OSError, RecursionError) as exc:
        raise _UsageError(f"cannot resolve group: {exc}") from exc


class _UsageError(Exception):
    """An input rejected after parsing; exits with code 2 and one ``error:`` line."""


def _resolve_subgroup(g: GroupTable, args) -> SubgroupRef:
    if args.subgroup_normal is not None and args.subgroup_gens is not None:
        raise _UsageError("use only one of --subgroup-normal / --subgroup-gens")
    if args.subgroup_normal is not None:
        normals = normal_subgroups(g)
        idx = args.subgroup_normal
        if not 0 <= idx < len(normals):
            raise _UsageError(
                f"--subgroup-normal index {idx} out of range; "
                f"{g.label} has {len(normals)} normal subgroups "
                "(see `describe` for the list)"
            )
        return normals[idx]
    if args.subgroup_gens is not None:
        seeds = _parse_indices(args.subgroup_gens, g.order)
        return subgroup_closure(g, seeds)
    return whole_group(g)


def _parse_indices(text: str, order: int) -> list[int]:
    try:
        out = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"bad element list {text!r}") from exc
    for x in out:
        if not 0 <= x < order:
            raise _UsageError(f"element index {x} out of range for order {order}")
    return out


#: Largest --k: |H|^(k+1) at order 4096 then has 3,616 digits, under
#: Python's 4,300-digit int <-> str limit, so values print and read back.
MAX_K = 1000
K_HELP = f"from 1 to {MAX_K}"


def _check_k(k: int) -> None:
    if k < 1:
        raise _UsageError(f"--k must be at least 1, got {k}")
    if k > MAX_K:
        raise _UsageError(f"--k must be at most {MAX_K}, got {k}")


def _open_cache(args):
    """A ``ResultCache`` to use in a ``with`` block, or a null context giving None."""
    if args.no_cache:
        return contextlib.nullcontext()
    directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    try:
        # Created up front, so that a path naming a file is reported here
        # and not as a traceback at the first write.
        directory.mkdir(parents=True, exist_ok=True)
        return ResultCache(directory)
    except OSError as exc:
        reason = exc.strerror or exc
        raise _UsageError(f"cannot use cache directory {directory}: {reason}") from exc


def _write_csv(fh, header: list[str], rows) -> None:
    """Rows as CSV; a field is quoted only when it holds a comma, quote or newline."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit(args, payload: dict, csv_rows: tuple[list[str], list[list]]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        _write_csv(sys.stdout, *csv_rows)
    else:
        width = max(len(k) for k in payload) if payload else 0
        for key in payload:
            print(f"{key:<{width}}  {payload[key]}")


# -- commands -------------------------------------------------------------------


def cmd_np(args) -> int:
    _check_k(args.k)
    modes = [flag for flag, given in (("--cp", args.cp), ("--sup", args.sup),
                                      ("--shifts", args.shifts is not None)) if given]
    if len(modes) > 1:
        raise _UsageError(f"use only one of --cp / --sup / --shifts, got {' and '.join(modes)}")
    if args.method == "brute" and (args.cp or args.sup):
        raise _UsageError(f"--method brute does not apply to {modes[0]}")
    g = _resolve_group(args)
    h = _resolve_subgroup(g, args)
    with _open_cache(args) as cache:
        if args.cp:
            value = cp(h)
            payload = {"group": g.label, "kind": "cp", "h_order": h.order,
                       "value": fraction_text(value)}
            _emit(args, payload, (["group", "k", "kind", "value"],
                                  [[g.label, 1, "cp", fraction_text(value)]]))
            return 0

        k = args.k
        if args.sup:
            sup = np_sup if cache is None else cache.sup
            value, witness = sup(g, h, k, args.budget_shifts)
            payload = {
                "group": g.label, "kind": "np_sup", "k": k, "h_order": h.order,
                "value": fraction_text(value), "witness_shifts": list(witness),
            }
            _emit(args, payload, (["group", "k", "kind", "value"],
                                  [[g.label, k, "np_sup", fraction_text(value)]]))
            return 0

        if args.shifts is not None:
            shifts = _parse_indices(args.shifts, g.order)
            if len(shifts) != k + 1:
                raise _UsageError(f"--shifts needs exactly k+1={k + 1} entries")
        else:
            shifts = list(identity_shifts(k))

        cached = None
        key = np_key(g.table_hash, h.elements, shifts) if cache is not None else None
        if cache is not None and args.method != "brute":
            require_dp_budget(g, h, len(shifts), args.budget_tuples)
            cached = cache.get_np(key)
        if cached is not None:
            value, counted, total = cached
            method = "cache"
        else:
            fn = np_bruteforce if args.method == "brute" else np_fast
            result = fn(g, h, shifts, args.budget_tuples)
            value, counted, total = result.value, result.counted_tuples, result.total_tuples
            method = result.method
            if cache is not None:
                cache.put_np(key, value, counted, total)

        payload = {
            "group": g.label, "kind": "np", "k": k, "h_order": h.order,
            "shifts": shifts, "value": fraction_text(value),
            "counted": counted, "total": total, "method": method,
        }
        _emit(args, payload, (
            ["group", "k", "kind", "value", "counted", "total", "method"],
            [[g.label, k, "np", fraction_text(value), counted, total, method]],
        ))
        return 0


def cmd_estimate(args) -> int:
    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {args.samples}")
    if bool(args.group) == bool(args.gens_file):
        raise _UsageError("exactly one of --group / --gens-file is required")
    _check_k(args.k)
    try:
        if args.group:
            _, gens, label = catalog_generators(args.group)
        else:
            with open(args.gens_file, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            if not isinstance(obj, dict) or obj.get("kind") != "perm_gens":
                raise _UsageError("--gens-file needs a perm_gens definition")
            gens = definition_field(obj, "gens", list)
            label = definition_field(obj, "label", str, "<perm group>")
        bsgs = schreier_sims(gens)
    except (NilprobError, ValueError, KeyError, OSError, RecursionError) as exc:
        raise _UsageError(f"cannot build permutation group: {exc}") from exc

    try:
        result = estimate_np(bsgs, args.k, args.samples, args.seed, args.z)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    payload = {"group": label, "order": str(bsgs.order), **dataclasses.asdict(result)}
    _emit(args, payload, (
        ["group", "k", "samples", "seed", "hits", "point", "ci_low", "ci_high", "z"],
        [[label, args.k, result.samples, result.seed, result.hits,
          f"{result.point:.6f}", f"{result.ci_low:.6f}", f"{result.ci_high:.6f}",
          result.z]],
    ))
    return 0


def _write_outcome_rows(fh, report) -> None:
    """The report's outcomes as CSV rows (group,k,check,lhs,rhs,holds)."""
    _write_csv(fh, ["group", "k", "check", "lhs", "rhs", "holds"], (
        [d["group"], d["params"].get("k", 1), d["check"], d["lhs"], d["rhs"], d["holds"]]
        for d in (o.to_json() for o in report.outcomes)))


def cmd_verify(args) -> int:
    definitions = []
    if args.corpus_file:
        try:
            with open(args.corpus_file, "r", encoding="utf-8") as fh:
                definitions = json.load(fh)
            if not isinstance(definitions, list):
                raise ValueError("corpus file must hold a JSON list of definitions")
        except (OSError, ValueError, RecursionError) as exc:
            raise _UsageError(f"cannot read corpus file: {exc}") from exc

    names = list(args.group) if args.group else []
    if not names and not definitions:
        if args.corpus_file:
            raise _UsageError(f"the corpus is empty: {args.corpus_file} lists no group")
        names = default_corpus_names(args.corpus_max_order)
        if not names:
            raise _UsageError(
                f"the corpus is empty: no catalog group has order at most "
                f"{args.corpus_max_order} (--corpus-max-order)"
            )

    if args.checks == []:
        raise _UsageError(f"--checks needs at least one name; known: {', '.join(ALL_CHECKS)}")
    checks = tuple(args.checks) if args.checks else ALL_CHECKS
    for i, c in enumerate(checks):
        if c not in ALL_CHECKS:
            raise _UsageError(f"unknown check {c!r}; known: {', '.join(ALL_CHECKS)}")
        if c in checks[:i]:
            raise _UsageError(f"--checks {c} is given more than once; each check runs once")

    ks = tuple(args.k) if args.k else (1, 2, 3)
    for i, k in enumerate(ks):
        _check_k(k)
        if k in ks[:i]:
            raise _UsageError(f"--k {k} is given more than once; each k is checked once")
    cfg = CorpusConfig(
        group_names=names,
        definitions=definitions,
        ks=ks,
        k_order_limits={3: args.k3_order_limit},
        checks=checks,
        include_cyclic_subgroups=args.cyclic_subgroups,
        shift_budget=args.budget_shifts,
        tuple_budget=args.budget_tuples,
        max_order=args.max_order,
        threads=args.threads,
    )
    # opened even when workers run without it, so a bad --cache-dir exits 2
    with _open_cache(args) as cache:
        report = run_corpus(cfg, cache)

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            report.write_json(fh, include_timing=args.include_timing)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            _write_outcome_rows(fh, report)

    if args.format == "json":
        print(json.dumps(report.to_json(include_timing=args.include_timing),
                         sort_keys=True))
    elif args.format == "csv":
        _write_outcome_rows(sys.stdout, report)
    else:
        print(render_report_table(report))
    # each corpus entry runs or is skipped whole, in an entry without "check"
    groups_skipped = sum("check" not in s for s in report.skipped)
    if groups_skipped == len(names) + len(definitions):
        raise _UsageError(f"nothing verified: {groups_skipped} skipped, no group ran")
    return 0 if report.must_hold_ok else 1


def cmd_describe(args) -> int:
    g = _resolve_group(args)
    if args.emit_definition:
        write_definition(sys.stdout, g)
        return 0
    classes = conjugacy_classes(g)
    z = center(g)
    top = whole_group(g)
    series = lower_central_series(top)
    cls = nilpotency_class(top)
    # past the lattice search's work cap the other properties are still
    # cheap array passes
    try:
        normals = normal_subgroups(g)
        lattice = (len(normals), [n.order for n in normals])
    except LatticeTooLarge as exc:
        lattice = (None, None) if args.format == "json" else (f"not computed: {exc}",) * 2
    payload = {
        "group": g.label,
        "order": g.order,
        "classes": classes.num_classes,
        "cp": fraction_text(cp(g)),
        "center_order": z.order,
        "normal_subgroups": lattice[0],
        "normal_subgroup_orders": lattice[1],
        "nilpotency_class": cls if cls is not None else "not nilpotent",
        "lower_central_orders": [s.order for s in series],
    }
    rows = [[g.label, key, payload[key]] for key in payload if key != "group"]
    _emit(args, payload, (["group", "property", "value"], rows))
    return 0


def cmd_catalog(args) -> int:
    names = catalog_base_names(args.max_order_filter)
    if args.format == "json":
        print(json.dumps(names))
    elif args.format == "csv":
        _write_csv(sys.stdout, ["name"], ([name] for name in names))
    else:
        sys.stdout.writelines(f"{name}\n" for name in names)
    return 0


# -- argument parsing -----------------------------------------------------------


def _add_group_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", help="catalog name or product expression, e.g. S(3)xS(3)")
    p.add_argument("--group-file", help="path to a group-definition JSON file")
    p.add_argument("--group-json", help="inline group-definition JSON")


def _add_global_args(p: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are registered on the main parser (with real defaults)
    # and on every subparser (with SUPPRESS), so they work in either
    # position without the subparser defaults clobbering explicit values.
    def d(value):
        return argparse.SUPPRESS if suppress else value

    p.add_argument("--format", choices=("json", "csv", "table"), default=d("table"))
    p.add_argument("--budget-tuples", type=int, default=d(DEFAULT_TUPLE_BUDGET),
                   help="iteration budget for exact tuple enumeration")
    p.add_argument("--budget-shifts", type=int, default=d(DEFAULT_SHIFT_BUDGET),
                   help="budget for suprema over shift tuples")
    p.add_argument("--cache-dir", default=d(None),
                   help="override the results cache directory")
    p.add_argument("--no-cache", action="store_true", default=d(False),
                   help="disable the results cache")
    p.add_argument("--threads", type=int, default=d(1),
                   help="worker processes for corpus verification, at most one per "
                        "group and one per CPU; workers neither read nor write the "
                        "results cache")
    p.add_argument("--max-order", type=int, default=d(4096),
                   help="largest group order to build as a table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilprob",
        description="Exact and statistical nilpotence probabilities of finite groups.",
    )
    _add_global_args(parser, suppress=False)

    sub = parser.add_subparsers(dest="command", required=True)

    p_np = sub.add_parser("np", help="exact probabilities: np_k, cp, np(H; shifts)")
    _add_global_args(p_np, suppress=True)
    _add_group_args(p_np)
    p_np.add_argument("--k", type=int, default=1, help=K_HELP)
    p_np.add_argument("--cp", action="store_true", help="commuting probability instead of np")
    p_np.add_argument("--sup", action="store_true",
                      help="supremum over shift tuples, with a witness")
    p_np.add_argument("--shifts", help="comma-separated element indices, k+1 of them")
    p_np.add_argument("--subgroup-normal", type=int, metavar="INDEX",
                      help="use the INDEXth normal subgroup (see describe) as H")
    p_np.add_argument("--subgroup-gens", metavar="ELEMS",
                      help="use the subgroup generated by these element indices as H")
    p_np.add_argument("--method", choices=("dp", "brute"), default="dp",
                      help="how np_k and --shifts are counted; --cp and --sup use dp")
    p_np.set_defaults(fn=cmd_np)

    p_est = sub.add_parser("estimate", help="Monte Carlo estimate for permutation groups")
    _add_global_args(p_est, suppress=True)
    p_est.add_argument("--group", help="catalog name, e.g. S(5)")
    p_est.add_argument("--gens-file", help="perm_gens definition JSON file")
    p_est.add_argument("--k", type=int, default=1, help=K_HELP)
    p_est.add_argument("--samples", type=int, default=100000)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--z", type=float, default=DEFAULT_Z)
    p_est.set_defaults(fn=cmd_estimate)

    p_ver = sub.add_parser("verify", help="run the inequality harness over a corpus")
    _add_global_args(p_ver, suppress=True)
    p_ver.add_argument("--group", action="append",
                       help="catalog name to include (repeatable); default: built-in corpus")
    p_ver.add_argument("--corpus-file", help="JSON list of group definitions")
    p_ver.add_argument("--corpus-max-order", type=int, default=64,
                       help="order cap for the default corpus")
    p_ver.add_argument("--k", type=int, action="append",
                       help=f"k values to check (repeatable), each {K_HELP}; default 1 2 3")
    p_ver.add_argument("--k3-order-limit", type=int, default=24,
                       help="only check k=3 on groups up to this order")
    p_ver.add_argument("--checks", nargs="*", help=f"subset of: {', '.join(ALL_CHECKS)}")
    p_ver.add_argument("--cyclic-subgroups", action="store_true",
                       help="also draw H from cyclic subgroups")
    p_ver.add_argument("--report", help="write the JSON report here")
    p_ver.add_argument("--csv", help="write outcome rows (group,k,check,lhs,rhs,holds) here")
    p_ver.add_argument("--include-timing", action="store_true",
                       help="include wall-clock timings in the JSON report")
    p_ver.set_defaults(fn=cmd_verify)

    p_desc = sub.add_parser("describe", help="structural summary of one group")
    _add_global_args(p_desc, suppress=True)
    _add_group_args(p_desc)
    p_desc.add_argument("--emit-definition", action="store_true",
                        help="print a mul_table definition that round-trips the group")
    p_desc.set_defaults(fn=cmd_describe)

    p_cat = sub.add_parser("catalog", help="list catalog names")
    _add_global_args(p_cat, suppress=True)
    p_cat.add_argument("--max-order-filter", type=int, default=None,
                       help="only names whose order is at most this")
    p_cat.set_defaults(fn=cmd_catalog)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise _UsageError(f"--threads must be at least 1, got {args.threads}")
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NilprobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceeded):
            print("hint: raise --budget-tuples/--budget-shifts or use `estimate`",
                  file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`); send what is left to devnull so
        # that the interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
