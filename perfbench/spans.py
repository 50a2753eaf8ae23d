"""Span recording around nilprob's public functions, and the self-time arithmetic.

A traced benchmark iteration calls :func:`install` before the first CLI
call.  It replaces each function named in :data:`TIME_METRICS` with a
wrapper that records one span (name, start, end, parent) per call, in
memory, in four flat arrays.  Modules such as ``verify`` and ``cli``
import library functions by name, so every binding of the original
function object in every ``nilprob`` module is replaced, not only the one
in the defining module.  Methods are patched on their class.

:func:`layer_metrics` turns the recorded spans into the per-layer
metrics.  A span's self time is its duration minus the part of its
interval covered by its child spans; a layer's ``_s`` metric is the sum
of the self times of the spans listed for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: Per-layer time metric -> the spans whose self time it sums.  A span is
#: named ``module.function`` or ``module.Class.method``.  Every span name
#: appears exactly once, so the self times of all metrics add up to the
#: duration of the root spans (``cli.main``).
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "groups.build_s": (
        "groups.build_from_table",
        "groups.build_from_perm_gens",
        "groups.direct_product",
        "groups.catalog_get",
        "groups.catalog_generators",
        "groups.group_from_definition",
    ),
    "structure.lattice_s": ("structure.normal_subgroups",),
    "structure.quotient_s": (
        "structure.quotient",
        "structure.subgroup_table",
        "structure.image_subgroup",
    ),
    "structure.lcs_s": (
        "structure.nilpotency_class",
        "structure.lower_central_series",
        "structure.lcs_term",
    ),
    "structure.classes_s": (
        "structure.conjugacy_classes",
        "structure.center",
        "structure.centralizer",
    ),
    "exact.dp_s": (
        "exact.np_fast",
        "exact.np_k",
        "exact.np_bruteforce",
        "exact.commutator_distribution",
        "exact.cp",
    ),
    "exact.sup_s": ("exact.np_sup", "exact.iter_shift_values"),
    "verify.self_s": ("verify.run_corpus",),
    "verify.report_s": ("verify.VerificationReport.to_json", "verify.render_report_table"),
    "cache.s": (
        "cache.ResultCache.__init__",
        "cache.ResultCache.get_np",
        "cache.ResultCache.put_np",
        "cache.ResultCache.get_sup",
        "cache.ResultCache.put_sup",
    ),
    "perms.bsgs_s": ("perms.schreier_sims",),
    "perms.draw_s": ("perms.PermGroupBSGS.random_uniform",),
    "montecarlo.self_s": ("montecarlo.estimate_np",),
    "cli.self_s": ("cli.main",),
}

#: Count metrics taken from the number of spans of the listed names.
CALL_COUNTS: dict[str, tuple[str, ...]] = {
    "groups.tables": ("groups.build_from_table",),
    "structure.lcs_calls": ("structure.nilpotency_class",),
    "exact.dp_calls": ("exact.np_fast", "exact.np_bruteforce", "exact.commutator_distribution"),
    "perms.draws": ("perms.PermGroupBSGS.random_uniform",),
}

#: Count metrics the wrappers add up from arguments and return values.
HOOK_COUNTS = (
    "groups.cells",
    "exact.shift_tuples",
    "verify.outcomes",
    "cache.hits",
    "cache.misses",
    "cache.appends",
    "montecarlo.samples",
)

#: Spans that wrap a generator: one span per resumption, so the consumer's
#: work between items is not charged to the generator.
GENERATORS = frozenset({"exact.iter_shift_values"})


class Recorder:
    """Spans in four flat arrays plus named counters, all in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span around each call; ``after(counts, result)`` after it."""
        nid = self._intern(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, count: str):
        """``fn`` returning a generator; one span per ``next``, ``count`` per item."""
        step = self.wrap(name, next)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                counts[count] += 1
                yield item

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "counts": dict(self.counts),
        }))


def _count_cells(counts, result) -> None:
    counts["groups.cells"] += result.order * result.order


def _count_outcomes(counts, result) -> None:
    counts["verify.outcomes"] += len(result.outcomes)


def _count_lookup(counts, result) -> None:
    counts["cache.misses" if result is None else "cache.hits"] += 1


def _count_samples(counts, result) -> None:
    counts["montecarlo.samples"] += result.samples


_HOOKS = {
    "groups.build_from_table": _count_cells,
    "verify.run_corpus": _count_outcomes,
    "cache.ResultCache.get_np": _count_lookup,
    "cache.ResultCache.get_sup": _count_lookup,
    "montecarlo.estimate_np": _count_samples,
}


def _counting_put(rec: Recorder, name: str, fn):
    """A cache ``put_*`` wrapper that counts the entries actually appended."""

    def put(self, *args, **kwargs):
        before = len(self)
        fn(self, *args, **kwargs)
        rec.counts["cache.appends"] += len(self) - before

    return rec.wrap(name, functools.wraps(fn)(put))


def install(rec: Recorder) -> None:
    """Wrap every span in :data:`TIME_METRICS`, at every binding of it."""
    modules = [m for n, m in sys.modules.items() if n == "nilprob" or n.startswith("nilprob.")]
    for names in TIME_METRICS.values():
        for name in names:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"nilprob.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            if name in GENERATORS:
                wrapped = rec.wrap_generator(name, original, "exact.shift_tuples")
            elif name.startswith("cache.ResultCache.put_"):
                wrapped = _counting_put(rec, name, original)
            else:
                wrapped = rec.wrap(name, original, _HOOKS.get(name))
            if len(path) == 2:  # a method: the class is the only binding
                setattr(owner, path[-1], wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


# -- analysis -------------------------------------------------------------------


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(parent)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def layer_metrics(data: dict) -> tuple[dict[str, float], float]:
    """Per-layer metrics and the total self time of all spans.

    ``data`` has the layout :meth:`Recorder.dump` writes.  Raises
    ``ValueError`` for a span name no metric claims.
    """
    names = data["names"]
    bucket_of = {s: m for m, spans in TIME_METRICS.items() for s in spans}
    unknown = set(names) - set(bucket_of)
    if unknown:
        raise ValueError(f"spans without a layer metric: {sorted(unknown)}")
    metrics = {m: 0.0 for m in TIME_METRICS}
    calls: Counter = Counter()
    selfs = self_times(data["parent"], data["start"], data["end"])
    for nid, s in zip(data["name"], selfs):
        metrics[bucket_of[names[nid]]] += s
        calls[names[nid]] += 1
    for metric, spans in CALL_COUNTS.items():
        metrics[metric] = sum(calls[s] for s in spans)
    for metric in HOOK_COUNTS:
        metrics[metric] = data["counts"].get(metric, 0)
    return metrics, sum(selfs)
