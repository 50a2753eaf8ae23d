"""nilprob benchmark: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout.  Each iteration runs the
workload's CLI calls through ``nilprob.cli.main`` in a fresh Python
process with a fresh empty ``--cache-dir`` (closed loop: one call at a
time, each waited for), then checks every output.  Iterations repeat
until ``--seconds`` would be exceeded, with a minimum count.

``--trace 0`` reports the end-to-end metrics (medians over the run's
iterations).  ``--trace 1`` runs one untraced iteration, then traced
iterations that record spans around nilprob's public functions, and
reports the per-layer metrics; it fails if a layer is idle on the
workload it mostly runs on, if the spans account for less than 90% of
the traced ``run_s``, or if an exact work counter differs from an
earlier run of the same source on the same workload.

The last line of standard output is the result object; the line before
it holds quartiles, sample counts and the environment.  Run files go to
``.perfbench/`` in the checkout; nothing outside the checkout is touched.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD = Path(__file__).resolve().with_name("child.py")

END_TO_END = {"run_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    **{m: "s" for m in spans.TIME_METRICS},
    **{m: "count" for m in (*spans.CALL_COUNTS, *spans.HOOK_COUNTS)},
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

#: Exact work counters: they must repeat exactly between runs of one source tree.
EXACT_COUNTERS = tuple(m for m, unit in PER_LAYER.items() if unit == "count")

#: Workloads each layer mostly runs on; its metrics must be non-zero there.
MOSTLY_ON = {
    "groups": ("exact_large", "corpus_verify"),
    "structure": ("corpus_verify",),
    "exact.dp": ("exact_large",),
    "exact.sup": ("sup_shifts",),
    "exact.shift": ("sup_shifts",),
    "verify": ("corpus_verify",),
    "cache": ("corpus_verify",),
    "perms": ("mc_estimate",),
    "montecarlo": ("mc_estimate",),
    "cli": ("corpus_verify",),
}

MIN_ITERATIONS = 3
MIN_TRACED = 2
SETUP_PROBES = 5
COVERAGE_BAR = 0.9
CHILD_TIMEOUT_S = 150
#: No iteration starts that would end later than this after the run began.
RUN_LIMIT_S = 160


def mostly_on(metric: str) -> tuple[str, ...]:
    for prefix in sorted(MOSTLY_ON, key=len, reverse=True):
        if metric.startswith(prefix):
            return MOSTLY_ON[prefix]
    return ()


def source_hash(root: Path) -> str:
    h = hashlib.sha256()
    src = root / "src" / "nilprob"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: Path, seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(root),
        "source_sha256": source_hash(root),
        "seed": seed,
    }


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Runs iterations of one workload and checks each one's outputs."""

    def __init__(self, workload, root: Path, seed: int, scratch: Path):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.env = {**os.environ, "PYTHONHASHSEED": "0",
                    "PYTHONPATH": os.pathsep.join(
                        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        self.count = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.started = time.monotonic()

    def _new_work(self) -> Path:
        self.count += 1
        work = self.scratch / f"it{self.count}"
        work.mkdir(parents=True)
        return work

    def _spawn(self, work: Path, calls: list[list[str]],
               trace: bool) -> tuple[dict | None, str, float]:
        """Run one child; returns its result (None if it died), stderr and set-up time."""
        spec = work / "spec.json"
        spec.write_text(json.dumps({"calls": calls, "work": str(work), "trace": trace}))
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(spec)], env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CHILD_TIMEOUT_S} s", 0.0
        result_path = work / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, f"child exited {proc.returncode}: {' | '.join(tail)}", 0.0
        result = json.loads(result_path.read_text())
        return result, proc.stderr, result["first_call"] - t0

    def setup_probe(self) -> float:
        """Start a process that sets up and makes no call; its set-up time."""
        work = self._new_work()
        result, err, setup = self._spawn(work, [], False)
        shutil.rmtree(work)
        if result is None:
            raise RuntimeError(f"set-up failed: {err}")
        return setup

    def iteration(self, trace: bool) -> dict | None:
        """One checked iteration; None if no output could be measured."""
        work = self._new_work()
        calls = self.workload.argvs(self.seed, work)
        self.attempted += len(calls)
        t0 = time.monotonic()
        result, err, setup = self._spawn(work, calls, trace)
        try:
            if result is None:
                self.failures += [f"iteration {self.count}: {err}"] * len(calls)
                return None
            try:
                errors, items = self.workload.check(work, result["calls"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors, items = [f"unreadable output: {exc!r}"] * len(calls), 0
            self.failures += [f"iteration {self.count}, call {i}: {e}"
                              for i, e in enumerate(errors) if e is not None]
            out = {
                "wall": time.monotonic() - t0,
                "setup_s": setup,
                "run_s": result["run_s"],
                "peak_rss_mb": result["maxrss_kb"] / 1024,
                "samples_per_s": items / result["run_s"],
            }
            if trace:
                data = json.loads((work / "spans.json").read_text())
                out["layers"], total_self = spans.layer_metrics(data)
                out["coverage"] = total_self / result["run_s"]
            return out
        finally:
            shutil.rmtree(work)

    def repeat(self, trace: bool, minimum: int, deadline: float) -> list[dict]:
        """Iterations until the next would end after ``deadline``; at least ``minimum``."""
        done: list[dict] = []
        last = 0.0
        for tries in itertools.count(1):
            it = self.iteration(trace)
            if it is not None:
                done.append(it)
                last = it["wall"]
            now = time.monotonic()
            if now + last > self.started + RUN_LIMIT_S:
                break
            if len(done) >= minimum and now + last > deadline:
                break
            if not done and tries >= minimum:
                break  # the program fails every time; report it without waiting
        return done


def _check_counters(key: str, counters: dict, state_path: Path) -> list[str]:
    """Compare exact counters with an earlier run of the same source; record them."""
    state = json.loads(state_path.read_text()) if state_path.exists() else {}
    earlier = state.get(key)
    if earlier is None:
        state[key] = counters
        tmp = state_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        tmp.replace(state_path)
        return []
    return [f"exact counter {m} = {counters[m]}, an earlier run of this source had {earlier[m]}"
            for m in counters if earlier.get(m) != counters[m]]


def run_benchmark(workload, root: Path, seed: int, seconds: float, trace: bool,
                  scratch: Path, state_path: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, details)."""
    runner = Runner(workload, root, seed, scratch)
    runner.setup_probe()  # warm-up: byte-compilation and file cache, not counted
    deadline = time.monotonic() + seconds
    problems: list[str] = []
    details: dict = {"workload": workload.name, "environment": environment(root, seed)}

    if not trace:
        setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
        iters = runner.repeat(False, MIN_ITERATIONS, deadline)
        if not iters:
            raise RuntimeError("no iteration completed: " + "; ".join(runner.failures[:3]))
        samples = {m: [it[m] for it in iters] for m in END_TO_END}
        samples["setup_s"] += setups
        stats = {m: quartiles(v) for m, v in samples.items()}
        metrics = {m: {"value": stats[m]["median"], "unit": unit}
                   for m, unit in END_TO_END.items()}
    else:
        base = runner.iteration(False)
        traced = runner.repeat(True, MIN_TRACED, deadline)
        if base is None or not traced:
            raise RuntimeError("no iteration completed: " + "; ".join(runner.failures[:3]))
        values = {m: [it["layers"][m] for it in traced]
                  for m in PER_LAYER if not m.startswith("trace.")}
        run_s = [it["run_s"] for it in traced]
        coverage = [it["coverage"] for it in traced]
        values["trace.overhead_s"] = [r - base["run_s"] for r in run_s]
        values["trace.coverage"] = coverage
        stats = {m: quartiles(v) for m, v in values.items()}
        stats["traced_run_s"] = quartiles(run_s)
        stats["untraced_run_s"] = quartiles([base["run_s"]])
        counters = {m: values[m][0] for m in EXACT_COUNTERS}
        metrics = {m: {"value": counters.get(m, stats[m]["median"]), "unit": unit}
                   for m, unit in PER_LAYER.items()}
        for m in EXACT_COUNTERS:
            if len(set(values[m])) > 1:
                problems.append(f"exact counter {m} differs between iterations: {values[m]}")
        key = f"{details['environment']['source_sha256']}:{workload.name}:" + json.dumps(
            vars(workload), sort_keys=True, default=str)
        problems += _check_counters(key, counters, state_path)
        for m in PER_LAYER:
            if workload.name in mostly_on(m) and metrics[m]["value"] == 0:
                problems.append(f"{m} is 0 on {workload.name}, which it mostly runs on")
        if min(coverage) < COVERAGE_BAR:
            problems.append(f"spans cover {min(coverage):.1%} of the traced run_s, "
                            f"below {COVERAGE_BAR:.0%}")

    details["stats"] = stats
    details["iterations"] = [{m: v for m, v in it.items() if m != "layers"}
                             for it in ([base, *traced] if trace else iters)]
    problems += runner.failures
    details["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "nilprob" / "cli.py").is_file():
        print("perfbench: run from the root of a nilprob checkout (src/nilprob/cli.py "
              "not found)", file=sys.stderr)
        return 2
    work_root = root / ".perfbench"
    scratch = work_root / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result, details = run_benchmark(WORKLOADS[args.workload], root, args.seed, args.seconds,
                                        bool(args.trace), scratch, work_root / "counters.json")
    except RuntimeError as exc:
        print(f"perfbench: FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    results = work_root / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}"
    (results / f"{stem}.json").write_text(json.dumps({**details, "result": result}, indent=1))
    for problem in details["problems"]:
        print(f"perfbench: FAIL: {problem}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
