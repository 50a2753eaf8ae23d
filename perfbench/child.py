"""One benchmark iteration in a fresh process: ``python3 child.py SPEC.json``.

The spec names the CLI calls to make, the iteration's work directory and
whether to trace.  The child imports ``nilprob.cli`` (this and process
start are the set-up), creates the fresh empty cache directory, records
the monotonic time of the first CLI call, makes the calls one after the
other with each call's standard output in its own file, and writes
``result.json`` (and ``spans.json`` when tracing) into the work
directory.  A spec with no calls measures set-up alone.
"""

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    work = Path(spec["work"])

    from nilprob.cli import main as cli_main

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        from nilprob.cli import main as cli_main  # the wrapped binding

    (work / "cache").mkdir()
    calls = []
    first_call = time.monotonic()
    start = time.perf_counter()
    for i, argv in enumerate(spec["calls"]):
        t0 = time.perf_counter()
        rc, error = None, None
        with open(work / f"stdout{i}.txt", "w", encoding="utf-8") as out:
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli_main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # recorded as a failed operation by the parent
                error = traceback.format_exc(limit=5)
        calls.append({"rc": rc, "error": error, "seconds": time.perf_counter() - t0})
    run_s = time.perf_counter() - start

    if recorder is not None:
        recorder.dump(work / "spans.json")
    (work / "result.json").write_text(json.dumps({
        "first_call": first_call,
        "run_s": run_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
