"""Rewrite ``reference/corpus_rows.json`` from this checkout's ``nilprob verify``.

Usage, from the checkout root: ``python3 perfbench/make_reference.py``.
The file holds, per corpus group, the number of (group, check, k, lhs,
holds) rows of the default-corpus report and their SHA-256, which the
``corpus_verify`` workload compares against.  Regenerate it only when a
change is meant to alter those rows, and say so.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from nilprob.cli import main as cli_main  # noqa: E402
from workloads import REFERENCE, corpus_rows, digest  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        report_path = Path(tmp) / "report.json"
        rc = cli_main(["verify", "--report", str(report_path), "--no-cache"])
        report = json.loads(report_path.read_text())
    if rc != 0:
        print(f"verify exited {rc}; reference not written", file=sys.stderr)
        return 1
    rows = corpus_rows(report)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({
        "outcomes": len(report["outcomes"]),
        "groups": {g: {"rows": len(r), "sha256": digest(r)} for g, r in rows.items()},
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
