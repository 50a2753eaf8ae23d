"""The benchmark's span names must name functions that exist in nilprob.

``perfbench/spans.py`` wraps each function listed in ``TIME_METRICS``;
a deleted or renamed function would break a traced benchmark run, so the
names are resolved here first.  The file is only read, never imported as
a package module.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_resolves_to_a_nilprob_attribute():
    time_metrics = runpy.run_path(str(SPANS))["TIME_METRICS"]
    names = [name for spans in time_metrics.values() for name in spans]
    assert names
    missing = []
    for name in names:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"nilprob.{module_name}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
