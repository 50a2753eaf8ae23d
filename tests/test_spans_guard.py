"""The benchmark's span names must name functions that exist in nilprob.

``perfbench/spans.py`` wraps each function listed in ``TIME_METRICS``,
and those in ``GENERATORS`` as generators; a deleted or renamed function,
or one that stops being a generator, would break a traced benchmark run,
so the names are resolved here first.  The file is only read, never
imported as a package module.
"""

import importlib
import inspect
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


def test_every_generator_span_names_a_generator_function():
    # a traced run calls ``next`` on what these return, one span per item
    spans = runpy.run_path(str(SPANS))
    generators = spans["GENERATORS"]
    assert generators
    for name in generators:
        assert any(name in names for names in spans["TIME_METRICS"].values()), name
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"nilprob.{module_name}")
        for part in path:
            owner = getattr(owner, part)
        assert inspect.isgeneratorfunction(owner), name
