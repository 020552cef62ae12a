"""The benchmark traces geotrack's functions by name: a renamed or deleted
one makes every traced run fail, and a function the benchmark's path no
longer calls leaves its span silent."""

import importlib
import os
import sys

from geotrack import cli

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_name_exists():
    missing = []
    for module_name, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{path}")
    assert not missing


def test_boston_simulate_calls_every_filter_study_span(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["simulate", "--output", str(tmp_path / "run.csv")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    calls = tracer.aggregate()
    silent = [name for name in workloads.WORKLOADS["filter-study"].spans
              if calls[name]["calls"] == 0]
    assert not silent
