"""The benchmark's contract with the library, checked in the test suite.

`perfbench/` runs the library through `workloads.py` and traces it with
`layertrace.py`, which patches public callables by name.  Running one item
of two workloads under the tracer here means that renaming a traced function
or breaking a workload's oracle fails the tests, not only a benchmark run.
Both modules are loaded read-only: no bytecode cache or output is written
under `perfbench/`.
"""
import importlib.util
import os
import sys
from pathlib import Path

import pytest

from catprob import scalar

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(root):
    return sorted(
        (os.path.relpath(path, root), tuple(sorted(files)))
        for path, _, files in os.walk(root)
    )


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    before = _tree(PERFBENCH)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield _load("workloads"), _load("layertrace")
    finally:
        sys.dont_write_bytecode = saved
    assert _tree(PERFBENCH) == before


def _traced(layertrace, run, check, item):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        result = run(item, tracer)
    finally:
        tracer.uninstall()
    assert check(item, result) is None
    return tracer.metrics()


def test_dyadic_deep_item_under_the_tracer(bench):
    workloads, layertrace = bench
    ground = workloads.build_dyadic(7)[0]
    metrics = _traced(layertrace, workloads.run_dyadic, workloads.check_dyadic, ground)
    assert metrics["diagram.validate.calls"] > 0
    assert metrics["diagram.validate.triple_atoms"] > 0
    assert metrics["finrv.cond_exp.calls"] > 0


def test_random_small_item_under_the_tracer(bench):
    workloads, layertrace = bench
    item = workloads.build_random_small(7, scalar.EXACT)[0]
    metrics = _traced(
        layertrace, workloads.run_random_small, workloads.check_random_small, item
    )
    assert metrics["diagram.validate.calls"] > 0
    assert metrics["finrv.cond_exp.calls"] > 0
    # the tracer only wraps classes with an `__init__` of their own; kernel
    # outputs skip it, but values built from user tables still pass through it
    for name in (
        "finrv.FiniteRandomVariable",
        "finmeas.FiniteMeasure",
        "diagram.Martingale",
        "diagram.ConsistentMeasureFamily",
        "diagram.martingale_limit",
        "diagram.kolmogorov_extend",
    ):
        assert metrics[name + ".calls"] > 0, name
