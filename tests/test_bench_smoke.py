"""The benchmark's workloads build and pass their checks on this program.

bench/workloads.py reaches ptq internals through its imports, and
bench/tracing.py rebinds the ptq functions that each traced module imports,
so a change that breaks one of them would otherwise show only when the
benchmark runs.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
WORKLOADS = ["verify-suite", "church-cbv", "church-cbn", "reduce-json"]


def from_bench(name):
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH)


@pytest.fixture(scope="module")
def workloads():
    return from_bench("workloads")


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_job_passes_its_check(workloads, name):
    assert name in workloads.WORKLOADS
    jobs = workloads.build(name, 0)
    assert len(jobs) == workloads.expected_jobs(name)
    assert jobs[0].check(jobs[0].run()).ok


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_job_passes_its_check_traced(workloads, name):
    # traced as bench/run.py traces a pass: the same modules and hooks
    run, tracing = from_bench("run"), from_bench("tracing")
    modules = [sys.modules[f"ptq.{layer}"] for layer in run.LAYERS] + [workloads]
    bound = [
        (mod, attr, obj)
        for mod in modules
        for attr, obj in vars(mod).items()
        if isinstance(obj, types.FunctionType)
    ]
    job = workloads.build(name, 0)[0]
    tracer, counters = tracing.Tracer(), run.Counters()
    assert tracer.install(modules, counters.hooks()) > 0
    try:
        tracer.begin_job(0)
        out = job.run()
        tracer.end_job()
    finally:
        tracer.uninstall()
    counters.absorb(workloads.count_nodes)
    assert job.check(out).ok
    assert all(getattr(mod, attr) is obj for mod, attr, obj in bound)
    spans = {tracer.names[key] for key in tracer.key}
    assert spans
    if name == "verify-suite":
        assert ("readback", "readback") in spans
        assert ("typecheck", "infer_ptq") in spans
