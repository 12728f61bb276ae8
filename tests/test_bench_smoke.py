"""The benchmark's workloads build and pass their checks on this program.

bench/workloads.py reaches ptq internals through its imports, so a change
that breaks one of them would otherwise show only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    return workloads


@pytest.mark.parametrize("name", ["verify-suite", "church-cbv", "church-cbn", "reduce-json"])
def test_first_job_passes_its_check(workloads, name):
    assert name in workloads.WORKLOADS
    jobs = workloads.build(name, 0)
    assert len(jobs) == workloads.expected_jobs(name)
    assert jobs[0].check(jobs[0].run()).ok
