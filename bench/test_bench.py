"""Tests of the benchmark's own helpers: python3 -m pytest -q bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

wl = run._import_program()

import ptq  # noqa: E402  (importable once run has put src/ on the path)


def _self_times(spans):
    start, end, parent = zip(*spans)
    return tracing.self_times(start, end, parent)


def test_self_time_of_nested_spans():
    # 0 contains 1, which contains 2
    got = _self_times([(0.0, 10.0, -1), (2.0, 8.0, 0), (3.0, 5.0, 1)])
    assert got == pytest.approx([4.0, 4.0, 2.0])


def test_self_time_of_sibling_spans():
    got = _self_times([(0.0, 10.0, -1), (1.0, 3.0, 0), (4.0, 9.0, 0)])
    assert got == pytest.approx([3.0, 2.0, 5.0])


def test_self_time_counts_overlap_once_and_clips_to_the_parent():
    got = _self_times([(0.0, 10.0, -1), (1.0, 6.0, 0), (4.0, 12.0, 0), (5.0, 7.0, -1)])
    assert got == pytest.approx([1.0, 5.0, 8.0, 2.0])


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(range(1, 1001), 99) == 990
    assert run.percentile(range(1, 1000), 99) is None
    assert run.percentile(range(1, 21), 50) == 10
    assert run.percentile(range(1, 20), 50) is None


def _pass(times, speed):
    p = run.PassResult()
    p.times, p.speed = times, speed
    return p


def test_job_times_scale_by_the_kernel_samples_around_them():
    ref = run.REF_KERNEL_S
    # kernel samples before job 0, before job 2, and after the last job
    p = _pass([1.0, 1.0, 1.0], [(0, ref), (2, 3 * ref), (3, 2 * ref)])
    assert p.scaled() == pytest.approx([0.5, 0.5, 0.4])


def test_job_times_are_per_job_medians():
    ref = run.REF_KERNEL_S
    speed = [(0, ref), (2, ref)]
    passes = [_pass(t, speed) for t in ([1.0, 10.0], [3.0, 30.0], [2.0, 11.0])]
    assert run.job_times(passes) == pytest.approx([2.0, 11.0])


def _bindings(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def _modules():
    return [sys.modules[f"ptq.{layer}"] for layer in run.LAYERS] + [wl]


def test_traced_pass_restores_every_rebound_name():
    modules = _modules()
    before = _bindings(modules)
    jobs = wl.build("church-cbn", 0)[:2]
    tracer, counters = tracing.Tracer(), run.Counters()
    assert tracer.install(modules, counters.hooks()) > 0
    try:
        assert wl.normalize is not ptq.machine.normalize
        traced = run.run_pass(wl, jobs, None, tracer, counters)
    finally:
        tracer.uninstall()
    assert len(tracer.key) > 0
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    # an untraced pass after it calls the original functions: no new spans,
    # even with recording switched on
    tracer.clear()
    tracer.recording = True
    plain = run.run_pass(wl, jobs, traced.outcomes)
    tracer.recording = False
    assert len(tracer.key) == 0
    assert plain.failed == 0 and traced.failed == 0


def test_spans_stop_at_module_boundaries():
    tracer, counters = tracing.Tracer(), run.Counters()
    tracer.install(_modules(), counters.hooks())
    try:
        tracer.begin_job(7)
        u = wl.ptq_translate_e(wl.parse_lam(r"(\x:A. x) z"), wl.Strategy.CBV, wl.CHURCH_ENV)
        result = wl.normalize(u)
        tracer.end_job()
    finally:
        tracer.uninstall()
    names = [tracer.names[k] for k in tracer.key]
    # the defining module is never rebound, so _subst's recursion is untraced
    assert ("syntax", "_subst") not in names
    assert ("syntax", "subst_k") in names
    roots = [names[i] for i in range(len(names)) if tracer.parent[i] < 0]
    assert roots == [("lam", "parse_lam"), ("translate", "ptq_translate_e"), ("machine", "normalize")]
    subst = names.index(("syntax", "subst_k"))
    assert names[tracer.parent[subst]] == ("machine", "normalize")
    assert set(tracer.job) == {7}
    counters.absorb(wl.count_nodes)
    assert sum(counters.rules.values()) == len(result.trace.steps) > 0


def test_layer_metrics_of_a_traced_cbn_job():
    jobs = wl.build("church-cbn", 0)[:1]
    tracer, counters = tracing.Tracer(), run.Counters()
    tracer.install(_modules(), counters.hooks())
    try:
        res = run.run_pass(wl, jobs, None, tracer, counters)
    finally:
        tracer.uninstall()
    m = run.layer_metrics(tracer, counters, res)
    assert set(m) | {"trace.overhead", "code.src_lines"} == set(run.PER_LAYER_UNITS)
    assert m["machine.steps"] == sum(res.outcomes[0].steps.values())
    assert m["machine.steps"] == sum(m[f"machine.steps.{r}"] for r in run.RULES)
    assert m["typecheck.infer_lambda_box.calls_per_node"] > 0
    assert m["machine.term_nodes_max"] > 0


def test_same_seed_gives_same_jobs_and_outcomes():
    assert wl.church_numerals("church-cbv", 5) == wl.church_numerals("church-cbv", 5)
    numerals = wl.church_numerals("church-cbn", 5)
    assert len(set(numerals)) == len(numerals)
    first, again = wl.build("church-cbn", 5)[0], wl.build("church-cbn", 5)[0]
    assert first.label == again.label
    a, b = first.check(first.run()), again.check(again.run())
    assert a.ok and b.ok
    assert run._same(wl, a, b)


def test_verify_suite_covers_every_check():
    jobs = wl.build("verify-suite", 0)
    assert len(jobs) == wl.expected_jobs("verify-suite") == 1400
    names = {j.label.split(":")[0] for j in jobs}
    assert names == {f.__name__ for f in wl.VERIFY_CHECKS.values()}


def test_verify_terms_are_seeded_and_keep_the_size_mix():
    terms = wl.verify_terms(3)
    assert [(size, seed) for size, seed, _ in terms] == [(size, seed) for size, seed, _ in wl.verify_terms(3)]
    sizes = sorted(size for size, _, _ in terms)
    assert sizes == sorted(i % (wl.VERIFY_MAX_SIZE + 1) for i in range(wl.VERIFY_COUNT))
    seeds = [seed for _, seed, _ in terms]
    assert len(set(seeds)) == len(seeds)
    assert all(30000 <= seed < 30000 + wl.VERIFY_COUNT * wl.VERIFY_POOL for seed in seeds)
    assert not set(seeds) & {seed for _, seed, _ in wl.verify_terms(4)}


def test_count_nodes_counts_term_nodes_not_types():
    term = ptq.parse_eterm(r"<x, *> ; \(y:A->A, k:A). k ; y")
    assert wl.count_nodes(term, {}) == 8


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "church-cbn", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
