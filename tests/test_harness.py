"""The generator and the property machinery itself."""

import pytest

import ptq.harness
from ptq import LamEnv, Strategy, infer_lambda_box, lam_alpha_eq, lam_str
from ptq.harness import (
    check_completeness,
    check_measure,
    check_readback,
    check_simulation,
    check_soundness,
    check_typing,
    gen_typed_term,
    run_property,
)
import ptq.machine
from ptq.machine import RuleTag


class TestGenerator:
    def test_deterministic(self):
        for size in range(7):
            for seed in (0, 3, 99):
                a, ta = gen_typed_term(size, seed)
                b, tb = gen_typed_term(size, seed)
                assert lam_alpha_eq(a, b) and ta == tb

    def test_seed_changes_output(self):
        outs = {lam_str(gen_typed_term(5, seed)[0]) for seed in range(30)}
        assert len(outs) > 10

    def test_closed_and_well_typed(self):
        for size in range(7):
            for seed in range(8):
                m, ty = gen_typed_term(size, seed)
                assert infer_lambda_box(LamEnv(), m) == ty

    def test_size_bound(self):
        from ptq.lam import App, Lam

        def count_apps(m):
            if isinstance(m, App):
                return 1 + count_apps(m.fn) + count_apps(m.arg)
            return count_apps(m.body) if isinstance(m, Lam) else 0

        for size in range(7):
            for seed in range(8):
                m, _ = gen_typed_term(size, seed)
                assert count_apps(m) <= size

    def test_binder_names_distinct_on_path(self):
        # nested binders never reuse a name, keeping examples readable
        from ptq.lam import App, Lam

        def check(m, bound):
            if isinstance(m, Lam):
                assert m.x not in bound
                check(m.body, bound | {m.x})
            elif isinstance(m, App):
                check(m.fn, bound)
                check(m.arg, bound)

        for seed in range(10):
            m, _ = gen_typed_term(6, seed)
            check(m, set())


class TestProperties:
    @pytest.mark.parametrize(
        "check",
        [
            check_completeness,
            check_soundness,
            check_simulation,
            check_typing,
            check_readback,
            check_measure,
        ],
    )
    def test_passes_on_generated_terms(self, check):
        for seed in range(6):
            m, _ = gen_typed_term(4, seed + 50)
            for strategy in (Strategy.CBN, Strategy.CBV):
                report = check(m, strategy, 4, seed + 50)
                assert report.ok, report.failures

    def test_report_replayability(self):
        reports = run_property("completeness", 10, 4, 77)
        for r in reports:
            m, _ = gen_typed_term(r.size, r.seed)
            assert lam_str(m) == r.instance

    def test_report_shape(self):
        reports = run_property("typing", 4, 3, 5)
        d = reports[0].to_dict()
        assert set(d) == {
            "property", "size", "seed", "instance", "ok", "failures", "kinds",
            "steps",
        }


class TestFaultInjection:
    """A machine whose KPair redexes read as normal forms must make the
    completeness check fail: evidence that the harness catches a broken
    machine."""

    @pytest.fixture
    def broken_machine(self, monkeypatch):
        classify = ptq.machine._classify

        def classify_without_kpair(u):
            tag = classify(u)
            return None if tag is RuleTag.KPAIR else tag

        monkeypatch.setattr(ptq.machine, "_classify", classify_without_kpair)

    def test_broken_machine_is_caught(self, broken_machine):
        reports = run_property("completeness", 30, 6, 7, (Strategy.CBN,))
        assert any(not r.ok for r in reports)

    def test_disabled_rule_fails_completeness(self, broken_machine):
        # find one instance whose run needs KPair and watch it fail
        for seed in range(40):
            m, _ = gen_typed_term(4, seed)
            if not check_completeness(m, Strategy.CBN).ok:
                return
        pytest.fail("no instance exercised the disabled rule")


class TestOneRunPerCheck:
    """A checked run is one normalize run: t-closure is checked at its start
    only, and every state is read back once."""

    @staticmethod
    def counting(monkeypatch, module, name):
        calls = [0]
        fn = getattr(module, name)

        def counted(*args):
            calls[0] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def long_instance():
        for seed in range(200):
            m, _ = gen_typed_term(8, seed)
            report = check_completeness(m, Strategy.CBV, 8, seed)
            if report.steps >= 20:
                return m
        pytest.fail("no generated instance runs for 20 steps")

    def test_t_closure_checked_once_per_run(self, monkeypatch):
        m = self.long_instance()
        calls = self.counting(monkeypatch, ptq.machine, "is_t_closed")
        report = check_completeness(m, Strategy.CBV)
        assert report.ok and report.steps >= 20
        assert calls[0] == 1

    def test_soundness_reads_each_state_back_once(self, monkeypatch):
        m = self.long_instance()
        calls = self.counting(monkeypatch, ptq.harness, "readback")
        report = check_soundness(m, Strategy.CBV)
        assert report.ok and report.steps >= 20
        assert calls[0] == report.steps + 1
