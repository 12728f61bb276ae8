"""The generator and the property machinery itself."""

import dataclasses
import hashlib
import importlib
import json
import random
import re

import pytest

import ptq.harness
import ptq.typecheck
from ptq import (
    Arrow,
    Base,
    KLam,
    LamEnv,
    PApp,
    PairLam,
    PVar,
    QLam,
    STAR,
    Strategy,
    TypeEnv,
    control_length,
    infer_lambda_box,
    infer_ptq,
    lam_alpha_eq,
    lam_str,
    parse_lam,
    parse_term,
    readback,
    term_str,
    Var,
)
from ptq.errors import FuelExhausted, MissingAnnotation, OracleDiverged
from ptq.harness import (
    CHECKS,
    TOP_MENU,
    PropertyReport,
    _gen,
    _start_term,
    check_completeness,
    check_measure,
    check_readback,
    check_sim_beta,
    check_simulation,
    check_soundness,
    check_typing,
    gen_typed_term,
    run_checked,
    run_property,
)
import ptq.machine
from ptq.machine import RuleTag
from ptq.syntax import _CHILDREN

# the module: the package binds the name `ptq.readback` to the function
readback_module = importlib.import_module("ptq.readback")


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

    def test_top_level_draw_never_dead_ends(self):
        # gen_typed_term draws once with no retry: every TOP_MENU target ends
        # in X -> X, so the top-level _gen can always finish the term
        for seed in range(300):
            budget = seed % 13
            for target in TOP_MENU:
                rng = random.Random(f"{target}:{seed}")
                _gen(rng, (), target, budget, 0)  # raises _Dead on a dead end


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

    def test_oracle_out_of_fuel(self, monkeypatch):
        # the oracle's run needs two steps by value; one is all it gets
        monkeypatch.setattr(ptq.harness, "ORACLE_FUEL", 1)
        m = parse_lam(r"(\x:X->X. x) ((\y:X->X. y) (\z:X. z))")
        with pytest.raises(OracleDiverged, match="no normal form within 1 steps") as info:
            check_completeness(m, Strategy.CBV)
        assert isinstance(info.value.__cause__, FuelExhausted)

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


class TestStrategyValues:
    """Every check takes a strategy by its value as its enum member, and
    refuses any other value."""

    @pytest.mark.parametrize("name", CHECKS)
    def test_value_is_member(self, name):
        m, _ = gen_typed_term(6, 3)
        for strategy in Strategy:
            got = CHECKS[name](m, strategy.value).to_dict()
            assert got == CHECKS[name](m, strategy).to_dict()
            assert got["ok"], got

    @pytest.mark.parametrize("name", CHECKS)
    def test_unknown_value_raises(self, name):
        m, _ = gen_typed_term(6, 3)
        with pytest.raises(ValueError):
            CHECKS[name](m, "bogus")


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



# one instance whose runs take a few steps of every rule class
PLANTED_IN, _ = gen_typed_term(3, 1)


def _planted(prop, name, value, kinds, message):
    return pytest.param(prop, name, value, kinds, message, id=f"{prop}-{name}")


@pytest.mark.parametrize(
    "prop, name, value, kinds, message",
    [
        _planted("measure", "control_length", lambda u: control_length(u) + 1,
                 {"outcome"}, r"control_length says 8, machine took 7 control steps"),
        _planted("readback", "readback", lambda t: Var("z"),
                 {"outcome"}, r"term translation reads back to z$"),
        _planted("soundness", "readback", lambda t: Var("z"), {"rb-soundness", "outcome"},
                 r"Beta step is not one beta step on readbacks: z to z$"),
        _planted("sim-beta", "readback", lambda t: Var("z"), {"rb-soundness", "outcome"},
                 r"Beta step is not one beta step on readbacks: z to z$"),
        _planted("simulation", "step_lambda", lambda m, strategy: None,
                 {"outcome"}, r".* should be machine-normal$"),
        _planted("completeness", "ptq_translate_e",
                 lambda m, strategy: _start_term(PLANTED_IN, strategy)[0],
                 {"outcome"}, r"machine run went past \(%k"),
        _planted("completeness", "MACHINE_FUEL", 2,
                 {"fuel", "outcome"}, r"machine fuel exhausted after 2 steps$"),
        _planted("typing", "infer_lambda_box", lambda env, m: Arrow(Base("Y"), Base("Y")),
                 {"outcome"},
                 r"translation checked at q\(\(X -> X\) -> X -> X\), wanted q\(Y -> Y\)$"),
        _planted("completeness", "lam_alpha_eq", lambda a, b: False,
                 {"rb-soundness"}, r"control step QApp moved the readback: "),
        _planted("completeness", "control_length", lambda u: 5,
                 {"control-length"}, r"control step QApp took control_length 5 to 5$"),
        _planted("simulation", "classify", lambda term: None,
                 {"outcome"}, r".* should not be machine-normal$"),
        _planted("simulation", "ptq_translate_e",
                 lambda m, strategy: PApp(STAR, PVar("elsewhere")),
                 {"outcome"}, r"machine run from .* misses \* ; elsewhere$"),
        _planted("typing", "ptq_translate", lambda m, strategy: PVar("free"),
                 {"outcome"}, r"translation failed to check: free$"),
    ],
)
def test_failure_report(monkeypatch, prop, name, value, kinds, message):
    """Each property reports a fault planted in a harness name it calls:
    the kinds of its failures, and the start of the first one."""
    monkeypatch.setattr(ptq.harness, name, value)
    report = CHECKS[prop](PLANTED_IN, Strategy.CBV, 3, 1)
    assert not report.ok
    assert set(report.kinds) == kinds
    assert re.match(message, report.failures[0]), report.failures[0]


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
        calls = self.counting(monkeypatch, ptq.machine, "_require_t_closed")
        report = check_completeness(m, Strategy.CBV)
        assert report.ok and report.steps >= 20
        assert calls[0] == 1

    def test_soundness_reads_each_state_back_once(self, monkeypatch):
        m = self.long_instance()
        calls = self.counting(monkeypatch, ptq.harness, "readback")
        report = check_soundness(m, Strategy.CBV)
        assert report.ok and report.steps >= 20
        assert calls[0] == report.steps + 1


class TestAnchorFromTheWalk:
    """The checks that run the machine anchor it at the type the
    translation's walk read off the source; `check_typing` alone keeps
    `infer_lambda_box`, as the reference it checks the images against."""

    @pytest.mark.parametrize("strategy", [Strategy.CBN, Strategy.CBV])
    def test_reference_inference_only_in_check_typing(self, monkeypatch, strategy):
        calls = TestOneRunPerCheck.counting(monkeypatch, ptq.harness, "infer_lambda_box")
        m, _ = gen_typed_term(6, 3)
        for name, check in CHECKS.items():
            calls[0] = 0
            assert check(m, strategy).ok
            assert calls[0] == (name == "typing"), name

    @pytest.mark.parametrize("strategy", [Strategy.CBN, Strategy.CBV])
    def test_untyped_source_raises_the_reference_error(self, strategy):
        m = parse_lam(r"(\x. x) (\y:X. y)")
        for check in (check_completeness, check_soundness, check_simulation, check_sim_beta):
            with pytest.raises(MissingAnnotation, match=r"missing annotation on \\x$"):
                check(m, strategy)
        # no machine run, so no anchor: an untyped normal form is not an error
        assert check_simulation(parse_lam(r"\x. x"), strategy).ok
        assert check_measure(m, strategy).ok


def nodes(term):
    """Every node occurrence of a calculus term, shared nodes once per
    occurrence."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(_CHILDREN[type(t)](t))


def is_pq(node):
    return isinstance(node, (PVar, PairLam, KLam, QLam))


def is_closed_pq(node):
    return isinstance(node, (PairLam, KLam, QLam)) and not node._fv


class TestOneCheckPerNode:
    """Within one checked run, each distinct closed program or jump node is
    typed once, and each distinct program or jump node is read back once,
    however many states hold it."""

    def test_each_closed_node_typed_once(self, monkeypatch):
        m = TestOneRunPerCheck.long_instance()
        typed, kept = [], []
        for name in ("_infer_p", "_infer_q"):
            infer = getattr(ptq.typecheck, name)

            def recorded(env, node, infer=infer):
                # a node that keeps its type returns it without typing again
                if is_closed_pq(node) and node._type is None:
                    typed.append(node)  # held, so no id is reused
                return infer(env, node)

            monkeypatch.setattr(ptq.typecheck, name, recorded)
        keep = ptq.typecheck._kept

        def keeping(node, ty):
            if is_closed_pq(node):
                kept.append(node)
            return keep(node, ty)

        monkeypatch.setattr(ptq.typecheck, "_kept", keeping)
        report = PropertyReport("completeness", -1, -1, "", True)
        chain, _ = run_checked(*_start_term(m, Strategy.CBV), report)
        assert report.ok and report.steps >= 20
        held = [node for t in chain for node in nodes(t) if is_closed_pq(node)]
        assert len(typed) == len({id(node) for node in typed})
        # a node with a kept type is never typed again
        assert sorted(map(id, kept)) == sorted(map(id, typed))
        assert {id(node) for node in typed} == {id(node) for node in held}
        # the states share closed nodes, so the count is not vacuous
        assert len(held) > 2 * len(typed)

    def test_each_program_or_jump_node_read_back_once(self, monkeypatch):
        m = TestOneRunPerCheck.long_instance()
        built, image = [], readback_module._image

        def recorded(node):
            if node._image is None:
                built.append(node)  # held, so no id is reused
            return image(node)

        monkeypatch.setattr(readback_module, "_image", recorded)
        checked = TestOneRunPerCheck.counting(
            monkeypatch, readback_module, "_require_t_closed"
        )
        report = PropertyReport("completeness", -1, -1, "", True)
        chain, _ = run_checked(*_start_term(m, Strategy.CBV), report)
        assert report.ok and report.steps >= 20
        # every state still passes readback's entry check
        assert checked[0] == len(chain)
        held = [node for t in chain for node in nodes(t) if is_pq(node)]
        assert len(built) == len({id(node) for node in built})
        assert {id(node) for node in built} == {id(node) for node in held}
        # the states share program and jump nodes, so the count is not vacuous
        assert len(held) > 2 * len(built)


class TestNodeCaches:
    """A node keeps its type and its readback image on itself; what is kept
    never changes a result and never shows in the node's value."""

    def test_caches_never_change_a_result(self, corpus):
        # every other state of every checked run, against a copy read from
        # its text, which shares no node and holds no cache
        states = 0
        for m, ty, size, _ in corpus:
            env = TypeEnv((), ("star", ty))
            for strategy in (Strategy.CBN, Strategy.CBV):
                report = PropertyReport("completeness", -1, -1, "", True)
                chain, images = run_checked(_start_term(m, strategy)[0], ty, report)
                assert report.ok
                for state, image in list(zip(chain, images))[size % 2 :: 2]:
                    copy = parse_term(term_str(state))
                    assert copy == state
                    assert readback(copy) == image == readback(state)
                    assert infer_ptq(env, copy) == infer_ptq(env, state)
                    states += 1
        assert states > 500

    def test_caches_do_not_show(self):
        text = r"\(x:A, k:A). (%k:A. k ; x) ! k"
        node, twin = parse_term(text), parse_term(text)
        fields = dataclasses.fields(node)
        seen = (repr(node), hash(node), term_str(node))
        infer_ptq(TypeEnv(), node)
        readback(node)
        assert node._type is not None and node._image is not None
        assert node == twin and hash(node) == hash(twin)
        assert (repr(node), hash(node), term_str(node)) == seen
        assert dataclasses.fields(node) == fields


class TestSharedFault:
    """A rule that plants an ill-typed closed program node, which the states
    after it share: every state that holds the node fails subject reduction,
    because a node that fails to check is never remembered as checked."""

    @pytest.fixture
    def planted(self, monkeypatch):
        # PSubst substitutes a copy of its closed program payload with the
        # k annotation erased: a missing annotation fails the check, and
        # every later contraction is the one the unbroken machine makes
        contract, plants = ptq.machine._contract, []

        def planting(u, tag):
            if tag is RuleTag.PSUBST and not plants:
                p = u.proof
                if isinstance(p, (PairLam, KLam)) and not p._fv:
                    plants.append(dataclasses.replace(p, kty=None))
                    return ptq.machine._subst_x(u.test.body, u.test.x, plants[0])
            return contract(u, tag)

        monkeypatch.setattr(ptq.machine, "_contract", planting)
        return plants

    def test_every_state_holding_the_node_fails(self, planted):
        runs = 0
        for seed in range(30):
            m, _ = gen_typed_term(8, seed)
            planted.clear()
            report = PropertyReport("completeness", 8, seed, lam_str(m), True)
            chain, _ = run_checked(*_start_term(m, Strategy.CBV), report)
            if not planted:
                continue
            holding = sum(
                any(node is planted[0] for node in nodes(t)) for t in chain
            )
            assert report.count("subject-reduction") == holding
            node = planted[0]
            where = rf"\({node.x}, k)" if isinstance(node, PairLam) else r"\k"
            rules = "|".join(tag.value for tag in RuleTag)
            text = f"subject reduction broke after ({rules}): missing annotation on "
            assert all(
                re.fullmatch(text + re.escape(where), failure)
                for failure, kind in zip(report.failures, report.kinds)
                if kind == "subject-reduction"
            )
            runs += holding >= 4
        assert runs >= 3, "too few runs share the planted node"


def test_reports_unchanged():
    """Every report of every check on 60 instances up to size 8, under both
    strategies, is the one the checks gave before runs shared their checks
    of closed nodes. A deliberate change of a report changes this digest."""
    reports = {
        name: [r.to_dict() for r in run_property(name, 60, 8, 0)] for name in CHECKS
    }
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "4452e1e14db37e4c6e41fec28e824b7969cff493cc25e2a5f0d4329d499ca8d8"
