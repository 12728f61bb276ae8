"""Reference evaluators: lazy by-name and both by-value orders."""

import hashlib
import random

import pytest

from ptq import (
    App,
    Base,
    EvalOrder,
    FuelExhausted,
    Lam,
    PtqError,
    Strategy,
    UncurriedNeedsPairs,
    Var,
    eval_big,
    eval_small,
    is_value,
    lam_alpha_eq,
    lam_str,
    parse_lam,
    step_lambda,
)
from ptq.harness import gen_typed_term

CBN, CBV = Strategy.CBN, Strategy.CBV
FN, ARG = EvalOrder.FUNCTION_FIRST, EvalOrder.ARGUMENT_FIRST
REGIMES = [(CBN, ARG), (CBV, ARG), (CBV, FN)]


def L(s):
    return parse_lam(s)


def chain_strs(m, strategy, order=ARG):
    _, chain = eval_small(m, strategy, order, 1000)
    return [lam_str(t) for t in chain]


class TestByName:
    def test_does_not_evaluate_arguments(self):
        # by name substitutes the argument unevaluated
        m = L(r"(\x:A. \y:A. y) ((\z:A. z) w)")
        assert chain_strs(m, CBN) == [
            r"(\x:A. \y:A. y) ((\z:A. z) w)",
            r"\y:A. y",
        ]

    def test_stops_at_lambda(self):
        # no reduction under binders
        m = L(r"\x:A. (\y:A. y) x")
        assert step_lambda(m, CBN) is None

    def test_head_position_only(self):
        m = L(r"x ((\y:A. y) z)")
        assert step_lambda(m, CBN) is None  # head is stuck, so the term is

    def test_copied_argument_is_one_node(self):
        # the contractum's two sides are one node; the next step rebuilds
        # the function side only
        s = step_lambda(L(r"(\y:A. y y) ((\x:A. x) z)"), CBN)
        assert s.fn is s.arg
        assert lam_str(step_lambda(s, CBN)) == r"z ((\x:A. x) z)"


class TestByValue:
    def test_argument_first(self):
        m = L(r"(\x:A. x) ((\z:A. z) w)")
        assert chain_strs(m, CBV, ARG) == [
            r"(\x:A. x) ((\z:A. z) w)",
            r"(\x:A. x) w",
            "w",
        ]

    def test_function_first(self):
        m = L(r"((\f:A -> A. f) (\x:A. x)) ((\z:A. z) w)")
        got = chain_strs(m, CBV, FN)
        assert got[1] == r"(\x:A. x) ((\z:A. z) w)"

    def test_orders_agree_on_result(self):
        m = L(r"(\x:A. x) ((\z:A. z) w)")
        a, _ = eval_small(m, CBV, ARG, 1000)
        b, _ = eval_small(m, CBV, FN, 1000)
        assert lam_alpha_eq(a, b)

    def test_argument_must_be_a_value(self):
        # with an undefined function part, arg-first still reduces the arg
        m = L(r"x ((\y:A. y) z)")
        nxt = step_lambda(m, CBV, ARG)
        assert nxt is not None and lam_str(nxt) == "x z"

    def test_sides_that_are_one_node(self):
        # each order reduces its own side first, found by index, not identity
        r = L(r"(\x:A. x) z")
        assert lam_str(step_lambda(App(r, r), CBV, ARG)) == r"(\x:A. x) z z"
        assert lam_str(step_lambda(App(r, r), CBV, FN)) == r"z ((\x:A. x) z)"


class TestStrategiesDiffer:
    def test_discarded_argument(self):
        # by name never touches the argument; by value computes it first
        m = L(r"(\x:A. w) ((\y:A. y) z)")
        assert len(chain_strs(m, CBN)) == 2
        assert len(chain_strs(m, CBV)) == 3


class TestStrategyValues:
    """A strategy or order given by its value is its enum member; any other
    value is refused, not read as by value or argument first."""

    CALLS = [step_lambda, eval_small, eval_big]
    M = r"(\x:A. w) ((\y:A. y) z)"
    # by value, the two orders first reduce different redexes
    M_ORDERS = r"((\f:A -> A. f) (\x:A. x)) ((\y:A. y) z)"

    @pytest.mark.parametrize("call", CALLS)
    def test_strategy_value_is_member(self, call):
        m = L(self.M)
        assert call(m, "cbn") == call(m, CBN) != call(m, CBV)
        assert call(m, "cbv") == call(m, CBV)

    @pytest.mark.parametrize("call", CALLS[:2])
    def test_order_value_is_member(self, call):
        m = L(self.M_ORDERS)
        assert call(m, CBV, "fn-first") == call(m, CBV, FN) != call(m, CBV, ARG)
        assert call(m, CBV, "arg-first") == call(m, CBV, ARG)

    @pytest.mark.parametrize("call", CALLS)
    def test_unknown_values_raise(self, call):
        with pytest.raises(ValueError):
            call(L(self.M), "bogus")
        for strategy in (CBN, CBV):
            with pytest.raises(ValueError):
                call(L(self.M), strategy, "bogus")


class TestBigStep:
    @pytest.mark.parametrize("strategy,order", REGIMES)
    def test_agrees_with_small_step(self, corpus, strategy, order):
        for m, _, _, _ in corpus[:80]:
            small_nf, chain = eval_small(m, strategy, order, 10**4)
            big_nf, steps = eval_big(m, strategy, order, 10**4)
            assert lam_alpha_eq(small_nf, big_nf), lam_str(m)
            assert steps == len(chain) - 1

    def test_agrees_on_stuck_terms(self):
        for text in ["x y", r"x ((\y:A. y) z)", r"(x y) ((\z:A. z) w)"]:
            m = L(text)
            for strategy, order in REGIMES:
                small_nf, _ = eval_small(m, strategy, order, 1000)
                big_nf, _ = eval_big(m, strategy, order, 1000)
                assert lam_alpha_eq(small_nf, big_nf), (text, strategy, order)


class TestFuel:
    def test_divergence_raises(self):
        omega = L(r"(\x:A. x x) (\x:A. x x)")
        with pytest.raises(FuelExhausted):
            eval_small(omega, CBV, ARG, 50)
        with pytest.raises(FuelExhausted):
            eval_big(omega, CBV, ARG, 50)

    @pytest.mark.parametrize("strategy,order", REGIMES)
    def test_exactly_fuel_steps_suffice(self, corpus, strategy, order):
        # a term that takes k steps evaluates with fuel k, in both evaluators,
        # and runs out with fuel k - 1
        for m, _, _, _ in corpus:
            k = len(eval_small(m, strategy, order)[1]) - 1
            assert len(eval_small(m, strategy, order, k)[1]) == k + 1, lam_str(m)
            assert eval_big(m, strategy, order, k)[1] == k
            if k:
                with pytest.raises(FuelExhausted):
                    eval_small(m, strategy, order, k - 1)
                with pytest.raises(FuelExhausted):
                    eval_big(m, strategy, order, k - 1)

    def test_pairs_rejected(self):
        with pytest.raises(UncurriedNeedsPairs):
            eval_small(L("(x, y)"), CBV, ARG, 10)

    @pytest.mark.parametrize("text", ["[]", r"(\x:A. x) []", r"\x:A. ([]:A)"])
    def test_holes_rejected(self, text):
        # the evaluators are defined on the plain language, without holes
        for evaluate in (
            lambda m: eval_small(m, CBN, ARG, 10),
            lambda m: eval_small(m, CBV, ARG, 0),
            lambda m: eval_big(m, CBV, FN, 10),
            lambda m: step_lambda(m, CBV),
        ):
            with pytest.raises(PtqError, match="^evaluation handles terms without holes$"):
                evaluate(L(text))


class TestDepth:
    """Spines 10,000 applications deep step and run in all three regimes:
    the small step is a loop down to the redex and back up its path."""

    N = 10_000

    def fn_spine(self, head):  # head a a ... a
        for _ in range(self.N):
            head = App(head, Var("a"))
        return head

    def arg_spine(self, last):  # f (f (... (f last)))
        for _ in range(self.N):
            last = App(Var("f"), last)
        return last

    @pytest.mark.parametrize("strategy,order", REGIMES)
    def test_deep_function_side(self, strategy, order):
        m = self.fn_spine(L(r"(\x:A. x) y"))
        want = lam_str(self.fn_spine(Var("y")))
        assert lam_str(step_lambda(m, strategy, order)) == want
        nf, chain = eval_small(m, strategy, order)
        assert len(chain) == 2 and lam_str(nf) == want

    @pytest.mark.parametrize("strategy,order", REGIMES)
    def test_deep_argument_side(self, strategy, order):
        m = self.arg_spine(L(r"(\x:A. x) y"))
        if strategy is CBN:  # the head f is stuck
            assert step_lambda(m, strategy, order) is None
            chain = eval_small(m, strategy, order)[1]
            assert len(chain) == 1 and chain[0] is m
            return
        want = lam_str(self.arg_spine(Var("y")))
        assert lam_str(step_lambda(m, strategy, order)) == want
        nf, chain = eval_small(m, strategy, order)
        assert len(chain) == 2 and lam_str(nf) == want


def _random_term(rng, size):
    """An open term with `size` nodes below its root, typed or not."""
    if size <= 0:
        return Var(rng.choice("xyzw"))
    if rng.random() < 0.4:
        return Lam(rng.choice("xyzw"), Base("A"), _random_term(rng, size - 1))
    k = rng.randrange(size)
    return App(_random_term(rng, k), _random_term(rng, size - 1 - k))


def _outcome(run) -> bytes:
    """The terms and counts that run returns, or the error it raises."""
    try:
        parts = run()
    except PtqError as exc:
        return f"{type(exc).__name__}: {exc}\n".encode()
    text = (str(p) if p is None or isinstance(p, int) else lam_str(p) for p in parts)
    return (" | ".join(text) + "\n").encode()


def test_evaluation_digest():
    """The chain of eval_small, the result and count of eval_big and the step
    of step_lambda, or the error each raised, under both strategies and both
    orders, are the ones that evaluators written once per regime gave. The
    terms are generated typed terms, random open or untyped terms (some
    diverge), and applications whose two sides are one node, or become one."""
    rng = random.Random(0)
    terms = [gen_typed_term(i % 9, i // 9)[0] for i in range(750)]
    terms += [_random_term(rng, rng.randrange(1, 12)) for _ in range(1000)]
    dup = L(r"\y:A. y y")
    for i in range(250):
        t = _random_term(rng, rng.randrange(8))
        terms.append(App(t, t) if i % 2 else App(dup, t))
    digest = hashlib.sha256()
    for m in terms:
        for strategy in Strategy:
            for order in EvalOrder:
                digest.update(_outcome(lambda: eval_small(m, strategy, order, 40)[1]))
                digest.update(_outcome(lambda: eval_big(m, strategy, order, 40)))
                digest.update(_outcome(lambda: [step_lambda(m, strategy, order)]))
    assert digest.hexdigest() == (
        "7aa2ff571d15374b784b1b7adcb3bdd9ea70dde6e081ea883b4764473d658e50"
    )
