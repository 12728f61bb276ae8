"""Reference evaluators: lazy by-name and both by-value orders."""

import pytest

from ptq import (
    EvalOrder,
    FuelExhausted,
    PtqError,
    Strategy,
    UncurriedNeedsPairs,
    eval_big,
    eval_small,
    is_value,
    lam_alpha_eq,
    lam_str,
    parse_lam,
    step_lambda,
)

CBN, CBV = Strategy.CBN, Strategy.CBV
FN, ARG = EvalOrder.FUNCTION_FIRST, EvalOrder.ARGUMENT_FIRST


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
    @pytest.mark.parametrize("strategy,order", [(CBN, ARG), (CBV, ARG), (CBV, FN)])
    def test_agrees_with_small_step(self, corpus, strategy, order):
        for m, _, _, _ in corpus[:80]:
            small_nf, chain = eval_small(m, strategy, order, 10**4)
            big_nf, steps = eval_big(m, strategy, order, 10**4)
            assert lam_alpha_eq(small_nf, big_nf), lam_str(m)
            assert steps == len(chain) - 1

    def test_agrees_on_stuck_terms(self):
        for text in ["x y", r"x ((\y:A. y) z)", r"(x y) ((\z:A. z) w)"]:
            m = L(text)
            for strategy, order in [(CBN, ARG), (CBV, ARG), (CBV, FN)]:
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

    def test_pairs_rejected(self):
        with pytest.raises(UncurriedNeedsPairs):
            eval_small(L("(x, y)"), CBV, ARG, 10)

    @pytest.mark.parametrize("text", ["[]", r"(\x:A. x) []", r"\x:A. ([]:A)"])
    def test_holes_rejected(self, text):
        # the evaluators are defined on the plain language, without holes
        for evaluate in (
            lambda m: eval_small(m, CBN, ARG, 10),
            lambda m: eval_big(m, CBV, FN, 10),
            lambda m: step_lambda(m, CBV),
        ):
            with pytest.raises(PtqError, match="^evaluation handles terms without holes$"):
                evaluate(L(text))
