"""Reference small-step and big-step evaluators for plain lambda terms.

Both strategies are lazy: no reduction ever happens under a binder, and a
value is any term that is not an application. Call-by-name has one
application rule (reduce the function part); call-by-value substitutes
values only and comes in two orders. FunctionFirst reduces the function part
to a value before touching the argument; ArgumentFirst mirrors it. Open
terms are allowed, and a stuck application is a normal form, not an error.

Each entry point takes a strategy or an order as its enum member or as its
value ("cbn", "fn-first"), and raises ValueError on any other value.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .errors import FuelExhausted
from .lam import App, Lam, LamTerm, is_value, lam_subst, require_plain


class Strategy(Enum):
    CBN = "cbn"
    CBV = "cbv"


class EvalOrder(Enum):
    FUNCTION_FIRST = "fn-first"
    ARGUMENT_FIRST = "arg-first"


DEFAULT_FUEL = 10**6


def step_lambda(
    m: LamTerm,
    strategy: Strategy,
    order: EvalOrder = EvalOrder.ARGUMENT_FIRST,
) -> Optional[LamTerm]:
    """One step, or None on a value or stuck term. CbN ignores the order."""
    require_plain(m, "evaluation")
    strategy, order = Strategy(strategy), EvalOrder(order)
    if strategy is Strategy.CBN:
        return _step_cbn(m)
    return _step_cbv(m, order)


def _step_cbn(m: LamTerm) -> Optional[LamTerm]:
    match m:
        case App(Lam(x, _, body), arg):
            return lam_subst(body, x, arg)
        case App(fn, arg):
            s = _step_cbn(fn)
            return App(s, arg) if s is not None else None
    return None


def _step_cbv(m: LamTerm, order: EvalOrder) -> Optional[LamTerm]:
    if not isinstance(m, App):
        return None
    fn, arg = m.fn, m.arg
    if order is EvalOrder.FUNCTION_FIRST:
        s = _step_cbv(fn, order)
        if s is not None:
            return App(s, arg)
        if not is_value(fn):
            return None
        s = _step_cbv(arg, order)
        if s is not None:
            return App(fn, s)
        if isinstance(fn, Lam) and is_value(arg):
            return lam_subst(fn.body, fn.x, arg)
        return None
    s = _step_cbv(arg, order)
    if s is not None:
        return App(fn, s)
    if not is_value(arg):
        return None
    s = _step_cbv(fn, order)
    if s is not None:
        return App(s, arg)
    if isinstance(fn, Lam):
        return lam_subst(fn.body, fn.x, arg)
    return None


def eval_small(
    m: LamTerm,
    strategy: Strategy,
    order: EvalOrder = EvalOrder.ARGUMENT_FIRST,
    fuel: int = DEFAULT_FUEL,
) -> tuple[LamTerm, list[LamTerm]]:
    """Iterate step_lambda to a normal form; returns it and the full chain."""
    if fuel > 0:  # with no fuel the run reports exhaustion before any check
        require_plain(m, "evaluation")
    chain = [m]
    strategy, order = Strategy(strategy), EvalOrder(order)
    cbn = strategy is Strategy.CBN
    for _ in range(fuel):
        # a step of a plain term is plain, so the one check above covers all
        s = _step_cbn(chain[-1]) if cbn else _step_cbv(chain[-1], order)
        if s is None:
            return chain[-1], chain
        chain.append(s)
    raise FuelExhausted(f"no normal form within {fuel} steps")


def eval_big(
    m: LamTerm,
    strategy: Strategy,
    order: EvalOrder = EvalOrder.ARGUMENT_FIRST,
    fuel: int = DEFAULT_FUEL,
) -> tuple[LamTerm, int]:
    """Big-step evaluation; returns the result and the number of beta steps.

    Agrees with iterating step_lambda, including on stuck open terms.
    """
    require_plain(m, "evaluation")
    budget = [fuel]
    strategy, order = Strategy(strategy), EvalOrder(order)
    if strategy is Strategy.CBN:
        return _big_cbn(m, budget)
    return _big_cbv(m, order, budget)


def _spend(budget: list[int]) -> None:
    budget[0] -= 1
    if budget[0] < 0:
        raise FuelExhausted("evaluation fuel exhausted")


def _big_cbn(m: LamTerm, budget: list[int]) -> tuple[LamTerm, int]:
    if not isinstance(m, App):
        return m, 0
    fn, s1 = _big_cbn(m.fn, budget)
    if isinstance(fn, Lam):
        _spend(budget)
        v, s2 = _big_cbn(lam_subst(fn.body, fn.x, m.arg), budget)
        return v, s1 + 1 + s2
    return App(fn, m.arg), s1


def _big_cbv(m: LamTerm, order: EvalOrder, budget: list[int]) -> tuple[LamTerm, int]:
    if not isinstance(m, App):
        return m, 0
    if order is EvalOrder.FUNCTION_FIRST:
        fn, s1 = _big_cbv(m.fn, order, budget)
        if isinstance(fn, App):
            return App(fn, m.arg), s1
        arg, s2 = _big_cbv(m.arg, order, budget)
        steps = s1 + s2
    else:
        arg, s2 = _big_cbv(m.arg, order, budget)
        if isinstance(arg, App):
            return App(m.fn, arg), s2
        fn, s1 = _big_cbv(m.fn, order, budget)
        steps = s1 + s2
        if isinstance(fn, App):
            return App(fn, arg), steps
    if isinstance(fn, Lam) and is_value(arg):
        _spend(budget)
        v, s3 = _big_cbv(lam_subst(fn.body, fn.x, arg), order, budget)
        return v, steps + 1 + s3
    return App(fn, arg), steps
