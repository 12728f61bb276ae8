"""Reference small-step and big-step evaluators for plain lambda terms.

Both strategies are lazy: no reduction ever happens under a binder, and a
value is any term that is not an application. The three regimes differ only
in which sides of an application reduce before it contracts, in order: by
name the function only; by value both sides, the function first
(FunctionFirst) or the argument first (ArgumentFirst). One rule serves all
three. An application whose reducing sides are values contracts when its
function is an abstraction and is stuck otherwise; an application with a
stuck reducing side is stuck too. Open terms are allowed, and a stuck
application is a normal form, not an error.

Each entry point takes a strategy or an order as its enum member or as its
value ("cbn", "fn-first"), and raises ValueError on any other value.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .errors import FuelExhausted
from .lam import App, Lam, LamTerm, lam_subst, require_plain


class Strategy(Enum):
    CBN = "cbn"
    CBV = "cbv"


class EvalOrder(Enum):
    FUNCTION_FIRST = "fn-first"
    ARGUMENT_FIRST = "arg-first"


DEFAULT_FUEL = 10**6

# the sides of an application that reduce before it contracts, in order:
# 0 is the function, 1 the argument; by name the order is ignored
_SIDES = {
    (Strategy.CBN, EvalOrder.FUNCTION_FIRST): (0,),
    (Strategy.CBN, EvalOrder.ARGUMENT_FIRST): (0,),
    (Strategy.CBV, EvalOrder.FUNCTION_FIRST): (0, 1),
    (Strategy.CBV, EvalOrder.ARGUMENT_FIRST): (1, 0),
}


def _sides(strategy: Strategy, order: EvalOrder) -> tuple[int, ...]:
    return _SIDES[Strategy(strategy), EvalOrder(order)]


def step_lambda(
    m: LamTerm,
    strategy: Strategy,
    order: EvalOrder = EvalOrder.ARGUMENT_FIRST,
) -> Optional[LamTerm]:
    """One step, or None on a value or stuck term. CbN ignores the order."""
    require_plain(m, "evaluation")
    return _step(m, _sides(strategy, order))


def _step(m: LamTerm, sides: tuple[int, ...]) -> Optional[LamTerm]:
    """In a loop down to the redex: enter the first reducing side that is an
    application, and rebuild only the path back up, by each side's index
    (substitution can make both sides one node)."""
    path = []
    while type(m) is App:
        for i in sides:
            side = m.arg if i else m.fn
            if type(side) is App:
                path.append((m, i))
                m = side
                break
        else:
            fn = m.fn
            if type(fn) is not Lam:
                return None
            m = lam_subst(fn.body, fn.x, m.arg)
            for parent, i in reversed(path):
                m = App(parent.fn, m) if i else App(m, parent.arg)
            return m
    return None


def eval_small(
    m: LamTerm,
    strategy: Strategy,
    order: EvalOrder = EvalOrder.ARGUMENT_FIRST,
    fuel: int = DEFAULT_FUEL,
) -> tuple[LamTerm, list[LamTerm]]:
    """Iterate step_lambda to a normal form, taking at most `fuel` steps;
    returns it and the full chain."""
    require_plain(m, "evaluation")  # a step of a plain term is plain
    sides = _sides(strategy, order)
    chain = [m]
    while (s := _step(chain[-1], sides)) is not None:
        if len(chain) > fuel:
            raise FuelExhausted(f"no normal form within {fuel} steps")
        chain.append(s)
    return chain[-1], chain


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
    return _big(m, _sides(strategy, order), [fuel])


def _big(m: LamTerm, sides: tuple[int, ...], budget: list[int]) -> tuple[LamTerm, int]:
    """Each reducing side in turn, then the contraction, in a loop."""
    steps = 0
    while type(m) is App:
        parts = [m.fn, m.arg]
        for i in sides:
            parts[i], n = _big(parts[i], sides, budget)
            steps += n
            if type(parts[i]) is App:
                return App(*parts), steps
        fn, arg = parts
        if type(fn) is not Lam:
            return App(fn, arg), steps
        budget[0] -= 1
        if budget[0] < 0:
            raise FuelExhausted("evaluation fuel exhausted")
        m = lam_subst(fn.body, fn.x, arg)
        steps += 1
    return m, steps
