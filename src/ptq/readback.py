"""Readback of calculus terms into hole-extended lambda terms.

A t-closed test term reads back to a lambda term with a hole (its spine);
programs, jumps and t-closed computations read back hole-free. Plugging holes
is the gluing operation, and the walk does it on the way down: it carries the
filler of the current hole along the spine, starting from the bare hole. The
pair case wraps the filler in an application to the program's image, a binder
x puts the filler where x occurs, and the two application forms read the test
with the program or jump image as its filler.

Readback is defined on t-closed terms, and `readback` checks that once, at
entry. Inside a binder body the bound k is the body's hole, just as * is at
the top, so the walk reads k and * alike and reads bodies as they stand.

Control steps of the machine leave the readback fixed up to alpha; the Beta
step becomes exactly one beta step.
"""

from __future__ import annotations

from .errors import IllTyped
from .lam import App, HOLE, Lam, LamTerm, Var, lam_subst, plug_hole
from .syntax import (
    KLam,
    KVar,
    Pair,
    PairLam,
    PApp,
    PVar,
    QApp,
    QLam,
    Star,
    Term,
    XLam,
    _require_t_closed,
    sort_of,
)
from .typecheck import (
    CheckResult,
    Judgment,
    LamEnv,
    LamJudgment,
    check_judgment,
)


def hole_compose(outer: LamTerm, inner: LamTerm) -> LamTerm:
    """outer[inner/[]]; associative, with the bare hole as neutral element."""
    return plug_hole(outer, inner)


def readback(term: Term) -> LamTerm:
    """The lambda image of a term; test/computation input must be t-closed."""
    _require_t_closed(term)
    return _rb(term)


def _rb(term: Term, plug: LamTerm = HOLE) -> LamTerm:
    """readback(term)[plug/[]]; the filler goes down the spine."""
    match term:
        case Star() | KVar():
            return plug
        case PVar(name):
            return Var(name)
        case Pair(fst, snd):
            return _rb(snd, App(plug, _rb(fst)))
        case PairLam(x, xty, _, body):
            return Lam(x, xty, _rb(body))
        case XLam(x, _, body):
            return lam_subst(_rb(body), x, plug)
        case KLam(_, body) | QLam(_, body):
            return _rb(body)
        case PApp(test, proof):
            return _rb(test, _rb(proof))
        case QApp(fn, test):
            return _rb(test, _rb(fn))
    raise TypeError(f"not a term: {term!r}")


def readback_judgment(j: Judgment) -> LamJudgment:
    """Map a checking judgment to the corresponding lambda judgment.

    Programs and jumps keep their carrier type. A test subject t:tB under an
    anchor of carrier A becomes G, []:B |- rbk(t[*/k]) : A; a computation
    under an anchor of carrier A becomes G |- rbk(u[*/k]) : A. Reading k as
    the hole gives rbk(t[*/k]) without building t[*/k].
    """
    res: CheckResult = check_judgment(j)
    if not res.ok:
        raise IllTyped(str(res.error))
    gamma = tuple(j.env.gamma)
    sort = sort_of(j.subject)
    image = _rb(j.subject)
    if sort in ("p", "q"):
        return LamJudgment(LamEnv(gamma, None), image, j.claimed.carrier)
    _, aty = j.env.anchor
    hole_ty = j.claimed.carrier if sort == "t" else None
    return LamJudgment(LamEnv(gamma, hole_ty), image, aty)
