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

A program or jump node binds every test position it holds, so the walk
reads it with the bare hole and its image does not depend on where it sits:
`_image` builds it once per memo, which the readbacks of one machine run's
states share (see `readback`). Test and computation nodes are read with the
filler of their place, anew each time.

Control steps of the machine leave the readback fixed up to alpha; the Beta
step becomes exactly one beta step.
"""

from __future__ import annotations

from typing import Optional

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


def readback(term: Term, _images: Optional[dict] = None) -> LamTerm:
    """The lambda image of a term; test/computation input must be t-closed.

    `_images` is private: a dict from id(node) to (node, image) that one
    caller passes to every readback of a set of terms sharing nodes, such as
    the states of one machine run, so each program or jump node among them
    is read back once. The node is kept in its entry, so no id is reused
    while the dict lives. By default each call uses a fresh dict.
    """
    _require_t_closed(term)
    return _rb(term, HOLE, {} if _images is None else _images)


def _rb(term: Term, plug: LamTerm, images: dict) -> LamTerm:
    """readback(term)[plug/[]]; the filler goes down the spine."""
    match term:
        case Star() | KVar():
            return plug
        case Pair(fst, snd):
            return _rb(snd, App(plug, _image(fst, images)), images)
        case XLam(x, _, body):
            return lam_subst(_rb(body, HOLE, images), x, plug)
        case PApp(test, proof):
            return _rb(test, _image(proof, images), images)
        case QApp(fn, test):
            return _rb(test, _image(fn, images), images)
    return _image(term, images)


def _image(term: Term, images: dict) -> LamTerm:
    """The image of a program or jump node, built once per `images`. It
    takes no plug: these nodes bind every test position they hold."""
    hit = images.get(id(term))
    if hit is not None:
        return hit[1]
    match term:
        case PVar(name):
            image = Var(name)
        case PairLam(x, xty, _, body):
            image = Lam(x, xty, _rb(body, HOLE, images))
        case KLam(_, body) | QLam(_, body):
            image = _rb(body, HOLE, images)
        case _:
            raise TypeError(f"not a term: {term!r}")
    images[id(term)] = (term, image)
    return image


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
    image = _rb(j.subject, HOLE, {})
    if sort in ("p", "q"):
        return LamJudgment(LamEnv(gamma, None), image, j.claimed.carrier)
    _, aty = j.env.anchor
    hole_ty = j.claimed.carrier if sort == "t" else None
    return LamJudgment(LamEnv(gamma, hole_ty), image, aty)
