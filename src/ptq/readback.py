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
`_image` builds it once and keeps it on the node, so every readback of a
term that holds the node, such as the states of one machine run, shares it.
Test and computation nodes are read with the filler of their place, anew
each time.

Control steps of the machine leave the readback fixed up to alpha; the Beta
step becomes exactly one beta step when every test binder (`XLam`) binds its
variable exactly once, as in every translation image. A binder puts the
filler at each occurrence of its variable, so otherwise a redex in the filler
is contracted in every copy: zero beta steps when the variable does not
occur, two when it occurs twice.
"""

from __future__ import annotations

from .errors import IllTyped
from .lam import App, HOLE, Lam, LamTerm, Var, lam_subst, plug_hole
from .syntax import (
    KVar,
    Pair,
    PairLam,
    PApp,
    PVar,
    QApp,
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
    """The lambda image of a term; test/computation input must be t-closed.

    Each program or jump node is read back once, however many terms hold it
    (see `_image`).
    """
    _require_t_closed(term)
    return _rb(term, HOLE)


def _rb(term: Term, plug: LamTerm) -> LamTerm:
    """readback(term)[plug/[]]; the filler goes down the spine. Each node is
    dispatched once, on its class."""
    cls = type(term)
    if cls is PApp:
        return _rb(term.test, _image(term.proof))
    if cls is QApp:
        return _rb(term.test, _image(term.fn))
    if cls is Pair:
        return _rb(term.snd, App(plug, _image(term.fst)))
    if cls is XLam:
        return lam_subst(_rb(term.body, HOLE), term.x, plug)
    if cls is Star or cls is KVar:
        return plug
    return _image(term)


def _image(term: Term) -> LamTerm:
    """The image of a program or jump node, built once and kept on the node
    (`_Node._image`). It takes no plug: these nodes bind every test position
    they hold."""
    image = term._image
    if image is not None:
        return image
    cls = type(term)
    if cls is PVar:
        image = Var(term.name)
    elif cls is PairLam:
        image = Lam(term.x, term.xty, _rb(term.body, HOLE))
    else:  # a KLam or a QLam
        image = _rb(term.body, HOLE)
    object.__setattr__(term, "_image", image)  # the dataclasses are frozen
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
    image = _rb(j.subject, HOLE)
    if sort in ("p", "q"):
        return LamJudgment(LamEnv(gamma, None), image, j.claimed.carrier)
    _, aty = j.env.anchor
    hole_ty = j.claimed.carrier if sort == "t" else None
    return LamJudgment(LamEnv(gamma, hole_ty), image, aty)
