"""CPS translations of lambda terms, in two presentations.

The calculus presentation maps a source term to a program term (call by
name) or a jump term (call by value), and to the computation that runs it
against the empty continuation. The classical presentation produces plain
lambda terms, curried or pair-based, with both call-by-value evaluation
orders.

When the source is fully annotated and well typed (given types for its free
variables), every binder of the image is annotated so the result checks
without any inference beyond the typing rules; otherwise the image is left
unannotated and still reduces fine. The translation's own walk decides
which: each clause returns its source subterm's type next to the image, a
variable's from the env, an abstraction's as the arrow to its body's, an
application's as the codomain of its function's, and checks on the way what
simply typed inference checks (every variable bound, every binder annotated,
every function type an arrow whose domain is its argument's type). The first
check that fails abandons the typed walk, and the source is walked again
without types.

Each entry point takes a strategy, an order or a pairing as its enum member
or as its value ("cbn", "fn-first", "uncurried"), and raises ValueError on
any other value. It checks the source once, before any clause runs: a plain
lambda term (no hole, pair or foreign node at any depth) whose binder
annotations and env types leave out o, the answer type of every image. So
the clauses take a variable, then an abstraction, and anything else as an
application.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Optional

from .errors import PtqError, ReservedBaseType
from .lam import (
    App,
    Lam,
    LamTerm,
    PairPatLam,
    PairTerm,
    Var,
    is_value,
    lam_free_vars,
    require_plain,
)
from .lambda_eval import EvalOrder, Strategy
from .syntax import (
    Arrow,
    Base,
    ETerm,
    K,
    KLam,
    Pair,
    PairLam,
    PApp,
    PTerm,
    PVar,
    QApp,
    QLam,
    STAR,
    TTerm,
    Type,
    XLam,
    fresh_name,
)

O = Base("o")


class Pairing(str, Enum):
    CURRIED = "curried"
    UNCURRIED = "uncurried"


# ---------------------------------------------------------------------------
# type translations


def _check_no_o(ty: Type) -> None:
    while isinstance(ty, Arrow):
        _check_no_o(ty.dom)
        ty = ty.cod
    if isinstance(ty, Base) and ty.name == "o":
        raise ReservedBaseType("base type o is reserved for CPS types")


def translate_type(ty: Type, strategy: Strategy, form: str = "star") -> Type:
    """A* = (A° -> o) -> o; CbN takes (A -> B)° = A* -> B*, CbV takes
    (A -> B)° = A° -> B*. `form` picks 'star' or 'circ'."""
    _check_no_o(ty)
    if form not in ("star", "circ"):
        raise ValueError(f"unknown form {form!r}")
    return _tr_ty(ty, Strategy(strategy), form)


def _tr_ty(ty: Type, strategy: Strategy, form: str) -> Type:
    if form == "star":
        return Arrow(Arrow(_tr_ty(ty, strategy, "circ"), O), O)
    match ty:
        case Base():
            return ty
        case Arrow(dom, cod):
            if strategy is Strategy.CBN:
                return Arrow(_tr_ty(dom, strategy, "star"), _tr_ty(cod, strategy, "star"))
            return Arrow(_tr_ty(dom, strategy, "circ"), _tr_ty(cod, strategy, "star"))
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# source types along the walk
#
# `env` maps the variables in scope to their types, or is None when the source
# is walked untyped; then every type below is None as well, and no check runs.

_Env = Optional[dict[str, Type]]


class _Untyped(Exception):
    """A check of the typed walk failed: the source is walked again untyped."""


def _bind(env: _Env, x: str, ty: Optional[Type]) -> _Env:
    if env is None:
        return None
    if ty is None:
        raise _Untyped
    return {**env, x: ty}


def _lookup(env: _Env, name: str) -> Optional[Type]:
    if env is None:
        return None
    try:
        return env[name]
    except KeyError:
        raise _Untyped from None


def _arrow(dom: Optional[Type], cod: Optional[Type]) -> Optional[Type]:
    return None if cod is None else Arrow(dom, cod)


def _dom(fty: Optional[Type]) -> Optional[Type]:
    if fty is None:
        return None
    if not isinstance(fty, Arrow):
        raise _Untyped
    return fty.dom


def _apply(fty: Optional[Type], aty: Optional[Type]) -> Optional[Type]:
    """The type of an application of fty to aty: fty's codomain, once fty is
    an arrow from aty."""
    if fty is None:
        return None
    if _dom(fty) != aty:
        raise _Untyped
    return fty.cod


class _Fresh:
    def __init__(self, used: set[str]):
        self.used = used  # every name of the source, bound or free
        self.counts: dict[str, int] = {}

    def __call__(self, stem: str) -> str:
        if stem not in self.used:
            self.used.add(stem)
            return stem
        n = self.counts.get(stem, 0)
        while True:
            n += 1
            name = f"{stem}{n}"
            if name not in self.used:
                self.counts[stem] = n
                self.used.add(name)
                return name


def _plain(m: LamTerm, env: Optional[Mapping[str, Type]]) -> set[str]:
    """Every name the source m holds, once m is plain and neither its binder
    annotations nor env mention o, the answer type of every image."""
    used, annotations = require_plain(m, "translation")
    for ty in (*annotations.values(), *(env or {}).values()):
        _check_no_o(ty)
    return used


# ---------------------------------------------------------------------------
# calculus presentation
#
# Each clause returns the image of its source subterm and that subterm's type.
# The entry has checked the whole source (`_plain`), so a clause tests for a
# variable, then an abstraction, and takes anything else as an application.


def _source(m: LamTerm, env: Optional[Mapping[str, Type]]) -> tuple[LamTerm, set[str]]:
    """The source and every name it holds, checked by `_plain`. k is the
    calculus's test variable, so a bound k is renamed apart and a free k is
    rejected."""
    used = _plain(m, env)
    if "k" in used:
        if "k" in lam_free_vars(m):
            raise PtqError("free variable 'k' clashes with the test variable k")
        m = _rename_k(m, fresh_name("k", used))
    return m, used


def _rename_k(m: LamTerm, k1: str) -> LamTerm:
    """m with k, bound wherever it occurs, renamed to k1, a name m lacks."""
    cls = type(m)
    if cls is Var:
        return Var(k1) if m.name == "k" else m
    if cls is Lam:
        return Lam(k1 if m.x == "k" else m.x, m.xty, _rename_k(m.body, k1))
    return App(_rename_k(m.fn, k1), _rename_k(m.arg, k1))


def _walk(
    clause, m: LamTerm, used: set[str], env: Optional[Mapping[str, Type]], *args
):
    """clause(m, env, fresh, *args), typed under env when every check of the
    typed walk passes, else walked again with env None. The typed attempt
    uses up fresh names, so the second walk numbers them afresh."""
    try:
        return clause(m, dict(env or {}), _Fresh(set(used)), *args)
    except _Untyped:
        return clause(m, None, _Fresh(used), *args)


def _translate(
    m: LamTerm,
    strategy: Strategy,
    env: Optional[Mapping[str, Type]] = None,
    computation: bool = False,
):
    """The image of m, or with `computation` the computation that runs it
    against the empty continuation, and m's type under env, which is None
    when m is not fully annotated and well typed there."""
    m, used = _source(m, env)
    if Strategy(strategy) is Strategy.CBN:
        return _walk(_var_cbn if computation else _cbn, m, used, env)
    return _walk(_var_cbv if computation else _cbv, m, used, env)


def ptq_translate(
    m: LamTerm, strategy: Strategy, env: Optional[Mapping[str, Type]] = None
):
    """Call by name yields a program term, call by value a jump term."""
    return _translate(m, strategy, env)[0]


def _cbn(m: LamTerm, env: _Env, fresh: _Fresh) -> tuple[PTerm, Optional[Type]]:
    cls = type(m)
    if cls is Var:
        return PVar(m.name), _lookup(env, m.name)
    if cls is Lam:
        img, bty = _cbn(m.body, _bind(env, m.x, m.xty), fresh)
        return PairLam(m.x, m.xty, bty, PApp(K, img)), _arrow(m.xty, bty)
    arg_img, aty = _cbn(m.arg, env, fresh)
    fn_img, fty = _cbn(m.fn, env, fresh)
    ty = _apply(fty, aty)
    return KLam(ty, PApp(Pair(arg_img, K), fn_img)), ty


def _cbv(m: LamTerm, env: _Env, fresh: _Fresh) -> tuple[QLam, Optional[Type]]:
    if is_value(m):
        img, ty = _aux_cbv(m, env, fresh)
        return QLam(ty, PApp(K, img)), ty
    z = fresh("x")
    fn_img, fty = _cbv(m.fn, env, fresh)
    arg_img, aty = _cbv(m.arg, env, fresh)
    ty = _apply(fty, aty)
    cont = XLam(z, _dom(fty), QApp(fn_img, Pair(PVar(z), K)))
    return QLam(ty, QApp(arg_img, cont)), ty


def _aux_cbv(m: LamTerm, env: _Env, fresh: _Fresh) -> tuple[PTerm, Optional[Type]]:
    """The image of a value: a variable or an abstraction."""
    if type(m) is Var:
        return PVar(m.name), _lookup(env, m.name)
    img, bty = _cbv(m.body, _bind(env, m.x, m.xty), fresh)
    return PairLam(m.x, m.xty, bty, QApp(img, K)), _arrow(m.xty, bty)


def aux_translate(
    m: LamTerm, strategy: Strategy, env: Optional[Mapping[str, Type]] = None
) -> PTerm:
    """The program-term image of a value; by name it is the plain image."""
    m, used = _source(m, env)
    aux = _cbn if Strategy(strategy) is Strategy.CBN else _aux_cbv
    if not is_value(m):
        raise TypeError("aux translation is defined on values")
    return _walk(aux, m, used, env)[0]


def ptq_translate_e(
    m: LamTerm, strategy: Strategy, env: Optional[Mapping[str, Type]] = None
) -> ETerm:
    """The computation that runs m against the empty continuation.

    Control-normal by construction: running the plain translation against *
    reaches this term by control steps, exactly (==) by name and up to the
    names of the fresh x binders by value, since the two translations number
    their fresh names in different walks.
    """
    return _translate(m, strategy, env, computation=True)[0]


# Down the application spine, each argument joins the test `cont` that the
# head value is finally run against. Each returns the computation and m's type.


def _var_cbn(
    m: LamTerm, env: _Env, fresh: _Fresh, cont: TTerm = STAR
) -> tuple[ETerm, Optional[Type]]:
    if is_value(m):
        img, ty = _cbn(m, env, fresh)
        return PApp(cont, img), ty
    arg_img, aty = _cbn(m.arg, env, fresh)
    out, fty = _var_cbn(m.fn, env, fresh, Pair(arg_img, cont))
    return out, _apply(fty, aty)


def _var_cbv(
    m: LamTerm, env: _Env, fresh: _Fresh, cont: TTerm = STAR
) -> tuple[ETerm, Optional[Type]]:
    if is_value(m):
        img, ty = _aux_cbv(m, env, fresh)
        return PApp(cont, img), ty
    fn, arg = m.fn, m.arg
    if is_value(arg):
        arg_img, aty = _aux_cbv(arg, env, fresh)
        out, fty = _var_cbv(fn, env, fresh, Pair(arg_img, cont))
        return out, _apply(fty, aty)
    z = fresh("x")
    fn_img, fty = _cbv(fn, env, fresh)
    cont = XLam(z, _dom(fty), QApp(fn_img, Pair(PVar(z), cont)))
    out, aty = _var_cbv(arg, env, fresh, cont)
    return out, _apply(fty, aty)


def bracket_list(items: list[PTerm]) -> TTerm:
    """[p1, ..., pk] as the right-nested test <p1, <... <pk, *> ...>>."""
    out: TTerm = STAR
    for p in reversed(items):
        out = Pair(p, out)
    return out


# ---------------------------------------------------------------------------
# classical presentation


def plotkin_translate(
    m: LamTerm,
    strategy: Strategy,
    order: EvalOrder = EvalOrder.FUNCTION_FIRST,
    pairing: Pairing | str = Pairing.CURRIED,
    env: Optional[Mapping[str, Type]] = None,
) -> LamTerm:
    """Plain-lambda CPS. CbN ignores the order; uncurried pairing produces
    unannotated terms in the pair-extended grammar."""
    used = _plain(m, env)
    pairs = Pairing(pairing) is Pairing.UNCURRIED
    strategy, order = Strategy(strategy), EvalOrder(order)
    if strategy is Strategy.CBN:
        clause, args = _plo_cbn, (pairs,)
    else:
        clause, args = _plo_cbv, (order, pairs)
    if pairs:
        return clause(m, None, _Fresh(used), *args)[0]
    return _walk(clause, m, used, env, *args)[0]


def _cont_ty(ty: Optional[Type], strategy: Strategy) -> Optional[Type]:
    return None if ty is None else Arrow(_tr_ty(ty, strategy, "circ"), O)


def _abs(x: str, xs: Optional[Type], body: LamTerm, hv: Optional[str]) -> LamTerm:
    """A translated abstraction: curried, or taking a pair whose second
    component hv is the continuation of the body."""
    return Lam(x, xs, body) if hv is None else PairPatLam(x, hv, App(body, Var(hv)))


def _call(fn: LamTerm, arg: LamTerm, k: LamTerm, pairs: bool) -> LamTerm:
    return App(fn, PairTerm(arg, k)) if pairs else App(App(fn, arg), k)


def _plo_cbn(
    m: LamTerm, env: _Env, fresh: _Fresh, pairs: bool
) -> tuple[LamTerm, Optional[Type]]:
    cls = type(m)
    if cls is Var:
        return m, _lookup(env, m.name)
    kv = fresh("k")
    if cls is Lam:
        x, xty = m.x, m.xty
        hv = fresh("h") if pairs else None
        body_env = _bind(env, x, xty)
        xs = _tr_ty(xty, Strategy.CBN, "star") if env is not None else None
        img, bty = _plo_cbn(m.body, body_env, fresh, pairs)
        ty = _arrow(xty, bty)
        kty = _cont_ty(ty, Strategy.CBN)
        return Lam(kv, kty, App(Var(kv), _abs(x, xs, img, hv))), ty
    mv = fresh("m")
    arg_img, aty = _plo_cbn(m.arg, env, fresh, pairs)
    fn_img, fty = _plo_cbn(m.fn, env, fresh, pairs)
    ty = _apply(fty, aty)
    mty = _tr_ty(fty, Strategy.CBN, "circ") if fty is not None else None
    body = Lam(mv, mty, _call(Var(mv), arg_img, Var(kv), pairs))
    return Lam(kv, _cont_ty(ty, Strategy.CBN), App(fn_img, body)), ty


def _plo_cbv(
    m: LamTerm, env: _Env, fresh: _Fresh, order: EvalOrder, pairs: bool
) -> tuple[LamTerm, Optional[Type]]:
    kv = fresh("k")
    cls = type(m)
    if cls is Var:
        ty = _lookup(env, m.name)
        out = App(Var(kv), m)
    elif cls is Lam:
        x, xty = m.x, m.xty
        hv = fresh("h") if pairs else None
        body_env = _bind(env, x, xty)
        xs = _tr_ty(xty, Strategy.CBV, "circ") if env is not None else None
        img, bty = _plo_cbv(m.body, body_env, fresh, order, pairs)
        ty = _arrow(xty, bty)
        out = App(Var(kv), _abs(x, xs, img, hv))
    else:
        mv = fresh("m")
        nv = fresh("n")
        fn_t, fty = _plo_cbv(m.fn, env, fresh, order, pairs)
        arg_t, aty = _plo_cbv(m.arg, env, fresh, order, pairs)
        ty = _apply(fty, aty)
        mty = _tr_ty(fty, Strategy.CBV, "circ") if fty is not None else None
        nty = _dom(mty)
        core = _call(Var(mv), Var(nv), Var(kv), pairs)
        if order is EvalOrder.FUNCTION_FIRST:
            out = App(fn_t, Lam(mv, mty, App(arg_t, Lam(nv, nty, core))))
        else:
            out = App(arg_t, Lam(nv, nty, App(fn_t, Lam(mv, mty, core))))
    return Lam(kv, _cont_ty(ty, Strategy.CBV), out), ty
