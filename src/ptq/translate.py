"""CPS translations of lambda terms, in two presentations.

The calculus presentation maps a source term to a program term (call by
name) or a jump term (call by value), and to the computation that runs it
against the empty continuation. The classical presentation produces plain
lambda terms, curried or pair-based, with both call-by-value evaluation
orders.

When the source is fully annotated and well typed (given types for its free
variables), every binder of the image is annotated so the result checks
without any inference beyond the typing rules; otherwise the image is left
unannotated and still reduces fine.
"""

from __future__ import annotations

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
    lam_all_names,
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
    star_compose,
)
from .typecheck import LamEnv, infer_lambda_box

O = Base("o")


class Pairing:
    CURRIED = "curried"
    UNCURRIED = "uncurried"


# ---------------------------------------------------------------------------
# type translations


def _check_no_o(ty: Type) -> None:
    match ty:
        case Base(name):
            if name == "o":
                raise ReservedBaseType("base type o is reserved for CPS types")
        case Arrow(dom, cod):
            _check_no_o(dom)
            _check_no_o(cod)


def translate_type(ty: Type, strategy: Strategy, form: str = "star") -> Type:
    """A* = (A° -> o) -> o; CbN takes (A -> B)° = A* -> B*, CbV takes
    (A -> B)° = A° -> B*. `form` picks 'star' or 'circ'."""
    _check_no_o(ty)
    if form not in ("star", "circ"):
        raise ValueError(f"unknown form {form!r}")
    return _tr_ty(ty, strategy, form)


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
# typing support shared by both presentations


class _Types:
    """Resolves source subterm types, or answers None throughout when the
    source is not fully annotated and well typed under the given env."""

    def __init__(self, root: LamTerm, env: Optional[Mapping[str, Type]]):
        base = tuple((env or {}).items())
        try:
            infer_lambda_box(LamEnv(base, None), root)
            self.typed = True
        except PtqError:
            self.typed = False
        self.base = base

    def of(self, m: LamTerm, scope: tuple[tuple[str, Type], ...]) -> Optional[Type]:
        if not self.typed:
            return None
        return infer_lambda_box(LamEnv(self.base + scope, None), m)


class _Fresh:
    def __init__(self, *roots: LamTerm):
        self.used = set()
        for r in roots:
            self.used |= lam_all_names(r)
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


# ---------------------------------------------------------------------------
# calculus presentation


def ptq_translate(
    m: LamTerm, strategy: Strategy, env: Optional[Mapping[str, Type]] = None
):
    """Call by name yields a program term, call by value a jump term."""
    require_plain(m, "translation")
    types = _Types(m, env)
    fresh = _Fresh(m)
    if strategy is Strategy.CBN:
        return _cbn(m, types, (), fresh)
    return _cbv(m, types, (), fresh)


def _cbn(m: LamTerm, types: _Types, scope, fresh: _Fresh) -> PTerm:
    match m:
        case Var(name):
            return PVar(name)
        case Lam(x, xty, body):
            inner = scope + ((x, xty),)
            bty = types.of(body, inner)
            return PairLam(x, xty, bty, PApp(K, _cbn(body, types, inner, fresh)))
        case App():
            ty = types.of(m, scope)
            return KLam(
                ty,
                PApp(
                    Pair(_cbn(m.arg, types, scope, fresh), K),
                    _cbn(m.fn, types, scope, fresh),
                ),
            )
    raise TypeError(f"not a lambda term: {m!r}")


def _cbv(m: LamTerm, types: _Types, scope, fresh: _Fresh) -> QLam:
    ty = types.of(m, scope)
    match m:
        case Var(name):
            return QLam(ty, PApp(K, PVar(name)))
        case Lam():
            return QLam(ty, PApp(K, _aux_cbv(m, types, scope, fresh)))
        case App(fn, arg):
            aty = types.of(arg, scope)
            z = fresh("x")
            inner = QApp(_cbv(fn, types, scope, fresh), Pair(PVar(z), K))
            return QLam(ty, QApp(_cbv(arg, types, scope, fresh), XLam(z, aty, inner)))
    raise TypeError(f"not a lambda term: {m!r}")


def _aux_cbv(m: LamTerm, types: _Types, scope, fresh: _Fresh) -> PTerm:
    match m:
        case Var(name):
            return PVar(name)
        case Lam(x, xty, body):
            bty = types.of(body, scope + (((x, xty),) if xty else ()))
            inner = QApp(_cbv(body, types, scope + ((x, xty),), fresh), K)
            return PairLam(x, xty, bty, inner)
    raise TypeError("aux translation is defined on values")


def aux_translate(
    m: LamTerm, strategy: Strategy, env: Optional[Mapping[str, Type]] = None
) -> PTerm:
    """The program-term image of a value."""
    require_plain(m, "translation")
    types = _Types(m, env)
    fresh = _Fresh(m)
    if strategy is Strategy.CBN:
        if not is_value(m):
            raise TypeError("aux translation is defined on values")
        return _cbn(m, types, (), fresh)
    return _aux_cbv(m, types, (), fresh)


def ptq_translate_e(
    m: LamTerm, strategy: Strategy, env: Optional[Mapping[str, Type]] = None
) -> ETerm:
    """The computation that runs m against the empty continuation.

    Control-normal by construction: running the plain translation against *
    reaches exactly this term by control steps.
    """
    require_plain(m, "translation")
    types = _Types(m, env)
    fresh = _Fresh(m)
    if strategy is Strategy.CBN:
        return _var_cbn(m, types, fresh)
    return _var_cbv(m, types, fresh)


def _var_cbn(m: LamTerm, types: _Types, fresh: _Fresh) -> ETerm:
    if is_value(m):
        return PApp(STAR, _cbn(m, types, (), fresh))
    return star_compose(
        Pair(_cbn(m.arg, types, (), fresh), STAR), _var_cbn(m.fn, types, fresh)
    )


def _var_cbv(m: LamTerm, types: _Types, fresh: _Fresh) -> ETerm:
    if is_value(m):
        return PApp(STAR, _aux_cbv(m, types, (), fresh))
    fn, arg = m.fn, m.arg
    if is_value(arg):
        return star_compose(
            Pair(_aux_cbv(arg, types, (), fresh), STAR), _var_cbv(fn, types, fresh)
        )
    aty = types.of(arg, ())
    z = fresh("x")
    cont = XLam(z, aty, QApp(_cbv(fn, types, (), fresh), Pair(PVar(z), STAR)))
    return star_compose(cont, _var_cbv(arg, types, fresh))


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
    pairing: str = Pairing.CURRIED,
    env: Optional[Mapping[str, Type]] = None,
) -> LamTerm:
    """Plain-lambda CPS. CbN ignores the order; uncurried pairing produces
    unannotated terms in the pair-extended grammar."""
    require_plain(m, "translation")
    if pairing not in (Pairing.CURRIED, Pairing.UNCURRIED):
        raise ValueError(f"unknown pairing {pairing!r}")
    types = _Types(m, env)
    fresh = _Fresh(m)
    if strategy is Strategy.CBN:
        if pairing == Pairing.CURRIED:
            return _plo_cbn(m, types, (), fresh)
        return _plo_cbn_pairs(m, fresh)
    if pairing == Pairing.CURRIED:
        return _plo_cbv(m, types, (), fresh, order)
    return _plo_cbv_pairs(m, fresh, order)


def _cont_ty(types: _Types, m: LamTerm, scope, strategy: Strategy) -> Optional[Type]:
    ty = types.of(m, scope)
    return Arrow(_tr_ty(ty, strategy, "circ"), O) if ty is not None else None


def _plo_cbn(m: LamTerm, types: _Types, scope, fresh: _Fresh) -> LamTerm:
    match m:
        case Var(name):
            return Var(name)
        case Lam(x, xty, body):
            kv = fresh("k")
            kty = _cont_ty(types, m, scope, Strategy.CBN)
            xs = _tr_ty(xty, Strategy.CBN, "star") if types.typed else None
            inner = Lam(x, xs, _plo_cbn(body, types, scope + ((x, xty),), fresh))
            return Lam(kv, kty, App(Var(kv), inner))
        case App(fn, arg):
            kv = fresh("k")
            mv = fresh("m")
            kty = _cont_ty(types, m, scope, Strategy.CBN)
            fty = types.of(fn, scope)
            mty = _tr_ty(fty, Strategy.CBN, "circ") if fty is not None else None
            body = App(
                App(Var(mv), _plo_cbn(arg, types, scope, fresh)), Var(kv)
            )
            return Lam(kv, kty, App(_plo_cbn(fn, types, scope, fresh), Lam(mv, mty, body)))
    raise TypeError(f"not a lambda term: {m!r}")


def _plo_cbv(
    m: LamTerm, types: _Types, scope, fresh: _Fresh, order: EvalOrder
) -> LamTerm:
    kv = fresh("k")
    kty = _cont_ty(types, m, scope, Strategy.CBV)
    match m:
        case Var(name):
            return Lam(kv, kty, App(Var(kv), Var(name)))
        case Lam(x, xty, body):
            xs = _tr_ty(xty, Strategy.CBV, "circ") if types.typed else None
            inner = Lam(x, xs, _plo_cbv(body, types, scope + ((x, xty),), fresh, order))
            return Lam(kv, kty, App(Var(kv), inner))
        case App(fn, arg):
            mv = fresh("m")
            nv = fresh("n")
            fty = types.of(fn, scope)
            mty = _tr_ty(fty, Strategy.CBV, "circ") if types.typed else None
            nty = mty.dom if isinstance(mty, Arrow) else None
            core = App(App(Var(mv), Var(nv)), Var(kv))
            fn_t = _plo_cbv(fn, types, scope, fresh, order)
            arg_t = _plo_cbv(arg, types, scope, fresh, order)
            if order is EvalOrder.FUNCTION_FIRST:
                body = App(fn_t, Lam(mv, mty, App(arg_t, Lam(nv, nty, core))))
            else:
                body = App(arg_t, Lam(nv, nty, App(fn_t, Lam(mv, mty, core))))
            return Lam(kv, kty, body)
    raise TypeError(f"not a lambda term: {m!r}")


def _plo_cbn_pairs(m: LamTerm, fresh: _Fresh) -> LamTerm:
    match m:
        case Var(name):
            return Var(name)
        case Lam(x, _, body):
            kv, hv = fresh("k"), fresh("h")
            inner = PairPatLam(x, hv, App(_plo_cbn_pairs(body, fresh), Var(hv)))
            return Lam(kv, None, App(Var(kv), inner))
        case App(fn, arg):
            kv, mv = fresh("k"), fresh("m")
            body = App(Var(mv), PairTerm(_plo_cbn_pairs(arg, fresh), Var(kv)))
            return Lam(kv, None, App(_plo_cbn_pairs(fn, fresh), Lam(mv, None, body)))
    raise TypeError(f"not a lambda term: {m!r}")


def _plo_cbv_pairs(m: LamTerm, fresh: _Fresh, order: EvalOrder) -> LamTerm:
    kv = fresh("k")
    match m:
        case Var(name):
            return Lam(kv, None, App(Var(kv), Var(name)))
        case Lam(x, _, body):
            hv = fresh("h")
            inner = PairPatLam(x, hv, App(_plo_cbv_pairs(body, fresh, order), Var(hv)))
            return Lam(kv, None, App(Var(kv), inner))
        case App(fn, arg):
            mv, nv = fresh("m"), fresh("n")
            core = App(Var(mv), PairTerm(Var(nv), Var(kv)))
            fn_t = _plo_cbv_pairs(fn, fresh, order)
            arg_t = _plo_cbv_pairs(arg, fresh, order)
            if order is EvalOrder.FUNCTION_FIRST:
                body = App(fn_t, Lam(mv, None, App(arg_t, Lam(nv, None, core))))
            else:
                body = App(arg_t, Lam(nv, None, App(fn_t, Lam(mv, None, core))))
            return Lam(kv, None, body)
    raise TypeError(f"not a lambda term: {m!r}")
