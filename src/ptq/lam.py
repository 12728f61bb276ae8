"""Lambda terms, plus the hole-extended language used by readback.

The plain language is variables, abstraction and application. Readback targets
its extension with a typed hole constant, written []. The CPS translations in
uncurried mode additionally produce pairs and pair-pattern abstractions; those
two constructors never reach the evaluators.

Hole composition M[N/[]] plugs N into every hole of M and is associative with
[] as neutral element; it must not capture, so binders above a hole get
freshened against the free variables of the plug.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .errors import ParseError, UncurriedNeedsPairs
from .syntax import (
    Type,
    TokenStream,
    _parse_type,
    fresh_name,
    tokenize,
    type_str,
)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    x: str
    xty: Optional[Type]
    body: "LamTerm"


@dataclass(frozen=True)
class App:
    fn: "LamTerm"
    arg: "LamTerm"


@dataclass(frozen=True)
class Hole:
    ty: Optional[Type] = None


@dataclass(frozen=True)
class PairTerm:
    """Pair constructor for the uncurried CPS image."""

    fst: "LamTerm"
    snd: "LamTerm"


@dataclass(frozen=True)
class PairPatLam:
    """Pair-pattern abstraction \\(x, h). M for the uncurried CPS image."""

    x: str
    h: str
    body: "LamTerm"


LamTerm = Union[Var, Lam, App, Hole, PairTerm, PairPatLam]

HOLE = Hole()


def is_value(m: LamTerm) -> bool:
    """A term is a value when it is not an application."""
    return not isinstance(m, App)


def lam_free_vars(m: LamTerm) -> frozenset[str]:
    match m:
        case Var(name):
            return frozenset((name,))
        case Lam(x, _, body):
            return lam_free_vars(body) - {x}
        case App(fn, arg):
            return lam_free_vars(fn) | lam_free_vars(arg)
        case Hole():
            return frozenset()
        case PairTerm(fst, snd):
            return lam_free_vars(fst) | lam_free_vars(snd)
        case PairPatLam(x, h, body):
            return lam_free_vars(body) - {x, h}
    raise TypeError(f"not a lambda term: {m!r}")


def lam_all_names(m: LamTerm) -> frozenset[str]:
    match m:
        case Var(name):
            return frozenset((name,))
        case Lam(x, _, body):
            return lam_all_names(body) | {x}
        case App(fn, arg):
            return lam_all_names(fn) | lam_all_names(arg)
        case Hole():
            return frozenset()
        case PairTerm(fst, snd):
            return lam_all_names(fst) | lam_all_names(snd)
        case PairPatLam(x, h, body):
            return lam_all_names(body) | {x, h}
    raise TypeError(f"not a lambda term: {m!r}")


def lam_subst(m: LamTerm, name: str, payload: LamTerm) -> LamTerm:
    """Capture-avoiding m[payload/name]."""
    fv = lam_free_vars(payload)

    def go(t: LamTerm) -> LamTerm:
        match t:
            case Var(x):
                return payload if x == name else t
            case Lam(x, xty, body):
                if x == name:
                    return t
                if x in fv:
                    x, body = _rename(x, body, fv | {name})
                return Lam(x, xty, go(body))
            case App(fn, arg):
                return App(go(fn), go(arg))
            case Hole():
                return t
            case PairTerm(fst, snd):
                return PairTerm(go(fst), go(snd))
            case PairPatLam(x, h, body):
                if name in (x, h):
                    return t
                x, h, body = _rename_pair(x, h, body, fv, frozenset((name,)))
                return PairPatLam(x, h, go(body))
        raise TypeError(f"not a lambda term: {t!r}")

    return go(m)


def _rename(x: str, body: LamTerm, avoid: frozenset[str]) -> tuple[str, LamTerm]:
    """Rebind x in body to the first fresh name free neither in body nor in
    `avoid`: the payload's free variables, the name being substituted for
    (else the renamed binder would capture its occurrences) and a pair
    binder's other name."""
    x2 = fresh_name(x, avoid | lam_free_vars(body))
    return x2, lam_subst(body, x, Var(x2))


def _rename_pair(
    x: str, h: str, body: LamTerm, fv: frozenset[str], avoid: frozenset[str]
) -> tuple[str, str, LamTerm]:
    """Rename whichever of the pair binders x, h is free in the payload (fv)."""
    if x in fv:
        x, body = _rename(x, body, fv | avoid | {h})
    if h in fv:
        h, body = _rename(h, body, fv | avoid | {x})
    return x, h, body


def plug_hole(m: LamTerm, payload: LamTerm) -> LamTerm:
    """m[payload/[]], freshening binders against the payload's free variables."""
    fv = lam_free_vars(payload)

    def go(t: LamTerm) -> LamTerm:
        match t:
            case Hole():
                return payload
            case Var():
                return t
            case Lam(x, xty, body):
                if x in fv and _has_hole(body):
                    x, body = _rename(x, body, fv)
                return Lam(x, xty, go(body))
            case App(fn, arg):
                return App(go(fn), go(arg))
            case PairTerm(fst, snd):
                return PairTerm(go(fst), go(snd))
            case PairPatLam(x, h, body):
                if _has_hole(body):
                    x, h, body = _rename_pair(x, h, body, fv, frozenset())
                return PairPatLam(x, h, go(body))
        raise TypeError(f"not a lambda term: {t!r}")

    return go(m)


def _has_hole(m: LamTerm) -> bool:
    match m:
        case Hole():
            return True
        case Var():
            return False
        case Lam(_, _, body) | PairPatLam(_, _, body):
            return _has_hole(body)
        case App(fn, arg) | PairTerm(fst=fn, snd=arg):
            return _has_hole(fn) or _has_hole(arg)
    raise TypeError(f"not a lambda term: {m!r}")


def lam_alpha_eq(a: LamTerm, b: LamTerm) -> bool:
    return _aeq(a, b, {}, {}, [0])


def _aeq(a, b, ma, mb, counter) -> bool:
    match (a, b):
        case (Var(x), Var(y)):
            return ma.get(x, ("f", x)) == mb.get(y, ("f", y))
        case (Lam(x1, t1, b1), Lam(x2, t2, b2)):
            if t1 != t2:
                return False
            counter[0] += 1
            n = counter[0]
            return _aeq(b1, b2, {**ma, x1: n}, {**mb, x2: n}, counter)
        case (App(f1, a1), App(f2, a2)):
            return _aeq(f1, f2, ma, mb, counter) and _aeq(a1, a2, ma, mb, counter)
        case (Hole(t1), Hole(t2)):
            return t1 == t2
        case (PairTerm(f1, s1), PairTerm(f2, s2)):
            return _aeq(f1, f2, ma, mb, counter) and _aeq(s1, s2, ma, mb, counter)
        case (PairPatLam(x1, h1, b1), PairPatLam(x2, h2, b2)):
            counter[0] += 1
            n = counter[0]
            counter[0] += 1
            m = counter[0]
            return _aeq(
                b1, b2, {**ma, x1: n, h1: m}, {**mb, x2: n, h2: m}, counter
            )
    return False


# ---------------------------------------------------------------------------
# one-step beta matching, used to certify readback soundness


def beta_contractions(m: LamTerm) -> list[LamTerm]:
    """Every term reachable from m by contracting exactly one beta redex."""
    out: list[LamTerm] = []
    match m:
        case Var() | Hole():
            pass
        case Lam(x, xty, body):
            out.extend(Lam(x, xty, b) for b in beta_contractions(body))
        case App(fn, arg):
            if isinstance(fn, Lam):
                out.append(lam_subst(fn.body, fn.x, arg))
            out.extend(App(f, arg) for f in beta_contractions(fn))
            out.extend(App(fn, a) for a in beta_contractions(arg))
        case PairTerm(fst, snd):
            out.extend(PairTerm(f, snd) for f in beta_contractions(fst))
            out.extend(PairTerm(fst, s) for s in beta_contractions(snd))
        case PairPatLam(x, h, body):
            out.extend(PairPatLam(x, h, b) for b in beta_contractions(body))
    return out


def reduces_in_one_beta(m: LamTerm, n: LamTerm) -> bool:
    """True when m beta-reduces to n in exactly one step, at any position."""
    return any(lam_alpha_eq(c, n) for c in beta_contractions(m))


# ---------------------------------------------------------------------------
# printing


def lam_str(m: LamTerm) -> str:
    match m:
        case Var(name):
            return name
        case Lam(x, xty, body):
            ann = f"{x}:{type_str(xty)}" if xty is not None else x
            return f"\\{ann}. {lam_str(body)}"
        case App(fn, arg):
            f = lam_str(fn)
            if isinstance(fn, (Lam, PairPatLam)):
                f = f"({f})"
            a = lam_str(arg)
            if isinstance(arg, (App, Lam, PairPatLam)):
                a = f"({a})"
            return f"{f} {a}"
        case Hole(ty):
            return "[]" if ty is None else f"([]:{type_str(ty)})"
        case PairTerm(fst, snd):
            return f"({lam_str(fst)}, {lam_str(snd)})"
        case PairPatLam(x, h, body):
            return f"\\({x}, {h}). {lam_str(body)}"
    raise TypeError(f"not a lambda term: {m!r}")


# ---------------------------------------------------------------------------
# parsing


def parse_lam(text: str) -> LamTerm:
    ts = TokenStream(tokenize(text))
    term = _parse_lam(ts)
    if not ts.done():
        raise ParseError(f"trailing input after term: {ts.peek()!r}")
    return term


_LAM_RESERVED = ("o",)
_LAM_IDENT_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def _starts_atom(tok: Optional[str]) -> bool:
    if tok is None:
        return False
    if tok in ("(", "[", "\\"):
        return True
    return bool(_LAM_IDENT_RE.match(tok)) and tok not in _LAM_RESERVED


def _parse_lam(ts: TokenStream) -> LamTerm:
    term = _parse_lam_atom(ts)
    while _starts_atom(ts.peek()):
        term = App(term, _parse_lam_atom(ts))
    return term


def _parse_lam_ident(ts: TokenStream) -> str:
    tok = ts.next()
    if not _LAM_IDENT_RE.match(tok) or tok in _LAM_RESERVED:
        raise ParseError(f"expected a variable, got {tok!r}")
    return tok


def _parse_lam_atom(ts: TokenStream) -> LamTerm:
    tok = ts.peek()
    if tok is None:
        raise ParseError("unexpected end of input")
    if tok == "(":
        ts.next()
        term = _parse_lam(ts)
        if ts.peek() == ":" and isinstance(term, Hole):
            ts.next()
            term = Hole(_parse_type(ts, allow_o=True))
        if ts.peek() == ",":
            ts.next()
            snd = _parse_lam(ts)
            ts.expect(")")
            return PairTerm(term, snd)
        ts.expect(")")
        return term
    if tok == "[":
        return _parse_hole(ts)
    if tok == "\\":
        ts.next()
        if ts.peek() == "(":
            ts.next()
            x = _parse_lam_ident(ts)
            ts.expect(",")
            h = _parse_lam_ident(ts)
            ts.expect(")")
            ts.expect(".")
            return PairPatLam(x, h, _parse_lam(ts))
        x = _parse_lam_ident(ts)
        xty = None
        if ts.peek() == ":":
            ts.next()
            xty = _parse_type(ts, allow_o=True)
        ts.expect(".")
        return Lam(x, xty, _parse_lam(ts))
    ts.next()
    if _LAM_IDENT_RE.match(tok) and tok not in _LAM_RESERVED:
        return Var(tok)
    raise ParseError(f"unexpected token {tok!r}")


def _parse_hole(ts: TokenStream) -> Hole:
    ts.expect("[")
    ts.expect("]")
    return HOLE


def require_plain(m: LamTerm, what: str = "this operation") -> None:
    """Reject the pair extension where only the plain language is allowed."""
    match m:
        case Var() | Hole():
            return
        case Lam(_, _, body):
            require_plain(body, what)
        case App(fn, arg):
            require_plain(fn, what)
            require_plain(arg, what)
        case PairTerm() | PairPatLam():
            raise UncurriedNeedsPairs(f"{what} handles the plain language only")
        case _:
            raise TypeError(f"not a lambda term: {m!r}")
