"""Lambda terms, plus the hole-extended language used by readback.

The plain language is variables, abstraction and application. Readback targets
its extension with a typed hole constant, written []. The CPS translations in
uncurried mode additionally produce pairs and pair-pattern abstractions; those
two constructors never reach the evaluators.

Substitution M[N/x] and hole composition M[N/[]] are one capture-avoiding
walk whose target is a variable name or the hole. It rebuilds only the paths
to the target's occurrences and renames a binder only when its name is free
in N and the target occurs below it. Hole composition plugs N into every hole
of M and is associative with [] as neutral element.
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
    return _subst(m, name, payload, lam_free_vars(payload))


def plug_hole(m: LamTerm, payload: LamTerm) -> LamTerm:
    """m[payload/[]], plugging every hole of m."""
    return _subst(m, HOLE, payload, lam_free_vars(payload))


# A target is a variable name or HOLE. The walk returns a subterm without an
# occurrence of the target unchanged, the same object, so only the paths to
# the occurrences are rebuilt. A binder is renamed only when its name is free
# in the payload (fv) and the target occurs below it; the rename is decided
# before descending, and the new name avoids fv and the body's free names,
# which then include the target.


def _subst(
    t: LamTerm, target: Union[str, Hole], payload: LamTerm, fv: frozenset[str]
) -> LamTerm:
    match t:
        case Var(x):
            return payload if x == target else t
        case Hole():
            return payload if target is HOLE else t
        case Lam(x, xty, body):
            if x == target:
                return t
            if x in fv and _occurs(body, target):
                x, body = _rename(x, body, fv)
            new = _subst(body, target, payload, fv)
            return t if new is t.body else Lam(x, xty, new)
        case App(fn, arg):
            f, a = _subst(fn, target, payload, fv), _subst(arg, target, payload, fv)
            return t if f is fn and a is arg else App(f, a)
        case PairTerm(fst, snd):
            f, s = _subst(fst, target, payload, fv), _subst(snd, target, payload, fv)
            return t if f is fst and s is snd else PairTerm(f, s)
        case PairPatLam(x, h, body):
            if target in (x, h):
                return t
            if (x in fv or h in fv) and _occurs(body, target):
                if x in fv:
                    x, body = _rename(x, body, fv | {h})
                if h in fv:
                    h, body = _rename(h, body, fv | {x})
            new = _subst(body, target, payload, fv)
            return t if new is t.body else PairPatLam(x, h, new)
    raise TypeError(f"not a lambda term: {t!r}")


def _occurs(m: LamTerm, target: Union[str, Hole]) -> bool:
    """Whether the target, a variable name or HOLE, occurs free in m."""
    match m:
        case Var(x):
            return x == target
        case Hole():
            return target is HOLE
        case Lam(x, _, body):
            return x != target and _occurs(body, target)
        case PairPatLam(x, h, body):
            return target not in (x, h) and _occurs(body, target)
        case App(fn, arg) | PairTerm(fst=fn, snd=arg):
            return _occurs(fn, target) or _occurs(arg, target)
    raise TypeError(f"not a lambda term: {m!r}")


def _rename(x: str, body: LamTerm, avoid: frozenset[str]) -> tuple[str, LamTerm]:
    """Rebind x in body to the first fresh name free neither in body nor in
    `avoid`: the payload's free variables and a pair binder's other name."""
    x2 = fresh_name(x, avoid | lam_free_vars(body))
    return x2, lam_subst(body, x, Var(x2))


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
