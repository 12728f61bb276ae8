"""Lambda terms, plus the hole-extended language used by readback.

The plain language is variables, abstraction and application. Readback targets
its extension with a typed hole constant, written []. The CPS translations in
uncurried mode additionally produce pairs and pair-pattern abstractions; those
two constructors never reach the evaluators.

Each node class is declared once, by its annotated fields and its text,
through the decorator `_lam_node` (`ptq.syntax._language`), which derives its
constructor, its rows in the walk tables, its `==`, `hash` and `repr`, and
its branch of the printer, as for the calculus's classes. The constructor
sets the node's free names; a hole counts as the name [], which no variable
can be spelled as, so a variable and the hole are one kind of target:
substitution M[N/x] and hole composition M[N/[]] are one capture-avoiding
walk, also derived from the declarations. Hole composition plugs N into
every hole of M and is associative with [] as neutral element.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Optional, Union

from .errors import ParseError, PtqError, UncurriedNeedsPairs
from .syntax import (
    _IDENT_RE,
    _Tree,
    _alpha_eq,
    _language,
    Type,
    TokenStream,
    _parse_opt_ann,
    _parse_type,
    tokenize,
)

# the free name of a hole, which no variable name can be spelled as
_HOLE_NAME = "[]"


class _LamNode(_Tree):
    """Base of the lambda node classes. Each node keeps its free names, a
    hole's as [], in `_fv`."""


# the walk tables, one row per node class, filled by `_lam_node`
_CHILDREN: dict = {}
_BINDS: dict = {}
_SUBST: dict = {}
_lam_node, _printer = _language("lambda term", {None: ("LamTerm", "lambda term")}, _CHILDREN, _BINDS, _SUBST)


@_lam_node(text="{name}", prec=2)
class Var(_LamNode):
    name: str


@_lam_node(text=r"\{x}{xty}. {body}", prec=0)
class Lam(_LamNode):
    x: str
    xty: Optional[Type]
    body: LamTerm


@_lam_node(text="{fn:1} {arg:2}", prec=1)
class App(_LamNode):
    fn: LamTerm
    arg: LamTerm


@_lam_node(text=("[]", "([]{ty})"), prec=2)
class Hole(_LamNode):
    ty: Optional[Type] = None
    _fv = frozenset((_HOLE_NAME,))


@_lam_node(text="({fst}, {snd})", prec=2)
class PairTerm(_LamNode):
    """Pair constructor for the uncurried CPS image."""

    fst: LamTerm
    snd: LamTerm


@_lam_node(text=r"\({x}, {h}). {body}", prec=0)
class PairPatLam(_LamNode):
    """Pair-pattern abstraction \\(x, h). M for the uncurried CPS image; h
    shadows x when both are one name."""

    x: str
    h: str
    body: LamTerm


LamTerm = Union[Var, Lam, App, Hole, PairTerm, PairPatLam]

HOLE = Hole()


def is_value(m: LamTerm) -> bool:
    """A term is a value when it is not an application."""
    return not isinstance(m, App)


def lam_free_vars(m: LamTerm) -> frozenset[str]:
    if not isinstance(m, _LamNode):
        raise TypeError(f"not a lambda term: {m!r}")
    return m._fv - {_HOLE_NAME}


def lam_subst(m: LamTerm, name: str, payload: LamTerm) -> LamTerm:
    """Capture-avoiding m[payload/name]."""
    for term in (m, payload):
        if type(term) not in _CHILDREN:
            raise TypeError(f"not a lambda term: {term!r}")
    return _SUBST[type(m)](m, name, payload) if name in m._fv else m


def plug_hole(m: LamTerm, payload: LamTerm) -> LamTerm:
    """m[payload/[]], plugging every hole of m."""
    return lam_subst(m, _HOLE_NAME, payload)


def lam_alpha_eq(a: LamTerm, b: LamTerm) -> bool:
    return _alpha_eq(a, b, _CHILDREN, _BINDS)


# ---------------------------------------------------------------------------
# one-step beta matching, used to certify readback soundness


def beta_contractions(m: LamTerm) -> list[LamTerm]:
    """Every term reachable from m by contracting exactly one beta redex."""
    return list(_contractions(m))


def reduces_in_one_beta(m: LamTerm, n: LamTerm) -> bool:
    """True when m beta-reduces to n in exactly one step, at any position."""
    return any(lam_alpha_eq(c, n) for c in _contractions(m))


def _contractions(m: LamTerm):
    """The one-step reducts of m, one at a time: its redexes in pre-order,
    outermost and leftmost first. An explicit-stack walk keeps the path to
    each node, as a linked list of (parent, child index) pairs, and rebuilds
    only that path around each contraction, replacing in each parent the
    field its declaration gives the child; every other subterm is shared
    with m."""
    stack = [(m, None)]
    while stack:
        t, path = stack.pop()
        cls = type(t)
        if cls not in _CHILDREN:
            raise TypeError(f"not a lambda term: {t!r}")
        if cls is App and type(t.fn) is Lam:
            out, up = lam_subst(t.fn.body, t.fn.x, t.arg), path
            while up is not None:
                (parent, i), up = up
                name = [f.name for f in fields(parent) if f.type == "LamTerm"][i]
                out = replace(parent, **{name: out})
            yield out
        kids = _CHILDREN[cls](t)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], ((t, i), path)))


# ---------------------------------------------------------------------------
# printing


_print = _printer()


def lam_str(m: LamTerm) -> str:
    """The text of a lambda term, which `parse_lam` reads back, as each node
    class declares it (`ptq.syntax._language`): an application's function
    is wrapped in parentheses when it is an abstraction, and its argument
    also when it is an application. The walk is the language's printer,
    run as `term_str` runs without a memo, so no depth of nesting can
    exhaust the Python stack."""
    return _print(m, None)


# ---------------------------------------------------------------------------
# parsing


def parse_lam(text: str) -> LamTerm:
    ts = TokenStream(tokenize(text))
    term = _parse_lam(ts)
    ts.end("term")
    return term


_LAM_RESERVED = ("o",)


def _is_var(tok: str) -> bool:
    """Whether tok spells a lambda variable."""
    return bool(_IDENT_RE.match(tok)) and tok not in _LAM_RESERVED


def _starts_atom(tok: Optional[str]) -> bool:
    return tok is not None and (tok in ("(", "[", "\\") or _is_var(tok))


def _parse_lam(ts: TokenStream) -> LamTerm:
    term = _parse_lam_atom(ts)
    while _starts_atom(ts.peek()):
        term = App(term, _parse_lam_atom(ts))
    return term


def _parse_lam_ident(ts: TokenStream) -> str:
    tok = ts.next()
    if not _is_var(tok):
        raise ParseError(f"expected a variable, got {tok!r}")
    return tok


def _parse_lam_atom(ts: TokenStream) -> LamTerm:
    tok = ts.next()
    if tok == "(":
        term = _parse_lam(ts)
        if ts.peek() == ":" and term is HOLE:
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
        ts.expect("]")
        return HOLE
    if tok == "\\":
        if ts.peek() == "(":
            ts.next()
            x = _parse_lam_ident(ts)
            ts.expect(",")
            h = _parse_lam_ident(ts)
            ts.expect(")")
            ts.expect(".")
            return PairPatLam(x, h, _parse_lam(ts))
        x = _parse_lam_ident(ts)
        xty = _parse_opt_ann(ts, allow_o=True)
        ts.expect(".")
        return Lam(x, xty, _parse_lam(ts))
    if _is_var(tok):
        return Var(tok)
    raise ParseError(f"unexpected token {tok!r}")


def require_plain(m: LamTerm, what: str = "this operation") -> tuple[set[str], dict]:
    """Reject holes and the pair extension where only the plain language is
    allowed; return every name m holds, bound or free, and its binder
    annotations, each object once, by id. The walk is a loop that goes left
    to right, so the leftmost offending node decides the error."""
    names: set[str] = set()
    annotations = {}
    stack = [m]
    while stack:
        m = stack.pop()
        cls = type(m)
        if cls is Var:
            names.add(m.name)
        elif cls is Lam:
            names.add(m.x)
            annotations[id(m.xty)] = m.xty
            stack.append(m.body)
        elif cls is App:
            stack.append(m.arg)
            stack.append(m.fn)
        elif cls is Hole:
            raise PtqError(f"{what} handles terms without holes")
        elif cls is PairTerm or cls is PairPatLam:
            raise UncurriedNeedsPairs(f"{what} handles the plain language only")
        else:
            raise TypeError(f"not a lambda term: {m!r}")
    return names, annotations
