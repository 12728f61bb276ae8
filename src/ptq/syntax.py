"""Terms and simple types of the program/test calculus.

The calculus has three sorts of terms plus applications:

  program terms   p ::= x | \\(x:A, k:B). u | \\k:A. u
  test terms      t ::= * | k | <p, t> | \\x:A. u
  jump terms      q ::= %k:A. u
  computations    u ::= t ; p | q ! t

There is a single test variable, spelled k, bound by the three k-binders.
Program variables are ordinary named variables. Every program and jump term
is t-closed by construction; a test or computation term carries exactly one
free test position on its spine, which is either the variable k or the
constant *. Alpha-equivalence renames program variables only.

Concrete syntax is whitespace-insensitive. Binder bodies parse greedily;
parentheses override. Type annotations on binders are optional in the parser
(the checker rejects their absence).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Container, Optional, Union

from .errors import NotTClosed, ParseError, ReservedBaseType, TClosureError

RESERVED = ("k", "o")


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Base:
    name: str


@dataclass(frozen=True)
class Arrow:
    dom: "Type"
    cod: "Type"


Type = Union[Base, Arrow]


def type_str(ty: Type) -> str:
    match ty:
        case Base(name):
            return name
        case Arrow(dom, cod):
            left = type_str(dom)
            if isinstance(dom, Arrow):
                left = f"({left})"
            return f"{left} -> {type_str(cod)}"
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# terms


_NO_NAMES: frozenset[str] = frozenset()

_setattr = object.__setattr__  # the dataclasses are frozen


def _names(child, what: str = "term") -> frozenset[str]:
    """The free names of a child, which must be a term node."""
    try:
        return child._fv
    except AttributeError:
        raise TypeError(f"not a {what}: {child!r}") from None


def _union(a, b, what: str = "term") -> frozenset[str]:
    """The free names of two children, sharing one child's set when it holds
    the other's."""
    try:
        fa, fb = a._fv, b._fv
    except AttributeError:
        fa, fb = _names(a, what), _names(b, what)  # raises for a non-term
    return fb if fa <= fb else fa if fb <= fa else fa | fb


# `_Tree`'s tables for `==` and `hash`, over the node classes of both languages
_EQ_CHILDREN: dict = {}
_EQ_FIELDS: dict = {}


class _Tree:
    """Base of the term nodes of both languages (`_Node` and `ptq.lam`'s
    `_LamNode`), for `==`, `hash` and `repr`, which never recurse.

    `==` is `_alpha_eq` with binder names compared as plain fields, so names
    must match exactly, and nodes of different classes differ. `hash` reads
    the node's class, its own fields that are not terms, and its free names;
    equal nodes agree on all three. `repr` is the dataclass text,
    `Cls(field=value, ...)`, built with an explicit stack."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _alpha_eq(self, other, _EQ_CHILDREN, _EQ_FIELDS)

    def __hash__(self):
        cls = type(self)
        return hash((cls, self._fv, *[getattr(self, f) for f in _EQ_FIELDS[cls][1]]))

    def __repr__(self):
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
                continue
            names = item.__match_args__
            todo.append(")")
            for i in range(len(names) - 1, -1, -1):
                value = getattr(item, names[i])
                todo.append(value if isinstance(value, _Tree) else repr(value))
                todo.append(f", {names[i]}=" if i else f"{names[i]}=")
            todo.append(f"{type(item).__qualname__}(")
        return "".join(out)


# the annotations of the fields that hold a child, in either language
_CHILD_TYPES = frozenset(("PTerm", "TTerm", "ETerm", "QLam", "LamTerm"))

# each language's substitution table, and its row for a node of another language
_SUBSTS: list = []


def _language(what: str, children: dict, binds: dict, subst: dict, sorts: Optional[dict] = None):
    """The class decorator `node(sort)` of one language, which declares a
    node class and adds its rows to the language's walk tables (`sorts` for
    the calculus only) and to `_Tree`'s; `what` names a term of the language
    in the constructors' errors.

    A class is declared once, by its annotated fields (strings, under `from
    __future__ import annotations`), and each field's role is read off its
    annotation:

      a term type (`_CHILD_TYPES`)           a child
      `name: str`, the class's only field    a variable occurrence
      any other `str`                        a bound name
      anything else                          an annotation, compared with ==

    `children[cls]` gives a node's children in field order, `binds[cls]` is
    the class's row in `_alpha_eq`'s format, and `_EQ_FIELDS[cls]` holds
    every field that is not a child, so `==` compares names exactly. The
    class becomes a frozen dataclass with `_Tree`'s `==`, `hash` and `repr`.
    A class with a class-level `_fv` (a constant) keeps the dataclass
    constructor; any other gets one that stores each field, then its free
    names: a variable's name, or its children's (by `_names` or `_union`,
    which reject a child that is not a node) less its bound names. The
    constructor, the children function and the substitution are compiled
    once per class from generated source, as `dataclasses` compiles its own,
    so no call reads the declaration.

    `subst[cls](node, x, payload)` is the capture-avoiding node[payload/x]
    for a name x free in node; a hole's free name is [], so plugging holes
    is substitution too. A node without children, a variable or a hole, is
    an occurrence and gives the payload. A node enters a child only when x
    is among the child's free names (`_fv`), so an untouched child costs no
    call and is shared with the input by identity: only the paths to the
    occurrences are rebuilt, and the cost follows the occurrences, not the
    size of the term. A bound name that is free in the payload is first
    renamed by `_avoid` to the first `fresh_name` free neither in the payload
    nor in the body and distinct from the node's other bound names, all read
    from the nodes, so the same input always gets the same names (and never
    x, which is free in the body). A name bound again by a later field of
    the same node (`\\(x, x). …`) binds nothing in the body, which its rename
    then leaves as it is. Each language's table also maps the classes of the
    other languages to a row that raises `TypeError("not a <what>: …")`, so
    a stray node is reported at any depth while the walk indexes a plain
    `dict` (CPython 3.11 specializes the subscript of an exact `dict` only).
    """

    def stray(node, target, payload):
        raise TypeError(f"not a {what}: {node!r}")

    subst.update(dict.fromkeys(_EQ_CHILDREN, stray))  # other languages' classes
    _SUBSTS.append((subst, stray))
    scope = {"_setattr": _setattr, "_names": _names, "_union": _union, "_avoid": _avoid, "table": subst}

    def node(sort: Optional[str] = None):
        def declare(cls):
            constant = "_fv" in vars(cls)
            cls = dataclass(frozen=True, eq=False, repr=False, init=constant)(cls)
            names = cls.__match_args__
            kids = [f.name for f in fields(cls) if f.type in _CHILD_TYPES]
            bound = tuple(f.name for f in fields(cls) if f.type == "str")
            var = bound == names == ("name",)
            bound = () if var else bound
            rest = tuple(n for n in names if n not in kids)
            source = f"def children(t): return ({''.join(f't.{k}, ' for k in kids)})\n"
            if not constant:
                fv = "frozenset((name,))" if var else f"_names({kids[0]}, {what!r})"
                if len(kids) == 2:
                    fv = f"_union({kids[0]}, {kids[1]}, {what!r})"
                source += "".join(
                    [f"def __init__(self, {', '.join(names)}):\n"]
                    + [f"    _setattr(self, {n!r}, {n})\n" for n in names]
                    + [f"    fv = {fv}\n"]
                    + [f"    fv = fv - {{{x}}} if {x} in fv else fv\n" for x in bound]
                    + ["    _setattr(self, '_fv', fv)\n"]
                )
            if not kids:  # a variable or a hole
                source += "def subst(node, target, payload): return payload\n"
            else:
                enter = "table[type({0})]({0}, target, payload)"
                if len(kids) == 2:
                    enter = f"({enter} if target in {{0}}._fv else {{0}})"
                body = kids[0]
                source += "def subst(node, target, payload):\n"
                source += f"    {', '.join(names)}, = {''.join(f'node.{n}, ' for n in names)}\n"
                source += "    fv = payload._fv\n" if bound else ""
                for i, x in enumerate(bound):
                    avoid = "".join(f" | {{{y}}}" for y in bound if y != x)
                    later = bound[i + 1 :]
                    shadowed = f", {x} in ({''.join(f'{y}, ' for y in later)})" if later else ""
                    source += f"    if {x} in fv:\n"
                    source += f"        {x}, {body} = _avoid({x}, {body}, fv{avoid}, table, var{shadowed})\n"
                source += f"    return {cls.__name__}({', '.join(enter.format(n) if n in kids else n for n in names)})\n"
            # one file name per class, so profiles and tracebacks tell the classes apart
            code = compile(source, f"<{cls.__module__}.{cls.__qualname__}>", "exec")
            made = {}
            scope.update({"__name__": cls.__module__, cls.__name__: cls})
            if var:
                scope["var"] = cls
            exec(code, scope, made)
            children[cls] = _EQ_CHILDREN[cls] = made["children"]
            if not constant:
                made["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
                cls.__init__ = made["__init__"]
            for table, row in _SUBSTS:
                table[cls] = row
            subst[cls] = made["subst"]
            binds[cls] = None if var else (bound, tuple(n for n in rest if n not in bound))
            _EQ_FIELDS[cls] = ((), rest)
            if sorts is not None:
                sorts[cls] = sort
            return cls

        return declare

    return node


def _avoid(x: str, body: _Tree, avoid: frozenset[str], table: dict, var: type, shadowed: bool = False):
    """The binder x over body renamed to the first `fresh_name` that is
    neither in `avoid` nor free in body, and body with x renamed to it by the
    language's substitution `table` and variable class `var`; a `shadowed`
    x binds nothing in body, which then stays."""
    y = fresh_name(x, avoid | body._fv)
    if shadowed or x not in body._fv:
        return y, body
    return y, table[type(body)](body, x, var(y))


class _Node(_Tree):
    """Base of the calculus's node classes, which `_node` declares. A node is
    immutable, so a fact that depends on the node alone is kept on it, as an
    instance attribute outside the dataclass fields, so equality, hashing,
    printing and `dataclasses.fields` never see it (hashing reads `_fv`,
    which the fields decide):

      _fv     its free program names (every node), set by its constructor
              from those of its children, which are built first, so no
              read of it walks the term; `Star` and `KVar` share one empty set
      _type   its type, once typed (kept by `typecheck._kept`, and
              returned as it is by `typecheck._infer_p`/`_infer_q` whatever
              their scope; closed program and jump nodes only, which bind
              their own anchor and so have one type in every scope)
      _image  its readback image, once read back (`readback`; program and
              jump nodes only, which bind every test position they hold)

    The other two are kept on demand. A failure is never kept, so a node
    that fails a check fails it again."""

    _type = None
    _image = None


# the walk tables, one row per node class, filled by `_node`
_CHILDREN: dict = {}
_BINDS: dict = {}
_SUBST: dict = {}
_SORT: dict = {}
_node = _language("term", _CHILDREN, _BINDS, _SUBST, _SORT)


@_node("p")
class PVar(_Node):
    name: str


@_node("p")
class PairLam(_Node):
    """Program abstraction \\(x:A, k:B). u over an argument and a test."""

    x: str
    xty: Optional[Type]
    kty: Optional[Type]
    body: ETerm


@_node("p")
class KLam(_Node):
    """Program abstraction \\k:A. u over the test alone."""

    kty: Optional[Type]
    body: ETerm


@_node("t")
class Star(_Node):
    _fv = _NO_NAMES


@_node("t")
class KVar(_Node):
    _fv = _NO_NAMES


@_node("t")
class Pair(_Node):
    fst: PTerm
    snd: TTerm


@_node("t")
class XLam(_Node):
    """Test abstraction \\x:A. u binding a program variable."""

    x: str
    xty: Optional[Type]
    body: ETerm


@_node("q")
class QLam(_Node):
    """Jump abstraction %k:A. u; applied to a test it resumes its body."""

    kty: Optional[Type]
    body: ETerm


@_node("e")
class PApp(_Node):
    """Computation t ; p feeding the program p to the test t."""

    test: TTerm
    proof: PTerm


@_node("e")
class QApp(_Node):
    """Computation q ! t resuming the jump q with the test t."""

    fn: QLam
    test: TTerm


PTerm = Union[PVar, PairLam, KLam]
TTerm = Union[Star, KVar, Pair, XLam]
QTerm = QLam
ETerm = Union[PApp, QApp]
Term = Union[PTerm, TTerm, QTerm, ETerm]

STAR = Star()
K = KVar()


def sort_of(term: Term) -> str:
    """One of 'p', 't', 'q', 'e'."""
    sort = _SORT.get(type(term))
    if sort is None:
        raise TypeError(f"not a term: {term!r}")
    return sort


def fresh_name(stem: str, avoid: Container[str]) -> str:
    """The first of stem_1, stem_2, ... that is not in `avoid`.

    Trailing digits and an underscore are stripped from the stem first, so
    renaming y_1 again tries y_1, y_2, ... The choice depends only on the
    stem and the names to avoid, never on history or on set iteration order.
    """
    stem = stem.rstrip("0123456789").rstrip("_") or "x"
    for i in itertools.count(1):
        name = f"{stem}_{i}"
        if name not in avoid:
            return name


# ---------------------------------------------------------------------------
# free variables and the spine


def free_pvars(term: Term) -> frozenset[str]:
    if not isinstance(term, _Node):
        raise TypeError(f"not a term: {term!r}")
    return term._fv


def spine(term: Term) -> str:
    """The free test position of a test or computation term: 'k' or 'star'.

    Program and jump terms bind every test position, so they report 'none'.
    The walk is a loop down the spine, so no depth of term exhausts the stack.
    """
    while True:
        cls = type(term)
        if cls is PApp or cls is QApp:
            term = term.test
        elif cls is Pair:
            term = term.snd
        elif cls is XLam:
            term = term.body
        elif cls is Star:
            return "star"
        elif cls is KVar:
            return "k"
        elif cls in _SORT:  # a p- or q-term
            return "none"
        else:
            raise TypeError(f"not a term: {term!r}")


def is_t_closed(term: Term) -> bool:
    return spine(term) != "k"


# ---------------------------------------------------------------------------
# substitution

# Substitution for a program variable is `_SUBST`, read off the node
# declarations (`_language`), and for the end of a spine, k or *, it is
# `_subst_k`. The public entries below check their arguments once and call
# one of the two once; the machine calls both directly. The k and * payloads
# are t-closed (but for the k that `t_open` puts back), so k-binders never
# capture anything.


def _subst_k(term: Term, payload: Term, end: type = KVar) -> Term:
    """term[payload/k], or term[payload/*] when `end` is Star; the payload is
    t-closed, or the k that t_open puts back.

    A test or computation term has one free test position, at the end of its
    spine (`PApp.test`, `QApp.test`, `Pair.snd`, `XLam.body`), and every
    program or jump subterm off the spine is t-closed. So this is a loop down
    the spine that never enters a program or jump subterm: it records the
    path, puts the payload at its end when that end is the target, k or *,
    and rebuilds the path bottom-up. A * is replaced only at the end of the
    spine; one under a k-binder, which only an anchor-ill-typed term holds,
    stays. Binders on the spine are renamed by `_avoid` as the payload
    requires, also when the spine ends elsewhere. The loop uses no stack
    depth."""
    fv = payload._fv
    path = []
    node = term
    while True:
        cls = type(node)
        if cls is PApp or cls is QApp:
            path.append((node, None))
            node = node.test
        elif cls is Pair:
            path.append((node, None))
            node = node.snd
        elif cls is XLam:
            x, body = node.x, node.body
            if x in fv:
                x, body = _avoid(x, body, fv, _SUBST, PVar)
            path.append((node, x))
            node = body
        else:
            break
    if cls is end:
        node = payload
    elif cls not in _CHILDREN:  # the loop stops at any other term
        raise TypeError(f"not a term: {node!r}")
    for parent, x in reversed(path):
        cls = type(parent)
        if cls is PApp:
            node = PApp(node, parent.proof)
        elif cls is Pair:
            node = Pair(parent.fst, node)
        elif cls is XLam:
            node = XLam(x, parent.xty, node)
        else:
            node = QApp(parent.fn, node)
    return node


def subst_pvar(term: Term, name: str, payload: PTerm) -> Term:
    """Capture-avoiding term[payload/name] for a program variable."""
    if sort_of(payload) != "p":
        raise TypeError("payload must be a program term")
    return _SUBST[type(term)](term, name, payload) if name in _names(term) else term


def _require_test_payload(payload: Term, target: str) -> None:
    if sort_of(payload) != "t":
        raise TypeError("payload must be a test term")
    if not is_t_closed(payload):
        raise NotTClosed(f"substitution payload for {target} must be t-closed")


def subst_k(term: Term, payload: TTerm) -> Term:
    """term[payload/k]; the payload must be a t-closed test term."""
    _require_test_payload(payload, "k")
    return _subst_k(term, payload)


def subst_star(term: Term, payload: TTerm) -> Term:
    """term[payload/*] at the end of the spine, for a t-closed test payload."""
    _require_test_payload(payload, "*")
    return _subst_k(term, payload, Star)


# ---------------------------------------------------------------------------
# t-closure and composition


def t_close(term: Term) -> Term:
    """Plug * into the free test position: term[*/k]."""
    if spine(term) != "k":
        raise TClosureError("term is already t-closed")
    return _subst_k(term, STAR)


def t_open(term: Term) -> Term:
    """Reopen the spine: term[k/*] at the end of the spine. Inverse of
    t_close, since both replace only the end of the spine: a * elsewhere,
    which only an anchor-ill-typed term can hold, stays as it is."""
    if spine(term) != "star":
        raise TClosureError("term is already open")
    return _subst_k(term, K, Star)


def _require_t_closed(term: Term) -> None:
    """Raise NotTClosed, saying that k is free in term and giving its text,
    when it is."""
    if spine(term) == "k":
        raise NotTClosed(f"not t-closed, k is free in: {term_str(term)}")


def star_compose(outer: TTerm, inner: Term) -> Term:
    """inner[outer/*]; both arguments t-closed.

    Associative with * as neutral element, on test terms and on computations
    alike.
    """
    if sort_of(outer) != "t":
        raise TypeError("outer must be a test term")
    if sort_of(inner) not in ("t", "e"):
        raise TypeError("inner must be a test or computation term")
    if not is_t_closed(outer) or not is_t_closed(inner):
        raise NotTClosed("star_compose needs t-closed arguments")
    return _subst_k(inner, outer, Star)


# ---------------------------------------------------------------------------
# alpha equivalence


def alpha_eq(a: Term, b: Term) -> bool:
    return _alpha_eq(a, b, _CHILDREN, _BINDS)


def _alpha_eq(a, b, children: dict, binds: dict) -> bool:
    """Whether a and b are equal up to the names of bound variables, in the
    language whose node classes `children` and `binds` list. `binds` maps a
    class to None for a variable occurrence, whose `name` is looked up in the
    binders above it, or else to its fields that bind a name and its fields
    compared with ==. Only program variables are renamed: every k-binder
    binds k alike, so it has no field that binds a name.

    One explicit-stack walk over both terms, so no depth of nesting exhausts
    the Python stack. Each binder gets a number, which its names map to on
    both sides until a marker pushed below its children restores what they
    shadowed; a free name maps to itself, which no number equals.

    A pair of one node with itself is passed over without entering it when
    each of its stored free names (`_fv`) maps alike on both sides: the walk
    below it could only find those names, the same node under the same
    binders. Terms that share nodes, such as neighbouring states of a machine
    run and their readbacks, then cost a walk of what they do not share.
    """
    scope_a, scope_b, binders = {}, {}, 0
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is None:  # leaving a binder: b lists what its names shadowed
            for scope, name, old in reversed(b):
                scope[name] = old
            continue
        cls = type(a)
        if cls is not type(b) or cls not in binds:
            return False
        if a is b and all(scope_a.get(n) == scope_b.get(n) for n in a._fv):
            continue
        spec = binds[cls]
        if spec is None:
            if (scope_a.get(a.name) or a.name) != (scope_b.get(b.name) or b.name):
                return False
            continue
        names, same = spec
        for field in same:
            if getattr(a, field) != getattr(b, field):
                return False
        if names:
            undo = []
            for field in names:
                binders += 1
                for scope, node in ((scope_a, a), (scope_b, b)):
                    name = getattr(node, field)
                    undo.append((scope, name, scope.get(name)))
                    scope[name] = binders
            stack.append((None, undo))
        stack.extend(zip(children[cls](a), children[cls](b)))
    return True


# ---------------------------------------------------------------------------
# printing


def _ann(name: str, ty: Optional[Type]) -> str:
    return f"{name}:{type_str(ty)}" if ty is not None else name


# `term_str`'s two formats, each a binder sign and an escaper for names and
# types: the canonical text, and the same text JSON-escaped (`json.dumps(text)`
# without its quotes). `json.dumps` escapes each code point on its own, so a
# node's escaped text joins the escaped pieces of its canonical text: `\\` for
# the binder sign, the C escaper's output for names and annotations, and the
# children's escaped texts. The rest of what `term_str` prints is printable
# ASCII other than `"` and `\`, which JSON keeps as it is. The canonical
# format prints a name as it is, with no call.
_FORMAT = ("\\", None)
_JSON_FORMAT = ("\\\\", lambda text: encode_basestring_ascii(text)[1:-1])

# the node classes whose text is wrapped in parentheses inside a larger term:
# those with a body
_WRAPPED = frozenset(cls for cls in _SORT if "body" in cls.__match_args__)


def _ann_text(ty: Optional[Type], memo: dict, esc) -> str:
    """`:` and the text of the annotation ty ('' when there is none), kept in
    the memo under id(ty) and escaped by esc unless it is None."""
    if ty is None:
        return ""
    text = memo.get(id(ty))
    if text is None:
        text = _ann("", ty)
        text = memo[id(ty)] = text if esc is None else esc(text)
    return text


def term_str(term: Term, memo: Optional[dict[int, str]] = None, *, _format=_FORMAT) -> str:
    """The canonical text of a term, which `parse_term` reads back.

    `memo` maps id(node) to the node's text and is filled bottom-up with an
    explicit stack, so no depth of nesting can exhaust the Python stack. The
    walk dispatches once per node on its class: it reads the texts of the
    node's children from the memo and pushes the missing ones, or formats
    the node. Each distinct node is formatted once per memo: the states of a
    machine run share all but the nodes along the contracted paths, so
    printing a whole trace with one memo costs one formatting per distinct
    node, not one per node per state. The memo also maps the id of each
    binder annotation's type to its text, so a type object is printed once
    per memo. Ids are reused once an object dies, so every term printed with
    a memo must stay alive as long as the memo is in use (its nodes keep
    their types alive). Without a memo the call uses a fresh one and frees
    each child's text as soon as its parent is formatted, so memory stays
    linear in the output; a subterm shared within the term may then be
    formatted more than once.

    `_format=_JSON_FORMAT` gives `json.dumps(term_str(term))[1:-1]` instead,
    so a trace written as JSON (`machine._write_trace_json`) escapes each
    distinct node once, not once per state; a memo serves one format only.
    """
    keep = memo is not None
    if memo is None:
        memo = {}
    lam, esc = _format
    get = memo.get
    stack = [term]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in memo:
            stack.pop()
            continue
        cls = type(node)
        if cls is PApp or cls is Pair or cls is QApp:
            if cls is PApp:
                a, b = node.test, node.proof
            elif cls is Pair:
                a, b = node.fst, node.snd
            else:
                a, b = node.fn, node.test
            sa, sb = get(id(a)), get(id(b))
            if sa is None or sb is None:
                if sa is None:
                    stack.append(a)
                if sb is None:
                    stack.append(b)
                continue
            if type(b) in _WRAPPED:
                sb = f"({sb})"
            if cls is QApp:
                text = f"({sa}) ! {sb}"
            else:
                if type(a) in _WRAPPED:
                    sa = f"({sa})"
                text = f"{sa} ; {sb}" if cls is PApp else f"<{sa}, {sb}>"
            if not keep:
                del memo[id(a)], memo[id(b)]
        elif cls is PVar:
            text = node.name if esc is None else esc(node.name)
        elif cls is Star:
            text = "*"
        elif cls is KVar:
            text = "k"
        elif cls in _WRAPPED:
            body = node.body
            sbody = get(id(body))
            if sbody is None:
                stack.append(body)
                continue
            if cls is XLam or cls is PairLam:
                x = node.x if esc is None else esc(node.x)
                xann = _ann_text(node.xty, memo, esc)
                if cls is XLam:
                    text = f"{lam}{x}{xann}. {sbody}"
                else:
                    text = f"{lam}({x}{xann}, k{_ann_text(node.kty, memo, esc)}). {sbody}"
            else:
                kann = _ann_text(node.kty, memo, esc)
                text = f"{lam}k{kann}. {sbody}" if cls is KLam else f"%k{kann}. {sbody}"
            if not keep:
                del memo[id(body)]
        else:
            raise TypeError(f"not a term: {node!r}")
        stack.pop()
        memo[key] = text
    return memo[id(term)]


# ---------------------------------------------------------------------------
# lexer, shared with the judgment parser


# one token, captured: `split` returns the text between tokens at even
# indices and the tokens at odd ones. `|>` and `|-` come first and may hold
# whitespace after the `|`; `(?!>)` keeps `|->` as `|`, `->`.
_TOKEN_RE = re.compile(r"(\|\s*(?:>|-(?!>))|->|[A-Za-z][A-Za-z0-9_]*|[\\()\[\]<>,;!%*:.|-])")


def tokenize(text: str) -> list[str]:
    """The tokens of text; `| >` and `| -` read as `|>` and `|-`.

    One C-level `split` finds every token, and the text is valid when all it
    leaves between tokens is whitespace. That check is what keeps the scan
    linear: one pattern matching the whole text as whitespace and tokens,
    `(?:\\s*(?:token))*\\s*`, backtracks exponentially on text such as
    "abab…ab@", and Python 3.10 has no atomic groups to stop it.
    """
    parts = _TOKEN_RE.split(text)
    gaps = "".join(parts[0::2])
    if gaps and not gaps.isspace():
        for i in range(0, len(parts), 2):
            if parts[i] and not parts[i].isspace():
                rest = text[sum(map(len, parts[:i])) :].lstrip()
                raise ParseError(f"cannot tokenize at: {rest[:20]!r}")
    toks = parts[1::2]
    if "|" in text:
        toks = ["|" + t[-1] if t[0] == "|" and len(t) > 2 else t for t in toks]
    return toks


_IDENT_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_TYNAME_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


class TokenStream:
    __slots__ = ("tokens", "pos")

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        try:
            return self.tokens[self.pos]
        except IndexError:
            return None

    def next(self) -> str:
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            raise ParseError("unexpected end of input") from None
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def end(self, what: str) -> None:
        """Raise unless every token has been read; what names the phrase
        that was read."""
        if self.pos < len(self.tokens):
            raise ParseError(f"trailing input after {what}: {self.tokens[self.pos]!r}")


# ---------------------------------------------------------------------------
# type parsing


def parse_type(text: str, *, allow_o: bool = False) -> Type:
    ts = TokenStream(tokenize(text))
    ty = _parse_type(ts, allow_o)
    ts.end("type")
    return ty


def _parse_type(ts: TokenStream, allow_o: bool) -> Type:
    left = _parse_type_atom(ts, allow_o)
    if ts.peek() == "->":
        ts.pos += 1
        return Arrow(left, _parse_type(ts, allow_o))
    return left


def _parse_type_atom(ts: TokenStream, allow_o: bool) -> Type:
    tok = ts.next()
    if tok == "(":
        ty = _parse_type(ts, allow_o)
        ts.expect(")")
        return ty
    if tok == "o":
        if not allow_o:
            raise ReservedBaseType("base type o is reserved")
        return Base("o")
    if _TYNAME_RE.match(tok):
        return Base(tok)
    raise ParseError(f"expected a base type, got {tok!r}")


# ---------------------------------------------------------------------------
# term parsing


def parse_term(text: str) -> Term:
    ts = TokenStream(tokenize(text))
    term = _parse_term(ts)
    ts.end("term")
    return term


# the frames of `_parse_term` that hold no term yet, and the sort and name of
# the right operand of each infix operator's node class
_OPEN, _FST = ("(",), ("<",)
_RIGHT = {PApp: ("p", "right of ';'"), QApp: ("t", "right of '!'")}


def _expected(term: Term, sorts: str, what: str) -> Term:
    if _SORT[type(term)] not in sorts:
        raise ParseError(f"{what} must be a {sorts}-term, got a {sort_of(term)}-term")
    return term


def _parse_ident(ts: TokenStream) -> str:
    tok = ts.next()
    if tok in RESERVED:
        raise ParseError(f"{tok!r} is reserved")
    if not _IDENT_RE.match(tok):
        raise ParseError(f"expected an identifier, got {tok!r}")
    return tok


def _parse_opt_ann(ts: TokenStream, allow_o: bool = False) -> Optional[Type]:
    if ts.peek() == ":":
        ts.pos += 1
        return _parse_type(ts, allow_o)
    return None


def _parse_term(ts: TokenStream) -> Term:
    """One term, read from ts up to the first token that cannot continue it.

    The grammar is recursive, but the reader is one loop over an explicit
    stack of pending frames, so no depth of nesting exhausts the Python
    stack. A frame is a tuple whose head says what it waits for:

      (PApp, t) / (QApp, q)   the right operand of `t ;` or `q !`
      _OPEN                   a term, then `)`
      _FST / (Pair, p)        a pair's first component, then `,`; its second,
                              then `>`
      (cls, *header)          a binder's body, a term, after its `.`

    An operand's opening tokens push frames until an atom is read; then the
    finished operand closes the frames that were waiting for it. A term
    always starts with an operand, which may take one `;` or `!` and a
    right operand, as its sort allows. The terms built, the error messages
    and the order in which errors are found are those of a recursive
    descent reader.
    """
    stack = []
    while True:
        # an operand: its opening tokens push frames, up to the first atom
        tok = ts.next()
        if tok == "(":
            stack.append(_OPEN)
            continue
        if tok == "<":
            stack.append(_FST)
            continue
        if tok == "%":
            if ts.next() != "k":
                raise ParseError("jump binder must bind k")
            stack.append((QLam, _parse_opt_ann(ts)))
            ts.expect(".")
            continue
        if tok == "\\":
            nxt = ts.peek()
            if nxt == "(":
                ts.pos += 1
                x = _parse_ident(ts)
                xty = _parse_opt_ann(ts)
                ts.expect(",")
                if ts.next() != "k":
                    raise ParseError("second component of a pair binder must be k")
                kty = _parse_opt_ann(ts)
                ts.expect(")")
                stack.append((PairLam, x, xty, kty))
            elif nxt == "k":
                ts.pos += 1
                stack.append((KLam, _parse_opt_ann(ts)))
            else:
                x = _parse_ident(ts)
                stack.append((XLam, x, _parse_opt_ann(ts)))
            ts.expect(".")
            continue
        if tok == "*":
            term = STAR
        elif tok == "k":
            term = K
        elif _IDENT_RE.match(tok) and tok not in RESERVED:
            term = PVar(tok)
        else:
            raise ParseError(f"unexpected token {tok!r}")
        while True:
            # term is a finished operand: the right one of `;` or `!`, or
            # the first one of a term
            if stack and stack[-1][0] in _RIGHT:
                cls, left = stack.pop()
                term = cls(left, _expected(term, *_RIGHT[cls]))
            nxt = ts.peek()
            sort = _SORT[type(term)]
            if (nxt == ";" and sort == "t") or (nxt == "!" and sort == "q"):
                ts.pos += 1
                stack.append((PApp if nxt == ";" else QApp, term))
                break
            # term is a finished term
            if not stack:
                return term
            frame = stack.pop()
            if frame is _OPEN:
                ts.expect(")")
            elif frame is _FST:
                _expected(term, "p", "first pair component")
                ts.expect(",")
                stack.append((Pair, term))
                break
            elif frame[0] is Pair:
                _expected(term, "t", "second pair component")
                ts.expect(">")
                term = Pair(frame[1], term)
            elif sort != "e":
                raise ParseError("binder body must be a computation")
            else:
                term = frame[0](*frame[1:], term)


def parse_pterm(text: str) -> PTerm:
    return _sorted_parse(text, "p")


def parse_tterm(text: str) -> TTerm:
    return _sorted_parse(text, "t")


def parse_qterm(text: str) -> QTerm:
    return _sorted_parse(text, "q")


def parse_eterm(text: str) -> ETerm:
    return _sorted_parse(text, "e")


def _sorted_parse(text: str, sort: str):
    term = parse_term(text)
    if sort_of(term) != sort:
        raise ParseError(f"expected a {sort}-term, parsed a {sort_of(term)}-term")
    return term
