"""Type inference for the calculus and for hole-extended lambda terms.

A judgment for a program or jump subject carries a plain environment; test
and computation subjects additionally carry exactly one anchor, which types
the spine test position and is either k:tA or *:tA. Inference is syntax
directed: each constructor matches exactly one rule, so checking a judgment
means inferring and comparing.

Environments bind program variables only, all at role p. A written judgment
context rejects a name declared twice, at parse time; inside a term, inference
lets an inner binder shadow an outer one of the same name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import syntax
from .errors import (
    AnchorMismatch,
    DuplicateVariable,
    HoleTypeClash,
    MissingAnnotation,
    ParseError,
    PtqError,
    RoleMismatch,
    TypeClash,
    UnboundVariable,
    UncurriedNeedsPairs,
)
from .lam import App, Hole, Lam, LamTerm, Var, _is_var, _parse_lam, lam_str
from .syntax import (
    Arrow,
    Base,
    ETerm,
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
    TokenStream,
    Type,
    XLam,
    _parse_term,
    _parse_type,
    _TYNAME_RE,
    sort_of,
    term_str,
    tokenize,
    type_str,
)


@dataclass(frozen=True)
class PtqType:
    role: str  # 'p' | 't' | 'q'
    carrier: Type

    def __str__(self) -> str:
        c = type_str(self.carrier)
        if isinstance(self.carrier, Arrow):
            c = f"({c})"
        return f"{self.role}{c}"


@dataclass(frozen=True)
class EMark:
    """The result of checking a computation; computations carry no type."""

    def __str__(self) -> str:
        return "ok"


E_OK = EMark()


@dataclass(frozen=True)
class TypeEnv:
    gamma: tuple[tuple[str, Type], ...] = ()
    anchor: Optional[tuple[str, Type]] = None  # ('k' | 'star', carrier)

    def __post_init__(self):
        if self.anchor is not None and self.anchor[0] not in ("k", "star"):
            raise ValueError(f"anchor kind must be 'k' or 'star', not {self.anchor[0]!r}")

    def extend(self, name: str, ty: Type) -> "TypeEnv":
        """Bind name, shadowing any outer binding of the same name."""
        return TypeEnv(self.gamma + ((name, ty),), self.anchor)

    def with_anchor(self, kind: str, ty: Type) -> "TypeEnv":
        return TypeEnv(self.gamma, (kind, ty))


@dataclass(frozen=True)
class Judgment:
    env: TypeEnv
    subject: Term
    claimed: Optional[PtqType]  # None exactly for computation subjects


def _need(ty: Optional[Type], where: str) -> Type:
    if ty is None:
        raise MissingAnnotation(f"missing annotation on {where}")
    return ty


def _kept(node, ty: Type) -> Type:
    """ty, kept on node (`_Node._type`) if node is closed, as such a node has
    one type everywhere; called once ty is inferred, so a failure keeps nothing."""
    if not node._fv:
        object.__setattr__(node, "_type", ty)  # the dataclasses are frozen
    return ty


# The walks below carry the scope as a dict from program variables to their
# types, extended at each binder by copying, and the anchor as two arguments,
# its kind ('k' or 'star') and its carrier. Each node is dispatched once, on
# its class. An inner binder shadows an outer one of the same name:
# substitution can nest two binders with one name without capture, so
# inference must allow it; declaring a name twice in a written judgment
# context is still rejected, at parse time.


def _infer_p(scope: dict, p) -> Type:
    cls = type(p)
    if cls is PVar:
        try:
            return scope[p.name]
        except KeyError:
            raise UnboundVariable(p.name) from None
    # the class is tested first, so a jump's kept type is never returned here
    if (cls is PairLam or cls is KLam) and p._type is not None:  # see `_kept`
        return p._type
    if cls is PairLam:
        a = _need(p.xty, f"\\({p.x}, k)")
        b = _need(p.kty, f"\\({p.x}, k)")
        _infer_e({**scope, p.x: a}, "k", b, p.body)
        return _kept(p, Arrow(a, b))
    if cls is KLam:
        a = _need(p.kty, "\\k")
        _infer_e(scope, "k", a, p.body)
        return _kept(p, a)
    raise TypeError(f"not a program term: {p!r}")


def _infer_q(scope: dict, q) -> Type:
    if type(q) is not QLam:
        raise TypeError(f"not a jump term: {q!r}")
    if q._type is not None:  # see `_kept`
        return q._type
    a = _need(q.kty, "%k")
    _infer_e(scope, "k", a, q.body)
    return _kept(q, a)


def _infer_t(scope: dict, kind: str, aty: Type, t) -> Type:
    cls = type(t)
    if cls is Pair:
        a = _infer_p(scope, t.fst)
        return Arrow(a, _infer_t(scope, kind, aty, t.snd))
    if cls is XLam:
        a = _need(t.xty, f"\\{t.x}")
        _infer_e({**scope, t.x: a}, kind, aty, t.body)
        return a
    if cls is Star:
        if kind != "star":
            raise AnchorMismatch("term uses * but the anchor is k")
        return aty
    if cls is KVar:
        if kind != "k":
            raise AnchorMismatch("term uses k but the anchor is *")
        return aty
    raise TypeError(f"not a test term: {t!r}")


def _infer_e(scope: dict, kind: str, aty: Type, u: ETerm) -> None:
    cls = type(u)
    if cls is PApp:
        a = _infer_p(scope, u.proof)
        b = _infer_t(scope, kind, aty, u.test)
    elif cls is QApp:
        a = _infer_q(scope, u.fn)
        b = _infer_t(scope, kind, aty, u.test)
    else:
        raise TypeError(f"not a computation: {u!r}")
    if a is not b and a != b:
        raise TypeClash(
            f"{type_str(a)} against {type_str(b)} in {term_str(u)}"
        )


def infer_ptq(env: TypeEnv, subject: Term) -> Union[PtqType, EMark]:
    """Infer the role and type of a subject under env, or raise.

    A closed program or jump node is typed once, however many terms hold it
    (see `_kept`).
    """
    sort = sort_of(subject)
    scope = dict(env.gamma)  # a later binding of a name shadows an earlier one
    if sort in ("p", "q"):
        if env.anchor is not None:
            raise AnchorMismatch(f"a {sort}-judgment carries no anchor")
        infer = _infer_p if sort == "p" else _infer_q
        return PtqType(sort, infer(scope, subject))
    if env.anchor is None:
        raise AnchorMismatch(f"a {sort}-judgment needs an anchor")
    kind, aty = env.anchor
    if sort == "t":
        return PtqType("t", _infer_t(scope, kind, aty, subject))
    _infer_e(scope, kind, aty, subject)
    return E_OK


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    inferred: Optional[Union[PtqType, EMark, Type]] = None
    error: Optional[PtqError] = None

    def __bool__(self) -> bool:
        return self.ok


def check_judgment(j: Judgment) -> CheckResult:
    try:
        got = infer_ptq(j.env, j.subject)
    except PtqError as exc:
        return CheckResult(False, None, exc)
    if isinstance(got, EMark):
        if j.claimed is not None:
            return CheckResult(
                False, got, RoleMismatch("computations carry no type")
            )
        return CheckResult(True, got)
    if j.claimed is None:
        return CheckResult(False, got, RoleMismatch("missing claimed type"))
    if got.role != j.claimed.role:
        return CheckResult(
            False, got, RoleMismatch(f"inferred {got}, claimed {j.claimed}")
        )
    if got.carrier != j.claimed.carrier:
        return CheckResult(
            False, got, TypeClash(f"inferred {got}, claimed {j.claimed}")
        )
    return CheckResult(True, got)


# ---------------------------------------------------------------------------
# hole-extended lambda terms


@dataclass(frozen=True)
class LamEnv:
    vars: tuple[tuple[str, Type], ...] = ()
    hole: Optional[Type] = None


def infer_lambda_box(env: LamEnv, m: LamTerm) -> Type:
    """Simply typed inference; every hole occurrence must share one type."""
    return _infer_lam(dict(env.vars), [env.hole], m)


def _infer_lam(scope: dict, hole: list, m: LamTerm) -> Type:
    """The walk of `infer_lambda_box`, over a scope as `_infer_p`'s; hole is
    the one cell that holds the type all holes share, once one declares it."""
    cls = type(m)
    if cls is Var:
        try:
            return scope[m.name]
        except KeyError:
            raise UnboundVariable(m.name) from None
    if cls is Lam:
        a = _need(m.xty, f"\\{m.x}")
        return Arrow(a, _infer_lam({**scope, m.x: a}, hole, m.body))
    if cls is App:
        fty = _infer_lam(scope, hole, m.fn)
        aty = _infer_lam(scope, hole, m.arg)
        if type(fty) is not Arrow:
            raise TypeClash(f"{type_str(fty)} is not a function type")
        if fty.dom != aty:
            raise TypeClash(f"argument {type_str(aty)} against {type_str(fty.dom)}")
        return fty.cod
    if cls is Hole:
        seen = hole[0]
        want = m.ty if m.ty is not None else seen
        if want is None:
            raise MissingAnnotation("hole type undeclared")
        if seen is not None and want != seen:
            raise HoleTypeClash(f"{type_str(want)} against {type_str(seen)}")
        hole[0] = want
        return want
    raise UncurriedNeedsPairs("pairs have no type translation here")


@dataclass(frozen=True)
class LamJudgment:
    env: LamEnv
    subject: LamTerm
    ty: Type


def check_lambda_judgment(j: LamJudgment) -> CheckResult:
    try:
        got = infer_lambda_box(j.env, j.subject)
    except PtqError as exc:
        return CheckResult(False, None, exc)
    if got != j.ty:
        return CheckResult(
            False, got, TypeClash(f"inferred {type_str(got)}, claimed {type_str(j.ty)}")
        )
    return CheckResult(True, got)


# ---------------------------------------------------------------------------
# judgment text form


def judgment_str(j: Judgment) -> str:
    env = ", ".join(f"{x}:{PtqType('p', ty)}" for x, ty in j.env.gamma)
    parts = [env] if env else []
    if j.env.anchor is not None:
        kind, ty = j.env.anchor
        mark = "k" if kind == "k" else "*"
        parts.append(f"|> {mark}:{PtqType('t', ty)}")
    subject = term_str(j.subject)
    if j.claimed is None:
        parts.append(f"|- {subject}")
    else:
        parts.append(f"|- {subject} : {j.claimed}")
    return " ".join(parts)


def lam_judgment_str(j: LamJudgment) -> str:
    entries = [f"{x}:{type_str(ty)}" for x, ty in j.env.vars]
    if j.env.hole is not None:
        entries.append(f"[]:{type_str(j.env.hole)}")
    env = ", ".join(entries)
    lead = f"{env} " if env else ""
    return f"{lead}|- {lam_str(j.subject)} : {type_str(j.ty)}"


def _parse_ptq_type(ts: TokenStream) -> PtqType:
    tok = ts.next()
    role, rest = tok[0], tok[1:]
    if role not in ("p", "t", "q"):
        raise ParseError(f"expected a role letter p/t/q, got {tok!r}")
    if rest:
        if not _TYNAME_RE.match(rest):
            raise ParseError(f"bad base type {rest!r}")
        return PtqType(role, Base(rest))
    ts.expect("(")
    ty = _parse_type(ts, allow_o=False)
    ts.expect(")")
    return PtqType(role, ty)


def parse_judgment(text: str) -> Judgment:
    """Parse `x:pA, y:p(A->B) |> *:tB |- subject : pA`; anchor and claim optional."""
    ts = TokenStream(tokenize(text))
    gamma: list[tuple[str, Type]] = []
    while ts.peek() not in ("|>", "|-"):
        name = ts.next()
        if name in syntax.RESERVED or not syntax._IDENT_RE.match(name):
            raise ParseError(f"bad environment variable {name!r}")
        ts.expect(":")
        pty = _parse_ptq_type(ts)
        if pty.role != "p":
            raise RoleMismatch("environment bindings carry role p")
        if any(x == name for x, _ in gamma):
            raise DuplicateVariable(f"{name} is already bound")
        gamma.append((name, pty.carrier))
        if ts.peek() == ",":
            ts.next()
    anchor = None
    if ts.peek() == "|>":
        ts.next()
        mark = ts.next()
        if mark not in ("k", "*"):
            raise ParseError(f"anchor must be k or *, got {mark!r}")
        ts.expect(":")
        aty = _parse_ptq_type(ts)
        if aty.role != "t":
            raise RoleMismatch("anchors carry role t")
        anchor = ("k" if mark == "k" else "star", aty.carrier)
    ts.expect("|-")
    subject = _parse_term(ts)
    claimed = None
    if ts.peek() == ":":
        ts.next()
        claimed = _parse_ptq_type(ts)
    ts.end("judgment")
    if claimed is None and sort_of(subject) != "e":
        raise ParseError("missing claimed type")
    if claimed is not None and sort_of(subject) == "e":
        raise RoleMismatch("computations carry no type")
    return Judgment(TypeEnv(tuple(gamma), anchor), subject, claimed)


def parse_lam_judgment(text: str) -> LamJudgment:
    """Parse `x:A, []:B |- M : C` over the hole-extended lambda language."""
    ts = TokenStream(tokenize(text))
    vars_: list[tuple[str, Type]] = []
    hole: Optional[Type] = None
    while ts.peek() != "|-":
        if ts.peek() == "[":
            ts.next()
            ts.expect("]")
            ts.expect(":")
            if hole is not None:
                raise HoleTypeClash("hole type declared twice")
            hole = _parse_type(ts, allow_o=True)
        else:
            name = ts.next()
            if not _is_var(name):
                raise ParseError(f"bad environment variable {name!r}")
            ts.expect(":")
            if any(x == name for x, _ in vars_):
                raise DuplicateVariable(f"{name} is already bound")
            vars_.append((name, _parse_type(ts, allow_o=True)))
        if ts.peek() == ",":
            ts.next()
    ts.expect("|-")
    subject = _parse_lam(ts)
    if ts.peek() is None:
        raise ParseError("missing claimed type")
    if ts.peek() != ":":
        ts.end("term")
    ts.next()
    ty = _parse_type(ts, allow_o=True)
    ts.end("judgment")
    return LamJudgment(LamEnv(tuple(vars_), hole), subject, ty)
