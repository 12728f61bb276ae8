"""Deterministic lazy reduction of t-closed computations.

A computation contains at most one redex, always at the top, so the machine
is a classifier plus five substitution rules:

  KStar    * ; \\k. u            ->  u[*/k]
  KPair    <p, t> ; \\k. u       ->  u[<p, t>/k]
  Beta     <p, t> ; \\(x, k). u  ->  u[p/x][t/k]
  PSubst   (\\x. u) ; p          ->  u[p/x]
  QApp     (%k. u) ! t           ->  u[t/k]

Beta is the only rule that mirrors a beta step of the lambda calculus after
readback; the other four are control steps and leave the readback unchanged.
A jump application is always a redex. `* ; \\(x, k). u` and `t ; x` are
normal.

Every rule maps t-closed terms to t-closed terms: the payload of a k rule is
the redex's own t-closed test, and the bound k of a body is that body's only
open position. So t-closure is checked once, where a term enters: `classify`
and `step` check the term they are given, and `normalize` and `control_prefix`
check their start term, then share one loop that applies the rules without
walking the spine again.

Each rule calls the substitutions of `syntax` directly. The four k rules
call `_subst_k`, a loop down the body's spine, where its bound k is the only
open position; it never enters a program subterm. Beta and PSubst call the
row of `_SUBST` for the body's class, which enters a subterm only when the
variable is free in it and shares every other subterm with the redex. The
sorts of the payloads hold by the shape of the redex, so no rule checks
them again.

Rules are chosen by identity: `_classify` compares the classes of the redex,
its test and its proof with `is`, and `_contract` compares the tag with the
rules' module names (`QAPP`, ...), the most frequent rule first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .syntax import (
    ETerm,
    KLam,
    Pair,
    PairLam,
    PApp,
    PTerm,
    QApp,
    STAR,
    Star,
    XLam,
    _JSON_FORMAT,
    _SUBST,
    _setattr,
    _require_t_closed,
    _subst_k,
    parse_eterm,
    term_str,
)


class RuleTag(Enum):
    KSTAR = "KStar"
    KPAIR = "KPair"
    BETA = "Beta"
    PSUBST = "PSubst"
    QAPP = "QApp"

    @property
    def rule_class(self) -> str:
        return "beta" if self is BETA else "control"


# the rules as module names, so a test `tag is QAPP` reads no class attribute
KSTAR, KPAIR, BETA, PSUBST, QAPP = RuleTag

DEFAULT_FUEL = 10**6


def classify(u: ETerm) -> Optional[RuleTag]:
    """The redex rule of u, or None when u is normal."""
    _require_t_closed(u)
    return _classify(u)


def _classify(u: ETerm) -> Optional[RuleTag]:
    cls = type(u)
    if cls is QApp:
        return QAPP
    if cls is PApp:
        test, proof = type(u.test), type(u.proof)
        if test is XLam:
            return PSUBST
        if test is Pair:
            return KPAIR if proof is KLam else BETA if proof is PairLam else None
        if test is Star:
            return KSTAR if proof is KLam else None
    raise TypeError(f"not a computation: {u!r}")


def step(u: ETerm) -> Optional[tuple[ETerm, RuleTag]]:
    """One reduction step, or None on a normal form."""
    tag = classify(u)
    return None if tag is None else (_contract(u, tag), tag)


def _contract(u: ETerm, tag: RuleTag) -> ETerm:
    # a k payload is the redex's own test, t-closed because u is; a p payload
    # is a program term by the sort of the redex; QApp runs most often
    if tag is QAPP:
        return _subst_k(u.fn.body, u.test)
    if tag is PSUBST:
        return _subst_x(u.test.body, u.test.x, u.proof)
    if tag is BETA:
        lam: PairLam = u.proof
        return _subst_k(_subst_x(lam.body, lam.x, u.test.fst), u.test.snd)
    if tag is KSTAR:
        return _subst_k(u.proof.body, STAR)
    if tag is KPAIR:
        return _subst_k(u.proof.body, u.test)


def _subst_x(body: ETerm, x: str, payload: PTerm) -> ETerm:
    return _SUBST[type(body)](body, x, payload) if x in body._fv else body


@dataclass(frozen=True, init=False)
class TraceStep:
    rule: RuleTag
    term: ETerm

    def __init__(self, rule: RuleTag, term: ETerm):
        _setattr(self, "rule", rule)
        _setattr(self, "term", term)


@dataclass(frozen=True)
class Trace:
    initial: ETerm
    steps: tuple[TraceStep, ...]
    normal: bool  # False only when fuel ran out

    @property
    def final(self) -> ETerm:
        return self.steps[-1].term if self.steps else self.initial

    def rules(self) -> list[RuleTag]:
        return [s.rule for s in self.steps]

    def terms(self) -> list[ETerm]:
        return [self.initial] + [s.term for s in self.steps]


@dataclass(frozen=True)
class NormalizeResult:
    trace: Trace

    @property
    def exhausted(self) -> bool:
        return not self.trace.normal

    @property
    def final(self) -> ETerm:
        return self.trace.final


def _run(u: ETerm, fuel: int) -> Iterator[tuple[ETerm, Optional[RuleTag]]]:
    """Each state of the run from u with its redex rule, None on the normal
    form. A redex is contracted only when the consumer asks for the next
    state; after `fuel` contractions the run yields its last state and ends."""
    _require_t_closed(u)
    for _ in range(fuel):
        tag = _classify(u)
        yield u, tag
        if tag is None:
            return
        u = _contract(u, tag)
    yield u, _classify(u)


def normalize(u: ETerm, fuel: int = DEFAULT_FUEL) -> NormalizeResult:
    """Reduce to normal form, recording the full trace.

    Well-typed input always terminates, so exhausting the fuel signals a bug
    somewhere; it is reported via the `exhausted` flag rather than raised.
    """
    run = _run(u, fuel)
    _, tag = next(run)
    steps: list[TraceStep] = []
    for after, next_tag in run:
        steps.append(TraceStep(tag, after))
        tag = next_tag
    return NormalizeResult(Trace(u, tuple(steps), tag is None))


def control_prefix(u: ETerm, fuel: int = DEFAULT_FUEL) -> tuple[ETerm, int]:
    """Apply control rules only, stopping at the first Beta redex or normal
    form. Returns the reached term and the number of control steps."""
    for n, (current, tag) in enumerate(_run(u, fuel)):
        if tag is None or tag is BETA or n >= fuel:
            return current, n


# ---------------------------------------------------------------------------
# trace serialization


def trace_to_json(trace: Trace) -> dict:
    """A plain-data rendering of the trace, ready for json.dumps.

    Every state is printed with one `term_str` memo, which lives for this
    call while the trace keeps its terms alive. Consecutive states share
    every subterm a rule leaves untouched, so each distinct node of the run
    is formatted once, not once per state that contains it.

    `ptq reduce --json` prints `json.dumps(trace_to_json(trace), indent=2)`
    without this dict: `_write_trace_json` builds it from the escaped text
    of each distinct node, so a node is escaped once per run, not once per
    state.
    """
    memo: dict[int, str] = {}
    return {
        "initial": term_str(trace.initial, memo),
        "steps": [
            {
                "rule": s.rule.value,
                "class": s.rule.rule_class,
                "term": term_str(s.term, memo),
            }
            for s in trace.steps
        ],
        "normal": trace.normal,
    }


# a step's text up to its term, laid out as json.dumps(..., indent=2) does
_STEP_HEAD = {
    tag: f'\n    {{\n      "rule": "{tag.value}",\n      "class": "{tag.rule_class}",\n      "term": "'
    for tag in RuleTag
}


def _write_trace_json(trace: Trace, out) -> None:
    """Write `json.dumps(trace_to_json(trace), indent=2)` to the text stream
    `out`, byte for byte. Every state is printed JSON-escaped with one
    `term_str` memo, so each distinct node of the run, and each type object
    annotating one, is escaped once; rule names and classes need no
    escaping. The document is built whole before any of it is written, so an
    error writes nothing, and written piece by piece, which spares a copy of
    it."""
    memo: dict[int, str] = {}
    initial = term_str(trace.initial, memo, _format=_JSON_FORMAT)
    parts = ['{\n  "initial": "', initial, '",\n  "steps": [']
    for s in trace.steps:
        term = term_str(s.term, memo, _format=_JSON_FORMAT)
        parts += (_STEP_HEAD[s.rule], term, '"\n    },')
    if trace.steps:
        parts[-1] = '"\n    }\n  ]'
    else:
        parts.append("]")
    parts.append(',\n  "normal": true\n}' if trace.normal else ',\n  "normal": false\n}')
    out.writelines(parts)


def trace_from_json(doc) -> Trace:
    """Rebuild a trace from trace_to_json output (a dict or its JSON text)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    steps = tuple(
        TraceStep(RuleTag(s["rule"]), parse_eterm(s["term"])) for s in doc["steps"]
    )
    return Trace(parse_eterm(doc["initial"]), steps, bool(doc["normal"]))
