"""The printer: exact text against a recursive reference, shared subterms
formatted once per memo, and nesting deeper than the Python stack."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import ptq.syntax
from ptq import (
    App,
    Arrow,
    Base,
    Hole,
    KLam,
    Lam,
    Pair,
    PairLam,
    PApp,
    PairPatLam,
    PairTerm,
    PVar,
    QApp,
    QLam,
    STAR,
    Strategy,
    Var,
    XLam,
    KVar,
    Star,
    lam_str,
    normalize,
    parse_lam,
    parse_type,
    ptq_translate_e,
    term_str,
    trace_to_json,
    type_str,
)
from test_syntax_properties import CLOSED_E, CLOSED_T, DEEP_E, NAMES, OPEN_T, P


def reference_str(term, top=True):
    """The recursive printer `term_str` replaced; it formats every node of
    every term it is given and recurses once per level of nesting."""
    ann = ptq.syntax._ann
    match term:
        case PVar(name):
            return name
        case PairLam(x, xty, kty, body):
            s = f"\\({ann(x, xty)}, {ann('k', kty)}). {reference_str(body)}"
        case KLam(kty, body):
            s = f"\\{ann('k', kty)}. {reference_str(body)}"
        case Star():
            return "*"
        case KVar():
            return "k"
        case Pair(fst, snd):
            return f"<{reference_str(fst, False)}, {reference_str(snd, False)}>"
        case XLam(x, xty, body):
            s = f"\\{ann(x, xty)}. {reference_str(body)}"
        case QLam(kty, body):
            s = f"%{ann('k', kty)}. {reference_str(body)}"
        case PApp(test, proof):
            return f"{reference_str(test, False)} ; {reference_str(proof, False)}"
        case QApp(fn, test):
            return f"({reference_str(fn)}) ! {reference_str(test, False)}"
        case _:
            raise TypeError(f"not a term: {term!r}")
    return s if top else f"({s})"


@pytest.mark.parametrize("terms", [CLOSED_T, OPEN_T, CLOSED_E, DEEP_E, P],
                         ids=["closed_t", "open_t", "closed_e", "deep_e", "p"])
def test_same_text_as_reference(terms):
    @settings(max_examples=200, derandomize=True)
    @given(terms)
    def check(term):
        assert term_str(term) == reference_str(term)

    check()


@pytest.mark.parametrize("strategy", list(Strategy))
def test_trace_states_same_text_as_reference(corpus, strategy):
    for m, _, _, _ in corpus:
        trace = normalize(ptq_translate_e(m, strategy)).trace
        doc = trace_to_json(trace)
        assert doc["initial"] == reference_str(trace.initial)
        assert [s["term"] for s in doc["steps"]] == [
            reference_str(s.term) for s in trace.steps
        ]


def church_image(n, strategy):
    body = "f (" * n + "x" + ")" * n
    m = parse_lam(rf"(\f:A->A. \x:A. {body}) (\y:A. y) z")
    return ptq_translate_e(m, strategy, {"z": parse_type("A")})


def distinct_nodes(terms):
    """The ids of the nodes reachable from `terms`, each counted once."""
    seen = set()
    todo = list(terms)
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            if isinstance(child, ptq.syntax._Node):
                todo.append(child)
    return seen


def test_trace_formats_each_distinct_node_once(monkeypatch):
    trace = normalize(church_image(20, Strategy.CBV)).trace
    calls = []

    def counting(fmt):
        def wrapped(term, memo):
            calls.append(id(term))
            return fmt(term, memo)

        return wrapped

    for cls, fmt in list(ptq.syntax._FORMAT.items()):
        monkeypatch.setitem(ptq.syntax._FORMAT, cls, counting(fmt))
    doc = trace_to_json(trace)
    distinct = distinct_nodes(trace.terms())
    # printed in full, the states hold more than 30 times as many nodes
    assert len(calls) == len(set(calls)) == len(distinct) < 1000
    assert doc["steps"][-1]["term"] == term_str(trace.final)


def test_nesting_deeper_than_the_stack():
    n = 5000
    term = STAR
    for _ in range(n):
        term = XLam("x", None, PApp(Pair(PVar("x"), term), PVar("x")))
    text = "\\x. <x, (" * (n - 1) + "\\x. <x, *> ; x" + ")> ; x" * (n - 1)
    assert term_str(term) == text


def test_memo_entries_are_top_level_text():
    lam = KLam(None, PApp(STAR, PVar("y")))
    u = PApp(Pair(lam, STAR), lam)
    memo = {}
    assert term_str(u, memo) == r"<(\k. * ; y), *> ; (\k. * ; y)"
    assert memo[id(lam)] == r"\k. * ; y"
    assert term_str(lam, memo) == r"\k. * ; y"


def test_not_a_term():
    with pytest.raises(TypeError):
        term_str(PApp(STAR, "y"))


# ---------------------------------------------------------------------------
# lambda terms


def reference_lam_str(m):
    """The recursive printer `lam_str` replaced; it recurses once per level
    of nesting."""
    match m:
        case Var(name):
            return name
        case Lam(x, xty, body):
            ann = f"{x}:{type_str(xty)}" if xty is not None else x
            return f"\\{ann}. {reference_lam_str(body)}"
        case App(fn, arg):
            f = reference_lam_str(fn)
            if isinstance(fn, (Lam, PairPatLam)):
                f = f"({f})"
            a = reference_lam_str(arg)
            if isinstance(arg, (App, Lam, PairPatLam)):
                a = f"({a})"
            return f"{f} {a}"
        case Hole(ty):
            return "[]" if ty is None else f"([]:{type_str(ty)})"
        case PairTerm(fst, snd):
            return f"({reference_lam_str(fst)}, {reference_lam_str(snd)})"
        case PairPatLam(x, h, body):
            return f"\\({x}, {h}). {reference_lam_str(body)}"
    raise TypeError(f"not a lambda term: {m!r}")


A, B = Base("A"), Base("B")
TYPES = st.sampled_from([None, A, Arrow(A, B), Arrow(Arrow(A, B), A)])


def annotated_lamterms(depth):
    leaf = st.one_of(NAMES.map(Var), TYPES.map(Hole))
    if depth <= 0:
        return leaf
    sub = annotated_lamterms(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Lam, NAMES, TYPES, sub),
        st.builds(App, sub, sub),
        st.builds(PairTerm, sub, sub),
        st.builds(PairPatLam, NAMES, NAMES, sub),
    )


@settings(max_examples=500, derandomize=True)
@given(annotated_lamterms(5))
def test_lam_str_same_text_as_reference(m):
    assert lam_str(m) == reference_lam_str(m)


def test_lam_str_nesting_deeper_than_the_stack():
    n = 10_000
    m = Var("x")
    for _ in range(n):
        m = Lam("x", None, App(Var("x"), m))
    assert lam_str(m) == "\\x. x (" * (n - 1) + "\\x. x x" + ")" * (n - 1)


def test_lam_str_not_a_lambda_term():
    with pytest.raises(TypeError):
        lam_str(App(Var("x"), "y"))
