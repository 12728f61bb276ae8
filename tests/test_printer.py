"""The printer: exact text against a recursive reference, shared subterms
formatted once per memo, and nesting deeper than the Python stack."""

import dataclasses
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import ptq.machine
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
    RuleTag,
    STAR,
    Strategy,
    Trace,
    TraceStep,
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
    """The nodes reachable from `terms` by id, each counted once."""
    seen = {}
    todo = list(terms)
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            if isinstance(child, ptq.syntax._Node):
                todo.append(child)
    return seen


def annotation_types(nodes):
    """The ids of the distinct type objects that annotate binders among
    `nodes`."""
    return {
        id(ty)
        for node in nodes
        for ty in (getattr(node, "xty", None), getattr(node, "kty", None))
        if ty is not None
    }


class CountingMemo(dict):
    """A `term_str` memo that records the key of every store, in order."""

    def __init__(self):
        super().__init__()
        self.stores = []

    def __setitem__(self, key, value):
        self.stores.append(key)
        super().__setitem__(key, value)


def count_stores(monkeypatch):
    """The keys stored from now on in the memo of `ptq.machine`'s printing:
    one `CountingMemo` stands in for the memo of every `term_str` call made
    there, which is one memo per trace printed."""
    memo = CountingMemo()
    real = ptq.syntax.term_str
    monkeypatch.setattr(ptq.machine, "term_str", lambda term, _, **kw: real(term, memo, **kw))
    return memo.stores


def assert_each_formatted_once(stores, trace):
    """Each distinct node of the trace, and each distinct type annotating
    one, was stored once, and nothing else was."""
    nodes = distinct_nodes(trace.terms())
    formats = [key for key in stores if key in nodes]
    types = [key for key in stores if key not in nodes]
    assert len(formats) == len(set(formats)) == len(nodes)
    assert len(types) == len(set(types)) > 0
    assert set(types) == annotation_types(nodes.values())
    return formats


def test_trace_formats_each_distinct_node_once(monkeypatch):
    trace = normalize(church_image(20, Strategy.CBV)).trace
    stores = count_stores(monkeypatch)
    doc = trace_to_json(trace)
    # printed in full, the states hold more than 30 times as many nodes
    assert len(assert_each_formatted_once(stores, trace)) < 1000
    assert doc["steps"][-1]["term"] == term_str(trace.final)


def test_json_writer_escapes_each_distinct_node_once(monkeypatch):
    trace = normalize(church_image(20, Strategy.CBV)).trace
    stores = count_stores(monkeypatch)
    ptq.machine._write_trace_json(trace, io.StringIO())
    assert_each_formatted_once(stores, trace)


def test_subterm_shared_with_a_sibling_formatted_once():
    # the proof holds the test, so the test is pushed twice before it is
    # formatted
    test = Pair(PVar("y"), STAR)
    u = PApp(test, KLam(None, PApp(test, PVar("z"))))
    memo = CountingMemo()
    assert term_str(u, memo) == r"<y, *> ; (\k. <y, *> ; z)"
    assert len(memo.stores) == len(set(memo.stores)) == len(distinct_nodes([u]))


def test_canonical_text_digest(corpus):
    """The text of every state of the corpus runs and of church(0..30), in
    both strategies, is the text the printer gave before its format table
    became shared with the JSON printer."""
    digest = hashlib.sha256()
    for strategy in Strategy:
        for m, _, _, _ in corpus:
            for u in normalize(ptq_translate_e(m, strategy)).trace.terms():
                digest.update(term_str(u).encode() + b"\n")
        for n in range(31):
            digest.update(term_str(church_image(n, strategy)).encode() + b"\n")
    assert digest.hexdigest() == (
        "6357dc2b8ee1e0b6a8a98e1683d59b25f31b7ca295b37177c10c3e346894375c"
    )


def test_json_text_of_hand_built_traces():
    # names and base types that JSON must escape: a quote, a backslash, a
    # control character, a non-ASCII letter and a character outside the BMP
    a, b, c, e, s = 'q"', "b\\", "c\x01", "\u00e9", "\U0001F600"
    ty = Arrow(Base(a), Base(e))
    u = PApp(
        Pair(PVar(a), STAR),
        PairLam(b, ty, Base(s), PApp(XLam(c, Base(b), PApp(KVar(), PVar(c))), PVar(b))),
    )
    run = normalize(u).trace
    assert len(run.steps) == 2
    jump = QLam(ty, PApp(KVar(), KLam(Base(c), PApp(STAR, PVar(s)))))
    odd = Trace(QApp(jump, Pair(PVar(e), STAR)), (TraceStep(RuleTag.QAPP, u),), False)
    empty = Trace(PApp(STAR, PVar(s)), (), True)
    for trace in (run, odd, empty):
        out = io.StringIO()
        ptq.machine._write_trace_json(trace, out)
        text = out.getvalue()
        assert text == json.dumps(trace_to_json(trace), indent=2)
        assert text.isascii() and json.loads(text) == trace_to_json(trace)


@pytest.mark.parametrize("terms", [CLOSED_T, OPEN_T, CLOSED_E, DEEP_E, P],
                         ids=["closed_t", "open_t", "closed_e", "deep_e", "p"])
def test_json_table_is_escaped_canonical_text(terms):
    @settings(max_examples=100, derandomize=True)
    @given(terms)
    def check(term):
        escaped = term_str(term, _format=ptq.syntax._JSON_FORMAT)
        assert escaped == json.dumps(term_str(term))[1:-1]

    check()


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
        lam_str(App(Var("x"), "y"))  # raised by App, which takes no str child
    # so only the root can be a stray str; a calculus node has free names,
    # so App takes it, and the walk rejects it
    for m in ("y", None, PVar("x"), App(Var("f"), PVar("x"))):
        bad = m.arg if isinstance(m, App) else m
        with pytest.raises(TypeError) as exc:
            lam_str(m)
        assert str(exc.value) == f"not a lambda term: {bad!r}"
