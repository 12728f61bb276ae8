"""By-name, by-value, and CPS translations."""

from collections import Counter

import pytest

from ptq import (
    Arrow,
    Base,
    EvalOrder,
    LamEnv,
    Pairing,
    PtqType,
    ReservedBaseType,
    Strategy,
    TypeEnv,
    alpha_eq,
    aux_translate,
    bracket_list,
    infer_lambda_box,
    infer_ptq,
    is_value,
    lam_alpha_eq,
    lam_str,
    parse_lam,
    parse_term,
    parse_type,
    plotkin_translate,
    ptq_translate,
    ptq_translate_e,
    readback,
    term_str,
    translate_type,
)
from ptq import lam, syntax
from ptq.errors import PtqError
from ptq.lam import App, Lam, Var
from ptq.syntax import PairLam
from ptq.translate import _translate

A, B, X = Base("A"), Base("B"), Base("X")
CBN, CBV = Strategy.CBN, Strategy.CBV


def L(s):
    return parse_lam(s)


def T(s):
    return parse_term(s)


class TestByName:
    def test_variable(self):
        assert alpha_eq(ptq_translate(L("x"), CBN, {"x": A}), T("x"))

    def test_lambda(self):
        got = ptq_translate(L(r"\x:A. x"), CBN)
        assert alpha_eq(got, T(r"\(x:A, k:A). k ; x"))

    def test_application(self):
        env = {"x": parse_type("A -> B"), "y": A}
        got = ptq_translate(L("x y"), CBN, env)
        assert alpha_eq(got, T(r"\k:B. <y, k> ; x"))

    def test_nested(self):
        env = {"f": parse_type("A -> A -> B"), "a": A}
        got = ptq_translate(L("f a a"), CBN, env)
        assert alpha_eq(got, T(r"\k:B. <a, k> ; (\k:A -> B. <a, k> ; f)"))

    def test_typing(self, corpus):
        for m, ty, _, _ in corpus[:60]:
            got = infer_ptq(TypeEnv(), ptq_translate(m, CBN))
            assert got == PtqType("p", ty)


class TestByValue:
    def test_variable(self):
        got = ptq_translate(L("x"), CBV, {"x": A})
        assert alpha_eq(got, T("%k:A. k ; x"))

    def test_lambda(self):
        got = ptq_translate(L(r"\x:A. x"), CBV)
        assert alpha_eq(got, T(r"%k:A -> A. k ; (\(x:A, k:A). (%k:A. k ; x) ! k)"))

    def test_application(self):
        env = {"x": parse_type("A -> B"), "y": A}
        got = ptq_translate(L("x y"), CBV, env)
        want = T(r"%k:B. (%k:A. k ; y) ! (\z:A. (%k:A -> B. k ; x) ! <z, k>)")
        assert alpha_eq(got, want)

    def test_typing(self, corpus):
        for m, ty, _, _ in corpus[:60]:
            got = infer_ptq(TypeEnv(), ptq_translate(m, CBV))
            assert got == PtqType("q", ty)

    def test_value_shape(self, corpus):
        # on a value, the by-value translation is the jump that feeds the
        # auxiliary image straight to the continuation
        from ptq.syntax import KVar, PApp, QLam

        for m, ty, _, _ in corpus[:60]:
            if not is_value(m):
                continue
            q = ptq_translate(m, CBV)
            assert isinstance(q, QLam)
            assert isinstance(q.body, PApp)
            assert alpha_eq(q.body.proof, aux_translate(m, CBV))
            assert isinstance(q.body.test, KVar)

    def test_aux_needs_a_value(self):
        for strat in (CBN, CBV):
            with pytest.raises(TypeError):
                aux_translate(L(r"(\x:A. x) y"), strat, {"y": A})


@pytest.mark.parametrize(
    "text", [r"\k:A. \k:A. k", r"\x:A. \k:A -> A. k x", r"\k_1:A. \k:A. k_1"]
)
def test_bound_k_is_renamed_apart(text):
    # k is the calculus's test variable, so a source binder named k is
    # renamed; every image still reads back to the source
    m = L(text)
    for strat in (CBN, CBV):
        images = (ptq_translate(m, strat), ptq_translate_e(m, strat), aux_translate(m, strat))
        for image in images:
            assert "k_" in term_str(image)
            assert lam_alpha_eq(readback(image), m)


class TestETranslations:
    def test_value_forms(self):
        env = {"y": A}
        assert alpha_eq(ptq_translate_e(L("y"), CBN, env), T("* ; y"))
        got = ptq_translate_e(L("y"), CBV, env)
        assert alpha_eq(got, T("* ; y"))

    def test_cbn_application(self):
        env = {"x": parse_type("A -> B"), "y": A}
        got = ptq_translate_e(L("x y"), CBN, env)
        assert alpha_eq(got, T("<y, *> ; x"))

    def test_cbv_application_of_value(self):
        env = {"y": A}
        got = ptq_translate_e(L(r"(\x:A. x) y"), CBV, env)
        assert alpha_eq(got, T(r"<y, *> ; (\(x:A, k:A). (%k:A. k ; x) ! k)"))

    def test_cbv_non_value_argument(self):
        # the inner application evaluates first, under a test waiting for it
        env = {"f": parse_type("A -> A"), "y": A}
        got = ptq_translate_e(L(r"f (f y)"), CBV, env)
        assert lam_alpha_eq(readback(got), L(r"f (f y)"))
        inner = ptq_translate_e(L("f y"), CBV, env)
        assert lam_alpha_eq(readback(inner), L("f y"))

    def test_control_normal(self, corpus):
        from ptq import classify, RuleTag

        for m, _, _, _ in corpus[:80]:
            for strat in (CBN, CBV):
                u = ptq_translate_e(m, strat)
                assert classify(u) in (None, RuleTag.BETA)

    def test_readback_identity(self, corpus):
        for m, _, _, _ in corpus[:80]:
            for strat in (CBN, CBV):
                assert lam_alpha_eq(readback(ptq_translate(m, strat)), m)
                assert lam_alpha_eq(readback(ptq_translate_e(m, strat)), m)


class TestBracketList:
    def test_empty(self):
        assert alpha_eq(bracket_list([]), T("*"))

    def test_nesting(self):
        got = bracket_list([T("x"), T("y"), T("z")])
        assert alpha_eq(got, T("<x, <y, <z, *>>>"))


class TestSubstitutionFact:
    def test_cbn(self):
        # cbn(M[N/x]) = cbn(M)[cbn(N)/x]
        from ptq import lam_subst, subst_pvar

        env = {"y": A}
        M = L(r"\w:A. x")
        N = L("y")
        lhs = ptq_translate(lam_subst(M, "x", N), CBN, env)
        rhs = subst_pvar(ptq_translate(M, CBN, {"x": A, "y": A}), "x", ptq_translate(N, CBN, env))
        assert alpha_eq(lhs, rhs)

    def test_cbv_uses_aux_image(self):
        # cbv(M[V/x]) = cbv(M)[auxcbv(V)/x], values only
        from ptq import lam_subst, subst_pvar

        env = {"y": A}
        M = L(r"\w:A. x")
        V = L(r"\z:A. z")
        lhs = ptq_translate(lam_subst(M, "x", V), CBV, env)
        rhs = subst_pvar(
            ptq_translate(M, CBV, {"x": Arrow(A, A), "y": A}),
            "x",
            aux_translate(V, CBV),
        )
        assert alpha_eq(lhs, rhs)


class TestTypeTranslations:
    def test_cbn_types(self):
        # X* = (X -> o) -> o; (A -> B)* = ((A* -> B*) -> o) -> o
        o = Base("o")
        assert translate_type(X, CBN) == Arrow(Arrow(X, o), o)
        ab = translate_type(Arrow(A, B), CBN)
        a_star, b_star = translate_type(A, CBN), translate_type(B, CBN)
        assert ab == Arrow(Arrow(Arrow(a_star, b_star), o), o)

    def test_cbv_types(self):
        # X° = X; (A -> B)° = A° -> B*; T* = (T° -> o) -> o
        o = Base("o")
        assert translate_type(X, CBV, "circ") == X
        ab = translate_type(Arrow(A, B), CBV, "circ")
        assert ab == Arrow(A, Arrow(Arrow(B, o), o))

    def test_source_with_o_rejected(self):
        with pytest.raises(ReservedBaseType):
            translate_type(Arrow(Base("o"), X), CBN)


class TestStrategyValues:
    """A strategy or order given by its value is its enum member; any other
    value is refused, not read as by value."""

    ENV = {"f": parse_type("X -> X"), "g": parse_type("X -> X"), "y": X}
    CALLS = [
        lambda s: ptq_translate(L("f (g y)"), s, TestStrategyValues.ENV),
        lambda s: ptq_translate_e(L("f (g y)"), s, TestStrategyValues.ENV),
        lambda s: aux_translate(L(r"\x:X. f x"), s, TestStrategyValues.ENV),
        lambda s: plotkin_translate(L("f (g y)"), s, env=TestStrategyValues.ENV),
        lambda s: translate_type(Arrow(X, X), s, "circ"),
    ]

    @pytest.mark.parametrize("call", CALLS)
    def test_strategy_value_is_member(self, call):
        assert call("cbn") == call(CBN) != call(CBV)
        assert call("cbv") == call(CBV)

    @pytest.mark.parametrize("call", CALLS)
    def test_unknown_strategy_raises(self, call):
        with pytest.raises(ValueError):
            call("bogus")

    def test_order_value_is_member(self):
        m = L("f (g y)")
        fn_first = plotkin_translate(m, CBV, "fn-first", env=self.ENV)
        assert fn_first == plotkin_translate(m, CBV, EvalOrder.FUNCTION_FIRST, env=self.ENV)
        assert fn_first != plotkin_translate(m, CBV, "arg-first", env=self.ENV)
        for strategy in (CBN, CBV):
            with pytest.raises(ValueError):
                plotkin_translate(m, strategy, "bogus", env=self.ENV)


class TestPlotkin:
    def test_cbn_shape(self):
        got = plotkin_translate(L("x"), CBN, env={"x": X})
        assert lam_alpha_eq(got, L("x"))

    def test_cbv_var_shape(self):
        got = plotkin_translate(L("x"), CBV, env={"x": X})
        assert lam_alpha_eq(got, L(r"\k:X -> o. k x"))

    def test_typing(self, corpus):
        for m, ty, _, _ in corpus[:60]:
            for strat in (CBN, CBV):
                out = plotkin_translate(m, strat)
                want = translate_type(ty, strat, "star")
                assert infer_lambda_box(LamEnv(), out) == want

    def test_orders_differ(self):
        env = {"f": parse_type("X -> X"), "g": parse_type("X -> X"), "y": X}
        m = L("f (g y)")
        fn_first = plotkin_translate(m, CBV, EvalOrder.FUNCTION_FIRST, env=env)
        arg_first = plotkin_translate(m, CBV, EvalOrder.ARGUMENT_FIRST, env=env)
        assert not lam_alpha_eq(fn_first, arg_first)

    def test_cbn_ignores_order(self):
        env = {"f": parse_type("X -> X"), "y": X}
        m = L("f y")
        a = plotkin_translate(m, CBN, EvalOrder.FUNCTION_FIRST, env=env)
        b = plotkin_translate(m, CBN, EvalOrder.ARGUMENT_FIRST, env=env)
        assert lam_alpha_eq(a, b)

    def test_uncurried_uses_pairs(self):
        got = plotkin_translate(L(r"\x:X. x"), CBN, pairing=Pairing.UNCURRIED)
        assert "(" in lam_str(got) and "," in lam_str(got)

    def test_pairing_is_an_enum_and_strings_still_work(self):
        m = L(r"\x:X. x")
        want = lam_str(plotkin_translate(m, CBN, pairing=Pairing.UNCURRIED))
        assert Pairing("uncurried") is Pairing.UNCURRIED
        assert lam_str(plotkin_translate(m, CBN, pairing="uncurried")) == want
        with pytest.raises(ValueError):
            plotkin_translate(m, CBN, pairing="pairs")


def church(n):
    """(\\f:A->A. \\x:A. f (... (f x))) (\\y:A. y) z with n applications."""
    body = "f (" * n + "x" + ")" * n
    return L(rf"(\f:A->A. \x:A. {body}) (\y:A. y) z")


def annotations(term):
    """The annotations on the binders of a calculus or lambda term, but for
    the argument types of program abstractions, which the calculus images
    copy from their sources."""
    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        table = syntax if type(t) in syntax._BINDS else lam
        binds = table._BINDS[type(t)]
        if binds is not None:
            out += [getattr(t, f) for f in binds[1] if (type(t), f) != (PairLam, "xty")]
        stack.extend(table._CHILDREN[type(t)](t))
    return out


def annotated(term):
    """Every binder of the image carries its annotations."""
    return None not in annotations(term)


def bare(term):
    """No binder of the image carries an annotation the translation made."""
    return all(ty is None for ty in annotations(term))


class TestOnePass:
    """Types come off the translation's own walk, with no inference before
    it, and e-images are built down the spine without recomposing."""

    @pytest.mark.parametrize("strat", [CBN, CBV])
    def test_no_inference_per_translation(self, monkeypatch, strat):
        import sys

        import ptq.typecheck

        calls = []
        real = ptq.typecheck.infer_lambda_box

        def counting(env, m):
            calls.append(m)
            return real(env, m)

        # every binding of the name, wherever a ptq module imported it
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("ptq") and vars(mod).get("infer_lambda_box") is real:
                monkeypatch.setattr(mod, "infer_lambda_box", counting)
        env = {"z": A}
        outs = []
        for n in (10, 50, 100):
            m = church(n)
            outs.append(ptq_translate(m, strat, env))
            outs.append(ptq_translate_e(m, strat, env))
            outs.append(aux_translate(m.fn.fn, strat, env))
            outs.append(plotkin_translate(m, strat, env=env))
        assert calls == []
        # typed walks: every binder of every image is annotated
        assert all(annotated(out) for out in outs)

    def test_deep_numeral_by_name(self):
        from ptq.syntax import PApp

        got = ptq_translate_e(church(400), CBN, {"z": A})
        assert isinstance(got, PApp)
        assert alpha_eq(got.test, T(r"<(\(y:A, k:A). k ; y), <z, *>>"))

    @pytest.mark.parametrize("strat", [CBN, CBV])
    def test_arguments_do_not_rename_the_head(self, strat):
        # the e-image is the term the control steps reach, names and all;
        # the argument's free y does not rename the head's binder y
        from ptq import control_prefix
        from ptq.syntax import PApp, QApp, STAR

        env = {"y": A}
        m = L(r"(\x:A. \y:A. x) y")
        start = ptq_translate(m, strat, env)
        start = PApp(STAR, start) if strat is CBN else QApp(start, STAR)
        got = ptq_translate_e(m, strat, env)
        assert control_prefix(start)[0] == got
        assert r"\(y:A, k:A)" in term_str(got)


# Printed images of sources the root inference rejects: every binder of the
# image is left unannotated. The source `(\x. x) y` lacks an annotation, and
# `(\x:A. x) (\y:B. y)` is annotated but ill typed; aux_translate takes each
# under `\z:A.` so that it is a value.
UNTYPED = {
    r"(\x. x) y": {
        "cbn p": r"\k. <y, k> ; (\(x, k). k ; x)",
        "cbn e": r"<y, *> ; (\(x, k). k ; x)",
        "cbn aux": r"\(z:A, k). k ; (\k. <y, k> ; (\(x, k). k ; x))",
        "cbn curried fn-first": r"\k. (\k1. k1 (\x. x)) (\m. m y k)",
        "cbn curried arg-first": r"\k. (\k1. k1 (\x. x)) (\m. m y k)",
        "cbn uncurried fn-first": r"\k. (\k1. k1 (\(x, h). x h)) (\m. m (y, k))",
        "cbn uncurried arg-first": r"\k. (\k1. k1 (\(x, h). x h)) (\m. m (y, k))",
        "cbv p": r"%k. (%k. k ; y) ! (\x1. (%k. k ; (\(x, k). (%k. k ; x) ! k)) ! <x1, k>)",
        "cbv e": r"<y, *> ; (\(x, k). (%k. k ; x) ! k)",
        "cbv aux": r"\(z:A, k). (%k. (%k. k ; y) ! (\x1. (%k. k ; (\(x, k). (%k. k ; x) ! k)) ! <x1, k>)) ! k",
        "cbv curried fn-first": r"\k. (\k1. k1 (\x. \k2. k2 x)) (\m. (\k3. k3 y) (\n. m n k))",
        "cbv curried arg-first": r"\k. (\k3. k3 y) (\n. (\k1. k1 (\x. \k2. k2 x)) (\m. m n k))",
        "cbv uncurried fn-first": r"\k. (\k1. k1 (\(x, h). (\k2. k2 x) h)) (\m. (\k3. k3 y) (\n. m (n, k)))",
        "cbv uncurried arg-first": r"\k. (\k3. k3 y) (\n. (\k1. k1 (\(x, h). (\k2. k2 x) h)) (\m. m (n, k)))",
    },
    r"(\x:A. x) (\y:B. y)": {
        "cbn p": r"\k. <(\(y:B, k). k ; y), k> ; (\(x:A, k). k ; x)",
        "cbn e": r"<(\(y:B, k). k ; y), *> ; (\(x:A, k). k ; x)",
        "cbn aux": r"\(z:A, k). k ; (\k. <(\(y:B, k). k ; y), k> ; (\(x:A, k). k ; x))",
        "cbn curried fn-first": r"\k. (\k2. k2 (\x. x)) (\m. m (\k1. k1 (\y. y)) k)",
        "cbn curried arg-first": r"\k. (\k2. k2 (\x. x)) (\m. m (\k1. k1 (\y. y)) k)",
        "cbn uncurried fn-first": r"\k. (\k2. k2 (\(x, h1). x h1)) (\m. m (\k1. k1 (\(y, h). y h), k))",
        "cbn uncurried arg-first": r"\k. (\k2. k2 (\(x, h1). x h1)) (\m. m (\k1. k1 (\(y, h). y h), k))",
        "cbv p": r"%k. (%k. k ; (\(y:B, k). (%k. k ; y) ! k)) ! (\x1. (%k. k ; (\(x:A, k). (%k. k ; x) ! k)) ! <x1, k>)",
        "cbv e": r"<(\(y:B, k). (%k. k ; y) ! k), *> ; (\(x:A, k). (%k. k ; x) ! k)",
        "cbv aux": r"\(z:A, k). (%k. (%k. k ; (\(y:B, k). (%k. k ; y) ! k)) ! (\x1. (%k. k ; (\(x:A, k). (%k. k ; x) ! k)) ! <x1, k>)) ! k",
        "cbv curried fn-first": r"\k. (\k1. k1 (\x. \k2. k2 x)) (\m. (\k3. k3 (\y. \k4. k4 y)) (\n. m n k))",
        "cbv curried arg-first": r"\k. (\k3. k3 (\y. \k4. k4 y)) (\n. (\k1. k1 (\x. \k2. k2 x)) (\m. m n k))",
        "cbv uncurried fn-first": r"\k. (\k1. k1 (\(x, h). (\k2. k2 x) h)) (\m. (\k3. k3 (\(y, h1). (\k4. k4 y) h1)) (\n. m (n, k)))",
        "cbv uncurried arg-first": r"\k. (\k3. k3 (\(y, h1). (\k4. k4 y) h1)) (\n. (\k1. k1 (\(x, h). (\k2. k2 x) h)) (\m. m (n, k)))",
    },
}


@pytest.mark.parametrize("source", sorted(UNTYPED))
def test_untyped_sources_print_as_before(source):
    m, env = L(source), {"y": A}
    got = {}
    for strat in (CBN, CBV):
        s = strat.value
        got[f"{s} p"] = term_str(ptq_translate(m, strat, env))
        got[f"{s} e"] = term_str(ptq_translate_e(m, strat, env))
        got[f"{s} aux"] = term_str(aux_translate(L(r"\z:A. " + source), strat, env))
        for pairing in Pairing:
            for order in EvalOrder:
                out = plotkin_translate(m, strat, order, pairing, env)
                got[f"{s} {pairing.value} {order.value}"] = lam_str(out)
    assert got == UNTYPED[source]


# Faults for the reference test: each takes a node of the class it names and
# gives the node that replaces it. Sources are typed under REF_ENV, which
# binds c at a base type, so `c` applied is a non-function head.
REF_ENV = {"c": X}
FAULTS = {
    "dropped annotation": (Lam, lambda t: Lam(t.x, None, t.body)),
    "wrong binder type": (Lam, lambda t: Lam(t.x, Arrow(t.xty, t.xty), t.body)),
    "unbound variable": (Var, lambda t: Var("u")),
    "non-function head": (App, lambda t: App(Var("c"), t.arg)),
}


def spots(m):
    """Every node of m, each with the function that rebuilds m around a
    replacement for it."""
    out = []

    def go(t, rebuild):
        out.append((t, rebuild))
        match t:
            case Lam(x, xty, body):
                go(body, lambda b: rebuild(Lam(x, xty, b)))
            case App(fn, arg):
                go(fn, lambda f: rebuild(App(f, arg)))
                go(arg, lambda a: rebuild(App(fn, a)))

    go(m, lambda t: t)
    return out


def faulty(m, seed):
    """(kind, copy of m with that one fault) per kind that m has a node for;
    seed picks the node."""
    nodes = spots(m)
    for kind, (cls, fault) in FAULTS.items():
        hits = [(t, rebuild) for t, rebuild in nodes if type(t) is cls]
        if hits:
            t, rebuild = hits[seed % len(hits)]
            yield kind, rebuild(fault(t))


class TestReference:
    """The walk's own typing against `infer_lambda_box`, the reference, on
    the conftest corpus and on copies with one fault each."""

    def test_walk_types_as_the_reference(self, corpus):
        seen = Counter()
        sources = [("corpus", m) for m, *_ in corpus]
        sources += [f for m, _, _, seed in corpus for f in faulty(m, seed)]
        for kind, m in sources:
            try:
                want = infer_lambda_box(LamEnv(tuple(REF_ENV.items())), m)
            except PtqError:
                want = None
            seen[kind, want is not None] += 1
            images = []
            for strat in (CBN, CBV):
                for computation in (False, True):
                    image, ty = _translate(m, strat, REF_ENV, computation)
                    assert ty == want, (lam_str(m), strat, computation)
                    images.append(image)
                if is_value(m):
                    images.append(aux_translate(m, strat, REF_ENV))
                for order in EvalOrder:
                    images.append(plotkin_translate(m, strat, order, env=REF_ENV))
            for image in images:
                assert (annotated if want is not None else bare)(image), lam_str(m)
        # the corpus types; every fault is met, and each is rejected
        assert seen["corpus", False] == 0 and seen["corpus", True] == len(corpus)
        for kind in FAULTS:
            assert seen[kind, False] > 0
        assert seen["dropped annotation", True] == seen["unbound variable", True] == 0
        assert seen["non-function head", True] == 0

    def test_retry_numbers_fresh_names_afresh(self):
        # the typed attempt fails at the head c, a base-type variable, after
        # the walk took fresh names; the untyped walk numbers them from 1
        m = L(r"c (\x:A. x) ((\y:A. y) c)")
        assert term_str(ptq_translate(m, CBV, REF_ENV)) == (
            r"%k. (%k. (%k. k ; c) ! (\x3. (%k. k ; (\(y:A, k). (%k. k ; y) ! k)) ! <x3, k>))"
            r" ! (\x1. (%k. (%k. k ; (\(x:A, k). (%k. k ; x) ! k)) ! (\x2. (%k. k ; c) ! <x2, k>))"
            r" ! <x1, k>)"
        )
        assert term_str(ptq_translate_e(m, CBV, REF_ENV)) == (
            r"<c, (\x1. (%k. (%k. k ; (\(x:A, k). (%k. k ; x) ! k)) ! (\x2. (%k. k ; c) ! <x2, k>))"
            r" ! <x1, *>)> ; (\(y:A, k). (%k. k ; y) ! k)"
        )
        assert lam_str(plotkin_translate(m, CBN, env=REF_ENV)) == (
            r"\k. (\k3. c (\m2. m2 (\k4. k4 (\x. x)) k3))"
            r" (\m. m (\k1. (\k2. k2 (\y. y)) (\m1. m1 c k1)) k)"
        )
        assert lam_str(plotkin_translate(m, CBV, env=REF_ENV)) == (
            r"\k. (\k1. (\k2. k2 c) (\m1. (\k3. k3 (\x. \k4. k4 x)) (\n1. m1 n1 k1)))"
            r" (\m. (\k5. (\k6. k6 (\y. \k7. k7 y)) (\m2. (\k8. k8 c) (\n2. m2 n2 k5))) (\n. m n k))"
        )

    def test_unannotated_binder_under_plotkin(self):
        # the annotation is translated only once the binder has one
        m = L(r"(\x. x) y")
        for strat in (CBN, CBV):
            assert bare(plotkin_translate(m, strat, env={"y": A}))
