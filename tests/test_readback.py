"""Projection onto lambda terms with a hole."""

import importlib
import sys

import pytest

from ptq import (
    App,
    HOLE,
    Hole,
    IllTyped,
    KLam,
    NotTClosed,
    PApp,
    Pair,
    PairLam,
    PVar,
    QApp,
    QLam,
    STAR,
    Strategy,
    XLam,
    hole_compose,
    identity,
    lam_alpha_eq,
    lam_str,
    measure,
    normalize,
    o,
    parse_judgment,
    parse_lam,
    parse_term,
    parse_type,
    readback,
    readback_judgment,
    spine,
    t_close,
    term_str,
)
from ptq.harness import PropertyReport, gen_typed_term, run_checked
from ptq.syntax import _CHILDREN
from ptq.translate import ptq_translate, ptq_translate_e
from ptq.typecheck import E_OK, TypeEnv, infer_ptq, lam_judgment_str

# the module, which `ptq.readback` is not: the package binds that name to the
# function
readback_module = importlib.import_module("ptq.readback")
A = parse_type("A")


def rb(s):
    return readback(parse_term(s))


def L(s):
    return parse_lam(s)


class TestEquations:
    CASES = [
        ("*", "[]"),
        ("x", "x"),
        ("<y, *>", "[] y"),
        # the outer pair component is consumed first: plug M to get (M y) z
        ("<y, <z, *>>", "([] y) z"),
        (r"\(x:A, k:A). k ; x", r"\x:A. x"),
        (r"\k:B. <y, k> ; x", "x y"),
        (r"\x:A. * ; x", "[]"),
        (r"\x:A. * ; y", "y"),
        ("%k:A. k ; x", "x"),
        ("* ; x", "x"),
        ("<y, *> ; x", "x y"),
        (r"(%k:A. k ; x) ! <y, *>", "x y"),
        (r"<y, *> ; (\(x:A, k:A). (%k:A. k ; x) ! k)", r"(\x:A. x) y"),
    ]

    @pytest.mark.parametrize("text,want", CASES)
    def test_table(self, text, want):
        assert lam_alpha_eq(rb(text), L(want))

    def test_x_lambda_plugs_hole(self):
        # \x.u reads back to the body with the hole put where x was
        got = rb(r"\x:A. <z, *> ; x")
        assert lam_alpha_eq(got, L("[] z"))

    def test_open_terms_rejected(self):
        # k on the spine of the whole term, under an x-binder or in a pair
        for text in ["k ; x", r"\x:A. k ; x", "<x, k>"]:
            with pytest.raises(NotTClosed):
                readback(parse_term(text))


class TestHoleCompose:
    def test_plug(self):
        got = hole_compose(L("[] y"), L(r"\x. x"))
        assert lam_alpha_eq(got, L(r"(\x. x) y"))

    def test_neutral(self):
        m = L("x ([] y)")
        assert lam_alpha_eq(hole_compose(m, HOLE), m)
        assert lam_alpha_eq(hole_compose(HOLE, m), m)

    def test_associative(self):
        a, b, c = L("[] x"), L("[] y"), L("[] z")
        assert lam_alpha_eq(
            hole_compose(hole_compose(a, b), c), hole_compose(a, hole_compose(b, c))
        )

    def test_capture_avoided(self):
        # the binder must not capture the payload's free y
        outer = L(r"\y. ([] y)")
        got = hole_compose(outer, L("y"))
        assert not lam_alpha_eq(got, L(r"\y. y y"))


class TestReadbackCost:
    """Readback plugs each hole once, on the way down: re-plugging the outer
    image at every pair makes the by-name image of church(n), a spine of n
    pairs, cost quadratically. Counted, not timed."""

    @staticmethod
    def apps_per_step(monkeypatch, n):
        body = "f (" * n + "x" + ")" * n
        m = parse_lam(rf"(\f:A->A. \x:A. {body}) (\y:A. y) z")
        image = ptq_translate_e(m, Strategy.CBN, {"z": parse_type("A")})
        apps = 0
        init = App.__init__

        def counting(self, *args):
            nonlocal apps
            apps += 1
            init(self, *args)

        with monkeypatch.context() as mp:
            mp.setattr(App, "__init__", counting)
            readback(image)
        return apps / n

    def test_apps_per_step_flat(self, monkeypatch):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20000))
        try:
            per_step = [self.apps_per_step(monkeypatch, n) for n in (50, 100, 200)]
        finally:
            sys.setrecursionlimit(limit)
        assert max(per_step) <= 1.25 * per_step[0], per_step


class TestReadbackFacts:
    def test_compose_fact(self, corpus):
        # rbk(t composed over u) = rbk(u) plugged into rbk(t)
        from ptq import star_compose, subst_star

        t = parse_term("<w, *>")
        for text in ["* ; x", "<y, *> ; x", r"(%k:A. k ; x) ! *"]:
            u = parse_term(text)
            lhs = readback(subst_star(u, t))
            rhs = hole_compose(readback(t), readback(u))
            assert lam_alpha_eq(lhs, rhs)

    def test_subst_fact(self):
        # rbk(u[p/x]) = rbk(u)[rbk(p)/x]
        from ptq import lam_subst, subst_pvar

        u = parse_term(r"<x, *> ; x")
        p = parse_term(r"\(z:A, k:A). k ; z")
        lhs = readback(subst_pvar(u, "x", p))
        rhs = lam_subst(readback(u), "x", readback(p))
        assert lam_alpha_eq(lhs, rhs)


class TestSharedNodes:
    """A program or jump node reads back alike wherever it sits, so its image
    is built once and kept on the node; a test or computation node does not,
    so it is read anew under each plug."""

    WANT = r"d a ((\y:A. y) a) (\y:A. y)"

    @staticmethod
    def shared():
        """A term built anew, so no node of it holds an image yet. Y_PROG and
        T each sit in two places: T reads with Y_PROG's image as its plug in
        one place and with d in the other, so its pair and its binder do too;
        Y_PROG sits once under T and once in a pair on the top spine."""
        y_prog = parse_term(r"\(y:A, k:A). k ; y")
        t = parse_term(r"<a, (\x:A. k ; x)>")
        return PApp(
            Pair(KLam(A, PApp(t, y_prog)), Pair(y_prog, STAR)),
            KLam(A, PApp(t, PVar("d"))),
        )

    def test_program_node_shared_under_two_plugs(self):
        shared = self.shared()
        # the text parses back to a copy that shares no node
        assert lam_str(readback(parse_term(term_str(shared)))) == self.WANT
        first = readback(shared)
        assert lam_str(first) == self.WANT
        # the second readback reads the images the first one kept
        y_prog = shared.test.snd.fst
        assert y_prog._image is not None
        assert readback(shared) == first

    @pytest.mark.parametrize("cls", [XLam, Pair])
    def test_memo_of_a_test_node_is_caught(self, monkeypatch, cls):
        # keeping the image of a class whose image depends on its plug must
        # break the test above: the second place of T would get the first
        # one's image. The term is built anew: images kept by an earlier
        # readback would spare T the mutant walk and hide the fault
        rb = readback_module._rb

        def memoised(term, plug):
            if type(term) is not cls:
                return rb(term, plug)
            if term._image is None:
                object.__setattr__(term, "_image", rb(term, plug))
            return term._image

        monkeypatch.setattr(readback_module, "_rb", memoised)
        assert lam_str(readback(self.shared())) != self.WANT


class TestJudgmentReadback:
    def test_frozen_example(self):
        j = parse_judgment("|> * : tB |- * : tB")
        assert lam_judgment_str(readback_judgment(j)) == "[]:B |- [] : B"

    def test_program_subject(self):
        j = parse_judgment("|- \\(x:A, k:A). k ; x : p(A -> A)")
        out = readback_judgment(j)
        assert lam_judgment_str(out) == r"|- \x:A. x : A -> A"

    def test_test_subject(self):
        j = parse_judgment("x:pA |> *:tB |- <x, *> : t(A -> B)")
        out = readback_judgment(j)
        assert lam_judgment_str(out) == "x:A, []:A -> B |- [] x : B"

    def test_computation_subject(self):
        j = parse_judgment("x:pA |> *:tA |- * ; x")
        out = readback_judgment(j)
        assert lam_judgment_str(out) == "x:A |- x : A"

    def test_ill_typed_rejected(self):
        j = parse_judgment("x:pX |- x : pA")
        with pytest.raises(IllTyped):
            readback_judgment(j)


def _bodies(term):
    """Every binder body inside term."""
    stack = [term]
    while stack:
        match stack.pop():
            case PairLam(body=b) | KLam(body=b) | QLam(body=b) | XLam(body=b):
                yield b
                stack.append(b)
            case Pair(fst, snd):
                stack += [fst, snd]
            case PApp(test, proof):
                stack += [test, proof]
            case QApp(fn, test):
                stack += [fn, test]


class TestOpenBodies:
    def test_bound_k_reads_as_the_closed_body(self):
        # reading a body's bound k as its hole agrees with closing the body
        # by t_close first, for readback and for the measure; the jump form
        # also feeds the measure a function other than the identity
        odd = lambda n: 2 * n + 1  # noqa: E731
        seen = set()
        for size in range(9):
            for seed in range(24):
                m, _ = gen_typed_term(size, 3000 + seed)
                for strategy in (Strategy.CBN, Strategy.CBV):
                    run = normalize(ptq_translate_e(m, strategy))
                    for u in run.trace.terms():
                        seen.update(b for b in _bodies(u) if spine(b) == "k")
        assert len(seen) > 500
        for b in seen:
            closed = t_close(b)
            assert lam_alpha_eq(readback(KLam(None, b)), readback(closed))
            assert measure(KLam(None, b), o) == measure(closed, o)(identity)
            assert measure(QLam(None, b), o)(odd) == measure(closed, o)(odd)


def free_occurrences(u, x):
    """How often the program variable x occurs free in u."""
    count, stack = 0, [u]
    while stack:
        t = stack.pop()
        if isinstance(t, PVar):
            count += t.name == x
        elif not (isinstance(t, (PairLam, XLam)) and t.x == x):
            stack.extend(_CHILDREN[type(t)](t))
    return count


class TestBetaStepCondition:
    """A Beta step is exactly one beta step on readbacks when every test
    binder \\x:A. u binds x exactly once: the readback puts the filler at
    each occurrence of x, so a redex in the filler is copied as often."""

    def test_translation_images_bind_test_variables_once(self, corpus):
        binders = 0
        for m, _, _, _ in corpus:
            for strategy in (Strategy.CBN, Strategy.CBV):
                for image in (ptq_translate(m, strategy), ptq_translate_e(m, strategy)):
                    stack = [image]
                    while stack:
                        t = stack.pop()
                        if isinstance(t, XLam):
                            assert free_occurrences(t.body, t.x) == 1, term_str(t)
                            binders += 1
                        stack.extend(_CHILDREN[type(t)](t))
        assert binders == 540

    def test_binder_without_its_variable_breaks_the_law(self):
        # \y:X -> X binds nothing, so the Beta redex that the filler holds
        # vanishes from the readback: zero beta steps, not one
        u = parse_term(
            r"<\(z:X, k:X). k ; z, \y:X -> X. * ; \(z:X, k:X). k ; z>"
            r" ; \(x:X -> X, k:X -> X). k ; x"
        )
        anchor = parse_type("X -> X")
        assert infer_ptq(TypeEnv((), ("star", anchor)), u) is E_OK
        report = PropertyReport("completeness", -1, -1, "", True)
        run_checked(u, anchor, report)
        assert report.kinds == ["rb-soundness"]
        assert report.failures == [
            r"Beta step is not one beta step on readbacks: \z:X. z to \z:X. z"
        ]
