"""The five reduction rules, trace bookkeeping, and the replay law."""

import sys

import pytest

import ptq.machine
import ptq.syntax
from ptq import (
    FuelExhausted,
    NotTClosed,
    PApp,
    Pair,
    QApp,
    RuleTag,
    STAR,
    Strategy,
    alpha_eq,
    classify,
    control_prefix,
    normalize,
    parse_lam,
    parse_term,
    parse_type,
    ptq_translate,
    ptq_translate_e,
    star_compose,
    step,
    subst_star,
    term_str,
    XLam,
)


def T(s):
    return parse_term(s)


class TestClassify:
    CASES = [
        (r"* ; \k:A. k ; x", RuleTag.KSTAR),
        (r"<y, *> ; \k:A. k ; x", RuleTag.KPAIR),
        (r"<y, *> ; \(x:A, k:A). k ; x", RuleTag.BETA),
        (r"(\x:A. * ; x) ; y", RuleTag.PSUBST),
        (r"(%k:A. k ; x) ! *", RuleTag.QAPP),
        (r"(%k:A. k ; x) ! <y, *>", RuleTag.QAPP),
        ("* ; x", None),
        ("<y, *> ; x", None),
        (r"* ; \(x:A, k:A). k ; x", None),
    ]

    @pytest.mark.parametrize("text,tag", CASES)
    def test_table(self, text, tag):
        assert classify(T(text)) is tag

    def test_rejects_open_terms(self):
        with pytest.raises(NotTClosed):
            classify(T("k ; x"))
        with pytest.raises(NotTClosed):
            step(T("<y, k> ; x"))

    def test_rule_classes(self):
        assert RuleTag.BETA.rule_class == "beta"
        for tag in (RuleTag.KSTAR, RuleTag.KPAIR, RuleTag.PSUBST, RuleTag.QAPP):
            assert tag.rule_class == "control"


class TestStep:
    def test_kstar(self):
        after, tag = step(T(r"* ; \k:A. k ; x"))
        assert tag is RuleTag.KSTAR and alpha_eq(after, T("* ; x"))

    def test_kpair(self):
        after, tag = step(T(r"<y, *> ; \k:A. k ; x"))
        assert tag is RuleTag.KPAIR and alpha_eq(after, T("<y, *> ; x"))

    def test_beta(self):
        after, tag = step(T(r"<y, *> ; \(x:A, k:A). k ; x"))
        assert tag is RuleTag.BETA and alpha_eq(after, T("* ; y"))

    def test_beta_substitutes_proof_before_test(self):
        # the payload proof lands in the body before k is replaced, so a k
        # inside the payload's own binders is untouched
        u = T(r"<\k:B. k ; z, *> ; \(x:B, k:B). <x, k> ; y")
        after, tag = step(u)
        assert tag is RuleTag.BETA
        assert alpha_eq(after, T(r"<\k:B. k ; z, *> ; y"))

    def test_psubst(self):
        after, tag = step(T(r"(\x:A. * ; x) ; y"))
        assert tag is RuleTag.PSUBST and alpha_eq(after, T("* ; y"))

    def test_qapp(self):
        after, tag = step(T(r"(%k:A. k ; x) ! <y, *>"))
        assert tag is RuleTag.QAPP and alpha_eq(after, T("<y, *> ; x"))

    def test_normal(self):
        assert step(T("* ; x")) is None


class TestNormalize:
    def test_golden_run(self):
        result = normalize(T(r"<y,*> ; \(x:A, k:A). (%k:A. k ; x) ! k"))
        assert not result.exhausted
        assert [s.rule for s in result.trace.steps] == [RuleTag.BETA, RuleTag.QAPP]
        assert alpha_eq(result.trace.final, T("* ; y"))

    def test_fuel(self):
        # no diverging closed e-term is known to us, so exercise fuel with 0
        result = normalize(T(r"* ; \k:A. k ; x"), fuel=0)
        assert result.exhausted and not result.trace.normal

    def test_control_prefix(self):
        u = T(r"* ; \k:A. (k ; \(x:A, k:A). k ; x)")
        stopped, n = control_prefix(u, 100)
        assert n == 1
        assert classify(stopped) in (RuleTag.BETA, None)

    @pytest.mark.parametrize("fuel", [100, 3])
    def test_control_prefix_contracts_control_steps_only(self, monkeypatch, fuel):
        # seven control steps lead to a Beta redex, which is not contracted;
        # with less fuel the prefix stops after `fuel` contractions
        m = parse_lam(r"(\f:A->A. \x:A. f (f x)) (\y:A. y) z")
        u = QApp(ptq_translate(m, Strategy.CBV, {"z": parse_type("A")}), STAR)
        rules = normalize(u).trace.rules()
        contract, calls = ptq.machine._contract, []

        def counted(u, tag):
            calls.append(tag)
            return contract(u, tag)

        monkeypatch.setattr(ptq.machine, "_contract", counted)
        stopped, n = control_prefix(u, fuel)
        assert n == min(7, fuel) == len(calls)
        assert calls == rules[:n] and classify(stopped) is rules[n]
        assert RuleTag.BETA not in calls

    def test_trace_terms(self):
        result = normalize(T(r"* ; \k:A. k ; x"))
        assert [term_str(t) for t in result.trace.terms()] == [
            r"* ; (\k:A. k ; x)",
            "* ; x",
        ]


class TestReplay:
    """Plugging a machine run into a test commutes with reduction: if u steps
    by a rule, then t composed over u steps by the same rule, except that an
    x-lambda outer test turns the run's own KStar steps into different
    bookkeeping, so those pairs are skipped."""

    PAIRS = [
        (r"<y, *> ; \(x:A, k:A). k ; x", "<z, *>"),
        (r"(%k:A. k ; x) ! *", "<z, *>"),
        (r"(%k:A. k ; x) ! <y, *>", r"\w:A. * ; w"),
        (r"<y, *> ; \k:A. k ; x", "<z, *>"),
    ]

    @pytest.mark.parametrize("utext,ttext", PAIRS)
    def test_same_rule(self, utext, ttext):
        u, t = T(utext), T(ttext)
        after, tag = step(u)
        composed = subst_star(u, t)
        after2, tag2 = step(composed)
        assert tag2 is tag
        assert alpha_eq(after2, subst_star(after, t))

    def test_kstar_becomes_kpair_same_result(self):
        # a pair outer test renames a KStar step to KPair; the result still
        # commutes with the composition
        u = T(r"* ; \k:A. k ; x")
        t = T("<z, *>")
        after, _ = step(u)
        after2, tag2 = step(subst_star(u, t))
        assert tag2 is RuleTag.KPAIR
        assert alpha_eq(after2, subst_star(after, t))

    def test_xlam_outer_test_breaks_replay(self):
        # an x-lambda outer test turns the KStar redex into a PSubst redex
        # with a different contraction, the one case the law excludes
        u = T(r"* ; \k:A. k ; x")
        t = T(r"\w:A. * ; w")
        after, _ = step(u)
        after2, tag2 = step(subst_star(u, t))
        assert tag2 is RuleTag.PSUBST
        assert not alpha_eq(after2, subst_star(after, t))


class TestSubstitutionCost:
    """Substitution work per step must not grow with the size of the term:
    a by-value run of church(n) does about 5n steps, and walking the whole
    body at each of them makes the run quadratic. Counted, not timed: the
    nodes the kernels visit, one per call of the recursive p kernel and one
    per spine node that the k kernel's loop passes."""

    @staticmethod
    def church(n):
        body = "f (" * n + "x" + ")" * n
        return parse_lam(rf"(\f:A->A. \x:A. {body}) (\y:A. y) z")

    # the field that continues the spine, by node type
    SPINE = {PApp: "test", QApp: "test", Pair: "snd", XLam: "body"}

    def spine_length(self, term):
        n = 1
        while type(term) in self.SPINE:
            term = getattr(term, self.SPINE[type(term)])
            n += 1
        return n

    def visits_per_step(self, monkeypatch, n):
        image = ptq_translate_e(self.church(n), Strategy.CBV, {"z": parse_type("A")})
        visits = 0
        subst_k = ptq.syntax._subst_k

        def counting_p(row):
            # the walk recurses through the table, so each visited node counts
            def counting(*args):
                nonlocal visits
                visits += 1
                return row(*args)

            return counting

        def counting_k(term, payload):
            nonlocal visits
            visits += self.spine_length(term)
            return subst_k(term, payload)

        with monkeypatch.context() as m:
            for cls, row in list(ptq.syntax._SUBST.items()):
                m.setitem(ptq.syntax._SUBST, cls, counting_p(row))
            for module in (ptq.syntax, ptq.machine):
                m.setattr(module, "_subst_k", counting_k)
            steps = len(normalize(image).trace.steps)
        return visits / steps

    def test_cbv_calls_per_step_flat(self, monkeypatch):
        # the counting wrapper doubles the frames of a deep substitution
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20000))
        try:
            per_step = [self.visits_per_step(monkeypatch, n) for n in (50, 100, 200)]
        finally:
            sys.setrecursionlimit(limit)
        assert max(per_step) <= 1.25 * per_step[0], per_step
