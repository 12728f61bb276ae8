"""Both type systems: the derivation rules, the judgment checkers, errors."""

import dataclasses
import hashlib
import re
import sys

import pytest

from ptq import (
    AnchorMismatch,
    Arrow,
    Base,
    DuplicateVariable,
    HoleTypeClash,
    K,
    KLam,
    Lam,
    LamEnv,
    MissingAnnotation,
    PApp,
    Pair,
    PairLam,
    PVar,
    PtqError,
    PtqType,
    QApp,
    RoleMismatch,
    STAR,
    Strategy,
    TypeClash,
    TypeEnv,
    UnboundVariable,
    Var,
    check_judgment,
    check_lambda_judgment,
    infer_lambda_box,
    infer_ptq,
    lam_str,
    normalize,
    parse_judgment,
    parse_lam,
    parse_lam_judgment,
    parse_term,
    parse_type,
    ptq_translate,
    ptq_translate_e,
    readback,
)
from ptq.syntax import _Node
from ptq.typecheck import E_OK, Judgment

A, B, X = Base("A"), Base("B"), Base("X")


def env(pairs="", anchor=None):
    gamma = tuple(
        (name.strip(), parse_type(ty))
        for name, _, ty in (p.partition(":") for p in pairs.split(",") if p.strip())
    )
    return TypeEnv(gamma, anchor)


class TestProgramRules:
    def test_variable(self):
        assert infer_ptq(env("x:A"), parse_term("x")) == PtqType("p", A)

    def test_pair_lambda(self):
        t = parse_term(r"\(x:A, k:A). k ; x")
        assert infer_ptq(env(), t) == PtqType("p", Arrow(A, A))

    def test_k_lambda(self):
        t = parse_term(r"\k:B. <y, k> ; x")
        got = infer_ptq(env("x:A -> B, y:A"), t)
        assert got == PtqType("p", B)

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            infer_ptq(env(), parse_term("x"))

    def test_missing_annotation(self):
        with pytest.raises(MissingAnnotation):
            infer_ptq(env(), parse_term(r"\(x, k). k ; x"))


class TestTestRules:
    def test_star(self):
        got = infer_ptq(env("", ("star", A)), parse_term("*"))
        assert got == PtqType("t", A)

    def test_k(self):
        got = infer_ptq(env("", ("k", B)), parse_term("k"))
        assert got == PtqType("t", B)

    def test_star_under_k_anchor(self):
        with pytest.raises(AnchorMismatch):
            infer_ptq(env("", ("k", A)), parse_term("*"))

    def test_k_under_star_anchor(self):
        with pytest.raises(AnchorMismatch):
            infer_ptq(env("", ("star", A)), parse_term("k"))

    def test_pair(self):
        got = infer_ptq(env("x:A", ("star", B)), parse_term("<x, *>"))
        assert got == PtqType("t", Arrow(A, B))

    def test_x_lambda(self):
        got = infer_ptq(env("y:A -> B", ("star", B)), parse_term(r"\x:A. <x, *> ; y"))
        assert got == PtqType("t", A)


class TestJumpAndComputationRules:
    def test_q_lambda(self):
        got = infer_ptq(env("x:A"), parse_term("%k:A. k ; x"))
        assert got == PtqType("q", A)

    def test_papp(self):
        assert infer_ptq(env("x:A", ("star", A)), parse_term("* ; x")) is E_OK

    def test_papp_clash(self):
        with pytest.raises(TypeClash):
            infer_ptq(env("x:A", ("star", B)), parse_term("* ; x"))

    def test_qapp(self):
        u = parse_term("(%k:A. k ; x) ! *")
        assert infer_ptq(env("x:A", ("star", A)), u) is E_OK

    def test_qapp_clash(self):
        u = parse_term("(%k:A. k ; x) ! <y, *>")
        with pytest.raises(TypeClash):
            infer_ptq(env("x:A, y:A", ("star", A)), u)

    def test_shared_open_node_typed_in_each_context(self):
        # one node `k ; x` under binders that give x two types: a node with
        # free names has no type of its own, so it is typed in each context
        body = PApp(K, PVar("x"))
        good, bad = PairLam("x", A, A, body), PairLam("x", B, A, body)
        with pytest.raises(TypeClash):
            infer_ptq(env("", ("star", A)), Pair(good, Pair(bad, STAR)))

    def test_failure_is_never_kept(self):
        # a closed node that fails to type keeps no type, so it fails again,
        # alone and in every term that holds it
        bad = PairLam("x", A, None, PApp(K, PVar("x")))
        holder = KLam(Arrow(A, A), PApp(K, bad))
        for subject in (bad, bad, holder, holder, bad):
            with pytest.raises(MissingAnnotation):
                infer_ptq(env(), subject)
        assert bad._type is None and holder._type is None

    @pytest.mark.parametrize("subject", [
        Pair(Var("x"), STAR),
        PApp(STAR, Var("x")),
        PApp(STAR, Lam("x", A, Var("x"))),
    ], ids=["pair", "papp_var", "papp_lam"])
    def test_lambda_child_is_not_a_program_term(self, subject):
        with pytest.raises(TypeError, match="not a program term"):
            infer_ptq(env("", ("star", A)), subject)

    @pytest.mark.parametrize("typed_first", [False, True], ids=["fresh", "kept"])
    def test_kept_type_keeps_its_role(self, typed_first):
        # a closed jump in a program's place, and a closed program in a
        # jump's, fail alike whether or not they keep a type from before
        q = parse_term(r"%k:A -> A. k ; \(x:A, k:A). k ; x")
        p = parse_term(r"\(x:A, k:A). k ; x")
        if typed_first:
            assert infer_ptq(env(), q) == PtqType("q", Arrow(A, A))
            assert infer_ptq(env(), p) == PtqType("p", Arrow(A, A))
            assert q._type is not None and p._type is not None
        anchor = env("", ("star", Arrow(A, A)))
        with pytest.raises(TypeError, match="not a program term"):
            infer_ptq(anchor, PApp(STAR, q))
        with pytest.raises(TypeError, match="not a jump term"):
            infer_ptq(anchor, QApp(p, STAR))

    def test_anchor_required(self):
        with pytest.raises(AnchorMismatch):
            infer_ptq(env("x:A"), parse_term("* ; x"))

    def test_anchor_refused_for_programs(self):
        with pytest.raises(AnchorMismatch):
            infer_ptq(env("x:A", ("star", A)), parse_term("x"))

    @pytest.mark.parametrize("kind", ["*", "bogus"])
    def test_unknown_anchor_kind_is_refused(self, kind):
        # "*" is how judgments print the anchor; read as k, it made
        # `* ; x` fail with "term uses * but the anchor is k"
        with pytest.raises(ValueError, match=re.escape(f"not '{kind}'")):
            env("x:A", (kind, A))
        with pytest.raises(ValueError):
            env("x:A").with_anchor(kind, A)


class TestJudgmentChecker:
    GOOD = [
        ("x:pX |- x : pX", "pX"),
        ("|- \\(x:A, k:A). k ; x : p(A -> A)", "p(A -> A)"),
        ("x:p(A -> B), y:pA |- \\k:B. <y, k> ; x : pB", "pB"),
        ("x:pA |- %k:A. k ; x : qA", "qA"),
        ("x:pA |> *:tB |- <x, *> : t(A -> B)", "t(A -> B)"),
        ("x:pA |> k:tB |- <x, k> : t(A -> B)", "t(A -> B)"),
    ]

    @pytest.mark.parametrize("text,want", GOOD)
    def test_accepts(self, text, want):
        result = check_judgment(parse_judgment(text))
        assert result.ok and str(result.inferred) == want

    def test_e_judgment(self):
        result = check_judgment(parse_judgment("x:pA |> *:tA |- * ; x"))
        assert result.ok

    def test_result_is_true_when_ok(self):
        assert check_judgment(parse_judgment("x:pX |- x : pX"))
        assert not check_judgment(parse_judgment("x:pX |- x : pA"))

    def test_role_mismatch(self):
        result = check_judgment(parse_judgment("x:pX |- x : qX"))
        assert not result.ok and isinstance(result.error, RoleMismatch)

    def test_carrier_mismatch(self):
        result = check_judgment(parse_judgment("x:pX |- x : pA"))
        assert not result.ok and isinstance(result.error, TypeClash)

    def test_shadowing_inside_terms_is_fine(self):
        # a binder may reuse a context name; the inner binding wins
        t = parse_term(r"\(x:B, k:B). k ; x")
        assert infer_ptq(env("x:A"), t) == PtqType("p", Arrow(B, B))
        t = parse_term(r"\x:B. * ; x")
        assert infer_ptq(env("x:A", ("star", B)), t) == PtqType("t", B)


    @pytest.mark.parametrize(
        "parse, check, text",
        [
            (parse_judgment, check_judgment, "|- y : pA"),
            (parse_lam_judgment, check_lambda_judgment, "|- y : A"),
        ],
    )
    def test_unbound_variable(self, parse, check, text):
        result = check(parse(text))
        assert not result.ok and result.inferred is None
        assert type(result.error) is UnboundVariable and str(result.error) == "y"

    def test_built_judgment_claims_on_a_computation(self):
        # the parser rejects both shapes, so the checker sees them only when
        # a caller builds the judgment itself
        j = Judgment(env("x:A", ("star", A)), parse_term("* ; x"), PtqType("p", A))
        result = check_judgment(j)
        assert not result.ok and result.inferred == E_OK
        assert type(result.error) is RoleMismatch
        assert str(result.error) == "computations carry no type"
        result = check_judgment(Judgment(env("x:A"), parse_term("x"), None))
        assert not result.ok and result.inferred == PtqType("p", A)
        assert type(result.error) is RoleMismatch
        assert str(result.error) == "missing claimed type"


class TestLambdaBox:
    def test_plain(self):
        m = parse_lam(r"\x:A. x")
        assert infer_lambda_box(LamEnv(), m) == Arrow(A, A)

    def test_hole(self):
        j = parse_lam_judgment("[]:B |- [] : B")
        assert check_lambda_judgment(j).ok

    def test_hole_applied(self):
        j = parse_lam_judgment("x:A, []:A -> B |- [] x : B")
        assert check_lambda_judgment(j).ok

    def test_hole_must_be_declared(self):
        m = parse_lam("[]")
        with pytest.raises(MissingAnnotation):
            infer_lambda_box(LamEnv(), m)

    def test_hole_single_type(self):
        m = parse_lam("([]:A) ([]:B)")
        with pytest.raises(HoleTypeClash):
            infer_lambda_box(LamEnv(), m)

    def test_missing_binder_annotation(self):
        with pytest.raises(MissingAnnotation):
            infer_lambda_box(LamEnv(), parse_lam(r"\x. x"))

    def test_claim_checked(self):
        j = parse_lam_judgment("x:A |- x : B")
        result = check_lambda_judgment(j)
        assert not result.ok and isinstance(result.error, TypeClash)


class TestDepth:
    """Inference takes one frame per program or jump level, with no wrapper
    frame around each such node, so deep e-images type at the default
    recursion limit."""

    @pytest.mark.parametrize("strategy, n", [(Strategy.CBN, 270), (Strategy.CBV, 400)])
    def test_church_image_types_at_default_limit(self, strategy, n):
        body = "f (" * n + "x" + ")" * n
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20000))  # to parse and translate
        try:
            m = parse_lam(rf"(\f:A->A. \x:A. {body}) (\y:A. y) z")
            image = ptq_translate_e(m, strategy, {"z": A})
            sys.setrecursionlimit(1000)
            assert infer_ptq(TypeEnv((("z", A),), ("star", A)), image) is E_OK
        finally:
            sys.setrecursionlimit(limit)


def _faults(term, fault):
    """Each copy of term with `fault` applied at one of its nodes, in
    preorder; fault yields the faulted copies of one node."""
    yield from fault(term)
    for field in dataclasses.fields(term):
        child = getattr(term, field.name)
        if isinstance(child, _Node):
            for copy in _faults(child, fault):
                yield dataclasses.replace(term, **{field.name: copy})


def _drop_annotation(node):
    for name in ("xty", "kty"):
        if getattr(node, name, None) is not None:
            yield dataclasses.replace(node, **{name: None})


def _swap_binder_type(node):
    for name in ("xty", "kty"):
        ty = getattr(node, name, None)
        if ty is not None:
            yield dataclasses.replace(node, **{name: Arrow(ty, ty)})


def _unbind_variable(node):
    if type(node) is PVar:
        yield PVar("unbound")


def _outcome(run, *args):
    try:
        return str(run(*args))
    except PtqError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_typing_and_readback_digest(corpus):
    """The inferred type (or the error class and message) and the readback
    of each corpus image in both strategies, plain and under the anchor k,
    of every state of its run, and of each one-fault copy of its e-image
    (an annotation dropped, a binder type A swapped for A -> A, a variable
    unbound) are the ones that inference over a TypeEnv and readback by
    `match` gave. The copies share every untouched node with states typed
    and read back before, so the kept types and images are read as well."""
    digest = hashlib.sha256()
    for strategy in Strategy:
        for m, ty, _, _ in corpus:
            p_image, e_image = ptq_translate(m, strategy), ptq_translate_e(m, strategy)
            e_env = TypeEnv((), ("star", ty))
            cases = [(TypeEnv(), p_image), (TypeEnv((), ("k", ty)), p_image)]
            cases += [(e_env, u) for u in normalize(e_image).trace.terms()]
            cases.append((TypeEnv((), ("k", ty)), e_image))
            for fault in (_drop_annotation, _swap_binder_type, _unbind_variable):
                cases += [(e_env, copy) for copy in _faults(e_image, fault)]
            for env, term in cases:
                typed = _outcome(infer_ptq, env, term)
                read = _outcome(lambda t: lam_str(readback(t)), term)
                digest.update(f"{typed}\n{read}\n".encode())
    assert digest.hexdigest() == (
        "a2e09547b69767e6d5b8cba2e7f97c3e4db5601ebd9bb0967085f142f4e674bf"
    )
