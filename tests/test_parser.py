"""Concrete syntax: both term languages, judgments, error reporting."""

import io
import json
import random

import pytest

import ptq.machine
from ptq import (
    Arrow,
    Base,
    K,
    KLam,
    Pair,
    PairLam,
    PApp,
    ParseError,
    PtqError,
    PVar,
    QApp,
    QLam,
    ReservedBaseType,
    STAR,
    Strategy,
    XLam,
    alpha_eq,
    lam_alpha_eq,
    lam_str,
    normalize,
    parse_eterm,
    parse_lam,
    parse_pterm,
    parse_qterm,
    parse_term,
    parse_tterm,
    parse_type,
    ptq_translate_e,
    sort_of,
    term_str,
    trace_from_json,
    type_str,
)
from ptq.harness import gen_typed_term
from ptq.syntax import (
    RESERVED,
    _IDENT_RE,
    TokenStream,
    _expected,
    _parse_ident,
    _parse_opt_ann,
    _parse_term,
    tokenize,
)
from ptq.typecheck import (
    judgment_str,
    lam_judgment_str,
    parse_judgment,
    parse_lam_judgment,
)

import test_typecheck
from test_printer import church_image


class TestTypes:
    def test_right_assoc(self):
        assert parse_type("A -> B -> C") == parse_type("A -> (B -> C)")
        assert parse_type("A -> B -> C") != parse_type("(A -> B) -> C")

    def test_round_trip(self):
        for s in ["X", "A -> B", "(A -> B) -> C", "A -> B -> C"]:
            assert type_str(parse_type(s)) == s

    def test_reserved_base(self):
        with pytest.raises(ReservedBaseType):
            parse_type("o")
        with pytest.raises(ReservedBaseType):
            parse_type("A -> o")

    def test_lowercase_rejected(self):
        with pytest.raises(ParseError):
            parse_type("a")


class TestTermLanguage:
    ROUND_TRIPS = [
        "x",
        "*",
        "k",
        "<x, *>",
        "<x, <y, k>>",
        r"\(x:A, k:B). k ; x",
        r"\k:A. k ; x",
        r"\x:A. * ; x",
        "%k:A. k ; x",
        "* ; x",
        "k ; x",
        "(%k:A. k ; x) ! *",
        r"<y, *> ; (\(x:A, k:A). (%k:A. k ; x) ! k)",
        r"* ; (\k:B. <y, k> ; x)",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, text):
        t = parse_term(text)
        assert alpha_eq(parse_term(term_str(t)), t)

    def test_greedy_binder_body(self):
        # a binder body extends as far right as it can
        assert alpha_eq(parse_term(r"* ; \k:A. k ; x"), parse_term(r"* ; (\k:A. (k ; x))"))

    def test_unannotated_binders(self):
        t = parse_term(r"\(x, k). k ; x")
        assert t.xty is None and t.kty is None

    def test_sorted_entry_points(self):
        assert parse_pterm("x")
        assert parse_tterm("<x, *>")
        assert parse_qterm("%k:A. k ; x")
        assert parse_eterm("* ; x")
        with pytest.raises(ParseError):
            parse_pterm("*")
        with pytest.raises(ParseError):
            parse_eterm("x")

    def test_reserved_names(self):
        with pytest.raises(ParseError):
            parse_term(r"\(k:A, k:B). k ; x")
        with pytest.raises(ParseError):
            parse_term("o")

    def test_sort_errors(self):
        with pytest.raises(ParseError):
            parse_term("x ; y")  # left of ; must be a t-term
        with pytest.raises(ParseError):
            parse_term("* ! *")  # left of ! must be a q-term
        with pytest.raises(ParseError):
            parse_term("<*, *>")  # pair head must be a p-term

    def test_no_chaining(self):
        # an e-term is not an operand, so ; and ! cannot chain
        with pytest.raises(ParseError):
            parse_term("(* ; x) ; y")

    def test_junk_rejected(self):
        for bad in ["", "* ;", "<x", "x y", "%x:A. * ; x"]:
            with pytest.raises(ParseError):
                parse_term(bad)


class TestLambdaLanguage:
    ROUND_TRIPS = [
        "x",
        "x y z",
        r"\x:A. x",
        r"(\x:A. x) y",
        r"\x. x",
        "[]",
        "[] x",
        r"\k. k (\x. x)",
        r"\(x, h). x h",
        r"\k. k (\(x, h). x h)",
        "(x, y)",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, text):
        m = parse_lam(text)
        assert lam_alpha_eq(parse_lam(lam_str(m)), m)

    def test_application_left_assoc(self):
        assert lam_alpha_eq(parse_lam("x y z"), parse_lam("(x y) z"))

    def test_annotated_hole(self):
        m = parse_lam("([]:B)")
        assert m.ty == Base("B")

    def test_hole_takes_one_annotation(self):
        # a second annotation used to replace the first: `([]:B)`
        with pytest.raises(ParseError) as exc:
            parse_lam("(([]:A):B)")
        assert str(exc.value) == "expected ')', got ':'"
        assert lam_str(parse_lam("(([]):B)")) == "([]:B)"

    def test_k_is_a_plain_var_here(self):
        m = parse_lam(r"\k. k x")
        assert lam_str(m) == r"\k. k x"

    def test_o_rejected(self):
        with pytest.raises(ParseError):
            parse_lam(r"\o. o")


class TestJudgments:
    PTQ = [
        "x:pX |- x : pX",
        "x:pA, y:p(A -> B) |> *:tB |- <x, *> ; y",
        "|> k:tA |- k : tA",
        "|- \\(x:A, k:A). k ; x : p(A -> A)",
    ]
    LAM = ["[]:B |- [] : B", "x:A |- x : A", "x:A, []:B |- [] x : B"]

    def test_ptq_round_trip(self):
        for s in self.PTQ:
            j = parse_judgment(s)
            j2 = parse_judgment(judgment_str(j))
            assert judgment_str(j) == judgment_str(j2)

    def test_lam_round_trip(self):
        for s in self.LAM:
            j = parse_lam_judgment(s)
            j2 = parse_lam_judgment(lam_judgment_str(j))
            assert lam_judgment_str(j) == lam_judgment_str(j2)

    def test_lam_subject_trailing_input(self):
        # a judgment's subject ends where a whole term would
        for parse, text in [
            (parse_lam, "x y )"),
            (parse_lam_judgment, "x:A, y:A |- x y ) : A"),
        ]:
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert str(exc.value) == "trailing input after term: ')'"

    @pytest.mark.parametrize(
        "text, name",
        [
            (r"->:A |- \x:A. x : A -> A", "->"),
            (r"X:A |- \x:A. x : A -> A", "X"),
            (r"o:A |- \x:A. x : A -> A", "o"),
            (r"*:A, ;:B |- \x:A. x : A -> A", "*"),
            (r"x:A, ;:B |- \x:A. x : A -> A", ";"),
        ],
    )
    def test_lam_context_names_a_variable(self, text, name):
        # a lambda context entry is named by a lambda variable, as a
        # calculus context entry is by a program variable
        with pytest.raises(ParseError) as exc:
            parse_lam_judgment(text)
        assert str(exc.value) == f"bad environment variable {name!r}"

    def test_lam_context_takes_k(self):
        # k is the calculus's test variable, but an ordinary lambda variable
        j = parse_lam_judgment("k:A |- k : A")
        assert j.env.vars == (("k", Base("A")),)

    def test_duplicate_context_entry(self):
        from ptq import DuplicateVariable

        with pytest.raises(DuplicateVariable):
            parse_judgment("x:pA, x:pB |- x : pA")
        with pytest.raises(DuplicateVariable):
            parse_lam_judgment("x:A, x:B |- x : A")

    def test_anchor_role_enforced(self):
        from ptq import RoleMismatch

        with pytest.raises(RoleMismatch):
            parse_judgment("|> *:pB |- * : tB")

    def test_e_subject_takes_no_claim(self):
        from ptq import RoleMismatch

        j = parse_judgment("x:pA |> *:tA |- * ; x")
        assert j.claimed is None
        with pytest.raises(RoleMismatch):
            parse_judgment("x:pA |> *:tA |- (* ; x) : pA")


class TestFrontEndErrors:
    """The messages of the readers' rejections that no other test raises,
    each at the reader that finds it first."""

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_term, "(* ; x, y)", "expected ')', got ','"),
            (parse_type, "A B", "trailing input after type: 'B'"),
            (parse_term, r"\X. * ; x", "expected an identifier, got 'X'"),
            (parse_term, r"\x. *", "binder body must be a computation"),
            (
                parse_term,
                r"\(x:A, y:B). * ; x",
                "second component of a pair binder must be k",
            ),
            (parse_lam, "x (", "unexpected end of input"),
            (parse_lam, r"\x. ;", "unexpected token ';'"),
            (parse_judgment, "x:pa |- x : pA", "bad base type 'a'"),
            (parse_judgment, "|> x:tA |- * : tA", "anchor must be k or *, got 'x'"),
            (parse_judgment, "|- x", "missing claimed type"),
            (parse_lam_judgment, "|- x", "missing claimed type"),
            # the subject's own colons used to be taken for the claim's
            (parse_lam_judgment, r"|- \x:A. x", "missing claimed type"),
            (parse_lam_judgment, r"|- ([]:A)", "missing claimed type"),
        ],
    )
    def test_parse_error(self, parse, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert type(exc.value) is ParseError and str(exc.value) == message

    def test_environment_binding_role(self):
        from ptq import RoleMismatch

        with pytest.raises(RoleMismatch) as exc:
            parse_judgment("x:tA |- x : pA")
        assert str(exc.value) == "environment bindings carry role p"

    def test_hole_declared_twice(self):
        from ptq import HoleTypeClash

        with pytest.raises(HoleTypeClash) as exc:
            parse_lam_judgment("[]:A, []:B |- [] : A")
        assert str(exc.value) == "hole type declared twice"


class TestDeepText:
    """The calculus reader is a loop, so no depth of nesting exhausts the
    Python stack."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_printed_church_400_reparses(self, strategy):
        image = church_image(400, strategy)
        assert alpha_eq(parse_term(term_str(image)), image)

    def test_parentheses_10000_deep(self):
        n = 10_000
        assert parse_term("(" * n + "* ; x" + ")" * n) == PApp(STAR, PVar("x"))

    def test_binder_bodies_10000_deep(self):
        n = 10_000
        text = "\\x. <x, (" * (n - 1) + "\\x. <x, *> ; x" + ")> ; x" * (n - 1)
        term = parse_term(text)
        for _ in range(n):
            assert type(term) is XLam and term.x == "x"
            test, proof = term.body.test, term.body.proof
            assert proof == PVar("x") and test.fst == PVar("x")
            term = test.snd
        assert term is STAR


class TestTraceJson:
    def test_round_trip(self):
        from ptq import normalize, trace_from_json, trace_to_json

        trace = normalize(parse_term(r"<y,*> ; \(x:A, k:A). (%k:A. k ; x) ! k")).trace
        data = trace_to_json(trace)
        assert data["normal"] is True
        assert [s["rule"] for s in data["steps"]] == ["Beta", "QApp"]
        assert [s["class"] for s in data["steps"]] == ["beta", "control"]
        for doc in (data, json.dumps(data)):  # the dict or its JSON text
            back = trace_from_json(doc)
            assert alpha_eq(back.initial, trace.initial)
            assert back.normal == trace.normal
            assert [s.rule for s in back.steps] == [s.rule for s in trace.steps]

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("n", [5, 20, 40])
    def test_whole_trace_round_trips_through_json_text(self, n, strategy):
        trace = normalize(church_image(n, strategy)).trace
        out = io.StringIO()
        ptq.machine._write_trace_json(trace, out)
        back = trace_from_json(out.getvalue())
        assert len(back.steps) == len(trace.steps) > 0
        for a, b in zip(back.terms(), trace.terms(), strict=True):
            assert alpha_eq(a, b)
        assert [s.rule for s in back.steps] == [s.rule for s in trace.steps]
        assert back.normal == trace.normal


# ---------------------------------------------------------------------------
# the calculus reader against the recursive one it replaced


def reference_parse_term(ts):
    """The recursive reader `_parse_term` replaced; it recurses once per
    level of nesting."""
    left = _reference_operand(ts)
    while True:
        nxt = ts.peek()
        if nxt == ";" and sort_of(left) == "t":
            ts.pos += 1
            right = _expected(_reference_operand(ts), "p", "right of ';'")
            left = PApp(left, right)
        elif nxt == "!" and sort_of(left) == "q":
            ts.pos += 1
            right = _expected(_reference_operand(ts), "t", "right of '!'")
            left = QApp(left, right)
        else:
            return left


def _reference_body(ts):
    ts.expect(".")
    body = reference_parse_term(ts)
    if sort_of(body) != "e":
        raise ParseError("binder body must be a computation")
    return body


def _reference_operand(ts):
    tok = ts.next()
    if tok == "(":
        term = reference_parse_term(ts)
        ts.expect(")")
        return term
    if tok == "*":
        return STAR
    if tok == "k":
        return K
    if tok == "<":
        fst = _expected(reference_parse_term(ts), "p", "first pair component")
        ts.expect(",")
        snd = _expected(reference_parse_term(ts), "t", "second pair component")
        ts.expect(">")
        return Pair(fst, snd)
    if tok == "%":
        if ts.next() != "k":
            raise ParseError("jump binder must bind k")
        kty = _parse_opt_ann(ts)
        return QLam(kty, _reference_body(ts))
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
            return PairLam(x, xty, kty, _reference_body(ts))
        if nxt == "k":
            ts.pos += 1
            kty = _parse_opt_ann(ts)
            return KLam(kty, _reference_body(ts))
        x = _parse_ident(ts)
        xty = _parse_opt_ann(ts)
        return XLam(x, xty, _reference_body(ts))
    if _IDENT_RE.match(tok) and tok not in RESERVED:
        return PVar(tok)
    raise ParseError(f"unexpected token {tok!r}")


def read(reader, tokens):
    """The term `reader` reads from the tokens and the position it stops at,
    or the class and message of the error it raises."""
    ts = TokenStream(tokens)
    try:
        return reader(ts), ts.pos
    except PtqError as exc:
        return type(exc), str(exc)


def reader_corpus():
    """The test files' texts, printed translations and the states of their
    machine runs, each as tokens."""
    import test_lexer  # which imports this module


    texts = [
        *test_lexer.corpus(),
        *test_lexer.printed_translations(),
        *(text for text, _ in test_typecheck.TestJudgmentChecker.GOOD),
        *TestJudgments.PTQ,
    ]
    for size in range(9):
        for seed in range(12):
            m, _ = gen_typed_term(size, seed)
            for strategy in Strategy:
                texts += map(term_str, normalize(ptq_translate_e(m, strategy)).trace.terms())
    out = []
    for text in texts:
        try:
            tokens = tokenize(text)
        except ParseError:
            continue
        out.append(tokens)
        if "|-" in tokens:  # a judgment's subject on its own
            out.append(tokens[tokens.index("|-") + 1 :])
    return out


MUTATION_TOKENS = [
    "(", ")", "<", ">", ",", ";", "!", "%", "\\", ".", ":", "*", "k", "o", "x", "y",
    "A", "->", "X", "|-",
]


def mutations(corpus, count, seed=0):
    """`count` texts made from the corpus's token lists by one to three
    random deletions, insertions, replacements or swaps of tokens."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        tokens = list(rng.choice(corpus))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(tokens) + 1)
            edit = rng.randrange(4)
            if edit == 0 and i < len(tokens):
                del tokens[i]
            elif edit == 1:
                tokens.insert(i, rng.choice(MUTATION_TOKENS))
            elif edit == 2 and i < len(tokens):
                tokens[i] = rng.choice(MUTATION_TOKENS)
            elif i + 1 < len(tokens):
                tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        out.append(tokens)
    return out


def test_reader_same_as_reference():
    corpus = reader_corpus()
    texts = corpus + mutations(corpus, 20_000)
    accepted = 0
    for tokens in texts:
        got = read(_parse_term, tokens)
        assert got == read(reference_parse_term, tokens), " ".join(tokens)
        accepted += not isinstance(got[0], type)
    assert len(corpus) > 1_000 and accepted > 1_500
