"""Terms, substitution, closure, composition, alpha equivalence."""

import dataclasses
import inspect
import sys

import pytest

import ptq.lam
import ptq.syntax
from ptq import (
    App,
    Arrow,
    Base,
    KLam,
    KVar,
    Lam,
    NotTClosed,
    PApp,
    Pair,
    PairLam,
    PairPatLam,
    PVar,
    QApp,
    QLam,
    STAR,
    Star,
    Strategy,
    TClosureError,
    Var,
    XLam,
    alpha_eq,
    beta_contractions,
    classify,
    free_pvars,
    hole_compose,
    lam_alpha_eq,
    lam_subst,
    lam_str,
    parse_lam,
    is_t_closed,
    parse_term,
    ptq_translate,
    ptq_translate_e,
    reduces_in_one_beta,
    sort_of,
    spine,
    star_compose,
    subst_k,
    subst_pvar,
    subst_star,
    t_close,
    t_open,
    term_str,
    type_str,
)
from ptq.lam import HOLE, Hole, PairTerm, lam_free_vars, plug_hole
from ptq.syntax import fresh_name
from test_printer import church_image
from test_substitution import DEPTH, deep_spine, reference_lam_free_vars


def subterms(term, children):
    """Every node of term, each shared node once per occurrence."""
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children[type(node)](node))


def reference_free_pvars(t):
    """The free program names by the recursive definition."""
    match t:
        case PVar(name):
            return frozenset((name,))
        case XLam(x, _, body) | PairLam(x, _, _, body):
            return reference_free_pvars(body) - {x}
        case KLam(_, body) | QLam(_, body):
            return reference_free_pvars(body)
        case Pair(a, b) | PApp(a, b) | QApp(a, b):
            return reference_free_pvars(a) | reference_free_pvars(b)
    return frozenset()

A = Base("A")
B = Base("B")


def T(s):
    return parse_term(s)


class TestSorts:
    def test_each_sort(self):
        assert sort_of(T("x")) == "p"
        assert sort_of(T(r"\(x:A, k:B). k ; x")) == "p"
        assert sort_of(T(r"\k:A. k ; x")) == "p"
        assert sort_of(T("*")) == "t"
        assert sort_of(T("k")) == "t"
        assert sort_of(T("<x, *>")) == "t"
        assert sort_of(T(r"\x:A. * ; x")) == "t"
        assert sort_of(T("%k:A. k ; x")) == "q"
        assert sort_of(T("* ; x")) == "e"
        assert sort_of(T("(%k:A. k ; x) ! *")) == "e"

    def test_spine(self):
        assert spine(T("*")) == "star"
        assert spine(T("k")) == "k"
        assert spine(T("<x, k>")) == "k"
        assert spine(T("<x, <y, *>>")) == "star"
        assert spine(T("k ; x")) == "k"
        assert spine(T("(%k:A. k ; x) ! <y, *>")) == "star"

    def test_binders_do_not_leak_spine(self):
        # the k under a binder belongs to that binder, not to the spine
        assert spine(T(r"<\k:A. k ; x, *>")) == "star"
        assert is_t_closed(T(r"* ; \k:A. k ; x"))

    def test_spine_deeper_than_the_stack(self):
        # built in a loop, as a recursive builder would need the stack too
        t = STAR
        for _ in range(10_000):
            t = Pair(PVar("x"), t)
        assert spine(t) == "star"
        assert is_t_closed(t)


class TestFreeVars:
    def test_free_pvars(self):
        assert free_pvars(T("<x, <y, *>> ; z")) == {"x", "y", "z"}
        assert free_pvars(T(r"\(x:A, k:B). k ; x")) == set()
        assert free_pvars(T(r"\x:A. <x, *> ; y")) == {"y"}

    def test_shadowing(self):
        # the left x is bound by the test's binder, the right one is free
        assert free_pvars(T(r"(\x:A. * ; x) ; x")) == {"x"}

    def test_cache_is_not_a_field(self):
        # a node keeps its free names from construction, but equality,
        # hashing, printing and the dataclass fields look only at the term
        text = r"<\(x:A, k:A). k ; y, *> ; z"
        cached, fresh = T(text), T(text)
        assert free_pvars(cached) == {"y", "z"}
        for node in subterms(fresh, ptq.syntax._CHILDREN):
            assert node._fv == reference_free_pvars(node)
            assert ("_fv" in vars(node)) == (type(node) not in (Star, KVar))
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)
        assert [f.name for f in dataclasses.fields(cached)] == ["test", "proof"]

    def test_lam_cache_is_not_a_field(self):
        text = r"\(x, h). h (\y. [] y z) x"
        cached, fresh = parse_lam(text), parse_lam(text)
        assert lam_free_vars(cached) == {"z"}
        for node in subterms(fresh, ptq.lam._CHILDREN):
            assert lam_free_vars(node) == reference_lam_free_vars(node)
            assert ("_fv" in vars(node)) == (type(node) is not Hole)
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)
        assert [f.name for f in dataclasses.fields(cached)] == ["x", "h", "body"]

    def test_free_names_of_a_term_deeper_than_the_stack(self):
        node = PApp(STAR, PVar("x"))
        for i in range(DEPTH):
            node = PApp(XLam(f"y{i}", A, node), PVar("x"))
        assert free_pvars(node) == {"x"}

    def test_lam_free_names_of_a_spine_deeper_than_the_stack(self):
        node = Var("x")
        for i in range(DEPTH):
            node = App(node, Var(f"y{i % 3}"))
        assert lam_free_vars(node) == {"x", "y0", "y1", "y2"}

    # each node class with term children, a builder from its child list,
    # and the children it is built with when every one is a term
    NODES = [
        (lambda c: PairLam("x", A, A, *c), [PApp(KVar(), PVar("x"))]),
        (lambda c: KLam(A, *c), [PApp(KVar(), PVar("x"))]),
        (lambda c: Pair(*c), [PVar("x"), STAR]),
        (lambda c: XLam("x", A, *c), [PApp(KVar(), PVar("x"))]),
        (lambda c: QLam(A, *c), [PApp(KVar(), PVar("x"))]),
        (lambda c: PApp(*c), [STAR, PVar("x")]),
        (lambda c: QApp(*c), [QLam(A, PApp(KVar(), PVar("x"))), STAR]),
    ]
    LAM_NODES = [
        (lambda c: Lam("x", A, *c), [Var("x")]),
        (lambda c: App(*c), [Var("f"), Var("x")]),
        (lambda c: PairTerm(*c), [Var("x"), Var("y")]),
        (lambda c: PairPatLam("x", "h", *c), [Var("x")]),
    ]

    @staticmethod
    def rejects_each_child_that_is_not_a_term(nodes, what):
        # the walks trust these checks: only the root can be a non-term
        for build, children in nodes:
            build(children)
            for i in range(len(children)):
                for bad in ("y", None, 3):
                    with pytest.raises(TypeError) as exc:
                        build([bad if j == i else c for j, c in enumerate(children)])
                    assert str(exc.value) == f"not a {what}: {bad!r}"

    def test_a_child_that_is_not_a_term(self):
        self.rejects_each_child_that_is_not_a_term(self.NODES, "term")

    def test_a_child_that_is_not_a_lambda_term(self):
        self.rejects_each_child_that_is_not_a_term(self.LAM_NODES, "lambda term")


class TestSubstitution:
    def test_pvar(self):
        u = subst_pvar(T("k ; x"), "x", T("y"))
        assert alpha_eq(u, T("k ; y"))

    def test_pvar_capture_avoided(self):
        # substituting y under a binder named y must rename the binder
        t = T(r"\y:A. <y, *> ; x")
        u = subst_pvar(t, "x", T("y"))
        got = term_str(u)
        assert "y" in free_pvars(u)
        assert not alpha_eq(u, T(r"\y:A. <y, *> ; y")), got

    def test_renamed_binder_avoids_the_body(self):
        # y_1 is free in the body, so the renamed binder must not take it
        u = subst_pvar(T(r"\y:A. <y_1, *> ; x"), "x", T("y"))
        assert alpha_eq(u, T(r"\z:A. <y_1, *> ; y"))
        assert term_str(u) == r"\y_2:A. <y_1, *> ; y"

    def test_untouched_subterms_are_shared(self):
        u = T(r"<\(y:A, k:A). k ; y, *> ; x")
        assert subst_pvar(u, "z", T("w")) is u
        out = subst_pvar(u, "x", T("w"))
        assert out.test is u.test and out.proof == PVar("w")

    def test_k_payload(self):
        u = subst_k(T("k ; x"), T("<y, *>"))
        assert alpha_eq(u, T("<y, *> ; x"))

    def test_k_stops_at_k_binders(self):
        u = subst_k(T(r"(%k:A. k ; z) ! k"), T("*"))
        assert alpha_eq(u, T("(%k:A. k ; z) ! *"))

    def test_star_payload(self):
        u = subst_star(T("<x, *> ; y"), T("<z, *>"))
        assert alpha_eq(u, T("<x, <z, *>> ; y"))

    def test_k_payload_must_be_closed(self):
        with pytest.raises(NotTClosed):
            subst_k(T("k ; x"), T("<y, k>"))


class TestLamSubstitution:
    def test_untouched_subterms_are_shared(self):
        m = parse_lam(r"\y. z")
        assert lam_subst(m, "x", Var("y")) is m
        m = parse_lam(r"(\y. x) (\y. z) w")
        out = lam_subst(m, "x", Var("y"))
        assert lam_str(out) == r"(\y_1. y) (\y. z) w"
        assert out.fn.arg is m.fn.arg and out.arg is m.arg

    def test_nested_binders_take_a_linear_walk(self, monkeypatch):
        # every binder renames, and the rename is decided before descending;
        # substituting first and renaming afterwards doubles per binder
        depth = 200
        m = Var("x")
        for _ in range(depth):
            m = Lam("y", None, m)
        calls = 0

        def counting(row):
            # the walk recurses through the table, so each visited node counts
            def counted(*args):
                # fail at the bound, as a walk that doubles would not return
                nonlocal calls
                calls += 1
                assert calls <= 3 * depth, "walk calls not linear in the depth"
                return row(*args)

            return counted

        for cls, row in list(ptq.lam._SUBST.items()):
            monkeypatch.setitem(ptq.lam._SUBST, cls, counting(row))
        out = lam_subst(m, "x", Var("y"))
        assert lam_free_vars(out) == {"y"}

    def test_nested_binder_rename_costs_linear_calls(self):
        # every binder renames; reading the rename's free names from the
        # caches, not walking the body for them at each binder, keeps all
        # calls into ptq.lam, the cache fills included, linear in the depth
        def calls(depth):
            m = Var("x")
            for _ in range(depth):
                m = Lam("y", None, m)
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                if event == "call" and frame.f_code.co_filename == ptq.lam.__file__:
                    count += 1

            outer = sys.getprofile()
            sys.setprofile(profile)
            try:
                lam_subst(m, "x", Var("y"))
            finally:
                sys.setprofile(outer)
            return count

        assert calls(400) <= 4.5 * calls(100)

    @pytest.mark.parametrize(
        "text, target, payload, expected",
        [
            # h shadows x, so the body's x is the second component's
            (r"\(x, x). x y", "y", "x", r"\(a, b). b x"),
            (r"\(x, x). x y", "y", "x_1 x", r"\(a, b). b (x_1 x)"),
            (r"\(x, x). x y", "y", "z", r"\(a, b). b z"),
            (r"\(x, x). x y", "x", "z", r"\(a, b). b y"),
            (r"\(x, h). h x y", "y", "x", r"\(a, b). b a x"),
            (r"\(x, h). h x y", "y", "h", r"\(a, b). b a h"),
            (r"\(x, h). h x y", "y", "x h", r"\(a, b). b a (x h)"),
            (r"\(x, h). h x y", "x", "z", r"\(a, b). b a y"),
            (r"\(x, h). h x y", "h", "z", r"\(a, b). b a y"),
        ],
    )
    def test_shadowed_pair_binders(self, text, target, payload, expected):
        got = lam_subst(parse_lam(text), target, parse_lam(payload))
        assert lam_alpha_eq(got, parse_lam(expected)), lam_str(got)

    def test_hole_under_a_shadowed_pair_binder(self):
        got = plug_hole(parse_lam(r"\(x, x). x []"), Var("x"))
        assert lam_alpha_eq(got, parse_lam(r"\(a, b). b x")), lam_str(got)


class TestFreshNames:
    def test_first_name_not_avoided(self):
        assert fresh_name("x", frozenset()) == "x_1"
        assert fresh_name("y_1", {"y_1", "y"}) == "y_2"
        assert fresh_name("x0", {"x_1", "x_2"}) == "x_3"

    def test_lam_subst_avoids_the_body(self):
        got = lam_subst(parse_lam(r"\y. x y_1"), "x", Var("y"))
        assert lam_alpha_eq(got, parse_lam(r"\z. y y_1"))

    def test_plug_hole_avoids_the_body(self):
        got = hole_compose(parse_lam(r"\y. [] y_1"), Var("y"))
        assert lam_alpha_eq(got, parse_lam(r"\z. y y_1"))

    def test_pair_binder_avoids_its_partner(self):
        # renaming x must skip x_1, the other binder of the pair pattern
        got = lam_subst(parse_lam(r"\(x, x_1). z x x_1"), "z", Var("x"))
        assert lam_alpha_eq(got, parse_lam(r"\(a, b). x a b"))

    def test_lam_subst_avoids_the_target(self):
        # renaming y must skip y_1, the name being substituted for, or the
        # renamed binder captures the payload put in for y_1
        got = lam_subst(parse_lam(r"\y. y"), "y_1", Var("y"))
        assert lam_alpha_eq(got, parse_lam(r"\z. z"))

    def test_pair_binder_avoids_the_target(self):
        got = lam_subst(parse_lam(r"\(y, h). y h"), "y_1", Var("y"))
        assert lam_alpha_eq(got, parse_lam(r"\(a, b). a b"))

    def test_beta_keeps_the_identity(self):
        (got,) = beta_contractions(parse_lam(r"(\y_1. \y. y) y"))
        assert lam_alpha_eq(got, parse_lam(r"\z. z"))


class TestClosure:
    def test_close_then_open(self):
        t = T("<x, k>")
        assert alpha_eq(t_open(t_close(t)), t)

    def test_open_then_close(self):
        t = T("<x, *>")
        assert alpha_eq(t_close(t_open(t)), t)

    def test_close_rejects_closed(self):
        with pytest.raises(TClosureError):
            t_close(T("<x, *>"))

    def test_open_rejects_open(self):
        with pytest.raises(TClosureError):
            t_open(T("<x, k>"))


class TestStarCompose:
    def test_neutral(self):
        t = T("<x, <y, *>>")
        assert alpha_eq(star_compose(STAR, t), t)
        assert alpha_eq(star_compose(t, STAR), t)

    def test_associative(self):
        a, b, c = T("<x, *>"), T("<y, *>"), T("<z, *>")
        left = star_compose(star_compose(a, b), c)
        right = star_compose(a, star_compose(b, c))
        assert alpha_eq(left, right)

    def test_stacks_inside_out(self):
        got = star_compose(T("<x, *>"), T("<y, *>"))
        assert alpha_eq(got, T("<y, <x, *>>"))

    def test_requires_closed(self):
        with pytest.raises(NotTClosed):
            star_compose(T("<x, k>"), T("*"))
        with pytest.raises(NotTClosed):
            star_compose(T("*"), T("<x, k>"))


class TestAlphaEq:
    def test_binder_renaming(self):
        assert alpha_eq(T(r"\x:A. * ; x"), T(r"\y:A. * ; y"))
        assert alpha_eq(T(r"\(x:A, k:B). k ; x"), T(r"\(z:A, k:B). k ; z"))

    def test_annotations_matter(self):
        assert not alpha_eq(T(r"\x:A. * ; x"), T(r"\x:B. * ; x"))

    def test_free_names_matter(self):
        assert not alpha_eq(T("* ; x"), T("* ; y"))

    def test_structure(self):
        assert not alpha_eq(T("*"), T("k"))
        assert not alpha_eq(T("<x, *>"), T("<x, k>"))

    @pytest.mark.parametrize(
        "module, base", [(ptq.syntax, ptq.syntax._Node), (ptq.lam, ptq.lam._LamNode)]
    )
    def test_every_node_class_is_in_the_walk_tables(self, module, base):
        # a class missing from a table would compare unequal to itself
        classes = set(base.__subclasses__())
        assert set(module._CHILDREN) == classes
        assert set(module._BINDS) == classes
        for cls, spec in module._BINDS.items():
            fields = {f.name for f in dataclasses.fields(cls)}
            names, same = spec or (("name",), ())
            assert set(names) | set(same) <= fields, cls

    def test_every_node_class_keeps_its_declaration(self):
        # the reference: each class's fields, its children (by field), its
        # `_BINDS` row and its sort
        x, u, v = PVar("x"), PApp(KVar(), PVar("x")), Var("x")
        q = QLam(A, u)
        tables = {
            PVar(name="x"): (("name",), (), None, "p"),
            PairLam("x", A, B, u): (("x", "xty", "kty", "body"), ("body",), (("x",), ("xty", "kty")), "p"),
            KLam(A, u): (("kty", "body"), ("body",), ((), ("kty",)), "p"),
            STAR: ((), (), ((), ()), "t"),
            KVar(): ((), (), ((), ()), "t"),
            Pair(x, KVar()): (("fst", "snd"), ("fst", "snd"), ((), ()), "t"),
            XLam("x", A, u): (("x", "xty", "body"), ("body",), (("x",), ("xty",)), "t"),
            q: (("kty", "body"), ("body",), ((), ("kty",)), "q"),
            u: (("test", "proof"), ("test", "proof"), ((), ()), "e"),
            QApp(q, STAR): (("fn", "test"), ("fn", "test"), ((), ()), "e"),
            v: (("name",), (), None, None),
            Lam("x", A, v): (("x", "xty", "body"), ("body",), (("x",), ("xty",)), None),
            App(Var("f"), v): (("fn", "arg"), ("fn", "arg"), ((), ()), None),
            Hole(A): (("ty",), (), ((), ("ty",)), None),
            PairTerm(v, Var("y")): (("fst", "snd"), ("fst", "snd"), ((), ()), None),
            PairPatLam("x", "h", Var("h")): (("x", "h", "body"), ("body",), (("x", "h"), ()), None),
        }
        for node, (names, children, binds, sort) in tables.items():
            cls = type(node)
            module = ptq.syntax if isinstance(node, ptq.syntax._Node) else ptq.lam
            assert tuple(f.name for f in dataclasses.fields(cls)) == names == cls.__match_args__
            assert tuple(inspect.signature(cls).parameters) == names
            values = {name: getattr(node, name) for name in names}
            for copy in (cls(**values), dataclasses.replace(node), dataclasses.replace(node, **values)):
                assert copy == node and copy.__dict__ == node.__dict__
            got = module._CHILDREN[cls](node)
            assert len(got) == len(children)
            assert all(c is getattr(node, name) for c, name in zip(got, children))
            assert ptq.syntax._EQ_CHILDREN[cls] is module._CHILDREN[cls]
            assert module._BINDS[cls] == binds
            assert ptq.syntax._EQ_FIELDS[cls] == ((), ("name",) if binds is None else binds[0] + binds[1])
            if sort is not None:
                assert ptq.syntax._SORT[cls] == sort
                assert (cls in ptq.syntax._WRAPPED) == (cls in (PairLam, KLam, XLam, QLam))

    def test_shadowed_binder_restored(self):
        assert alpha_eq(T(r"\x:A. (\x:A. * ; x) ; x"), T(r"\y:A. (\z:A. * ; z) ; y"))
        assert not alpha_eq(T(r"\x:A. (\x:A. * ; x) ; x"), T(r"\y:A. (\z:A. * ; y) ; y"))
        shadowing = PairPatLam("x", "x", Var("x"))
        assert lam_alpha_eq(shadowing, PairPatLam("y", "z", Var("z")))
        assert not lam_alpha_eq(shadowing, PairPatLam("y", "z", Var("y")))

    def test_spines_deeper_than_the_stack(self):
        # two separately built spines, so no subterm is shared
        assert alpha_eq(deep_spine(STAR, "v"), deep_spine(STAR, "u"))
        assert not alpha_eq(deep_spine(STAR, "v"), deep_spine(KVar(), "v"))
        # the innermost binder binds the v at the end; the u binder leaves it free
        end = Pair(PVar("v"), STAR)
        assert alpha_eq(deep_spine(end, "v"), deep_spine(Pair(PVar("u"), STAR), "u"))
        assert not alpha_eq(deep_spine(end, "v"), deep_spine(end, "u"))

    def test_lam_chains_deeper_than_the_stack(self):
        def chain(stem, last):
            # \x9999. x9999 (... (\x0. x0 last)), x0 the innermost binder
            node = Var(last)
            for i in range(DEPTH):
                node = Lam(f"{stem}{i}", A, App(Var(f"{stem}{i}"), node))
            return node

        assert lam_alpha_eq(chain("x", "x0"), chain("y", "y0"))
        assert not lam_alpha_eq(chain("x", "x0"), chain("y", "y1"))
        assert not lam_alpha_eq(chain("x", "x0"), chain("y", "x0"))


class TestEquality:
    """`==` compares names exactly and, like `alpha_eq`, walks with an
    explicit stack; `hash` reads no child, so neither recurses."""

    def test_names_must_match_exactly(self):
        assert T(r"\x:A. * ; x") == T(r"\x:A. * ; x")
        assert T(r"\x:A. * ; x") != T(r"\y:A. * ; y")
        assert T(r"\x:A. * ; x") != T(r"\x:B. * ; x")
        assert parse_lam(r"\x. x") != parse_lam(r"\y. y")
        assert parse_lam(r"\(x, h). h x") != parse_lam(r"\(x, g). g x")
        assert PVar("x") != Var("x") and Star() == STAR != KVar()

    def test_equal_terms_hash_alike(self):
        for text in (r"\(x:A, k:B). <y, k> ; x", r"(%k:A. k ; y) ! *"):
            a, b = T(text), T(text)
            assert a is not b and a == b and hash(a) == hash(b)
        a, b = parse_lam(r"\x. ([]:A) x y"), parse_lam(r"\x. ([]:A) x y")
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, parse_lam(r"\y. ([]:A) y y")}) == 2

    def test_printed_church_400_by_name_reread(self):
        image = church_image(400, Strategy.CBN)
        reread = parse_term(term_str(image))
        assert reread == image and hash(reread) == hash(image)
        assert reread != church_image(399, Strategy.CBN)

    def test_lambda_spines_deeper_than_the_stack(self):
        def spine(last):
            # \x. x (\x. x (... (\x. x last)))
            node = Var(last)
            for _ in range(DEPTH):
                node = Lam("x", A, App(Var("x"), node))
            return node

        a, b = spine("z"), spine("z")
        assert a == b and hash(a) == hash(b)
        assert a != spine("w")

    def test_calculus_spines_deeper_than_the_stack(self):
        a, b = deep_spine(STAR, "v"), deep_spine(STAR, "v")
        assert a == b and hash(a) == hash(b)
        assert a != deep_spine(STAR, "u")


def reference_repr(value):
    """The dataclass `repr`, by its recursive definition."""
    if not isinstance(value, ptq.syntax._Tree):
        return repr(value)
    fields = (f"{f.name}={reference_repr(getattr(value, f.name))}" for f in dataclasses.fields(value))
    return f"{type(value).__qualname__}({', '.join(fields)})"


class TestRepr:
    """`repr` is the dataclass text, built with an explicit stack."""

    def test_same_as_the_recursive_definition(self, corpus):
        for m, _, _, _ in corpus:
            for term in (m, ptq_translate_e(m, Strategy.CBN), ptq_translate_e(m, Strategy.CBV)):
                assert repr(term) == reference_repr(term)
        for term in (STAR, KVar(), HOLE, Hole(A), PairPatLam("x", "h", PairTerm(Var("h"), HOLE))):
            assert repr(term) == reference_repr(term)
        assert repr(Hole(Arrow(A, B))) == "Hole(ty=Arrow(dom=Base(name='A'), cod=Base(name='B')))"

    def test_lambda_spines_deeper_than_the_stack(self):
        node = Var("x")
        for _ in range(DEPTH):
            node = Lam("y", None, App(Var("y"), node))
        expected = "Lam(x='y', xty=None, body=App(fn=Var(name='y'), arg=" * DEPTH + "Var(name='x')" + "))" * DEPTH
        same = repr(node) == expected  # no diff of two long texts on failure
        assert same

    def test_calculus_spines_deeper_than_the_stack(self):
        # deep_spine's wrappers, innermost first: each adds a prefix and a suffix
        jump = repr(QLam(A, PApp(KVar(), PVar("z"))))
        prefixes, suffixes = [], []
        for i in range(DEPTH // 5):
            for prefix, suffix in (
                ("Pair(fst=PVar(name='x'), snd=", ")"),
                ("PApp(test=", ", proof=PVar(name='y'))"),
                (f"XLam(x={'v' if i == 0 else 'w'!r}, xty=Base(name='A'), body=", ")"),
                (f"QApp(fn={jump}, test=", ")"),
                ("XLam(x='w', xty=Base(name='A'), body=", ")"),
            ):
                prefixes.append(prefix)
                suffixes.append(suffix)
        expected = "".join(reversed(prefixes)) + "Star()" + "".join(suffixes)
        same = repr(deep_spine(STAR, "v")) == expected  # no diff of two long texts on failure
        assert same

    def test_error_message_of_a_deep_image(self):
        # the message holds the whole image's text
        body = "f (" * 200 + "x" + ")" * 200
        image = ptq_translate(parse_lam(rf"(\f:A->A. \x:A. {body}) (\y:A. y) z"), Strategy.CBV)
        with pytest.raises(TypeError, match=r"^not a computation: QLam\(kty=") as info:
            classify(image)
        same = str(info.value) == f"not a computation: {image!r}"
        assert same


class TestOneBeta:
    @staticmethod
    def chain(stem, bottom):
        # \x0. x0 (\x1. x1 (... bottom)), one binder per level
        node = bottom
        for i in reversed(range(DEPTH)):
            node = Lam(f"{stem}{i}", A, App(Var(f"{stem}{i}"), node))
        return node

    def test_chains_deeper_than_the_stack(self):
        # the one redex sits at the bottom, below DEPTH binders
        m = self.chain("x", App(Lam("z", A, Var("z")), Var("w")))
        n = self.chain("y", Var("w"))
        assert reduces_in_one_beta(m, n)
        assert not reduces_in_one_beta(m, self.chain("y", Var("v")))
        assert not reduces_in_one_beta(m, m)
        assert not reduces_in_one_beta(n, n)
        (got,) = beta_contractions(m)
        assert lam_alpha_eq(got, n)


class TestPrinter:
    def test_type_str(self):
        assert type_str(Arrow(A, Arrow(B, A))) == "A -> B -> A"
        assert type_str(Arrow(Arrow(A, B), A)) == "(A -> B) -> A"

    def test_term_spacing(self):
        assert term_str(T("<y,*>;x")) == "<y, *> ; x"

    def test_embedded_binder_parenthesized(self):
        s = term_str(T(r"* ; \k:A. k ; x"))
        assert s == r"* ; (\k:A. k ; x)"

    def test_qapp_parens(self):
        assert term_str(T("(%k:A. k ; x) ! *")) == "(%k:A. k ; x) ! *"
