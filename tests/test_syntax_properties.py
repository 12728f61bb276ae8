"""Randomized laws for substitution, closure, and composition.

Term generation is by hypothesis over a small recursive grammar; the spine
state (closed by * or open at k) is threaded so generated tests are well
formed by construction.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from ptq import (
    App,
    Base,
    HOLE,
    KLam,
    KVar,
    Lam,
    PApp,
    Pair,
    PairLam,
    PairPatLam,
    PairTerm,
    PVar,
    QApp,
    QLam,
    STAR,
    Var,
    XLam,
    alpha_eq,
    beta_contractions,
    free_pvars,
    lam_alpha_eq,
    lam_str,
    lam_subst,
    is_t_closed,
    sort_of,
    parse_term,
    plug_hole,
    reduces_in_one_beta,
    star_compose,
    subst_pvar,
    t_close,
    t_open,
    term_str,
)
from ptq.lam import _LamNode, lam_free_vars
from ptq.syntax import _Node

A = Base("A")

# x_1, y_1 and y_2 are the names a renamed binder takes, so they test that a
# fresh name is fresh against the term as well as against the payload
NAME_LIST = ["x", "y", "z", "w", "x_1", "y_1", "y_2"]
NAMES = st.sampled_from(NAME_LIST)


def pterms(depth):
    if depth <= 0:
        return NAMES.map(PVar)
    return st.deferred(
        lambda: st.one_of(
            NAMES.map(PVar),
            st.builds(PairLam, NAMES, st.just(A), st.just(A), eterms(depth - 1, "k")),
            st.builds(KLam, st.just(A), eterms(depth - 1, "k")),
        )
    )


def tterms(depth, spine_kind):
    head = st.just(STAR) if spine_kind == "star" else st.just(KVar())
    if depth <= 0:
        return head
    return st.deferred(
        lambda: st.one_of(
            head,
            st.builds(Pair, pterms(depth - 1), tterms(depth - 1, spine_kind)),
            st.builds(XLam, NAMES, st.just(A), eterms(depth - 1, spine_kind)),
        )
    )


def qterms(depth, spine_kind):
    return st.builds(QLam, st.just(A), eterms(depth, spine_kind))


def eterms(depth, spine_kind):
    base = st.builds(PApp, tterms(depth - 1, spine_kind), pterms(depth - 1))
    if depth <= 0:
        return base
    return st.one_of(
        base,
        st.builds(QApp, qterms(depth - 1, "k"), tterms(depth - 1, spine_kind)),
    )


CLOSED_T = tterms(3, "star")
OPEN_T = tterms(3, "k")
CLOSED_E = eterms(3, "star")
P = pterms(3)
# deep enough that a binder's body can hold two free names, the shape in
# which a renamed binder can capture a name of its own body
DEEP_E = eterms(5, "star")


@settings(max_examples=200, derandomize=True)
@given(CLOSED_T)
def test_print_parse_round_trip_t(t):
    assert alpha_eq(parse_term(term_str(t)), t)


@settings(max_examples=200, derandomize=True)
@given(CLOSED_E)
def test_print_parse_round_trip_e(u):
    assert alpha_eq(parse_term(term_str(u)), u)


@settings(max_examples=200, derandomize=True)
@given(P)
def test_print_parse_round_trip_p(p):
    assert alpha_eq(parse_term(term_str(p)), p)


@settings(max_examples=200, derandomize=True)
@given(OPEN_T)
def test_closure_round_trip(t):
    assert t_open(t_close(t)) == t
    assert is_t_closed(t_close(t))


@settings(max_examples=200, derandomize=True)
@given(CLOSED_T)
def test_open_round_trip(t):
    assert t_close(t_open(t)) == t


@settings(max_examples=100, derandomize=True)
@given(CLOSED_T, CLOSED_T, CLOSED_T)
def test_star_compose_associative(a, b, c):
    assert alpha_eq(
        star_compose(star_compose(a, b), c), star_compose(a, star_compose(b, c))
    )


@settings(max_examples=200, derandomize=True)
@given(CLOSED_T)
def test_star_compose_neutral(t):
    assert alpha_eq(star_compose(STAR, t), t)
    assert alpha_eq(star_compose(t, STAR), t)


@settings(max_examples=200, derandomize=True)
@given(CLOSED_E, NAMES, P)
def test_subst_removes_free_occurrences(u, x, p):
    out = subst_pvar(u, x, p)
    assert x not in free_pvars(out) - free_pvars(p)


def substitutions(u, p):
    """u[q/x] for every name x and for q = p and every single name: a random
    payload alone rarely meets a binder above an occurrence of x."""
    for x in NAME_LIST:
        for q in [p, *map(PVar, NAME_LIST)]:
            yield x, q, subst_pvar(u, x, q)


@settings(max_examples=200, derandomize=True)
@given(DEEP_E, P)
def test_subst_free_names_exact(u, p):
    # a captured name of the payload, or a renamed binder that takes a free
    # name of u, breaks this equation
    for x, q, out in substitutions(u, p):
        brought = free_pvars(q) if x in free_pvars(u) else frozenset()
        assert free_pvars(out) == (free_pvars(u) - {x}) | brought


@settings(max_examples=200, derandomize=True)
@given(DEEP_E, P)
def test_subst_free_names_not_stale(u, p):
    # the reparsed term has fresh nodes with nothing cached
    for x in NAME_LIST:
        out = subst_pvar(u, x, p)
        assert free_pvars(out) == free_pvars(parse_term(term_str(out)))


def lamterms(depth):
    leaf = st.one_of(NAMES.map(Var), st.just(HOLE))
    if depth <= 0:
        return leaf
    sub = lamterms(depth - 1)
    binders = st.tuples(NAMES, NAMES).filter(lambda xh: xh[0] != xh[1])
    return st.one_of(
        leaf,
        st.builds(Lam, NAMES, st.none(), sub),
        st.builds(App, sub, sub),
        st.builds(lambda xh, body: PairPatLam(*xh, body), binders, sub),
    )


@settings(max_examples=200, derandomize=True)
@given(lamterms(4), lamterms(1))
def test_lam_subst_free_names_exact(m, p):
    # the lambda side of test_subst_free_names_exact, with the hole as one
    # more target: a renamed binder that takes the name being substituted
    # for, or a free name of m, breaks it
    for x in [*NAME_LIST, HOLE]:
        for q in [p, *map(Var, NAME_LIST)]:
            if x == HOLE:
                occurs, out = "[]" in lam_str(m), plug_hole(m, q)
            else:
                occurs, out = x in lam_free_vars(m), lam_subst(m, x, q)
            brought = lam_free_vars(q) if occurs else frozenset()
            assert lam_free_vars(out) == (lam_free_vars(m) - {x}) | brought


def contractions_reference(m):
    """Every one-step reduct of m, by the recursive definition."""
    match m:
        case Lam(x, xty, body):
            return [Lam(x, xty, b) for b in contractions_reference(body)]
        case App(fn, arg):
            out = [lam_subst(fn.body, fn.x, arg)] if isinstance(fn, Lam) else []
            out += [App(f, arg) for f in contractions_reference(fn)]
            return out + [App(fn, a) for a in contractions_reference(arg)]
        case PairTerm(fst, snd):
            out = [PairTerm(f, snd) for f in contractions_reference(fst)]
            return out + [PairTerm(fst, s) for s in contractions_reference(snd)]
        case PairPatLam(x, h, body):
            return [PairPatLam(x, h, b) for b in contractions_reference(body)]
    return []


@settings(max_examples=200, derandomize=True)
@given(lamterms(4), lamterms(3))
def test_beta_contractions_same_as_reference(m, n):
    # the same reducts in the same order, also under a pair
    for t in (m, PairTerm(m, n), App(Lam("x", None, n), m)):
        got = beta_contractions(t)
        assert got == contractions_reference(t)
        assert all(reduces_in_one_beta(t, c) for c in got)


# Substitution shares every subterm it does not enter, so lam_alpha_eq
# meets terms that share nodes. It must answer on them as on copies that
# share none: a comparison that stopped at a shared node would have to see
# how its free names are bound on each side.


def test_lam_alpha_eq_shared_body_under_other_binder():
    # one body node under binders of different names: identity alone must
    # not make the bodies equal
    m = Var("x")
    assert not lam_alpha_eq(Lam("x", A, m), Lam("y", A, m))
    assert lam_alpha_eq(Lam("x", A, m), Lam("x", A, m))
    assert lam_alpha_eq(Lam("y", A, App(m, Var("y"))), Lam("z", A, App(m, Var("z"))))


def unshared(m):
    """A copy of m that shares no node with m or with any other term."""
    return type(m)(
        *(
            unshared(v) if isinstance(v, _LamNode) else v
            for v in (getattr(m, f.name) for f in dataclasses.fields(m))
        )
    )


# a term over a pool of three subterms: a leaf is an index into the pool
SHAPES = st.recursive(
    st.integers(0, 2),
    lambda sub: st.one_of(
        st.tuples(st.just(Lam), NAMES, sub), st.tuples(st.just(App), sub, sub)
    ),
    max_leaves=6,
)


def over(shape, pool):
    if isinstance(shape, int):
        return pool[shape]
    if shape[0] is Lam:
        return Lam(shape[1], None, over(shape[2], pool))
    return App(over(shape[1], pool), over(shape[2], pool))


@st.composite
def sharing_pairs(draw):
    """Two lambda terms that share subterms: both are built over one pool,
    or the second renames the binder of the first by substitution, which
    shares every subterm without the old name."""
    pool = draw(st.lists(lamterms(2), min_size=3, max_size=3))
    a = over(draw(SHAPES), pool)
    if draw(st.booleans()):
        return a, over(draw(SHAPES), pool)
    x, y = draw(NAMES), draw(NAMES)
    return Lam(x, None, a), Lam(y, None, lam_subst(a, x, Var(y)))


@settings(max_examples=100, derandomize=True)
@given(sharing_pairs())
def test_lam_alpha_eq_same_on_shared_and_unshared(pair):
    a, b = pair
    assert lam_alpha_eq(a, b) == lam_alpha_eq(unshared(a), unshared(b))


# The same for calculus terms, which the one walk compares too: the states
# of a machine run share every node a rule leaves untouched.


def test_alpha_eq_shared_body_under_other_binder():
    m = PApp(STAR, PVar("x"))
    assert not alpha_eq(XLam("x", A, m), XLam("y", A, m))
    assert alpha_eq(XLam("x", A, m), XLam("x", A, m))
    x = PVar("x")
    assert alpha_eq(
        XLam("y", A, PApp(Pair(x, STAR), PVar("y"))),
        XLam("z", A, PApp(Pair(x, STAR), PVar("z"))),
    )


def unshared_term(t):
    """A copy of calculus term t that shares no node with t or any other term."""
    return type(t)(
        *(
            unshared_term(v) if isinstance(v, _Node) else v
            for v in (getattr(t, f.name) for f in dataclasses.fields(t))
        )
    )


# a program term over a pool of three: a leaf is an index into the pool
P_SHAPES = st.recursive(
    st.integers(0, 2),
    lambda sub: st.one_of(
        st.tuples(st.just(PairLam), NAMES, sub),
        st.tuples(st.just(XLam), NAMES, sub),
        st.tuples(st.just(KLam), sub, sub),
    ),
    max_leaves=6,
)


def p_over(shape, pool):
    if isinstance(shape, int):
        return pool[shape]
    if shape[0] is PairLam:
        return PairLam(shape[1], A, A, PApp(KVar(), p_over(shape[2], pool)))
    if shape[0] is XLam:
        x = shape[1]
        body = PApp(KVar(), p_over(shape[2], pool))
        return KLam(A, PApp(XLam(x, A, body), PVar(x)))
    return KLam(A, PApp(Pair(p_over(shape[1], pool), KVar()), p_over(shape[2], pool)))


@st.composite
def calculus_sharing_pairs(draw):
    """Two program terms that share subterms, built as `sharing_pairs`
    builds lambda terms."""
    pool = draw(st.lists(pterms(2), min_size=3, max_size=3))
    a = p_over(draw(P_SHAPES), pool)
    if draw(st.booleans()):
        return a, p_over(draw(P_SHAPES), pool)
    x, y = draw(NAMES), draw(NAMES)
    b = subst_pvar(a, x, PVar(y))
    return PairLam(x, A, A, PApp(KVar(), a)), PairLam(y, A, A, PApp(KVar(), b))


@settings(max_examples=100, derandomize=True)
@given(calculus_sharing_pairs())
def test_alpha_eq_same_on_shared_and_unshared(pair):
    a, b = pair
    assert alpha_eq(a, b) == alpha_eq(unshared_term(a), unshared_term(b))


@settings(max_examples=200, derandomize=True)
@given(CLOSED_E, NAMES)
def test_subst_identity_on_same_var(u, x):
    assert alpha_eq(subst_pvar(u, x, PVar(x)), u)


@settings(max_examples=200, derandomize=True)
@given(CLOSED_E)
def test_sorts_are_stable(u):
    assert sort_of(u) == "e"
    assert sort_of(parse_term(term_str(u))) == "e"
