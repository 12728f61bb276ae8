"""The substitution kernels of both term languages: exact terms against the
recursive reference walks they replaced, sharing of untouched subterms, and
k and * spines deeper than the Python stack."""

import pytest
from hypothesis import given, settings, strategies as st

import ptq.lam
import ptq.syntax
from ptq import (
    K,
    KLam,
    KVar,
    Pair,
    PairLam,
    PApp,
    PVar,
    QApp,
    QLam,
    STAR,
    Star,
    XLam,
    subst_k,
    subst_pvar,
    subst_star,
    t_close,
    t_open,
    term_str,
)
from ptq.lam import HOLE, App, Hole, Lam, PairPatLam, PairTerm, Var, lam_subst, plug_hole
from test_syntax_properties import (
    A,
    CLOSED_E,
    CLOSED_T,
    DEEP_E,
    NAME_LIST,
    NAMES,
    OPEN_T,
    P,
    eterms,
    lamterms,
)


def reference_avoid(x, body, payload):
    if x in payload._fv:
        x2 = ptq.syntax.fresh_name(x, payload._fv | body._fv)
        return x2, reference_subst(body, ("p", x), PVar(x2))
    return x, body


def reference_subst(term, target, payload):
    """The one recursive walk the kernels replaced: it matches every node
    for every target and recurses once per level of nesting. The k and *
    targets stop at every k-binder, so * is replaced only at the end of the
    spine, as a well-typed term holds it."""
    kind = target[0]
    if kind == "p" and target[1] not in term._fv:
        return term
    match term:
        case PVar():
            return payload if kind == "p" else term
        case PairLam(x, xty, kty, body):
            if kind != "p":
                return term
            x, body = reference_avoid(x, body, payload)
            return PairLam(x, xty, kty, reference_subst(body, target, payload))
        case KLam(kty, body):
            if kind != "p":
                return term
            return KLam(kty, reference_subst(body, target, payload))
        case QLam(kty, body):
            if kind != "p":
                return term
            return QLam(kty, reference_subst(body, target, payload))
        case Star():
            return payload if kind == "*" else term
        case KVar():
            return payload if kind == "k" else term
        case Pair(fst, snd):
            return Pair(reference_subst(fst, target, payload), reference_subst(snd, target, payload))
        case XLam(x, xty, body):
            x, body = reference_avoid(x, body, payload)
            return XLam(x, xty, reference_subst(body, target, payload))
        case PApp(test, proof):
            return PApp(reference_subst(test, target, payload), reference_subst(proof, target, payload))
        case QApp(fn, test):
            return QApp(reference_subst(fn, target, payload), reference_subst(test, target, payload))
    raise TypeError(f"not a term: {term!r}")


TERMS = [CLOSED_T, OPEN_T, CLOSED_E, DEEP_E, P, eterms(5, "k")]
TERM_IDS = ["closed_t", "open_t", "closed_e", "deep_e", "p", "deep_open_e"]

# t-closed test payloads; the second kind always has a free name from the
# pool the generated binders use, so binders on the spine get renamed
T_PAYLOADS = st.one_of(CLOSED_T, st.builds(Pair, NAMES.map(PVar), CLOSED_T))


def assert_shares_untouched(before, after, x):
    """Down every path a p substitution rebuilt, each child in which x is not
    free is the input's own object."""
    if x not in before._fv:
        assert after is before
        return
    if isinstance(before, (XLam, PairLam)) and after.x != before.x:
        return  # a renamed binder's body is a new term
    children = ptq.syntax._CHILDREN[type(before)]
    for b, a in zip(children(before), children(after)):
        assert_shares_untouched(b, a, x)


@pytest.mark.parametrize("terms", TERMS, ids=TERM_IDS)
def test_kernels_same_as_reference(terms):
    @settings(max_examples=100, derandomize=True)
    @given(terms, P, T_PAYLOADS)
    def check(term, p, t):
        for x in NAME_LIST:
            out = subst_pvar(term, x, p)
            assert out == reference_subst(term, ("p", x), p)
            assert_shares_untouched(term, out, x)
        assert subst_k(term, t) == reference_subst(term, ("k",), t)
        assert subst_star(term, t) == reference_subst(term, ("*",), t)

    check()


def test_k_target_renames_along_the_spine():
    # the binders \y and \x on the spine would capture the payload's y and x
    term = XLam("y", A, PApp(Pair(PVar("y"), XLam("x", A, PApp(K, PVar("x")))), PVar("z")))
    payload = Pair(PVar("x"), Pair(PVar("y"), STAR))
    out = subst_k(term, payload)
    assert out == reference_subst(term, ("k",), payload)
    assert term_str(out) == r"\y_1:A. <y_1, (\x_1:A. <x, <y, *>> ; x_1)> ; z"


DEPTH = 10_000


def deep_spine(end, innermost_binder, outer_binder="w"):
    """A test term whose spine runs DEPTH nodes through Pair, PApp, XLam and
    QApp to `end`, every binder but the innermost named `outer_binder`;
    built in a loop, since a recursive builder would need a stack as deep as
    the term."""
    jump = QLam(A, PApp(K, PVar("z")))
    node = end
    for i in range(DEPTH // 5):
        node = Pair(PVar("x"), node)
        node = PApp(node, PVar("y"))
        node = XLam(innermost_binder if i == 0 else outer_binder, A, node)
        node = QApp(jump, node)
        node = XLam(outer_binder, A, node)
    return node


def test_k_target_through_a_spine_deeper_than_the_stack():
    # the innermost binder \v would capture the payload's v, so it is renamed
    # at the bottom of the spine
    payload = Pair(PVar("v"), STAR)
    term = deep_spine(K, "v")
    out = subst_k(term, payload)
    assert term_str(out) == term_str(deep_spine(payload, "v_1"))
    with pytest.raises(RecursionError):
        reference_subst(term, ("k",), payload)


def test_k_target_renames_every_outer_binder_of_a_deep_spine():
    # every \w on the spine, the outermost first, would capture the
    # payload's w; each body's free names are read from the node, not walked
    payload = Pair(PVar("w"), STAR)
    out = subst_k(deep_spine(K, "v"), payload)
    assert term_str(out) == term_str(deep_spine(payload, "v", "w_1"))


def test_star_target_through_a_spine_deeper_than_the_stack():
    payload = Pair(PVar("v"), STAR)
    term = deep_spine(STAR, "v")
    assert term_str(subst_star(term, payload)) == term_str(deep_spine(payload, "v_1"))
    assert term_str(t_open(term)) == term_str(deep_spine(K, "v"))


def test_open_leaves_a_star_under_a_k_binder():
    # only an anchor-ill-typed term holds a * off its spine; t_open used to
    # turn it into the k of the inner binder, and t_close could not undo that
    term = Pair(KLam(A, PApp(STAR, PVar("x"))), STAR)
    opened = t_open(term)
    assert opened == Pair(term.fst, K)
    assert t_close(opened) == term
    assert subst_star(term, Pair(PVar("y"), STAR)) == Pair(term.fst, Pair(PVar("y"), STAR))


# ---------------------------------------------------------------------------
# lambda terms


def reference_lam_free_vars(m):
    match m:
        case Var(name):
            return frozenset((name,))
        case Lam(x, _, body):
            return reference_lam_free_vars(body) - {x}
        case App(fn, arg) | PairTerm(fst=fn, snd=arg):
            return reference_lam_free_vars(fn) | reference_lam_free_vars(arg)
        case Hole():
            return frozenset()
        case PairPatLam(x, h, body):
            return reference_lam_free_vars(body) - {x, h}
    raise TypeError(f"not a lambda term: {m!r}")


def reference_occurs(m, target):
    """Whether the target, a variable name or HOLE, occurs free in m."""
    match m:
        case Var(x):
            return x == target
        case Hole():
            return target is HOLE
        case Lam(x, _, body):
            return x != target and reference_occurs(body, target)
        case PairPatLam(x, h, body):
            return target not in (x, h) and reference_occurs(body, target)
        case App(fn, arg) | PairTerm(fst=fn, snd=arg):
            return reference_occurs(fn, target) or reference_occurs(arg, target)
    raise TypeError(f"not a lambda term: {m!r}")


def reference_rename(x, body, avoid):
    x2 = ptq.syntax.fresh_name(x, avoid | reference_lam_free_vars(body))
    return x2, reference_lam_subst(body, x, Var(x2), frozenset((x2,)))


def reference_lam_subst(t, target, payload, fv):
    """The walk the cached free names replaced: its target is a name or HOLE,
    and it walks every child and, before renaming a binder, its body."""
    match t:
        case Var(x):
            return payload if x == target else t
        case Hole():
            return payload if target is HOLE else t
        case Lam(x, xty, body):
            if x == target:
                return t
            if x in fv and reference_occurs(body, target):
                x, body = reference_rename(x, body, fv)
            new = reference_lam_subst(body, target, payload, fv)
            return t if new is t.body else Lam(x, xty, new)
        case App(fn, arg):
            f = reference_lam_subst(fn, target, payload, fv)
            a = reference_lam_subst(arg, target, payload, fv)
            return t if f is fn and a is arg else App(f, a)
        case PairTerm(fst, snd):
            f = reference_lam_subst(fst, target, payload, fv)
            s = reference_lam_subst(snd, target, payload, fv)
            return t if f is fst and s is snd else PairTerm(f, s)
        case PairPatLam(x, h, body):
            if target in (x, h):
                return t
            if (x in fv or h in fv) and reference_occurs(body, target):
                if x in fv:
                    x, body = reference_rename(x, body, fv | {h})
                if h in fv:
                    h, body = reference_rename(h, body, fv | {x})
            new = reference_lam_subst(body, target, payload, fv)
            return t if new is t.body else PairPatLam(x, h, new)
    raise TypeError(f"not a lambda term: {t!r}")


def assert_lam_shares_untouched(before, after, target):
    """Down every path a substitution rebuilt, each child without a free
    occurrence of the target is the input's own object."""
    if not reference_occurs(before, target):
        assert after is before
        return
    if isinstance(before, Lam) and after.x != before.x:
        return  # a renamed binder's body is a new term
    if isinstance(before, PairPatLam) and (after.x, after.h) != (before.x, before.h):
        return
    children = ptq.lam._CHILDREN[type(before)]
    for b, a in zip(children(before), children(after)):
        assert_lam_shares_untouched(b, a, target)


@settings(max_examples=200, derandomize=True)
@given(lamterms(4), lamterms(1))
def test_lam_subst_same_as_reference(m, p):
    # the payloads' free names come from the pool the binders use, so
    # binders get renamed, a pair binder against its partner too
    for x in [*NAME_LIST, HOLE]:
        for q in [p, *map(Var, NAME_LIST)]:
            out = plug_hole(m, q) if x is HOLE else lam_subst(m, x, q)
            assert out == reference_lam_subst(m, x, q, reference_lam_free_vars(q))
            assert_lam_shares_untouched(m, out, x)


def test_lam_subst_into_a_pair():
    # the generated terms hold no pair constructor, so this is the walk's
    # one pass through a PairTerm: both components are substituted, and the
    # pair binder under it is renamed away from the payload
    m = ptq.lam.parse_lam(r"(y, \(x, z). y z)")
    assert ptq.lam.lam_str(lam_subst(m, "y", Var("z"))) == r"(z, \(x, z_1). z z_1)"
