"""The checks where a term enters, which the walks behind them trust.

Each translation entry rejects, before any clause runs, a source with a
hole, a pair or a foreign node at any depth, and one whose annotations or
env mention the answer type o. The substitution entries reject arguments
that are not terms. (That node constructors reject a child that is not a
term is checked in `test_syntax.py`.) The guards kept inside the walks are
those a node of the other language reaches: it has free names, so the
constructors of both languages take it as a child.
"""

import re

import pytest

from ptq import (
    Arrow,
    Base,
    EvalOrder,
    Pairing,
    ReservedBaseType,
    Strategy,
    UncurriedNeedsPairs,
    aux_translate,
    lam_subst,
    measure,
    parse_lam,
    plotkin_translate,
    plug_hole,
    ptq_translate,
    ptq_translate_e,
    readback,
    subst_pvar,
    translate_type,
    type_str,
)
from ptq.errors import PtqError
from ptq.lam import HOLE, App, Lam, PairTerm, Var
from ptq.syntax import PApp, PVar, STAR, XLam

A = Base("A")
O = Base("o")

# ---------------------------------------------------------------------------
# each translation entry checks its source before any clause runs


def _entries():
    """Every translation entry, as (id, call of source and env)."""
    for strategy in Strategy:
        s = strategy.value
        yield f"term-{s}", lambda m, env, s=strategy: ptq_translate(m, s, env)
        yield f"eterm-{s}", lambda m, env, s=strategy: ptq_translate_e(m, s, env)
        yield f"aux-{s}", lambda m, env, s=strategy: aux_translate(m, s, env)
        for order in EvalOrder:
            for pairing in Pairing:
                yield (
                    f"plotkin-{s}-{order.value}-{pairing.value}",
                    lambda m, env, s=strategy, o=order, p=pairing: plotkin_translate(
                        m, s, o, p, env
                    ),
                )


ENTRIES = [pytest.param(call, id=name) for name, call in _entries()]
ENVS = [pytest.param(None, id="no-env"), pytest.param({"f": Arrow(A, A)}, id="env")]

BAD_SOURCES = [
    pytest.param(
        Lam("x", A, App(Var("x"), HOLE)),
        PtqError,
        "translation handles terms without holes",
        id="nested-hole",
    ),
    pytest.param(
        Lam("x", None, PairTerm(Var("x"), Var("x"))),
        UncurriedNeedsPairs,
        "translation handles the plain language only",
        id="pair",
    ),
    pytest.param(
        App(Var("f"), PVar("x")),
        TypeError,
        "not a lambda term: PVar(name='x')",
        id="calculus-node",
    ),
    pytest.param("y", TypeError, "not a lambda term: 'y'", id="non-term-root"),
]


@pytest.mark.parametrize("env", ENVS)
@pytest.mark.parametrize("source, error, message", BAD_SOURCES)
@pytest.mark.parametrize("call", ENTRIES)
def test_each_entry_rejects_a_source_outside_the_plain_language(
    call, source, error, message, env
):
    with pytest.raises(error) as exc:
        call(source, env)
    assert str(exc.value) == message


@pytest.mark.parametrize("strategy", list(Strategy))
def test_aux_translate_reports_a_hole_before_the_application(strategy):
    with pytest.raises(PtqError, match="^translation handles terms without holes$"):
        aux_translate(App(Var("f"), HOLE), strategy)
    with pytest.raises(TypeError, match="^aux translation is defined on values$"):
        aux_translate(App(Var("f"), Var("x")), strategy)


# ---------------------------------------------------------------------------
# the guards a node of the other language reaches

MIXED_CALCULUS = PApp(STAR, Var("x"))  # a lambda variable as a program
MIXED_LAMBDA = App(Var("f"), PVar("x"))  # a program variable as an argument


class TestKeptGuards:
    def test_program_substitution(self):
        with pytest.raises(TypeError, match=r"^not a term: Var\(name='x'\)$"):
            subst_pvar(MIXED_CALCULUS, "x", PVar("z"))

    def test_lambda_substitution(self):
        with pytest.raises(TypeError, match=r"^not a lambda term: PVar\(name='x'\)$"):
            lam_subst(MIXED_LAMBDA, "x", Var("z"))

    # below a binder that must rename, since y is free in the payload: the
    # second node holds y, so the rename's walk reaches it first
    @pytest.mark.parametrize("stray", [Var("x"), App(Var("x"), Var("y"))])
    def test_program_substitution_below_a_binder(self, stray):
        with pytest.raises(TypeError, match=rf"^not a term: {re.escape(repr(stray))}$"):
            subst_pvar(XLam("y", None, PApp(STAR, stray)), "x", PVar("y"))

    @pytest.mark.parametrize("stray", [PVar("x"), PApp(STAR, PVar("y"))])
    def test_lambda_substitution_below_a_binder(self, stray):
        with pytest.raises(TypeError, match=rf"^not a lambda term: {re.escape(repr(stray))}$"):
            lam_subst(Lam("y", None, App(Var("x"), stray)), "x", Var("y"))

    @pytest.mark.parametrize("sigma", [None, {"x": 0}])
    def test_measure(self, sigma):
        with pytest.raises(TypeError, match=r"^not a term: Var\(name='x'\)$"):
            measure(MIXED_CALCULUS, sigma)

    def test_readback(self):
        with pytest.raises(TypeError, match=r"^not a term: Var\(name='x'\)$"):
            readback(MIXED_CALCULUS)

    def test_types(self):
        with pytest.raises(TypeError, match=r"^not a type: 'B'$"):
            type_str(Arrow(A, "B"))
        with pytest.raises(TypeError, match=r"^not a type: 'B'$"):
            translate_type(Arrow(A, "B"), Strategy.CBN)


# ---------------------------------------------------------------------------
# the answer type in a source, and substitution arguments that are not terms


@pytest.mark.parametrize("call", ENTRIES)
class TestReservedAnswerType:
    """o is the answer type of every image, so a source may not mention it,
    typed or not, in a binder annotation or in its env."""

    MESSAGE = "^base type o is reserved for CPS types$"

    @pytest.mark.parametrize(
        "text", [r"\x:o. x", r"\x:A -> o. x", r"\f. \x:(o -> A) -> A. f x", r"(\x:o. x) y"]
    )
    def test_in_a_binder(self, call, text):
        with pytest.raises(ReservedBaseType, match=self.MESSAGE):
            call(parse_lam(text), None)

    @pytest.mark.parametrize("ty", [O, Arrow(A, O), Arrow(Arrow(O, A), A)])
    def test_in_the_env(self, call, ty):
        with pytest.raises(ReservedBaseType, match=self.MESSAGE):
            call(parse_lam(r"\x:A. x"), {"y": ty})


class TestSubstitutionArguments:
    """The substitution entries check both arguments, as `subst_k` does: a
    non-term, or a node of the other language, whether or not the target is
    free in the term."""

    @pytest.mark.parametrize("bad", ["y", None, 3, Var("x"), Var("y")])
    def test_program_substitution(self, bad):
        with pytest.raises(TypeError, match=rf"^not a term: {re.escape(repr(bad))}$"):
            subst_pvar(bad, "x", PVar("z"))
        with pytest.raises(TypeError, match=rf"^not a term: {re.escape(repr(bad))}$"):
            subst_pvar(PApp(STAR, PVar("x")), "x", bad)

    @pytest.mark.parametrize("subst", [lambda m, n: lam_subst(m, "x", n), plug_hole])
    @pytest.mark.parametrize("bad", ["y", None, 3, PVar("x"), PVar("y"), PApp(STAR, PVar("z"))])
    def test_lambda_substitution(self, subst, bad):
        with pytest.raises(TypeError, match=rf"^not a lambda term: {re.escape(repr(bad))}$"):
            subst(bad, Var("z"))
        for m in (App(Var("x"), HOLE), Var("x"), Var("w")):
            with pytest.raises(TypeError, match=rf"^not a lambda term: {re.escape(repr(bad))}$"):
                subst(m, bad)
