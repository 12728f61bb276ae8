"""The checks where a term enters, which the walks behind them trust.

Each translation entry rejects, before any clause runs, a source with a
hole or a pair at any depth or a foreign root, and one whose annotations or
env mention the answer type o. The substitution entries reject arguments
that are not terms. A node of the other language can only be a root: each
constructor refuses it as a child, so the walks behind the entries never
meet one. (Every constructor's check of every child is in `test_syntax.py`.)
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
from ptq.syntax import PApp, PVar, STAR

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
    pytest.param(PVar("x"), TypeError, "not a lambda term: PVar(name='x')", id="calculus-root"),
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
# a node of the other language, refused where it is built or at the root


class TestForeignNodes:
    @pytest.mark.parametrize("stray", [Var("x"), App(Var("x"), Var("y"))])
    def test_a_lambda_node_as_a_program(self, stray):
        with pytest.raises(TypeError, match=rf"^not a term: {re.escape(repr(stray))}$"):
            PApp(STAR, stray)

    @pytest.mark.parametrize("stray", [PVar("x"), PApp(STAR, PVar("y"))])
    def test_a_calculus_node_as_an_argument(self, stray):
        with pytest.raises(TypeError, match=rf"^not a lambda term: {re.escape(repr(stray))}$"):
            App(Var("x"), stray)

    @pytest.mark.parametrize("sigma", [None, {"x": 0}])
    def test_measure(self, sigma):
        with pytest.raises(TypeError, match=r"^not a term: Var\(name='x'\)$"):
            measure(Var("x"), sigma)

    def test_readback(self):
        with pytest.raises(TypeError, match=r"^not a term: Var\(name='x'\)$"):
            readback(Var("x"))


def test_a_type_that_holds_a_non_type():
    # `Arrow` checks nothing, so the type walks meet it at any depth
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
