"""The interpretation of terms into natural-number functionals.

Test terms denote second-order functionals (N -> N) -> N -> N, program terms
denote naturals, jump terms and computations denote (N -> N) -> N. The value
of a computation under the zero valuation, applied to the identity, is one
more than the number of control steps the machine takes before the first
Beta step or normal form; that law is what makes the measure a termination
certificate.

The measure is defined on t-closed terms, and `measure` checks that once, at
entry. Inside a binder body the bound k is the body's hole, so it denotes
what * denotes and bodies are read as they stand, never rebuilt.

Valuations map program variables to naturals. The exported `o` maps every
variable to zero; user-supplied mappings must be total on the free variables.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union
import warnings

from .errors import MeasureZero, MissingVariableMeasure, PtqError
from .syntax import (
    ETerm,
    KLam,
    KVar,
    Pair,
    PairLam,
    PApp,
    PVar,
    QApp,
    QLam,
    Star,
    Term,
    XLam,
    _require_t_closed,
    free_pvars,
    sort_of,
    term_str,
)
from .typecheck import infer_ptq


def identity(n: int) -> int:
    return n


class ZeroDefault(dict):
    """A valuation that reads as zero wherever it was never written."""

    def __missing__(self, key: str) -> int:
        return 0


o: Mapping[str, int] = ZeroDefault()


def _extend(sigma: Mapping[str, int], x: str, n: int) -> Mapping[str, int]:
    out = ZeroDefault(sigma) if isinstance(sigma, ZeroDefault) else dict(sigma)
    out[x] = n
    return out


def measure(
    term: Term, sigma: Optional[Mapping[str, int]] = None
) -> Union[int, Callable]:
    """The denotation of `term` under the valuation `sigma`.

    Program terms yield an int; test terms a functional f -> n -> int; jump
    terms and computations a functional f -> int. Test and computation terms
    must be t-closed.
    """
    if sigma is None:
        sigma = o
    elif not isinstance(sigma, ZeroDefault):
        missing = sorted(free_pvars(term) - set(sigma))
        if missing:
            raise MissingVariableMeasure(", ".join(missing))
    _require_t_closed(term)
    return _measure(term, sigma)


def _measure(term: Term, sigma: Mapping[str, int]):
    match term:
        case PVar(name):  # `measure` checked that sigma covers the free names
            return sigma[name]
        case PairLam():
            return 0
        case KLam(_, body):
            return _measure(body, sigma)(identity)
        case Star() | KVar():
            return lambda f: lambda n: f(n)
        case Pair():
            return lambda f: lambda n: n
        case XLam(x, _, body):
            return lambda f: lambda n: _measure(body, _extend(sigma, x, n))(f)
        case QLam(_, body):
            return _measure(body, sigma)
        case PApp(test, proof):
            tden = _measure(test, sigma)
            pden = _measure(proof, sigma)
            return lambda f: tden(f)(pden) + 1
        case QApp(fn, test):
            qden = _measure(fn, sigma)
            tden = _measure(test, sigma)
            return lambda f: qden(tden(f)) + 1
    raise TypeError(f"not a term: {term!r}")


class IllTypedMeasureWarning(UserWarning):
    pass


def control_length(u: ETerm, env=None) -> int:
    """Number of control steps before the first Beta redex or normal form,
    read off the measure: measure(u, o)(identity) - 1.

    The law requires a well-typed computation. Pass a TypeEnv with a star
    anchor to have that verified; an ill-typed subject then warns and the
    formula value is still returned.
    """
    if sort_of(u) != "e":
        raise TypeError("control_length takes a computation")
    value = measure(u, o)(identity)
    if env is not None:
        try:
            infer_ptq(env, u)
        except PtqError as exc:
            warnings.warn(
                f"control_length on an ill-typed computation: {exc}",
                IllTypedMeasureWarning,
                stacklevel=2,
            )
    if value == 0:
        raise MeasureZero(term_str(u))
    return value - 1
