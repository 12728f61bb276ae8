"""Property harness: generate typed terms, run both sides, compare diagrams.

The generator builds closed, simply typed, fully annotated lambda terms,
deterministically from (size, seed); size bounds the number of application
nodes. Each property replays a diagram between the reference evaluators and
the machine:

  completeness  the machine run of the translated term passes through the
                translation of the evaluator's normal form
  soundness     every term along the machine run reads back to a term on the
                evaluator's chain
  simulation    single evaluator steps match machine segments, and machine
                normal forms mean evaluator normal forms
  sim-beta      the normal form of the machine run reads back to the lazy
                normal form of the source

Machine runs are instrumented and anchored at the source's type, which the
translation's own walk returns with the image (an untyped source raises the
error `infer_lambda_box` gives); `check_typing` alone infers that type
apart, with `infer_lambda_box`, as the reference it checks the images
against. Every state is checked against the typing judgment, every step
certifies the readback (control steps preserve it, Beta steps advance it by
one beta step, which holds when each test binder binds its variable exactly
once, as in translation images; see `ptq.readback`), and control steps must
drop the measure by exactly one. A rule shares every subterm it does not
touch with the next state, and a node keeps its type and its readback image
once they are computed, so each distinct closed program or jump node is
typed once and each program or jump node is read back once. Any violation
becomes a counterexample in the report, replayable from (property, size,
seed).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from .errors import OracleDiverged, FuelExhausted, PtqError
from .lam import App, Lam, LamTerm, Var, lam_alpha_eq, lam_str, reduces_in_one_beta
from .lambda_eval import EvalOrder, Strategy, eval_small, step_lambda
from .machine import classify, control_prefix, normalize
from .measure import control_length
from .readback import readback
from .syntax import Arrow, Base, ETerm, PApp, QApp, STAR, Type, alpha_eq, term_str
from .translate import _translate, ptq_translate, ptq_translate_e
from .typecheck import LamEnv, PtqType, TypeEnv, infer_lambda_box, infer_ptq

ORACLE_FUEL = 10**4
MACHINE_FUEL = 10**6

X = Base("X")

# application argument and binder types, all depth three or less over X
TYPE_MENU: tuple[Type, ...] = (
    X,
    Arrow(X, X),
    Arrow(X, Arrow(X, X)),
    Arrow(Arrow(X, X), X),
    Arrow(Arrow(X, X), Arrow(X, X)),
)

# closed targets for the top level, each inhabited without assumptions
TOP_MENU: tuple[Type, ...] = (
    Arrow(X, X),
    Arrow(X, Arrow(X, X)),
    Arrow(Arrow(X, X), Arrow(X, X)),
    Arrow(Arrow(Arrow(X, X), X), Arrow(X, X)),
)


class _Dead(Exception):
    pass


def gen_typed_term(size: int, seed: int) -> tuple[LamTerm, Type]:
    """A closed, fully annotated, well typed term with at most `size`
    application nodes. Deterministic in (size, seed)."""
    rng = random.Random(f"{size}:{seed}")
    target = rng.choice(TOP_MENU)
    # no retry: each target ends in X -> X, which binders and a variable finish
    return _gen(rng, (), target, size, 0), target


def _gen(rng, scope: tuple[tuple[str, Type], ...], want: Type, budget: int, depth: int) -> LamTerm:
    choices = []
    if isinstance(want, Arrow):
        choices.append("lam")
    vars_here = [x for x, ty in scope if ty == want]
    if vars_here:
        choices.append("var")
    if budget > 0 and depth < 12:
        choices += ["app", "app"]
    if not choices:
        raise _Dead
    rng.shuffle(choices)
    for choice in choices:
        try:
            if choice == "lam":
                x = f"x{len(scope)}"
                body = _gen(rng, scope + ((x, want.dom),), want.cod, budget, depth + 1)
                return Lam(x, want.dom, body)
            if choice == "var":
                return Var(rng.choice(vars_here))
            arg_ty = rng.choice(TYPE_MENU + tuple(ty for _, ty in scope))
            split = rng.randint(0, budget - 1)
            fn = _gen(rng, scope, Arrow(arg_ty, want), split, depth + 1)
            arg = _gen(rng, scope, arg_ty, budget - 1 - split, depth + 1)
            return App(fn, arg)
        except _Dead:
            continue
    raise _Dead


# ---------------------------------------------------------------------------
# reports


@dataclass
class PropertyReport:
    prop: str
    size: int
    seed: int
    instance: str
    ok: bool
    failures: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    steps: int = 0

    def fail(self, message: str, kind: str = "outcome") -> None:
        self.ok = False
        self.failures.append(message)
        self.kinds.append(kind)

    def count(self, kind: str) -> int:
        return self.kinds.count(kind)

    def to_dict(self) -> dict:
        fields = asdict(self)
        return {"property": fields.pop("prop"), **fields}


def _oracle_chain(m: LamTerm, strategy: Strategy) -> list[LamTerm]:
    try:
        _, chain = eval_small(m, strategy, EvalOrder.ARGUMENT_FIRST, ORACLE_FUEL)
    except FuelExhausted as exc:
        raise OracleDiverged(str(exc)) from exc
    return chain


def _start_term(m: LamTerm, strategy: Strategy) -> tuple[ETerm, Optional[Type]]:
    """The computation that runs the plain translation against *, and the
    type of m read off the translation's walk (None when m is untyped)."""
    image, ty = _translate(m, strategy)
    if Strategy(strategy) is Strategy.CBN:
        return PApp(STAR, image), ty
    return QApp(image, STAR), ty


def _closed_ty(m: LamTerm, walked: Optional[Type]) -> Type:
    """The anchor type of m's run: walked, the type the translation's walk
    read off m; when that walk found m untyped, `infer_lambda_box` raises
    why."""
    if walked is not None:
        return walked
    return infer_lambda_box(LamEnv((), None), m)


# ---------------------------------------------------------------------------
# instrumented machine runs


def _check_state(env: TypeEnv, state: ETerm, report: PropertyReport, tag=None) -> None:
    """Record in report why state fails to check under env, if it does: the
    initial term when tag is None, else the state that rule tag made."""
    try:
        infer_ptq(env, state)
    except PtqError as exc:
        what = "initial term failed to check"
        if tag is not None:
            what = f"subject reduction broke after {tag.value}"
        report.fail(f"{what}: {exc}", "subject-reduction")


def run_checked(
    u: ETerm, anchor_ty: Type, report: PropertyReport
) -> tuple[list[ETerm], list[LamTerm]]:
    """Check the per-step laws on normalize's trace from u, record its step
    count in the report, and return its states and their readbacks.
    anchor_ty is the type of the source that u translates; the checks take
    it from the translation's walk.

    Checks, per step: the judgment G |> *:tA |- u survives; control steps
    keep the readback fixed up to alpha while Beta steps advance it by one
    beta step, which holds when each test binder binds its variable exactly
    once (see `ptq.readback`); control steps drop control_length by exactly
    one. Each state is read back once, and its control_length is carried to
    the next step.

    The states share every node a rule leaves untouched. A closed program
    or jump node keeps its type, and any program or jump node its image, on
    itself (see `ptq.syntax._Node`), so each such node is typed and read
    back once, and neighbouring readbacks share those images, which the
    alpha-equivalence walk passes over without entering them. Every state
    is still checked in full: a node is skipped only where it was typed
    before with no free names to vary, and a failure is never kept, so a
    node that fails does so in every state that holds it. Every state still
    passes readback's t-closure check.
    """
    env = TypeEnv((), ("star", anchor_ty))
    _check_state(env, u, report)
    trace = normalize(u, MACHINE_FUEL).trace
    chain = trace.terms()
    report.steps = len(trace.steps)
    readbacks = [readback(t) for t in chain]
    len_before = None
    for i, s in enumerate(trace.steps):
        current, tag, after = chain[i], s.rule, s.term
        _check_state(env, after, report, tag)
        rb_before, rb_after = readbacks[i], readbacks[i + 1]
        len_after = None
        if tag.rule_class == "control":
            if not lam_alpha_eq(rb_before, rb_after):
                report.fail(
                    f"control step {tag.value} moved the readback: "
                    f"{lam_str(rb_before)} to {lam_str(rb_after)}",
                    "rb-soundness",
                )
            if len_before is None:
                len_before = control_length(current)
            len_after = control_length(after)
            if len_after != len_before - 1:
                report.fail(
                    f"control step {tag.value} took control_length "
                    f"{len_before} to {len_after}",
                    "control-length",
                )
        elif not reduces_in_one_beta(rb_before, rb_after):
            report.fail(
                f"Beta step is not one beta step on readbacks: "
                f"{lam_str(rb_before)} to {lam_str(rb_after)}",
                "rb-soundness",
            )
        len_before = len_after
    if not trace.normal:
        report.fail(f"machine fuel exhausted after {MACHINE_FUEL} steps", "fuel")
    return chain, readbacks


# ---------------------------------------------------------------------------
# the properties


def check_completeness(
    m: LamTerm, strategy: Strategy, size: int = -1, seed: int = -1
) -> PropertyReport:
    """The machine run from the translated start term ends at the e-image of
    the evaluator's normal form."""
    report = PropertyReport("completeness", size, seed, lam_str(m), True)
    normal = _oracle_chain(m, strategy)[-1]
    start, ty = _start_term(m, strategy)
    chain, _ = run_checked(start, _closed_ty(m, ty), report)
    expected = ptq_translate_e(normal, strategy)
    if alpha_eq(chain[-1], expected):  # the usual end, so tested first
        pass
    elif not any(alpha_eq(t, expected) for t in chain[:-1]):
        report.fail(
            f"machine run never reached {term_str(expected)}; "
            f"ended at {term_str(chain[-1])}"
        )
    else:
        report.fail(
            f"machine run went past {term_str(expected)} to {term_str(chain[-1])}"
        )
    return report


def check_soundness(
    m: LamTerm, strategy: Strategy, size: int = -1, seed: int = -1
) -> PropertyReport:
    """Every readback along the machine run lies on the evaluator's chain."""
    report = PropertyReport("soundness", size, seed, lam_str(m), True)
    oracle = _oracle_chain(m, strategy)
    start, ty = _start_term(m, strategy)
    _, readbacks = run_checked(start, _closed_ty(m, ty), report)
    for rb in readbacks:
        if not any(lam_alpha_eq(rb, o) for o in oracle):
            report.fail(f"readback {lam_str(rb)} is not reachable from {lam_str(m)}")
    return report


def check_simulation(
    m: LamTerm, strategy: Strategy, size: int = -1, seed: int = -1
) -> PropertyReport:
    """One evaluator step corresponds to a machine segment between e-images,
    and e-images of normal forms are machine-normal."""
    report = PropertyReport("simulation", size, seed, lam_str(m), True)
    image, ty = _translate(m, strategy, computation=True)
    nxt = step_lambda(m, strategy)
    image_normal = classify(image) is None
    if nxt is None:
        if not image_normal:
            report.fail(f"{term_str(image)} should be machine-normal")
        return report
    if image_normal:
        report.fail(f"{term_str(image)} should not be machine-normal")
        return report
    target = ptq_translate_e(nxt, strategy)
    chain, _ = run_checked(image, _closed_ty(m, ty), report)
    if not any(alpha_eq(t, target) for t in chain):
        report.fail(
            f"machine run from {term_str(image)} misses {term_str(target)}"
        )
    return report


def check_sim_beta(
    m: LamTerm, strategy: Strategy, size: int = -1, seed: int = -1
) -> PropertyReport:
    """The machine normal form reads back to the lazy normal form."""
    report = PropertyReport("sim-beta", size, seed, lam_str(m), True)
    image, ty = _translate(m, strategy, computation=True)
    _, readbacks = run_checked(image, _closed_ty(m, ty), report)
    rb = readbacks[-1]
    lazy_nf = _oracle_chain(m, strategy)[-1]
    if not lam_alpha_eq(rb, lazy_nf):
        report.fail(
            f"normal form reads back to {lam_str(rb)}, expected {lam_str(lazy_nf)}"
        )
    return report


def check_typing(
    m: LamTerm, strategy: Strategy, size: int = -1, seed: int = -1
) -> PropertyReport:
    """The translation of a term of type A checks at pA (by name) or qA (by
    value), and its e-image checks under the * anchor at A."""
    report = PropertyReport("typing", size, seed, lam_str(m), True)
    ty = infer_lambda_box(LamEnv((), None), m)  # the reference, apart from the walk
    want = PtqType("p" if Strategy(strategy) is Strategy.CBN else "q", ty)
    try:
        got = infer_ptq(TypeEnv((), None), ptq_translate(m, strategy))
        if got != want:
            report.fail(f"translation checked at {got}, wanted {want}")
    except PtqError as exc:
        report.fail(f"translation failed to check: {exc}")
    try:
        infer_ptq(TypeEnv((), ("star", ty)), ptq_translate_e(m, strategy))
    except PtqError as exc:
        report.fail(f"e-image failed to check: {exc}")
    return report


def check_readback(
    m: LamTerm, strategy: Strategy, size: int = -1, seed: int = -1
) -> PropertyReport:
    """Reading back either translation recovers the source term."""
    report = PropertyReport("readback", size, seed, lam_str(m), True)
    rb_p = readback(ptq_translate(m, strategy))
    if not lam_alpha_eq(rb_p, m):
        report.fail(f"term translation reads back to {lam_str(rb_p)}")
    rb_e = readback(ptq_translate_e(m, strategy))
    if not lam_alpha_eq(rb_e, m):
        report.fail(f"e-translation reads back to {lam_str(rb_e)}")
    return report


def check_measure(
    m: LamTerm, strategy: Strategy, size: int = -1, seed: int = -1
) -> PropertyReport:
    """control_length predicts the exact number of machine steps before the
    first Beta step (or to the normal form when no Beta fires)."""
    report = PropertyReport("measure", size, seed, lam_str(m), True)
    start, _ = _start_term(m, strategy)
    _, n_control = control_prefix(start, MACHINE_FUEL)
    predicted = control_length(start)
    if predicted != n_control:
        report.fail(
            f"control_length says {predicted}, machine took {n_control} "
            f"control steps before the first Beta"
        )
    return report


CHECKS: dict[str, Callable[..., PropertyReport]] = {
    "completeness": check_completeness,
    "soundness": check_soundness,
    "simulation": check_simulation,
    "sim-beta": check_sim_beta,
    "typing": check_typing,
    "readback": check_readback,
    "measure": check_measure,
}

VERIFY_PROPERTIES: dict[str, tuple[str, ...]] = {
    "completeness": ("completeness",),
    "soundness": ("soundness",),
    "simulation": ("simulation", "sim-beta"),
    "measure": ("measure",),
    "readback": ("readback",),
    "typing": ("typing",),
}


def run_property(
    name: str,
    count: int,
    max_size: int,
    seed: int,
    strategies: tuple[Strategy, ...] = (Strategy.CBN, Strategy.CBV),
) -> list[PropertyReport]:
    check = CHECKS[name]
    reports = []
    for i in range(count):
        size = i % (max_size + 1)
        inst_seed = seed + i
        m, _ = gen_typed_term(size, inst_seed)
        for strategy in strategies:
            reports.append(check(m, strategy, size, inst_seed))
    return reports

