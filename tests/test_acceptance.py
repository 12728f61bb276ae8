"""Acceptance suite: every advertised guarantee, checked in bulk.

Each criterion is one test that prints a single PASS or FAIL line (written
past pytest's capture so the lines always show). The corpus is generated
deterministically from fixed seeds over sizes 0 through 8, with at least
500 instances behind every criterion; the whole module stays well under
two minutes.
"""

import sys

import pytest

from ptq import (
    RuleTag,
    Strategy,
    alpha_eq,
    classify,
    control_length,
    control_prefix,
    hole_compose,
    identity,
    lam_alpha_eq,
    lam_subst,
    measure,
    parse_lam,
    parse_term,
    parse_type,
    readback,
    subst_pvar,
    subst_star,
    term_str,
)
from ptq.harness import (
    MACHINE_FUEL,
    check_completeness,
    check_measure,
    check_readback,
    check_sim_beta,
    check_simulation,
    check_soundness,
    check_typing,
    gen_typed_term,
)
from ptq.lam import is_value
from ptq.translate import aux_translate, ptq_translate, ptq_translate_e

STRATEGIES = (Strategy.CBN, Strategy.CBV)
N_INSTANCES = 522  # 58 per size, sizes 0..8
SEED_BASE = 1000


def _announce(label: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  [{detail}]"
    print(line, file=sys.__stdout__, flush=True)


def _first_failure(reports):
    for r in reports:
        if not r.ok:
            return f"{r.instance} (size {r.size}, seed {r.seed}): {r.failures[0]}"
    return ""


@pytest.fixture(scope="module")
def corpus():
    out = []
    for i in range(N_INSTANCES):
        size = i % 9
        seed = SEED_BASE + i
        m, ty = gen_typed_term(size, seed)
        out.append((m, ty, size, seed))
    return out


@pytest.fixture(scope="module")
def machine_runs(corpus):
    """One fully instrumented machine run per (instance, strategy): the
    completeness check plus every per-step law, shared by several criteria."""
    reports = []
    for m, _, size, seed in corpus:
        for strategy in STRATEGIES:
            reports.append(check_completeness(m, strategy, size, seed))
    return reports


def test_c01_translation_typing(corpus):
    reports = [
        check_typing(m, s, size, seed)
        for m, _, size, seed in corpus
        for s in STRATEGIES
    ]
    ok = all(r.ok for r in reports)
    _announce(
        "criterion 1: by-name images check at pA, by-value at qA",
        ok,
        f"{len(reports)} instances" + ("" if ok else "; " + _first_failure(reports)),
    )
    assert ok, _first_failure(reports)


def test_c02_subject_reduction(machine_runs):
    violations = sum(r.count("subject-reduction") for r in machine_runs)
    steps = sum(r.steps for r in machine_runs)
    ok = violations == 0
    _announce(
        "criterion 2: subject reduction at every machine step",
        ok,
        f"{violations} violations over {steps} steps in {len(machine_runs)} runs",
    )
    assert ok


def test_c03_readback_soundness_per_step(machine_runs):
    violations = sum(r.count("rb-soundness") for r in machine_runs)
    ok = violations == 0
    _announce(
        "criterion 3: control steps fix the readback, Beta steps advance it"
        " by one beta step",
        ok,
        f"{violations} violations in {len(machine_runs)} runs",
    )
    assert ok


def test_c04_control_length_law(corpus, machine_runs):
    step_violations = sum(r.count("control-length") for r in machine_runs)
    predictions = [
        check_measure(m, s, size, seed)
        for m, _, size, seed in corpus
        for s in STRATEGIES
    ]
    ok = step_violations == 0 and all(r.ok for r in predictions)
    _announce(
        "criterion 4: the measure counts control steps to the first Beta,"
        " dropping by one each control step",
        ok,
        f"{step_violations} step violations, {len(predictions)} predictions",
    )
    assert ok, _first_failure(predictions)


def test_c05_termination(machine_runs):
    exhaustions = sum(r.count("fuel") for r in machine_runs)
    ok = exhaustions == 0
    _announce(
        "criterion 5: every machine run terminates",
        ok,
        f"{exhaustions} fuel exhaustions at {MACHINE_FUEL} steps,"
        f" {len(machine_runs)} runs",
    )
    assert ok


def test_c06_precomputation(corpus):
    from ptq.harness import _start_term

    checked = 0
    bad = []
    for m, _, size, seed in corpus:
        for strategy in STRATEGIES:
            start, _ = _start_term(m, strategy)
            stopped, _ = control_prefix(start, MACHINE_FUEL)
            expected = ptq_translate_e(m, strategy)
            if not alpha_eq(stopped, expected):
                bad.append((m, strategy, size, seed))
            if classify(expected) not in (None, RuleTag.BETA):
                bad.append((m, strategy, size, seed))
            checked += 1
    ok = not bad
    _announce(
        "criterion 6: running a translation against * lands exactly on the"
        " computation image, which is control-normal",
        ok,
        f"{checked} instances",
    )
    assert ok, bad[:3]


def test_c07_readback_identity(corpus):
    reports = [
        check_readback(m, s, size, seed)
        for m, _, size, seed in corpus
        for s in STRATEGIES
    ]
    ok = all(r.ok for r in reports)
    _announce(
        "criterion 7: reading back either translation recovers the source",
        ok,
        f"{len(reports)} instances",
    )
    assert ok, _first_failure(reports)


def test_c08_simulation_suite(corpus, machine_runs):
    outcome_failures = [r for r in machine_runs if r.count("outcome")]
    soundness = [
        check_soundness(m, s, size, seed)
        for m, _, size, seed in corpus
        for s in STRATEGIES
    ]
    simulation = [
        check_simulation(m, s, size, seed)
        for m, _, size, seed in corpus
        for s in STRATEGIES
    ]
    sim_beta = [
        check_sim_beta(m, s, size, seed)
        for m, _, size, seed in corpus
        for s in STRATEGIES
    ]
    ok = (
        not outcome_failures
        and all(r.ok for r in soundness)
        and all(r.ok for r in simulation)
        and all(r.ok for r in sim_beta)
    )
    _announce(
        "criterion 8: completeness, soundness, step simulation, and"
        " normal-form agreement against the reference evaluators",
        ok,
        f"{len(machine_runs)} + {len(soundness)} + {len(simulation)}"
        f" + {len(sim_beta)} instances",
    )
    assert ok, (
        _first_failure(outcome_failures)
        or _first_failure(soundness)
        or _first_failure(simulation)
        or _first_failure(sim_beta)
    )


def test_c09_algebraic_laws(corpus):
    from ptq.syntax import Arrow, Star, STAR
    from ptq.lam import HOLE
    from ptq import star_compose

    counts = {}
    bad = []

    def note(law, instance=""):
        counts[law] = counts.get(law, 0) + 1
        if instance:
            bad.append(f"{law}: {instance}")

    # closed tests harvested from the computation images, extended with
    # compositions so the pool itself exercises star_compose
    tests = []
    for m, _, _, _ in corpus:
        for strategy in STRATEGIES:
            t = ptq_translate_e(m, strategy).test
            if not isinstance(t, Star):
                tests.append(t)
    n = len(tests)
    tests += [star_compose(tests[i], tests[(7 * i + 3) % n]) for i in range(100)]
    n = len(tests)
    rbs = [readback(t) for t in tests]

    # composition is associative with * as the unit, and the readback
    # mirrors it with hole plugging
    for i in range(500):
        a, b, c = tests[i % n], tests[(2 * i + 1) % n], tests[(3 * i + 2) % n]
        if not alpha_eq(
            star_compose(star_compose(a, b), c),
            star_compose(a, star_compose(b, c)),
        ):
            note("star-assoc", term_str(a))
        else:
            note("star-assoc")
        la, lb, lc = rbs[i % n], rbs[(2 * i + 1) % n], rbs[(3 * i + 2) % n]
        if not lam_alpha_eq(
            hole_compose(hole_compose(la, lb), lc),
            hole_compose(la, hole_compose(lb, lc)),
        ):
            note("hole-assoc", term_str(tests[i % n]))
        else:
            note("hole-assoc")
    for t, la in zip(tests, rbs):
        if not alpha_eq(star_compose(STAR, t), t) or not alpha_eq(
            star_compose(t, STAR), t
        ):
            note("star-unit", term_str(t))
        else:
            note("star-unit")
        if not lam_alpha_eq(hole_compose(la, HOLE), la) or not lam_alpha_eq(
            hole_compose(HOLE, la), la
        ):
            note("hole-unit", term_str(t))
        else:
            note("hole-unit")

    # rb(composition) = plugging of the readbacks
    for m, _, _, _ in corpus[:100]:
        u = ptq_translate_e(m, Strategy.CBN)
        for t in tests[:5]:
            lhs = readback(subst_star(u, t))
            rhs = hole_compose(readback(t), readback(u))
            if not lam_alpha_eq(lhs, rhs):
                note("rb-compose", term_str(u))
            else:
                note("rb-compose")

    # rb(u[p/x]) = rb(u)[rb(p)/x] on open carriers
    open_terms = [
        parse_term(s)
        for s in [
            "* ; x",
            "<x, *> ; x",
            r"(\z:A. * ; z) ; x",
            r"(%k:A. <x, k> ; y) ! *",
            r"* ; (\k:A. <x, k> ; x)",
        ]
    ]
    payloads = [ptq_translate(m, Strategy.CBN) for m, _, _, _ in corpus[:100]]
    for u in open_terms:
        for p in payloads:
            lhs = readback(subst_pvar(u, "x", p))
            rhs = lam_subst(readback(u), "x", readback(p))
            if not lam_alpha_eq(lhs, rhs):
                note("rb-subst", f"{term_str(u)} [{term_str(p)}/x]")
            else:
                note("rb-subst")

    # translation commutes with substitution; the templates are built
    # around each value's own type so every pair typechecks
    from ptq.lam import App, Lam, Var

    A = parse_type("A")
    closed_values = [m for m, _, _, _ in corpus if is_value(m)][:130]
    for V in closed_values:
        vty = _ty_of(V)
        templates = [
            (Lam("w", A, Var("x")), {"x": vty}),
            (App(Lam("z", vty, Var("z")), Var("x")), {"x": vty}),
            (Lam("w", Arrow(vty, vty), App(Var("w"), Var("x"))),
             {"x": vty, "w": Arrow(vty, vty)}),
            (App(Lam("z", vty, Lam("w", A, Var("z"))), Var("x")), {"x": vty}),
        ]
        for M, env_x in templates:
            src = lam_subst(M, "x", V)
            lhs_n = ptq_translate(src, Strategy.CBN)
            rhs_n = subst_pvar(
                ptq_translate(M, Strategy.CBN, env_x), "x", ptq_translate(V, Strategy.CBN)
            )
            if not alpha_eq(lhs_n, rhs_n):
                note("tr-subst-cbn", f"{M} [{V}/x]")
            else:
                note("tr-subst-cbn")
            lhs_v = ptq_translate(src, Strategy.CBV)
            rhs_v = subst_pvar(
                ptq_translate(M, Strategy.CBV, env_x), "x", aux_translate(V, Strategy.CBV)
            )
            if not alpha_eq(lhs_v, rhs_v):
                note("tr-subst-cbv", f"{M} [{V}/x]")
            else:
                note("tr-subst-cbv")

    # the measure respects substitution and composition at the probe grid:
    # computation carriers are probed at each function, test carriers at
    # each function and argument
    probes = [identity, lambda n: 0, lambda n: 7, lambda n: n + 1, lambda n: 2 * n + 3]
    probe_args = (0, 1, 5, 13)
    ps = [parse_term(s) for s in ["y", r"\k:A. k ; y", r"\(z:A, k:A). k ; z"]]
    ps += [ptq_translate(m, Strategy.CBN) for m, _, _, _ in corpus[:17]]
    sigma = {"x": 2, "y": 3}
    for u in open_terms:
        for p in ps:
            inner = dict(sigma)
            inner["x"] = measure(p, sigma)
            lhs_f = measure(subst_pvar(u, "x", p), sigma)
            rhs_f = measure(u, inner)
            for f in probes:
                if lhs_f(f) != rhs_f(f):
                    note("measure-subst", f"{term_str(u)} [{term_str(p)}/x]")
                else:
                    note("measure-subst")
    t_carriers = [
        parse_term(s)
        for s in [
            "<x, *>",
            "<x, <y, *>>",
            r"\z:A. * ; x",
            r"\z:A. <x, *> ; z",
        ]
    ]
    for u in t_carriers:
        for p in ps:
            inner = dict(sigma)
            inner["x"] = measure(p, sigma)
            lhs_f = measure(subst_pvar(u, "x", p), sigma)
            rhs_f = measure(u, inner)
            for f in probes:
                for a in probe_args:
                    if lhs_f(f)(a) != rhs_f(f)(a):
                        note("measure-subst-t", f"{term_str(u)} [{term_str(p)}/x]")
                    else:
                        note("measure-subst-t")
    for m, _, _, _ in corpus[:40]:
        u = ptq_translate_e(m, Strategy.CBN)
        for t in tests[:3]:
            lhs_f = measure(subst_star(u, t))
            for f in probes:
                rhs = measure(u)(measure(t)(f))
                if lhs_f(f) != rhs:
                    note("measure-compose", term_str(u))
                else:
                    note("measure-compose")

    thin = [law for law, c in counts.items() if c < 500]
    ok = not bad and not thin
    detail = ", ".join(f"{law} {c}" for law, c in sorted(counts.items()))
    _announce(
        "criterion 9: composition, readback, substitution, and measure laws",
        ok,
        detail + ("" if ok else "; first: " + (bad[0] if bad else f"thin: {thin}")),
    )
    assert not bad, bad[:5]
    assert not thin, thin


def _ty_of(m):
    from ptq import LamEnv, infer_lambda_box

    return infer_lambda_box(LamEnv(), m)


def test_c10_frozen_examples():
    from ptq import check_judgment, normalize, parse_judgment, readback_judgment
    from ptq.typecheck import lam_judgment_str

    bad = []

    # the by-value image of (\x.x) y and its two-step run
    got = ptq_translate_e(parse_lam(r"(\x:A. x) y"), Strategy.CBV, {"y": parse_type("A")})
    want = parse_term(r"<y,*> ; \(x:A, k:A). (%k:A. k ; x) ! k")
    if not alpha_eq(got, want):
        bad.append(f"by-value image: {term_str(got)}")
    run = normalize(want)
    if [s.rule for s in run.trace.steps] != [RuleTag.BETA, RuleTag.QAPP]:
        bad.append(f"rules: {[s.rule.value for s in run.trace.steps]}")
    if not alpha_eq(run.trace.final, parse_term("* ; y")):
        bad.append(f"final: {term_str(run.trace.final)}")

    # measure values
    u1 = parse_term(r"* ; \k:A. (k ; x)")
    if measure(u1)(identity) != 2 or control_length(u1) != 1:
        bad.append("measure of * ; \\k:A. (k ; x)")
    u2 = parse_term(r"<y,*> ; \(x:A,k:A). k ; x")
    if measure(u2)(identity) != 1:
        bad.append("measure of <y,*> ; \\(x:A,k:A). k ; x")

    # the by-name image of x y
    got = ptq_translate(
        parse_lam("x y"), Strategy.CBN,
        {"x": parse_type("A -> B"), "y": parse_type("A")},
    )
    if not alpha_eq(got, parse_term(r"\k:B. <y, k> ; x")):
        bad.append(f"by-name image: {term_str(got)}")

    # judgment checking and judgment readback, as the CLI prints them
    result = check_judgment(parse_judgment("x:pX |- x : pX"))
    if not (result.ok and str(result.inferred) == "pX"):
        bad.append("typecheck x:pX |- x : pX")
    out = lam_judgment_str(readback_judgment(parse_judgment("|> * : tB |- * : tB")))
    if out != "[]:B |- [] : B":
        bad.append(f"judgment readback: {out}")

    ok = not bad
    _announce(
        "criterion 10: the frozen worked examples",
        ok,
        "7 examples" + ("" if ok else "; " + "; ".join(bad)),
    )
    assert ok, bad
