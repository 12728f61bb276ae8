"""Inputs, jobs and reference checks of the four benchmark workloads.

`build(workload, seed)` turns a seed into a fixed job list. A job's `run` is
the timed work. Its `check` runs outside the timed region: it compares the
output with an independent reference and returns an `Outcome` whose step
counts and final term a repeated run of the same job must reproduce.

Every ptq function a job calls is imported into this module's namespace, so
the traced run can rebind it here exactly as it rebinds the names one ptq
module imports from another.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ptq.cli import main as cli_main
from ptq.harness import (
    VERIFY_PROPERTIES,
    check_completeness,
    check_measure,
    check_readback,
    check_sim_beta,
    check_simulation,
    check_soundness,
    check_typing,
    gen_typed_term,
)
from ptq.lam import lam_alpha_eq, lam_str, parse_lam
from ptq.lambda_eval import Strategy, eval_big
from ptq.machine import normalize, trace_from_json
from ptq.readback import readback
from ptq.syntax import Arrow, Base, alpha_eq, parse_eterm, parse_type, term_str
from ptq.translate import ptq_translate_e

WORKLOADS = ("verify-suite", "church-cbv", "church-cbn", "reduce-json")

# `ptq verify --property all --max-size 8 --count 100`: 7 checks x 100 terms
# x 2 strategies = 1,400 jobs, enough for 14 samples beyond p99 in one pass.
VERIFY_COUNT = 100
VERIFY_MAX_SIZE = 8
VERIFY_POOL = 12  # candidates per kept term; see verify_terms
VERIFY_CHECKS = {
    "completeness": check_completeness,
    "soundness": check_soundness,
    "simulation": check_simulation,
    "sim-beta": check_sim_beta,
    "measure": check_measure,
    "readback": check_readback,
    "typing": check_typing,
}

# Church ladders: job i takes n = STEP * (i + 1) minus a seeded jitter below
# JITTER, so numerals are distinct per job, vary with the seed, and the cost
# of a job list (about n^2.3 per CbV job) moves only a few percent between
# seeds. CbV tops out near 250, CbN near 300, reduce-json near 100.
CHURCH_LADDERS = {
    "church-cbv": ((Strategy.CBV,), 5, 50, 5),
    "church-cbn": ((Strategy.CBN,), 10, 30, 3),
    "reduce-json": ((Strategy.CBV, Strategy.CBN), 5, 20, 3),
}

# Translating church(400) by name exceeds the default recursion limit at the
# seed code. The probe keeps that defect visible on a line of its own.
PROBE_N = 400

CHURCH_ENV = {"z": parse_type("A")}


@dataclass
class Outcome:
    ok: bool  # the output matches the reference
    steps: Counter  # machine steps by rule, or {"total": n}; must repeat
    final: Any = None  # final machine term, compared up to alpha


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def church_text(n: int) -> str:
    """(\\f:A->A. \\x:A. f (... (f x))) (\\y:A. y) z with n applications."""
    body = "f (" * n + "x" + ")" * n
    return rf"(\f:A->A. \x:A. {body}) (\y:A. y) z"


def church_numerals(workload: str, seed: int) -> list[int]:
    _, jobs, step, jitter = CHURCH_LADDERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [step * (i + 1) - rng.randrange(jitter) for i in range(jobs)]


def build(workload: str, seed: int) -> list[Job]:
    """The job list of `workload` for `seed`; the same seed, the same jobs."""
    if workload == "verify-suite":
        return _verify_jobs(seed)
    if workload not in CHURCH_LADDERS:
        raise ValueError(f"unknown workload {workload!r}")
    strategies = CHURCH_LADDERS[workload][0]
    numerals = church_numerals(workload, seed)
    make = _reduce_json_job if workload == "reduce-json" else _church_job
    return [make(n, s) for s in strategies for n in numerals]


def probe_strategy(workload: str) -> Optional[Strategy]:
    """The strategy of the deep probe, for the workloads that have one."""
    return {"church-cbv": Strategy.CBV, "church-cbn": Strategy.CBN}.get(workload)


def deep_probe(strategy: Strategy) -> bool:
    """Translate church(PROBE_N) and check that the image reads back to it."""
    m = parse_lam(church_text(PROBE_N))
    return lam_alpha_eq(readback(ptq_translate_e(m, strategy, CHURCH_ENV)), m)


def expected_jobs(workload: str) -> int:
    if workload == "verify-suite":
        checks = sum(len(group) for group in VERIFY_PROPERTIES.values())
        return checks * VERIFY_COUNT * 2
    strategies, jobs, _, _ = CHURCH_LADDERS[workload]
    return len(strategies) * jobs


# ---------------------------------------------------------------------------
# verify-suite


def verify_terms(seed: int) -> list[tuple[int, int, Any]]:
    """VERIFY_COUNT (size, instance seed, term) triples, sizes i % 9 as
    `ptq verify` draws them, sampled from the VERIFY_POOL times longer list
    of `ptq verify --count 1200 --seed seed*10000`.

    A pass's cost hangs on a few large terms, so 100 terms drawn plainly
    cost 10 % more or less from seed to seed. Each size's candidates are
    sorted by a cost estimate and cut into as many equal runs as terms of
    that size are kept, and the middle candidate of each run is kept. The
    kept terms then follow the cost of the whole candidate list, whose
    spread from seed to seed is a third of that; every seed still gets
    terms of its own."""
    base = seed * 10000
    ranked: dict[int, list] = {}
    for i in range(VERIFY_COUNT * VERIFY_POOL):
        size = i % (VERIFY_MAX_SIZE + 1)
        m = gen_typed_term(size, base + i)[0]
        ranked.setdefault(size, []).append((_cost_estimate(m), base + i, m))
    picked = []
    for size, candidates in ranked.items():
        candidates.sort(key=lambda c: c[:2])
        keep = len(range(size, VERIFY_COUNT, VERIFY_MAX_SIZE + 1))
        for run in range(keep):
            c = candidates[(2 * run + 1) * len(candidates) // (2 * keep)]
            picked.append((size, c[1], c[2]))
    return sorted(picked, key=lambda p: p[1])


def _cost_estimate(m) -> int:
    """Printed length times beta steps under both strategies; it follows a
    term's measured cost over the 14 property instances closely (r = 0.96)."""
    steps = sum(eval_big(m, s)[1] for s in (Strategy.CBN, Strategy.CBV))
    return len(lam_str(m)) * (1 + steps)


def _verify_jobs(seed: int) -> list[Job]:
    """One job per property instance, in the order `ptq verify` runs them."""
    terms = verify_terms(seed)
    jobs = []
    for group in VERIFY_PROPERTIES.values():
        for name in group:
            fname = VERIFY_CHECKS[name].__name__
            for size, instance, m in terms:
                for strategy in (Strategy.CBN, Strategy.CBV):
                    jobs.append(_verify_job(fname, m, strategy, size, instance))
    return jobs


def _verify_job(fname: str, m, strategy: Strategy, size: int, seed: int) -> Job:
    def run():
        # looked up at call time, so a traced run sees the rebound name
        return globals()[fname](m, strategy, size, seed)

    def check(report) -> Outcome:
        return Outcome(report.ok, Counter(total=report.steps))

    return Job(f"{fname}:{strategy.value}:{size}:{seed}", run, check)


# ---------------------------------------------------------------------------
# church-cbv and church-cbn


def _church_job(n: int, strategy: Strategy) -> Job:
    text = church_text(n)
    reference = []

    def run():
        m = parse_lam(text)
        result = normalize(ptq_translate_e(m, strategy, CHURCH_ENV))
        return result, readback(result.final)

    def check(out) -> Outcome:
        result, rb = out
        if not reference:
            reference.append(eval_big(parse_lam(text), strategy)[0])
        ok = result.trace.normal and lam_alpha_eq(rb, reference[0])
        return Outcome(ok, Counter(r.value for r in result.trace.rules()), result.final)

    return Job(f"church-{strategy.value}-{n}", run, check)


# ---------------------------------------------------------------------------
# reduce-json


def _reduce_json_job(n: int, strategy: Strategy) -> Job:
    source = church_text(n)
    text = term_str(ptq_translate_e(parse_lam(source), strategy, CHURCH_ENV))
    reference = []

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["reduce", "--json", text])
        return code, out.getvalue()

    def check(out) -> Outcome:
        code, printed = out
        doc = json.loads(printed)
        rules = Counter(s["rule"] for s in doc["steps"])
        # Reparsing every step costs five times the job itself, so only the
        # initial and the final term go back through trace_from_json.
        trace = trace_from_json({**doc, "steps": doc["steps"][-1:]})
        if not reference:
            reference.append(eval_big(parse_lam(source), strategy)[0])
        ok = (
            code == 0
            and trace.normal
            and alpha_eq(trace.initial, parse_eterm(text))
            and lam_alpha_eq(readback(trace.final), reference[0])
        )
        return Outcome(ok, rules, trace.final)

    return Job(f"reduce-json-{strategy.value}-{n}", run, check)


# ---------------------------------------------------------------------------
# the benchmark's own term walker


def count_nodes(root, memo: dict) -> int:
    """Term nodes under `root`, types excluded. `memo` maps id(node) to its
    count, so subterms shared between the terms of one run are walked once;
    the caller keeps those terms alive while the memo is in use."""
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        kids = [
            v
            for f in dataclasses.fields(node)
            if dataclasses.is_dataclass(v := getattr(node, f.name))
            and not isinstance(v, (Base, Arrow))
        ]
        if expanded:
            memo[id(node)] = 1 + sum(memo[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
    return memo[id(root)]
