"""Benchmark of the ptq package: four workloads, end to end and by layer.

One workload, as a closed loop with one caller in this process:

    python3 bench/run.py --workload church-cbv --seed 3 --seconds 25 --trace 0

The run builds the job list from the seed, repeats it until --seconds have
passed, checks every output outside the timed region and prints, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 untraced and
traced passes alternate and the metrics are the per-layer ones.

Every workload, untraced and traced, each in a fresh process; exits nonzero
when a check breaks:

    python3 bench/run.py --all --seed 0 --seconds 25 --out result.json

Per-step machine cost of church(n) under one strategy:

    python3 bench/run.py --step-cost cbv 10 100 200

See bench/README.md for the metrics and for how to compare two commits.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-suite", "church-cbv", "church-cbn", "reduce-json")
LAYERS = (
    "cli", "harness", "translate", "typecheck", "machine",
    "syntax", "lam", "readback", "measure", "lambda_eval",
)
RULES = ("Beta", "KStar", "KPair", "PSubst", "QApp")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
P99_MIN_BEYOND = 10


class ProgramMissing(Exception):
    pass


# ---------------------------------------------------------------------------
# statistics


def percentile(samples, q: float):
    """Nearest-rank q-th percentile, or None unless at least P99_MIN_BEYOND
    samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < P99_MIN_BEYOND:
        return None
    return ordered[rank - 1]


def job_times(passes) -> list[float]:
    """Each job's median time over the passes, at reference speed."""
    return [statistics.median(t) for t in zip(*(r.scaled() for r in passes))]


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared machine the same code runs 30-60 % slower for seconds, and
# for minutes at a time, while other tenants load the cores, in CPU time as
# much as in wall time. A fixed piece of pure-Python work timed next to the
# jobs slows with them, so every job time is scaled by REF_KERNEL_S over the
# kernel's time around that job: the result is seconds at the speed at
# which the kernel takes REF_KERNEL_S, about the fastest it ran on the
# machine the benchmark was built on (2-CPU x86_64 VM, Python 3.11).

REF_KERNEL_S = 0.008
SPEED_EVERY_S = 0.5


class _Cell:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


def kernel_seconds() -> float:
    """The faster of two runs of the reference kernel, which allocates,
    walks and indexes objects as ptq does with terms."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        chain = None
        for i in range(20000):
            chain = _Cell(i, chain)
        acc = 0
        while chain is not None:
            acc += chain.head & 3
            chain = chain.tail
        acc += len({str(i): i for i in range(10000)})
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# set-up


def _import_program():
    """Import ptq from this checkout's src/ and the workloads that use it."""
    sys.path.insert(0, str(SRC))
    try:
        import ptq
        import workloads
    except ImportError as exc:
        raise ProgramMissing(f"cannot import ptq from {SRC}: {exc}") from exc
    if Path(ptq.__file__).resolve().parent != SRC / "ptq":
        raise ProgramMissing(f"ptq was imported from {ptq.__file__}, not from {SRC}")
    return workloads


def setup(workload: str, seed: int):
    """Import ptq and build the job list; the time counts from process start."""
    wl = _import_program()
    jobs = wl.build(workload, seed)
    return wl, jobs, time.perf_counter() - _PROCESS_START


def _child(args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """This process's set-up time and SETUP_SAMPLES - 1 more, each from a
    fresh process that sets up the same workload and exits; every sample
    scaled to reference speed by the kernel timed right after it."""
    samples = [first * REF_KERNEL_S / kernel_seconds()]
    for _ in range(SETUP_SAMPLES - 1):
        out = _child(["--setup-only", "--workload", workload, "--seed", str(seed)])
        elapsed, kernel = map(float, out.split()[-2:])
        samples.append(elapsed * REF_KERNEL_S / kernel)
    return samples


# ---------------------------------------------------------------------------
# passes


class PassResult:
    def __init__(self):
        self.times: list[float] = []
        self.speed: list[tuple[int, float]] = []  # (next job, kernel seconds)
        self.outcomes = []
        self.failed = 0
        self.errors: list[str] = []
        self.layer: dict = {}

    def scaled(self) -> list[float]:
        """Job times at reference speed, each scaled by the mean of the
        kernel samples taken just before and just after it."""
        out, k = [], 0
        for j, t in enumerate(self.times):
            while self.speed[k + 1][0] <= j:
                k += 1
            kernel = (self.speed[k][1] + self.speed[k + 1][1]) / 2
            out.append(t * REF_KERNEL_S / kernel)
        return out


class Counters:
    """What the hooks stash during one traced job, examined after it."""

    def __init__(self):
        self.runs = []  # normalize results and step results
        self.sources = []  # lambda terms handed to the translations
        self.rules = Counter()
        self.term_nodes_max = 0
        self.source_nodes = 0

    def hooks(self) -> dict:
        stash_run = lambda args, result: self.runs.append(result)  # noqa: E731
        stash_source = lambda args, result: self.sources.append(args[0])  # noqa: E731
        return {
            ("machine", "normalize"): stash_run,
            ("machine", "step"): stash_run,
            ("translate", "ptq_translate"): stash_source,
            ("translate", "ptq_translate_e"): stash_source,
        }

    def absorb(self, count_nodes) -> None:
        """Count the stashed steps and nodes, then let the terms go."""
        memo: dict = {}
        for r in self.runs:
            if r is None:
                continue
            if isinstance(r, tuple):  # step: (term, rule)
                self.rules[r[1].value] += 1
                terms = [r[0]]
            else:
                self.rules.update(t.value for t in r.trace.rules())
                terms = r.trace.terms()
            for t in terms:
                self.term_nodes_max = max(self.term_nodes_max, count_nodes(t, memo))
        for m in self.sources:
            self.source_nodes += count_nodes(m, memo)
        self.runs.clear()
        self.sources.clear()


def run_pass(wl, jobs, reference=None, tracer=None, counters=None) -> PassResult:
    """Run every job once. Checks, and the walk of a traced job's terms, run
    outside the timed region. `reference` holds the first pass's outcomes,
    which this pass must repeat."""
    res = PassResult()
    gc.collect()
    res.speed.append((0, kernel_seconds()))
    last = time.perf_counter()
    for j, job in enumerate(jobs):
        if time.perf_counter() - last >= SPEED_EVERY_S:
            res.speed.append((j, kernel_seconds()))
            last = time.perf_counter()
        if tracer is not None:
            tracer.begin_job(j)
        t0 = time.perf_counter()
        try:
            out, err = job.run(), None
        except Exception as exc:  # a failed operation, counted below
            out, err = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job()
            counters.absorb(wl.count_nodes)
        res.times.append(dt)
        outcome = None
        if err is None:
            try:
                outcome = job.check(out)
            except Exception as exc:
                err = exc
        del out
        res.outcomes.append(outcome)
        problem = None
        if err is not None:
            problem = f"{type(err).__name__}: {err}"
        elif not outcome.ok:
            problem = "output differs from the reference"
        elif reference is not None and not _same(wl, reference[j], outcome):
            problem = "outcome differs from the first pass at the same seed"
        if problem is not None:
            res.failed += 1
            res.errors.append(f"{job.label}: {problem}"[:300])
    res.speed.append((len(jobs), kernel_seconds()))
    return res


def _same(wl, a, b) -> bool:
    if a is None or b is None:
        return a is b
    if a.steps != b.steps:
        return False
    return a.final is None and b.final is None or wl.alpha_eq(a.final, b.final)


def signature(outcomes) -> dict:
    """Step counts summed over a pass: equal at equal seeds, in any process."""
    total = Counter()
    for o in outcomes:
        if o is not None:
            total.update(o.steps)
    return dict(sorted(total.items()))


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer, counters: Counters, res: PassResult) -> dict:
    from tracing import self_times

    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    n = Counter()
    parse_s = print_s = machine_s = 0.0
    for i, k in enumerate(tracer.key):
        layer, fn = names[k]
        p = tracer.parent[i]
        caller = names[tracer.key[p]][0] if p >= 0 else "bench"
        out[f"{layer}.self_s"] += selfs[i]
        out[f"{layer}.calls"] += 1
        n[(layer, fn)] += 1
        n[(caller, layer)] += 1
        if layer == "syntax" and fn.startswith("parse"):
            parse_s += selfs[i]
        elif layer == "syntax" and fn in ("term_str", "type_str"):
            print_s += selfs[i]
        elif layer == "machine" and fn in ("normalize", "step"):
            machine_s += tracer.end[i] - tracer.start[i]
        if caller == "harness" and (layer, fn) == ("machine", "step"):
            n["harness-steps"] += 1
        if caller == "translate" and (layer, fn) == ("typecheck", "infer_lambda_box"):
            n["translate-infer"] += 1
    steps = sum(counters.rules[r] for r in RULES)
    instances = n[("bench", "harness")]
    out.update({
        "syntax.subst.calls": sum(n[("syntax", f)] for f in ("subst_k", "subst_pvar", "subst_star")),
        "syntax.spine.calls": n[("syntax", "spine")] + n[("syntax", "is_t_closed")],
        "machine.us_per_step": machine_s / steps * 1e6 if steps else 0.0,
        "machine.term_nodes_max": counters.term_nodes_max,
        "machine.steps": steps,
        **{f"machine.steps.{r}": counters.rules[r] for r in RULES},
        "typecheck.infer_lambda_box.calls_per_node": _ratio(n["translate-infer"], counters.source_nodes),
        "readback.calls_per_step": _ratio(n[("harness", "readback")], n["harness-steps"]),
        "measure.calls_per_step": _ratio(n[("harness", "measure")], n["harness-steps"]),
        "lam.plug_hole.calls": n[("lam", "plug_hole")],
        "syntax.t_close.calls": n[("syntax", "t_close")],
        "syntax.parse_s": parse_s,
        "syntax.print_s": print_s,
        "harness.instances": instances,
        "harness.failures": res.failed if instances else 0,
    })
    return out


def _ratio(a: int, b: int) -> float:
    return a / b if b else 0.0


PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "syntax.subst.calls": "count",
    "syntax.spine.calls": "count",
    "machine.us_per_step": "us",
    "machine.term_nodes_max": "count",
    "machine.steps": "count",
    **{f"machine.steps.{r}": "count" for r in RULES},
    "typecheck.infer_lambda_box.calls_per_node": "ratio",
    "readback.calls_per_step": "ratio",
    "measure.calls_per_step": "ratio",
    "lam.plug_hole.calls": "count",
    "syntax.t_close.calls": "count",
    "syntax.parse_s": "s",
    "syntax.print_s": "s",
    "harness.instances": "count",
    "harness.failures": "count",
    "trace.overhead": "ratio",
    "code.src_lines": "lines",
}


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "ptq").rglob("*.py")))


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    wl, jobs, first_setup = setup(workload, seed)
    setups = setup_samples(workload, seed, first_setup)
    tracer = counters = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        counters = Counters()
        modules = [sys.modules[f"ptq.{layer}"] for layer in LAYERS] + [wl]

    passes: list[tuple[bool, PassResult]] = []
    reference = None
    started = time.perf_counter()
    while True:
        trace_this = traced and len(passes) % 2 == 1
        if trace_this:
            tracer.install(modules, counters.hooks())
            try:
                res = run_pass(wl, jobs, reference, tracer, counters)
            finally:
                tracer.uninstall()
            res.layer = layer_metrics(tracer, counters, res)
            tracer.clear()
            counters = Counters()
        else:
            res = run_pass(wl, jobs, reference)
        passes.append((trace_this, res))
        if reference is None:
            reference = res.outcomes
        # stop when one more pass of average length would end past --seconds
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds and (not traced or len(passes) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(len(r.times) for _, r in passes)
    failed = sum(r.failed for _, r in passes)
    errors = [e for _, r in passes for e in r.errors]
    correct = failed == 0 and all(len(r.times) == wl.expected_jobs(workload) for _, r in passes)
    # The deep probe counts in the printed fail_ratio, but not in the
    # result line's attempted and failed: those count the timed jobs only.
    probe = None
    strategy = wl.probe_strategy(workload)
    if strategy is not None:
        try:
            probe = "ok" if wl.deep_probe(strategy) else "wrong result"
        except Exception as exc:  # RecursionError is the known defect
            probe = f"{type(exc).__name__}: {str(exc)[:120]}"
        correct = correct and probe != "wrong result"

    plain = [r for t, r in passes if not t]
    samples = [x for r in plain for x in r.scaled()]
    p99 = percentile(samples, 99)
    per_job = job_times(plain)
    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "passes": [("traced " if t else "") + f"{sum(r.times):.3f}" for t, r in passes],
        "signature": signature(passes[0][1].outcomes),
        "probe": probe,
        "errors": errors[:10],
        "job_p99_ms": None if p99 is None else p99 * 1e3,
        "job_samples": len(samples),
        "fail_ratio": (failed + (probe not in (None, "ok"))) / (attempted + (probe is not None)),
    }
    if traced:
        layer_passes = [r.layer for t, r in passes if t]
        metrics = {
            k: statistics.median(lp[k] for lp in layer_passes) for k in layer_passes[0]
        }
        traced_wall = sum(job_times([r for t, r in passes if t]))
        metrics["trace.overhead"] = traced_wall / sum(job_times(plain)) - 1
        metrics["code.src_lines"] = src_lines()
        report["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        report["metrics"] = {
            "wall_s": {"value": sum(per_job), "unit": "s"},
            "job_p50_ms": {"value": statistics.median(per_job) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    return report


def print_report(workload: str, report: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"workload {workload}: pass walls in s {', '.join(report['passes'])}")
    for name, m in report["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if "wall_s" in report["metrics"]:
        p99 = report["job_p99_ms"]
        shown = "n/a (fewer than 10 samples beyond p99)" if p99 is None else f"{p99:.6g} ms"
        print(f"  {'job_p99_ms':44s} {shown} over {report['job_samples']} samples")
        probe = "" if report["probe"] is None else ", deep probe " + ("ok" if report["probe"] == "ok" else "failed")
        print(f"  {'fail_ratio':44s} {report['fail_ratio']:.6g} ratio "
              f"(timed jobs failed {report['failed']}/{report['attempted']}{probe})")
    else:
        top = max(LAYERS, key=lambda layer: report["metrics"][f"{layer}.self_s"]["value"])
        print(f"  largest self time: {top}")
    if report["probe"] is not None:
        print(f"  deep probe: {report['probe']}")
    for e in report["errors"]:
        print(f"  failed: {e}")
    print(f"signature {json.dumps(report['signature'])}")
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------------------
# all workloads


def run_all(seed: int, seconds: float, out) -> int:
    """Each workload untraced and traced in fresh processes; nonzero exit
    when a check breaks or the two runs of one seed disagree on step counts."""
    results = {}
    broken = []
    for workload in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            text = _child(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)])
            lines = text.strip().splitlines()
            sig = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("signature "))
            probe = next((ln.split(": ", 1)[1] for ln in lines if ln.startswith("  deep probe: ")), None)
            runs["traced" if trace else "untraced"] = {**json.loads(lines[-1]), "signature": sig, "probe": probe}
            print("\n".join(lines[:-2]), flush=True)
        results[workload] = runs
        if not all(r["correct"] for r in runs.values()):
            broken.append(f"{workload}: a check failed")
        if runs["untraced"]["signature"] != runs["traced"]["signature"]:
            broken.append(f"{workload}: step counts differ between two runs at seed {seed}")
    doc = {
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {len(os.sched_getaffinity(0))} CPUs",
        "workloads": results,
    }
    if out:
        Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    for b in broken:
        print(f"BROKEN {b}")
    print("all checks passed" if not broken else f"{len(broken)} checks broke")
    return 1 if broken else 0


# ---------------------------------------------------------------------------
# per-step cost


def step_cost(strategy_name: str, sizes: list[int]) -> int:
    wl = _import_program()
    strategy = wl.Strategy(strategy_name)
    for n in sizes:
        image = wl.ptq_translate_e(wl.parse_lam(wl.church_text(n)), strategy, wl.CHURCH_ENV)
        costs = []
        for _ in range(3):
            t0 = time.perf_counter()
            steps = len(wl.normalize(image).trace.steps)
            costs.append((time.perf_counter() - t0) / steps * 1e6)
        print(f"{strategy_name} church({n}): {steps} steps, {statistics.median(costs):.1f} us/step")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, both ways")
    ap.add_argument("--out", help="with --all, write the results to this JSON file")
    ap.add_argument("--step-cost", nargs="+", metavar=("STRATEGY", "N"))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.step_cost:
            return step_cost(args.step_cost[0], [int(n) for n in args.step_cost[1:]])
        if args.all:
            return run_all(args.seed, args.seconds, args.out)
        if args.workload is None:
            ap.error("give --workload, --all or --step-cost")
        if args.setup_only:
            print(setup(args.workload, args.seed)[2], kernel_seconds())
            return 0
        print_report(args.workload, run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
        return 0
    except (ProgramMissing, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
