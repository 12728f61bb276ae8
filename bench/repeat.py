"""Repeated runs of bench/run.py: run-to-run spread, and A/B comparison.

Spread of every end-to-end metric over seeds, one fresh process per run:

    python3 bench/repeat.py spread --workload church-cbv --seeds 0-9 --seconds 25

Alternated pairs of two checkouts, each run with its own bench/run.py at the
same seed; the side that runs first alternates from pair to pair:

    python3 bench/repeat.py compare BASE_DIR CHANGE_DIR --workload church-cbv --pairs 10

A change wins a pair on a metric when it reads better than the base in that
pair; a gain needs at least 9 wins in every 10 pairs and a median difference
larger than the base's own quartile spread (see bench/README.md).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 900


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of root/bench/run.py; its last stdout line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(args) -> int:
    runs = []
    for seed in seeds_of(args.seeds):
        r = run_once(HERE.parent, args.workload, seed, args.seconds)
        runs.append(r)
        shown = ", ".join(f"{k} {m['value']:.4g}" for k, m in r["metrics"].items())
        print(f"seed {seed}: correct {r['correct']}, failed {r['failed']}/{r['attempted']}; {shown}",
              flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        print(f"{name:12s} median {statistics.median(values):.6g}  spread {spread(values):.4f}")
    return 0 if all(r["correct"] for r in runs) else 1


def cmd_compare(args) -> int:
    base, change = Path(args.base).resolve(), Path(args.change).resolve()
    sides = {"base": [], "change": []}
    for i in range(args.pairs):
        order = [("base", base), ("change", change)]
        if i % 2:
            order.reverse()
        for name, root in order:
            sides[name].append(run_once(root, args.workload, args.seed, args.seconds))
    for name, m in sides["base"][0]["metrics"].items():
        b = [r["metrics"][name]["value"] for r in sides["base"]]
        c = [r["metrics"][name]["value"] for r in sides["change"]]
        # every end-to-end metric reads better lower
        wins = sum(y < x for x, y in zip(b, c))
        losses = sum(y > x for x, y in zip(b, c))
        q = lambda v: statistics.quantiles(v, n=4)  # noqa: E731
        print(f"{name:12s} base median {statistics.median(b):.6g} quartiles {q(b)[0]:.4g}..{q(b)[2]:.4g}"
              f" | change median {statistics.median(c):.6g} quartiles {q(c)[0]:.4g}..{q(c)[2]:.4g}"
              f" | change wins {wins}, loses {losses} of {args.pairs} ({m['unit']})")
    failed = {n: sum(r["failed"] for r in sides[n]) for n in sides}
    print(f"failed operations: base {failed['base']}, change {failed['change']}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread", help="spread of the end-to-end metrics over seeds")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="0-9", help="a seed or a range such as 0-9")
    sp.add_argument("--seconds", type=float, default=25.0)
    sp.set_defaults(fn=cmd_spread)
    cp = sub.add_parser("compare", help="alternated pairs of two checkouts")
    cp.add_argument("base")
    cp.add_argument("change")
    cp.add_argument("--workload", required=True)
    cp.add_argument("--pairs", type=int, default=10)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--seconds", type=float, default=25.0)
    cp.set_defaults(fn=cmd_compare)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
