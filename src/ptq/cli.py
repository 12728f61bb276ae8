"""Command line front end.

    ptq parse       reprint a term in canonical form
    ptq typecheck   check a typing judgment
    ptq translate   compile a lambda term (by-name, by-value, or CPS)
    ptq reduce      run the machine on a computation
    ptq readback    project a term or judgment back to lambda syntax
    ptq measure     interpret a term in the step-counting model
    ptq eval        run a lambda term with one of the reference evaluators
    ptq verify      replay the correspondence properties on random terms

Input comes from a positional argument, from --file, or from stdin when the
argument is "-". File extensions pick the language: .lam for lambda terms,
.ptq for machine terms, .jdg for judgments. Exit status is 0 on success, 1
when the input is rejected (parse, type, or reduction failure), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .errors import DuplicateVariable, ParseError, PtqError
from .harness import VERIFY_PROPERTIES, run_property
from .lam import _is_var, lam_str, parse_lam
from .lambda_eval import DEFAULT_FUEL, EvalOrder, Strategy, eval_small
from .machine import _write_trace_json, normalize, trace_to_json
from .measure import measure, identity, o
from .readback import readback, readback_judgment
from .syntax import parse_term, parse_type, sort_of, term_str, type_str
from .typecheck import (
    EMark,
    PtqType,
    check_judgment,
    check_lambda_judgment,
    judgment_str,
    lam_judgment_str,
    parse_judgment,
    parse_lam_judgment,
)
from .translate import Pairing, plotkin_translate, ptq_translate, ptq_translate_e


def _read_input(args, what: str) -> str:
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError as exc:
            raise PtqError(f"cannot read {args.file}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise PtqError(f"cannot read {args.file}: not UTF-8 text") from None
    if args.term is None:
        raise PtqError(f"no {what} given; pass it as an argument or via --file")
    if args.term == "-":
        return sys.stdin.read().strip()
    return args.term


def _lang_of(args, default: str) -> str:
    lang = getattr(args, "lang", None)
    if lang:
        return lang
    path = getattr(args, "file", None)
    if path:
        if path.endswith(".lam"):
            return "lam"
        if path.endswith(".ptq"):
            return "ptq"
        if path.endswith(".jdg"):
            return "judgment"
    return default


def _parse_env(spec: Optional[str]):
    """Turn "x:A, y:A -> B" into a name-to-type mapping."""
    if not spec:
        return None
    env = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, ty = piece.partition(":")
        if not sep:
            raise ParseError(f"environment entry {piece!r} is missing a type")
        name = name.strip()
        if not _is_var(name):
            raise ParseError(f"environment entry {piece!r} does not name a variable")
        if name in env:
            raise DuplicateVariable(f"{name} is already bound")
        env[name] = parse_type(ty.strip())
    return env


def _require_at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise PtqError(f"{flag} must be at least {low}, got {value}")


_CALCULUS_RE = re.compile(r"[;!]|\|\s*>|:\s*[ptq]")


def _parse_any_judgment(text: str):
    """Read text with the one judgment reader it calls for: the calculus
    reader when it holds `;`, `!`, `|>` or a role-marked type (`:` then `pA`
    or `p(…)`), else the lambda reader. A lambda judgment holds none of
    these, as its types start with a capital, `(` or `o`."""
    if _CALCULUS_RE.search(text):
        return "ptq", parse_judgment(text)
    return "lam", parse_lam_judgment(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args) -> int:
    text = _read_input(args, "term")
    lang = _lang_of(args, "ptq")
    if lang == "lam":
        print(lam_str(parse_lam(text)))
    elif lang == "judgment":
        kind, j = _parse_any_judgment(text)
        print(judgment_str(j) if kind == "ptq" else lam_judgment_str(j))
    else:
        print(term_str(parse_term(text)))
    return 0


def _cmd_typecheck(args) -> int:
    text = _read_input(args, "judgment")
    kind, j = _parse_any_judgment(text)
    result = check_judgment(j) if kind == "ptq" else check_lambda_judgment(j)
    if result.ok:
        inferred = result.inferred
        if isinstance(inferred, EMark):
            print("OK")
        elif isinstance(inferred, PtqType):
            print(f"OK {inferred}")
        else:
            print(f"OK {type_str(inferred)}")
        return 0
    err = result.error
    print(f"FAIL {type(err).__name__}: {err}")
    return 1


def _cmd_translate(args) -> int:
    text = _read_input(args, "term")
    m = parse_lam(text)
    strategy = Strategy(args.strategy)
    env = _parse_env(args.env)
    if args.form == "term":
        print(term_str(ptq_translate(m, strategy, env)))
    elif args.form == "eterm":
        print(term_str(ptq_translate_e(m, strategy, env)))
    else:
        order = EvalOrder(args.order)
        out = plotkin_translate(m, strategy, order, args.pairing, env)
        print(lam_str(out))
    return 0


def _cmd_reduce(args) -> int:
    _require_at_least(args.fuel, 0, "--fuel")
    text = _read_input(args, "term")
    u = parse_term(text)
    if sort_of(u) != "e":
        raise PtqError(f"reduce wants a computation, got a {sort_of(u)}-term")
    result = normalize(u, fuel=args.fuel)
    trace = result.trace
    if args.json:
        _write_trace_json(trace, sys.stdout)
        sys.stdout.write("\n")
        return 0
    if args.trace:
        doc = trace_to_json(trace)
        print(f"initial: {doc['initial']}")
        for s in doc["steps"]:
            print(f"[{s['rule']}] {s['term']}")
        print("normal: yes" if trace.normal else "normal: no (fuel ran out)")
        return 0
    if result.exhausted:
        raise PtqError(f"no normal form within {args.fuel} steps")
    print(term_str(trace.final))
    return 0


def _cmd_readback(args) -> int:
    text = _read_input(args, "input")
    if args.judgment or _lang_of(args, "ptq") == "judgment":
        kind, j = _parse_any_judgment(text)
        if kind != "ptq":
            raise PtqError("readback wants a calculus judgment, got a lambda judgment")
        print(lam_judgment_str(readback_judgment(j)))
        return 0
    term = parse_term(text)
    print(lam_str(readback(term)))
    return 0


def _cmd_measure(args) -> int:
    text = _read_input(args, "term")
    term = parse_term(text)
    value = measure(term, o)
    sort = sort_of(term)
    if sort == "p":
        print(f"measure {value}")
    elif sort == "t":
        print(f"measure {value(identity)(0)}")
    else:
        n = value(identity)
        print(f"measure {n}")
        if sort == "e":
            print(f"control-length {n - 1}")  # control_length(term), not measured again
    return 0


def _cmd_eval(args) -> int:
    _require_at_least(args.fuel, 0, "--fuel")
    text = _read_input(args, "term")
    m = parse_lam(text)
    strategy = Strategy(args.strategy)
    order = EvalOrder(args.order)
    nf, chain = eval_small(m, strategy, order, args.fuel)
    if args.trace:
        print(lam_str(chain[0]))
        for step_term in chain[1:]:
            print(f"-> {lam_str(step_term)}")
        print(f"steps {len(chain) - 1}")
    else:
        print(lam_str(nf))
    return 0


def _cmd_verify(args) -> int:
    _require_at_least(args.count, 1, "--count")
    _require_at_least(args.max_size, 0, "--max-size")
    names = list(VERIFY_PROPERTIES) if args.property == "all" else [args.property]
    payload = {}
    any_failed = False
    for name in names:
        failures = []
        total = 0
        for check_name in VERIFY_PROPERTIES[name]:
            reports = run_property(check_name, args.count, args.max_size, args.seed)
            total += len(reports)
            failures += [r for r in reports if not r.ok]
        payload[name] = {
            "ok": not failures,
            "instances": total,
            "failures": [r.to_dict() for r in failures[:10]],
        }
        if failures:
            any_failed = True
            if not args.json:
                first = failures[0]
                print(
                    f"FAIL {name}: {len(failures)}/{total} instances; first: "
                    f"{first.instance} (size {first.size}, seed {first.seed}): "
                    f"{'; '.join(first.failures)}"
                )
        elif not args.json:
            print(f"PASS {name} ({total} instances)")
    if args.json:
        print(json.dumps(payload, indent=2))
    return 1 if any_failed else 0


# ---------------------------------------------------------------------------
# wiring


def _add_input(sub, what="TERM") -> None:
    sub.add_argument("term", nargs="?", metavar=what, help=f"{what} text, or - for stdin")
    sub.add_argument("--file", "-f", help="read the input from a file instead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptq", description="typed continuation machine toolkit"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse and reprint in canonical form")
    _add_input(p)
    p.add_argument("--lang", choices=["ptq", "lam", "judgment"], help="input language")
    p.set_defaults(fn=_cmd_parse)

    p = subs.add_parser("typecheck", help="check a typing judgment")
    _add_input(p, "JUDGMENT")
    p.set_defaults(fn=_cmd_typecheck)

    p = subs.add_parser("translate", help="compile a lambda term")
    _add_input(p)
    p.add_argument("--strategy", choices=["cbn", "cbv"], required=True)
    p.add_argument(
        "--form",
        choices=["term", "eterm", "plotkin"],
        default="term",
        help="plain translation, its computation form, or lambda-only CPS",
    )
    p.add_argument(
        "--order",
        choices=["fn-first", "arg-first"],
        default="fn-first",
        help="evaluation order of the CPS output (by value only)",
    )
    p.add_argument(
        "--pairing",
        choices=[p.value for p in Pairing],
        default=Pairing.CURRIED.value,
        help="continuation calling convention of the CPS output",
    )
    p.add_argument("--env", help='free variable types, e.g. "x:A, y:A -> B"')
    p.set_defaults(fn=_cmd_translate)

    p = subs.add_parser("reduce", help="run the machine on a computation")
    _add_input(p)
    p.add_argument("--trace", action="store_true", help="print every step")
    p.add_argument("--json", action="store_true", help="emit the trace as JSON")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL, help="step budget")
    p.set_defaults(fn=_cmd_reduce)

    p = subs.add_parser("readback", help="project back to lambda syntax")
    _add_input(p)
    p.add_argument(
        "--judgment", action="store_true", help="read the input as a judgment"
    )
    p.set_defaults(fn=_cmd_readback)

    p = subs.add_parser("measure", help="step-counting interpretation")
    _add_input(p)
    p.set_defaults(fn=_cmd_measure)

    p = subs.add_parser("eval", help="run a reference lambda evaluator")
    _add_input(p)
    p.add_argument("--strategy", choices=["cbn", "cbv"], required=True)
    p.add_argument("--order", choices=["arg-first", "fn-first"], default="arg-first")
    p.add_argument("--trace", action="store_true", help="print the whole chain")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL, help="step budget")
    p.set_defaults(fn=_cmd_eval)

    p = subs.add_parser("verify", help="replay correspondence properties")
    p.add_argument("--property", choices=["all", *VERIFY_PROPERTIES], default="all")
    p.add_argument("--count", type=int, default=100, help="instances per property")
    p.add_argument("--max-size", type=int, default=6, help="largest term size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(fn=_cmd_verify)

    return parser


# the parser `main` reuses, built on its first call: building it costs more
# than most commands, and at import it would slow every start
_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except PtqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: term nested too deeply to process", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
