"""A differential digest of ptq's term structure and text entries.

    PYTHONPATH=src python3 tests/digest.py            # one line per input
    PYTHONPATH=src python3 tests/digest.py --total    # the total digest only

Each line is the SHA-256 prefix of what one input gives, then the input's
label: the output, or the error class and message, of every operation run on
it. Run the script on two trees and diff the lines to list the inputs whose
outputs differ; the last line digests all the others. The inputs are

  - the string constants of `tests/*.py`, read by every text entry of
    `ptq.__all__` (the term, type, lambda and judgment readers);
  - terms: those texts that read as terms, `gen_typed_term` sizes 0-8
    (seeds 0-11, the tests' shared corpus) with their images by name and by
    value, and Church numerals of a few sizes as lambda terms and as images
    in both strategies.

On each term it runs the structural surface: the constructor (by position,
by keyword, and with a non-term in each field), `==` and `alpha_eq` against
the rebuilt term and the term before it, `repr`, the printer, the free
names, and substitution for each free name and a root binder's name (and
for k, * and the hole).
Across all terms it digests the classes of equal terms and of equal
hashes, as lists of indices. No raw `hash()` value is stored, since str
hashing is salted per process. Each generated e-image and each Church image
up to 200 is also run through substitution's two main callers: `normalize`
(its rule sequence and printed final state) and `readback` of that state.
Standard library only.

The total also moves when a string constant is added to or removed from
`tests/*.py`, since those constants are inputs; `tests/test_digest.py`, which
pins the total, is left out of them.
"""

from __future__ import annotations

import ast
import hashlib
import sys
from pathlib import Path

import ptq
from ptq import lam, syntax
from ptq.harness import gen_typed_term

TESTS = Path(__file__).resolve().parent
TEXT_ENTRIES = (
    "parse_term", "parse_pterm", "parse_tterm", "parse_qterm", "parse_eterm",
    "parse_type", "parse_lam", "parse_judgment", "parse_lam_judgment",
)
CHURCH = (0, 1, 5, 30, 200, 400)


def outcome(fn, *args, show=repr) -> str:
    try:
        return show(fn(*args))
    except Exception as e:  # the error is part of the output
        return f"{type(e).__name__}: {e}"


def constants() -> list[str]:
    texts = set()
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "test_digest.py":  # its pin is the total itself
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.add(node.value)
    return sorted(texts)


def church_text(n: int) -> str:
    body = "f (" * n + "x" + ")" * n
    return rf"(\f:A->A. \x:A. {body}) (\y:A. y) z"


def names_in(term) -> list[str]:
    """Every name the fields of term's nodes hold, bound or free."""
    seen, names, todo = set(), set(), [term]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for field in node.__match_args__:
            value = getattr(node, field)
            if isinstance(value, str):
                names.add(value)
            elif hasattr(value, "_fv"):
                todo.append(value)
    return sorted(names)


def surface(term, previous) -> list[str]:
    calculus = isinstance(term, syntax._Node)
    text = syntax.term_str if calculus else lam.lam_str
    cls = type(term)
    fields = [getattr(term, f) for f in cls.__match_args__]
    out = [outcome(repr, term)]
    out.append(outcome(text, term))
    out.append(outcome(lambda: sorted(term._fv)))
    for rebuilt in (lambda: cls(*fields), lambda: cls(**dict(zip(cls.__match_args__, fields)))):
        out.append(outcome(lambda: (rebuilt() == term, hash(rebuilt()) == hash(term))))
    for i in range(len(fields)):
        out.append(outcome(cls, *fields[:i], 0, *fields[i + 1 :]))
    for other in (term, previous):
        out.append(outcome(lambda: (term == other, other == term)))
        out.append(outcome(syntax.alpha_eq if calculus else lam.lam_alpha_eq, term, other))
    payloads = names_in(term)[:3] + ["y_1"]
    # each free name, and a root binder's name in its body
    targets = [(term, name) for name in sorted(term._fv)]
    if hasattr(term, "x") and hasattr(term, "body"):
        targets.append((term.body, term.x))
    for t, target in targets:
        for name in payloads:
            if calculus:
                out.append(outcome(syntax.subst_pvar, t, target, syntax.PVar(name), show=text))
            else:
                out.append(outcome(lam.lam_subst, t, target, lam.Var(name), show=text))
    if calculus:
        payload = syntax.Pair(syntax.PVar(payloads[0]), syntax.STAR)
        for fn in (syntax.subst_k, syntax.subst_star):
            out.append(outcome(fn, term, payload, show=text))
        for fn in (syntax.t_close, syntax.t_open):
            out.append(outcome(fn, term, show=text))
        for fn in (syntax.spine, syntax.sort_of):
            out.append(outcome(fn, term))
    else:
        out.append(outcome(lam.plug_hole, term, lam.Var(payloads[0]), show=text))
    return out


def run(image) -> list[str]:
    """`normalize`'s rule sequence and printed final state, and that state's
    readback."""
    trace = ptq.normalize(image).trace
    rules = " ".join(rule.value for rule in trace.rules())
    final = trace.final
    return [rules, outcome(syntax.term_str, final, show=str), outcome(ptq.readback, final, show=lam.lam_str)]


def classes(terms, key) -> str:
    """The classes of terms under key, as lists of indices."""
    groups = {}
    for i, term in enumerate(terms):
        groups.setdefault(key(term), []).append(i)
    return repr(sorted(g for g in groups.values() if len(g) > 1))


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "backslashreplace") + b"\0")
    return h.hexdigest()[:16]


def lines():
    terms = []  # (label, term)
    images = []  # (label, e-image) to run
    for i, text in enumerate(constants()):
        results = [outcome(getattr(ptq, name), text) for name in TEXT_ENTRIES]
        yield digest(results), f"text {i} {text[:40]!r}"
        for name in ("parse_term", "parse_lam"):
            try:
                terms.append((f"text {i} {name} {text[:40]!r}", getattr(ptq, name)(text)))
            except Exception:
                pass
    for size in range(9):
        for seed in range(12):
            m, _ = gen_typed_term(size, seed)
            terms.append((f"gen {size}:{seed}", m))
            for strategy in ("cbn", "cbv"):
                for entry in (ptq.ptq_translate, ptq.ptq_translate_e):
                    label = f"gen {size}:{seed} {entry.__name__} {strategy}"
                    terms.append((label, entry(m, strategy)))
                images.append(terms[-1])  # the e-image
    env = {"z": ptq.parse_type("A")}
    for n in CHURCH:
        m = ptq.parse_lam(church_text(n))
        terms.append((f"church {n}", m))
        for strategy in ("cbn", "cbv"):
            terms.append((f"church {n} {strategy}", ptq.ptq_translate_e(m, strategy, env)))
            if n <= 200:
                images.append(terms[-1])  # the e-image
    previous = syntax.STAR
    for label, term in terms:
        yield digest(surface(term, previous)), label
        previous = term
    for label, image in images:
        yield digest([outcome(run, image, show="\n".join)]), f"{label} normalize"
    roots = [term for _, term in terms]
    yield digest([classes(roots, hash)]), "equal-hash classes"
    # equal terms hash alike, so == is tried only within a class of hashes
    buckets = {}
    for i, term in enumerate(roots):
        bucket = buckets.setdefault(hash(term), [])
        for cls in bucket:
            if roots[cls[0]] == term:
                cls.append(i)
                break
        else:
            bucket.append([i])
    equal = sorted(c for bucket in buckets.values() for c in bucket if len(c) > 1)
    yield digest([repr(equal)]), "equal classes"


def main(argv: list[str]) -> int:
    out = [f"{d}  {label}" for d, label in lines()]
    total = digest(out)
    if "--total" not in argv:
        print("\n".join(out))
    print(f"{total}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
