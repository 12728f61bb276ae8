"""Spans at ptq's module boundaries, recorded from outside the package.

`Tracer.install` rebinds every function that a module imports from another
ptq module, in the namespace of the importing module, to a wrapper that
records a span: layer, function, start, end, parent span and job id. The
defining module is never touched, so recursion inside a layer is not traced,
and a call that goes through an import inside a function body (such as
`harness.check_measure` reaching `machine.control_prefix`) reads the
defining module's name and is charged to the caller's layer.

Spans stay in memory, in flat arrays, until the caller turns them into
totals with `self_times`. `uninstall` restores every rebound name.
"""

from __future__ import annotations

import functools
import types
from array import array
from time import perf_counter
from typing import Callable, Iterable, Optional

PACKAGE = "ptq"
Hook = Callable[[tuple, object], None]


def layer_of(fn) -> str:
    """`ptq.syntax.subst_k` belongs to layer `syntax`."""
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # (layer, function) per key
        self._keys: dict[tuple[str, str], int] = {}
        self.key = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._job_id = -1
        self.recording = False
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, modules: Iterable[types.ModuleType], hooks: Optional[dict] = None) -> int:
        """Wrap the foreign ptq functions bound in each module; returns how
        many names were rebound. `hooks` maps (layer, function) to a callable
        that sees the arguments and result of every recorded call."""
        hooks = hooks or {}
        prefix = PACKAGE + "."
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith(prefix)
                    and obj.__module__ != mod.__name__
                ):
                    key = (layer_of(obj), obj.__name__)
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self._wrap(obj, key, hooks.get(key)))
        return len(self._saved)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, fn, name: tuple[str, str], hook: Optional[Hook]):
        key = self._keys.setdefault(name, len(self.names))
        if key == len(self.names):
            self.names.append(name)
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            i = len(tracer.key)
            tracer.key.append(key)
            tracer.parent.append(stack[-1])
            tracer.job.append(tracer._job_id)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- recording --------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self._job_id = job_id
        self.recording = True

    def end_job(self) -> None:
        self.recording = False
        del self._stack[1:]

    def clear(self) -> None:
        for a in (self.key, self.parent, self.job, self.start, self.end):
            del a[:]


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so nested, sibling and overlapping spans all come out
    right. A parent index of -1 marks a root span.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the children merged so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]
