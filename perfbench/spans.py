"""Outside-in instrumentation for dflsim: binding patches, spans, step timers.

``from .fan import thrust_jacobian`` gives ``dflsim.lpv`` a second binding of
the same function object, so wrapping ``dflsim.fan.thrust_jacobian`` alone
would miss the calls that matter.  ``patched`` therefore replaces every
attribute of every loaded ``dflsim.*`` module that *is* the original object,
and puts each one back on exit.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
import types
from contextlib import contextmanager
from time import perf_counter, process_time


def _dflsim_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "dflsim" or name.startswith("dflsim."))]


@contextmanager
def patched(replacements):
    """Swap functions for wrappers across all their dflsim bindings.

    ``replacements`` maps an original function object to its wrapper.  Yields
    the number of bindings replaced per original; restores all on exit.
    """
    saved = []
    counts = {fn: 0 for fn in replacements}
    try:
        for mod in _dflsim_modules():
            for key, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                wrapper = replacements.get(value)
                if wrapper is not None:
                    saved.append((mod, key, value))
                    setattr(mod, key, wrapper)
                    counts[value] += 1
        yield counts
    finally:
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)


class Tracer:
    """In-memory span recorder: (name, start, end, parent) per call.

    Spans are appended in start order, so a parent index is always smaller
    than its children's.  ``observers`` map a span name to a callback that
    receives the call's return value (for counts such as QP iterations).
    Exceptions are tallied once, at the innermost span they leave.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.raised: dict[str, int] = {}     # exception type name -> count
        self.observers = {}
        self._stack: list[int] = []
        self._seen_errors: list[BaseException] = []

    def wrap(self, name, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """Record one span; also used directly for the benchmark's CLI stages."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            yield
        except BaseException as exc:
            if not any(exc is seen for seen in self._seen_errors):
                self._seen_errors.append(exc)
                kind = type(exc).__name__
                self.raised[kind] = self.raised.get(kind, 0) + 1
            raise
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def instrument(self, functions):
        """Patch context that traces ``{span name: function}``."""
        return patched({fn: self.wrap(name, fn) for name, fn in functions.items()})

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0!r},"
                         f"{self.ends[i] - t0!r},{self.parents[i]}\n")


class StepTimer:
    """A timer pair around one module binding: the untraced run's only wrapper.

    Records the wall and CPU (``process_time``) duration of every call that
    returns, and what ``observe`` makes of its return value (whether a
    control step's QP was capped, or how many epochs a training call ran).
    A call that raises is left to the caller, which sees its output missing.
    """

    def __init__(self, module, attr, observe=None):
        self.module, self.attr = module, attr
        self.observe = observe
        self.durations: list[float] = []
        self.cpu: list[float] = []
        self.observed: list = []

    @contextmanager
    def active(self):
        original = getattr(self.module, self.attr)
        durations, cpu, observed = self.durations, self.cpu, self.observed
        observe = self.observe

        @functools.wraps(original)
        def timed(*args, **kwargs):
            w0, c0 = perf_counter(), process_time()
            result = original(*args, **kwargs)
            cpu.append(process_time() - c0)
            durations.append(perf_counter() - w0)
            observed.append(observe(result) if observe is not None else None)
            return result

        setattr(self.module, self.attr, timed)
        try:
            yield self
        finally:
            setattr(self.module, self.attr, original)
