"""Spans and counts recorded from outside the program.

install() replaces every public function of every nbmle module with a
wrapper, in each module namespace and module-level dict that refers to it,
so calls between modules and the CLI's dispatch table go through the
wrappers.  Nothing in the package's source changes.

A wrapper records, per function, the number of calls and the time of its
outermost calls (a nested call of the same function is counted but not
timed twice), and its self time: duration minus the time covered by the
wrapped functions it called.  The scalar functions in nbmle.special run
tens of thousands of times per verify and cost about a microsecond each,
so they are only counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass

_COUNT_ONLY_MODULES = ("nbmle.special",)


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    depth: int = 0


class Recorder:
    """Per-function totals plus counters fed by result hooks."""

    def __init__(self):
        self.stats: dict = {}
        self.counters: dict = {}
        self._stack: list = []  # child time accumulated per open span

    def snapshot(self) -> dict:
        out = {}
        for name, s in self.stats.items():
            out[f"{name}_calls"] = s.calls
            out[f"{name}_s"] = s.total
            out[f"{name}_self_s"] = s.self_time
        out.update(self.counters)
        return out

    def timed(self, name: str, fn, hook=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if stat.depth:
                return fn(*args, **kwargs)
            stat.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.depth -= 1
                stat.total += elapsed
                stat.self_time += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(self.counters, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


# Counts read from return values: Newton iterations per fit, and the number
# of terms of the expected-information tail series (sum of its cutoffs).
HOOKS = {
    "estimator.fit": lambda c, r: _add(c, "estimator.iterations", r.iterations),
    "fisher.expected_info_theta":
        lambda c, r: _add(c, "fisher.series_terms", sum(r[1].cutoffs)),
}


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every nbmle module in place."""
    import nbmle

    modules = [nbmle] + [importlib.import_module(f"nbmle.{m.name}")
                         for m in pkgutil.iter_modules(nbmle.__path__)]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.removeprefix("nbmle.")
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            qual = f"{short}.{name}"
            if mod.__name__ in _COUNT_ONLY_MODULES:
                wrapped[obj] = recorder.counted(qual, obj)
            else:
                wrapped[obj] = recorder.timed(qual, obj, HOOKS.get(qual))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]
