"""Call tracing for the benchmark's traced run.

The tracer wraps selected contris functions from outside the package: it
replaces every reference to a function that any ``contris`` module holds
(``from .specfun import bessel_j0`` makes ``sysmodel`` hold its own), and
wraps methods on their class.  Each wrapper counts calls, times them
inclusively and keeps a call stack so that a caller's self time excludes the
time spent in wrapped callees.  ``restore`` puts every original back.

Wrappers pass arguments and results through unchanged, so a traced run
computes bit-for-bit what an untraced run computes.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Stat:
    """Accumulated measures of one traced function."""

    calls: int = 0
    points: int = 0
    s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)
    keys: set = field(default_factory=set)

    @property
    def distinct_fraction(self) -> float:
        return len(self.keys) / self.calls if self.calls else 0.0


@dataclass(frozen=True)
class Target:
    """One function to trace.

    ``owner`` is a module name, or ``"module:Class"`` for a method.
    ``points`` maps the call's arguments to the number of array elements
    taken in.  ``prepare`` may replace the arguments with equivalent ones
    (to count integrand nodes), and ``observe`` records extra measures
    from the arguments and the result.
    """

    owner: str
    name: str
    points: Callable | None = None
    prepare: Callable | None = None
    observe: Callable | None = None

    @property
    def label(self) -> str:
        module, _, cls = self.owner.partition(":")
        parts = [module.removeprefix("contris."), cls, self.name]
        return ".".join(part for part in parts if part)


class Tracer:
    """Install wrappers for a set of targets; use as a context manager."""

    def __init__(self, targets, package: str = "contris", clock=time.perf_counter):
        self.targets = list(targets)
        self.package = package
        self.clock = clock
        self.reset()
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {t.label: Stat() for t in self.targets}

    # -- install / restore -------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for target in self.targets:
            module_name, _, cls_name = target.owner.partition(":")
            module = sys.modules[module_name]
            if cls_name:
                cls = getattr(module, cls_name)
                original = cls.__dict__[target.name]
                self._patch(cls, target.name, original, self._wrap(target, original))
                continue
            original = getattr(module, target.name)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, obj, attr, original, wrapper) -> None:
        setattr(obj, attr, wrapper)
        self._patched.append((obj, attr, original))

    def restore(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, target: Target, original):
        stat_key = target.label
        stack = self._stack
        clock = self.clock
        is_method = ":" in target.owner

        def wrapper(*args, **kwargs):
            stat = self.stats[stat_key]
            call_args = args[1:] if is_method else args
            if target.prepare is not None:
                call_args, kwargs = target.prepare(stat, call_args, kwargs)
                args = (args[0], *call_args) if is_method else call_args
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if target.points is not None:
                stat.points += target.points(call_args, kwargs)
            if target.observe is not None:
                target.observe(stat, call_args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", target.name)
        return wrapper
