"""Per-layer tracing by wrapping public functions from outside the program.

A :class:`Tracer` replaces named attributes (module-level functions, or
methods on a class) with wrappers that record, per traced name, the number
of calls, the inclusive time, the self time (inclusive time minus the time
of traced calls made inside it) and optional work counts taken from the
arguments.  With ``memory=True`` it also records the peak memory allocated
during each call as ``tracemalloc`` sees it; that slows allocation-heavy
Python loops several times over, so timings are taken with it off.  Leaving
the ``with`` block restores every original attribute.

Classes are never wrapped: replacing a class with a function breaks its
classmethods and ``isinstance`` checks.  A name is patched on the module
that looks it up at call time, since ``from x import f`` copies the binding.
Sites are named, not held, so a site missing from the program is reported
and left untraced; the untraced benchmark never depends on them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

# maps the bound arguments of one call to the work it does (cells, matrices, ...)
WorkFn = Callable[[dict], float]


@dataclass(frozen=True)
class Target:
    """One traced name and its (module name, attribute path) sites."""

    name: str
    sites: tuple[tuple[str, str], ...]
    work: WorkFn | None = None


def resolve(module: str, path: str) -> tuple[object, str]:
    """(owner, attribute) of a site, e.g. ("dlqw.pde", "KernelSourceOperator.apply")."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    peak_bytes: int = 0
    work: float = 0.0
    work_max: float = 0.0


@dataclass
class _Frame:
    mem0: int
    child_s: float = 0.0
    peak_seen: int = 0


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object
    owned: bool  # attribute lived in owner.__dict__ (not inherited)


@dataclass
class Tracer:
    targets: list[Target]
    memory: bool = False
    stats: dict[str, Stat] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)
    _patches: list[_Patch] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self.stats.setdefault(target.name, Stat())
                for module, path in target.sites:
                    self._patch(target, module, path)
        except BaseException:
            self._restore()
            raise
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.memory:
            tracemalloc.stop()
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            p = self._patches.pop()
            if p.owned:
                setattr(p.owner, p.attr, p.original)
            else:
                delattr(p.owner, p.attr)

    def _patch(self, target: Target, module: str, path: str) -> None:
        try:
            owner, attr = resolve(module, path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            print(f"trace: {target.name}: {module}.{path} not found; left untraced",
                  file=sys.stderr)
            return
        if inspect.isclass(original) or not callable(original):
            raise TypeError(f"trace: {target.name} must name a function or method, "
                            f"got {original!r}")
        owned = attr in vars(owner)
        setattr(owner, attr, self._wrap(target, original))
        self._patches.append(_Patch(owner, attr, original, owned))

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        sig = inspect.signature(fn) if target.work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(target, fn, sig, args, kwargs)

        traced.bench_traced = True
        return traced

    def _call(self, target: Target, fn: Callable, sig: inspect.Signature | None,
              args: tuple, kwargs: dict):
        mem0 = 0
        if self.memory:
            mem0, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.peak_seen = max(parent.peak_seen, peak)
            tracemalloc.reset_peak()
        frame = _Frame(mem0)
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self._stack.pop()
            peak = frame.peak_seen
            if self.memory:
                peak = max(tracemalloc.get_traced_memory()[1], peak)
            stat = self.stats[target.name]
            stat.calls += 1
            stat.s += elapsed
            stat.self_s += elapsed - frame.child_s
            stat.peak_bytes = max(stat.peak_bytes, peak - mem0)
            if sig is not None:
                w = target.work(sig.bind(*args, **kwargs).arguments)
                stat.work += w
                stat.work_max = max(stat.work_max, w)
            if self._stack:
                parent = self._stack[-1]
                parent.child_s += elapsed
                parent.peak_seen = max(parent.peak_seen, peak)
