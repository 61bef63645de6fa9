"""Span tracing for the traced benchmark run: self time per layer.

A span covers one call into a layer.  Spans nest on a stack (the
simulator is single-threaded), and a span's *self time* is its duration
minus the time covered by the spans it directly encloses, so the self
times of one pass add up to at most the pass's wall time.

:class:`Tracer` keeps the totals; :class:`Patcher` installs its
wrappers on the program's public functions and methods and takes them
off again, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Patcher", "Tracer"]

Hook = Callable[[tuple, Any, Optional[BaseException]], None]


class Tracer:
    """Self time per layer and event counts, accumulated across spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: layer -> number of open spans of that layer.
        self.depth: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # [layer, start, child_time]

    def enter(self, layer: str) -> None:
        self.depth[layer] += 1
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        layer, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self.self_time[layer] += elapsed - child
        self.depth[layer] -= 1
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        self.self_time.clear()
        self.counts.clear()
        self.depth.clear()

    def wrap(self, fn: Callable, layer: str, count: Optional[str] = None,
             hook: Optional[Hook] = None) -> Callable:
        """``fn`` timed as a span of ``layer``.

        ``count`` names a counter bumped once per call into the layer
        from outside it: a call made from inside a span of the same
        layer (an override calling ``super()``, ``start`` calling
        ``pick``) is not counted again.  ``hook(args, result, error)``
        runs after the span closes.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None and not (
                tracer._stack and tracer._stack[-1][0] == layer
            ):
                tracer.counts[count] += 1
            tracer.enter(layer)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.exit()
                if hook is not None:
                    hook(args, result, error)

        return traced


class Patcher:
    """Replaces attributes and puts the originals back on :meth:`undo`."""

    #: Only the program's own modules are searched for imported copies.
    MODULE_PREFIX = "repro"

    def __init__(self):
        self._undo: List[tuple] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]
                           if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def function(self, module: Any, name: str,
                 make: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.name`` everywhere it was imported by name.

        A ``from x import f`` copies the reference, so every loaded
        module under the prefix holding the same object is patched too.
        """
        original = getattr(module, name)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.MODULE_PREFIX
                                   or mod_name.startswith(self.MODULE_PREFIX + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def method(self, cls: type, name: str,
               make: Callable[[Callable], Callable]) -> bool:
        """Wrap ``cls.name`` if ``cls`` itself defines it; False if not."""
        raw = cls.__dict__.get(name)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        elif callable(raw):
            wrapped = make(raw)
        else:
            return False
        self._set(cls, name, wrapped)
        return True

    def item(self, mapping: dict, key: Any, value: Any) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
