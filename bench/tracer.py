"""In-memory span tracer that wraps functions from outside the program.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began (its parent). Spans live in flat arrays while the
run lasts and are summarised, or written out, when it ends. Self time is a
span's duration minus the time its child spans cover; because every wrapped
call nests strictly inside its caller, children never overlap and that cover
is the sum of their durations.

`instrument` swaps wrappers in for the originals. Modules that imported a
function by name hold their own binding, so every module attribute that is the
original object is patched, not only the defining module; everything is
restored when the `with` block ends, also on error.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np


class Tracer:
    """Records spans and named counters; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter = Counter()   # span name -> calls that raised
        self.counters: Counter = Counter()  # free-form counts set by hooks
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name, on_result=None):
        """Wrapper recording one span per call of fn.

        name is a span name or a callable choosing it from the call's
        arguments. on_result(tracer, result) runs after a call that returned.
        Exceptions propagate unchanged and are counted under the span name.
        """
        choose = (lambda *a, **k: name) if isinstance(name, str) else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = choose(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(self._intern(span))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[span] += 1
                raise
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def arrays(self) -> dict:
        """Spans as numpy arrays: name index, parent index, start, end."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def summary(self) -> dict:
        """name -> SpanStats over every recorded span of that name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n_names = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n_names)
        busy = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        own = np.bincount(a["name_id"], weights=self_time, minlength=n_names)
        return {name: SpanStats(int(calls[i]), float(busy[i]), float(own[i]),
                                self.errors[name])
                for i, name in enumerate(self.names)}

    def busy_outside(self, name: str, excluded: str) -> float:
        """Busy time of `name` spans that have no `excluded` span above them."""
        if name not in self._name_ids:
            return 0.0
        target = self._name_ids[name]
        banned = self._name_ids.get(excluded, -1)
        total = 0.0
        for i, n in enumerate(self.name_id):
            if n != target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != banned:
                p = self.parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total

    def save(self, path: str) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@dataclass(frozen=True)
class SpanStats:
    calls: int
    busy_s: float   # inclusive time
    self_s: float   # busy time minus child spans
    errors: int


@dataclass(frozen=True)
class Target:
    """One function to wrap: owner.attr, recorded under name."""

    owner: object           # module or class defining the function
    attr: str
    name: object            # span name, or callable choosing it per call
    on_result: object = None


@contextlib.contextmanager
def instrument(tracer: Tracer, targets, modules):
    """Patch every binding of each target in `modules` (and in the owner
    itself) with a tracing wrapper for the duration of the block."""
    patched = []
    try:
        for t in targets:
            original = t.owner.__dict__[t.attr]
            wrapper = tracer.wrap(original, t.name, t.on_result)
            holders = [t.owner] + [m for m in modules if m is not t.owner]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        patched.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)
