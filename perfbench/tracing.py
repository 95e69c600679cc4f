"""Spans and counters recorded around the program's public functions.

The program is observed from outside: ``Tracer.patch`` replaces a module
attribute with a wrapper, so every caller that looks the name up in that
module goes through it.  Forked worker processes inherit the patched
modules.  Coarse boundaries keep one span each (name, start, end, parent);
hot functions keep only a call count and total time.  Everything stays in
memory until ``snapshot`` hands it out.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        #: name -> [calls, total seconds]
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def count(self, name: str, n: int = 1, seconds: float = 0.0) -> None:
        c = self.counters.get(name)
        if c is None:
            self.counters[name] = [n, seconds]
        else:
            c[0] += n
            c[1] += seconds

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        """Forget everything recorded; hot-counter wrappers keep their lists."""
        self.spans.clear()
        self._stack.clear()
        for c in self.counters.values():
            c[0] = 0
            c[1] = 0.0

    def snapshot(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counters": {k: list(v) for k, v in self.counters.items()}}

    def merge(self, snap: dict) -> None:
        """Append another process's snapshot; its spans become roots here."""
        base = len(self.spans)
        for name, start, end, parent in snap["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1])
        for name, (n, seconds) in snap["counters"].items():
            self.count(name, n, seconds)

    # --- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, *, span: bool = False,
              pre=None, post=None) -> None:
        """Route ``owner.attr`` through a recording wrapper.

        A span wrapper opens a span named ``name``; otherwise the call adds
        to the counter ``name``.  ``pre(args, kwargs)`` runs before the clock
        starts and ``post(args, kwargs, result)`` after it stops.
        """
        fn = getattr(owner, attr)
        tracer = self

        if span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if pre is not None:
                    pre(args, kwargs)
                index = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                if post is not None:
                    post(args, kwargs, result)
                return result
        elif pre is None and post is None:
            counter = self.counters.setdefault(name, [0, 0.0])

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counter[0] += 1
                    counter[1] += perf_counter() - t0
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if pre is not None:
                    pre(args, kwargs)
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                tracer.count(name, 1, perf_counter() - t0)
                if post is not None:
                    post(args, kwargs, result)
                return result

        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# --- span arithmetic ----------------------------------------------------------


def covered(interval: tuple[float, float], others) -> float:
    """Length of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def span_totals(spans) -> dict[str, tuple[float, float]]:
    """name -> (total duration, total self time) over complete spans.

    Self time is a span's duration minus the part its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0 and end is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, list[float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None:
            continue
        dur = end - start
        own = dur - covered((start, end), children.get(i, ()))
        t = totals.setdefault(name, [0.0, 0.0])
        t[0] += dur
        t[1] += own
    return {k: (v[0], v[1]) for k, v in totals.items()}
