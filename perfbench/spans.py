"""In-memory span recorder wrapped around motesim's public functions.

A span is (run id, span id, parent span id, name, start, end), timed with
``time.perf_counter``. Spans live in flat arrays while the traced unit
runs and are written out once it has finished. A span's self time is its
duration minus the durations of its direct children; calls are
synchronous, so children never overlap each other and lie inside their
parent.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list = []
        self._name_ids: dict = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict = defaultdict(int)
        self._patched: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(args, result)`` runs after the span has closed, so counter
        upkeep is not charged to the layer.
        """
        name_id = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent_of.append(stack[-1])
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def patch(self, name: str, owner, attribute: str, count=None) -> None:
        """Replace ``owner.attribute`` with a traced version until
        :meth:`restore`. Class methods stay class methods."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        if isinstance(original, classmethod):
            replacement = classmethod(self.span(name, original.__func__, count))
        else:
            replacement = self.span(name, original, count)
        setattr(owner, attribute, replacement)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def layer_totals(self) -> dict:
        """{span name: (calls, self seconds)} over every recorded span."""
        n = len(self.start)
        child_s = [0.0] * n
        for i in range(n):
            parent = self.parent_of[i]
            if parent >= 0:
                child_s[parent] += self.end[i] - self.start[i]
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child_s[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.run_id},{i},{self.parent_of[i]},"
                         f"{self.names[self.name_of[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")
