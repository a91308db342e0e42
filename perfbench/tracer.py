"""Outside-in tracer: wraps functions of a program from the benchmark's side.

Each wrapped call records one span (id, name, start, end, parent span,
invocation id) in memory; ``write_spans`` writes them as JSON lines at the
end.  Calls and self time (span duration minus the time covered by wrapped
children) are aggregated per name as the spans close.  ``restore`` puts every
original back, so code run afterwards is the unwrapped program.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from functools import cached_property


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)  # every module whose names may alias a target
        self.spans = []
        self.stats = {}               # name -> [calls, self seconds]
        self.counts = Counter()
        self.invocation = 0
        self._stack = []              # open spans: [span id, seconds covered by children]
        self._next_id = 0
        self._undo = []

    def _wrap(self, name, fn, hook=None):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                stats[0] += 1
                stats[1] += end - start - frame[1]
                spans.append((span_id, name, start, end, parent, self.invocation))
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value, original):
        setattr(owner, attr, value)
        self._undo.append((owner, attr, original))

    def function(self, module, attr, name, hook=None):
        """Wrap a module function under every name that aliases it."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, hook)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced, original)

    def method(self, cls, attr, name, hook=None):
        """Wrap a plain method, staticmethod or cached_property of a class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(name, raw.__func__, hook))
        elif isinstance(raw, cached_property):
            new = cached_property(self._wrap(name, raw.func, hook))
            new.__set_name__(cls, attr)
        else:
            new = self._wrap(name, raw, hook)
        self._set(cls, attr, new, raw)

    def count_calls(self, cls, attr, name):
        """Count calls of a method without a span (constructors)."""
        raw = cls.__dict__[attr]
        self._set(cls, attr, self._counted(name, raw), raw)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path):
        keys = ("id", "name", "start", "end", "parent", "invocation")
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
