"""Span tracing around the library's layer boundaries, from outside.

The tracer replaces a module attribute (a function as the calling module
sees it, e.g. ``tripanel.bem.k_panel_entries``) by a wrapper that records
one span per call: name, start, end and the enclosing span.  Spans stay in
memory (compact arrays, capped) and are written out when the run ends;
per-name totals, self times (total minus time covered by child spans),
call counts and extra counters are kept online for every call, so the
aggregates stay exact when the span list is capped.

Wrappers are installed only inside ``Tracer.installed()``; outside it the
library runs unmodified, so untraced timings carry no instrumentation.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._unit = array("i")
        self.unit = -1
        self.dropped = 0
        self._sites: list[tuple] = []
        self._stack: list[list] = []   # open: [span index, child ns, name]
        self._depth: Counter = Counter()
        self.reset_aggregates()

    # -------------------------------------------------------- aggregates

    def reset_aggregates(self) -> None:
        """Start a fresh unit of work; spans already recorded are kept.

        Spans carry the index of the unit they belong to, so the spans of
        one unit (one setup plus one iteration) share an identifier.
        """
        self.unit += 1
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] += value

    def caller(self) -> str | None:
        """Name of the innermost open span (the caller, inside on_return)."""
        return self._stack[-1][2] if self._stack else None

    # ----------------------------------------------------------- wrapping

    def add_site(self, module, attr: str, name: str, on_return=None,
                 on_error=None) -> None:
        """Register module.attr to be wrapped as span `name`.

        on_return(tracer, args, kwargs, result) and on_error(tracer, exc)
        record counters at the boundary.
        """
        self._sites.append((module, attr, name, on_return, on_error))

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module, attr, name, on_return, on_error in self._sites:
                orig = getattr(module, attr)
                originals.append((module, attr, orig))
                setattr(module, attr,
                        self._wrap(orig, name, on_return, on_error))
            yield self
        finally:
            for module, attr, orig in reversed(originals):
                setattr(module, attr, orig)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _wrap(self, fn, name, on_return, on_error):
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            t0 = clock()
            if len(self._start) < self.max_spans:
                idx = len(self._start)
                self._name.append(nid)
                self._start.append(t0)
                self._end.append(0)
                self._parent.append(stack[-1][0] if stack else -1)
                self._unit.append(self.unit)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0, name]
            stack.append(frame)
            self._depth[name] += 1
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                self._depth[name] -= 1
                if idx >= 0:
                    self._end[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                # a name re-entered below itself counts once in its total
                if self._depth[name] == 0:
                    self.total_ns[name] += dur
                self.self_ns[name] += dur - frame[1]
                self.calls[name] += 1
            if on_return is not None:
                on_return(self, args, kwargs, out)
            return out

        return wrapper

    # ------------------------------------------------------------ output

    def seconds(self, name: str) -> float:
        return self.total_ns[name] * 1e-9

    def self_seconds(self, name: str) -> float:
        return self.self_ns[name] * 1e-9

    def write(self, path) -> None:
        """Write every recorded span (name, start, end, parent, unit)."""
        doc = {
            "names": self._names,
            "columns": ["name", "start_ns", "end_ns", "parent", "unit"],
            "name": self._name.tolist(),
            "start_ns": self._start.tolist(),
            "end_ns": self._end.tolist(),
            "parent": self._parent.tolist(),
            "unit": self._unit.tolist(),
            "dropped": self.dropped,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
