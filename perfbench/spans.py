"""In-memory spans around the benchmark's calls into nncalc.

Each span is a tuple ``(span_id, parent_id, name, module, phase, start_ns,
end_ns, error, count)``.  ``module`` is the nncalc module whose public
function the span wraps, or ``None`` for the harness's own grouping spans
(one per pass).  ``count`` carries a counter read at the call boundary, such
as base-function evaluations, or ``None``.  Spans stay in a list until
``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time

FIELDS = ("span_id", "parent_id", "name", "module", "phase", "start_ns", "end_ns",
          "error", "count")


class Tracer:
    """Records spans when ``enabled``; otherwise ``call`` is a plain call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.phase = ""
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def call(self, module, name, fn, args, counter=None):
        if not self.enabled:
            return fn(*args)
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the call returns
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        error = True
        start = time.perf_counter_ns()
        try:
            out = fn(*args)
            error = False
            return out
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            count = counter.n if counter is not None else None
            self.spans[span_id] = (span_id, parent, name, module, self.phase, start, end,
                                   error, count)

    def group(self, name):
        """A harness span (module ``None``) that parents the calls made inside it."""
        return self._group(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _group(self, name):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        error = True
        start = time.perf_counter_ns()
        try:
            yield
            error = False
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, None, self.phase, start, end, error,
                                   None)

    def dump(self, path, **meta) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, **meta, "fields": FIELDS, "spans": self.spans},
                      fh, separators=(",", ":"))
            fh.write("\n")
