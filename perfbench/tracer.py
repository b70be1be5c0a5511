"""In-memory span tracer for the benchmark's traced run.

The tracer replaces library functions with timing wrappers from outside
the library: module-level functions are replaced at every binding site
(each flatunitary module whose namespace holds the same function object),
and methods are replaced on their class. Nothing under src/ is edited.

Each wrapped call opens a span (name, start, end, parent). A span's self
time is its duration minus the time its child spans cover. A call made
while a span of the same entry is still open (recursion) is folded into
that span. Observers attached to an entry turn arguments and results into
counters; they run after the span closes, and their time is charged to no
span.
"""

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, pass_index=0):
        self.enabled = False
        self.bindings = {}
        self.pass_index = pass_index
        self.spans = []
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []
        self._open = defaultdict(int)

    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or tracer._open[name]:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [len(tracer.spans), 0]  # span id, child nanoseconds
            tracer.spans.append(None)
            tracer._stack.append(frame)
            tracer._open[name] += 1
            result = error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter_ns()
                tracer._open[name] -= 1
                tracer._stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                tracer.spans[frame[0]] = (
                    name, start, end, None if parent is None else parent[0]
                )
                spent = 0
                if observe is not None:
                    t = time.perf_counter_ns()
                    observe(tracer, args, result, error)
                    spent = time.perf_counter_ns() - t
                if parent is not None:
                    parent[1] += duration + spent

        return traced

    def install(self, entries):
        """Wrap each (name, owner, attribute, observer) entry.

        A module owner names the function's home module: the wrapper is
        then bound in every loaded flatunitary module that holds the same
        function object. A class owner gets the wrapper on the class.
        """
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "flatunitary" or key.startswith("flatunitary.")
        ]
        for name, owner, attr, observe in entries:
            fn = vars(owner)[attr]
            wrapped = self.wrap(name, fn, observe)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                sites = [f"{owner.__module__}.{owner.__qualname__}.{attr}"]
            else:
                sites = []
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                            sites.append(f"{mod.__name__}.{key}")
            self.bindings[name] = sites

    def span_records(self):
        """Closed spans as dicts, in opening order."""
        out = []
        for sid, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent = span
            out.append(
                {
                    "pass": self.pass_index,
                    "id": sid,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                }
            )
        return out
