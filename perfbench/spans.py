"""Outside-in tracing: wrap a package's public functions, record spans, restore.

A span is ``[name, start, end, parent, work]``: the qualified function name
(``module.function``), CLOCK_MONOTONIC start and end in seconds, the index of
the enclosing span (-1 at top level) and a dict of work counts taken from the
call's arguments and result.  Spans stay in memory until the run ends.
"""

import functools
import inspect
import time
import tracemalloc
from collections import defaultdict


def now():
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Replaces module attributes with span-recording wrappers.

    ``meters`` maps a qualified name to ``f(bound_args, result) -> dict`` of
    work counts.  Functions named in ``memory`` run under tracemalloc (unless
    an enclosing call already traces memory) and record ``peak_alloc_bytes``.
    """

    def __init__(self, meters=None, memory=()):
        self.spans = []
        self._stack = []
        self._meters = meters or {}
        self._memory = set(memory)
        self._patched = []   # (module, attribute, original), in patch order

    def install(self, modules):
        """Wrap every public function defined in ``modules``, and every
        binding of such a function that another of the modules made with
        ``from ... import``."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def restore(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        meter = self._meters.get(name)
        signature = inspect.signature(fn) if meter else None
        traces_memory = name in self._memory
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            start_mem = traces_memory and not tracemalloc.is_tracing()
            if start_mem:
                tracemalloc.start()
            span[1] = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
                if start_mem:
                    span[4]["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if meter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4].update(meter(bound.arguments, out))
            return out

        return wrapper


class Profile:
    """Per-function totals over one or more span lists (one per process)."""

    def __init__(self, span_lists):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(list)       # name -> [work dict per call]
        self.parents = defaultdict(list)    # name -> [parent name or None per call]
        for spans in span_lists:
            child_time = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for i, (name, start, end, parent, work) in enumerate(spans):
                self.total[name] += end - start
                self.self_time[name] += (end - start) - child_time[i]
                self.calls[name] += 1
                self.work[name].append(work)
                self.parents[name].append(spans[parent][0] if parent >= 0 else None)

    def work_sum(self, name, key):
        return sum(w.get(key, 0) for w in self.work[name])

    def work_max(self, name, key):
        return max((w.get(key, 0) for w in self.work[name]), default=0)

    def work_last(self, name, key):
        return self.work[name][-1].get(key, 0) if self.work[name] else 0


def top_level_time(spans, after):
    """Time covered by top-level spans that start at or after ``after``."""
    return sum(end - start for _, start, end, parent, _ in spans
               if parent < 0 and start >= after)
