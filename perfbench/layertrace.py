"""Layer tracing from outside the program.

`Tracer.install` wraps the public functions and classes that ``bifree``
exports from its layer modules, and rebinds every name that any loaded
``bifree`` module holds for those functions (``bifree.cumulants.enumerate_nc``
included), so calls made inside the package pass through the wrappers too.
Helpers the package does not export, such as ``block_side_counts``, count
as part of their caller.

A call to a module-level function always opens a span. A call to a method
opens one only when it enters the method's layer from another layer;
inside its own layer a method is data access and passes straight through.
Each span is (name, start, end, parent, op). Per-name counters are kept as
spans close: calls, calls that crossed into the layer, self time (duration
minus the time covered by child spans) and the size of what boundary calls
returned. Spans are kept in memory up to SPAN_CAP and written out at the
end; the counters cover every span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

LAYERS = ("partitions", "cumulants", "series", "convolution", "measures", "fock",
          "levy_hincin")
SPAN_CAP = 100_000
OP = "op"


def result_size(result) -> int:
    """Entries of a table, length of a sequence, otherwise 1."""
    entries = getattr(result, "entries", None)
    if isinstance(entries, dict):
        return len(entries)
    if isinstance(result, (tuple, list)):
        return len(result)
    return 1


class Tracer:
    def __init__(self, sizes=None):
        # sizes: qualified name -> f(args, kwargs, result) giving the size a
        # boundary call adds to its counter, in place of result_size
        self.sizes = sizes or {}
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack = []          # open frames: [layer, start, excluded_seconds, span]
        self.stats = {}          # name -> [calls, boundary_calls, self_seconds, size]
        self.spans = []
        self.dropped = 0
        self.ops = 0

    # -- wrapping -----------------------------------------------------------

    def install(self, package):
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        replace = {}
        for attr, obj in list(vars(package).items()):
            layer = getattr(obj, "__module__", "").rpartition(".")[2]
            if attr.startswith("_") or layer not in LAYERS:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                replace[obj] = self._wrap(layer, f"{layer}.{attr}", obj, method=False)
            elif inspect.isclass(obj):
                self._wrap_class(layer, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(module, attr, replace[obj])

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(layer, name, raw.__func__, True)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(layer, name, raw.__func__, True)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(layer, name, raw, True))

    def _wrap(self, layer, name, fn, method):
        stack, stats, clock = self.stack, self.stats, self.clock
        stats[name] = [0, 0, 0.0, 0]
        counters = stats[name]
        size_of = self.sizes.get(name, lambda args, kwargs, result: result_size(result))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            boundary = not stack or stack[-1][0] != layer
            if method and not boundary:
                return fn(*args, **kwargs)
            entered = clock()
            frame = [layer, 0.0, 0.0, self._open(name)]
            stack.append(frame)
            result = None
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                counters[0] += 1
                counters[2] += duration - frame[2]
                if boundary:
                    counters[1] += 1
                    counters[3] += size_of(args, kwargs, result)
                self._close(frame, end)
                if stack:
                    # the tracer's own bookkeeping counts for no layer
                    stack[-1][2] += duration + (start - entered) + (clock() - end)

        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        if len(self.spans) >= SPAN_CAP:
            self.dropped += 1
            return None
        parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
        self.spans.append([name, self.clock() - self.origin, None, parent, self.ops])
        return len(self.spans) - 1

    def _close(self, frame, end):
        if frame[3] is not None:
            self.spans[frame[3]][2] = end - self.origin

    @contextlib.contextmanager
    def op_span(self):
        """The root span of one operation; spans under it share its op index."""
        assert not self.stack, "operations do not nest"
        frame = [OP, self.clock(), 0.0, self._open(OP)]
        self.stack.append(frame)
        try:
            yield
        finally:
            self.stack.pop()
            self._close(frame, self.clock())
            self.ops += 1

    # -- results ------------------------------------------------------------

    def totals(self, prefix, only=None):
        """Summed [calls, boundary_calls, self_seconds, size] over matching names."""
        acc = [0, 0, 0.0, 0]
        for name, counters in self.stats.items():
            if name.startswith(prefix + ".") and (only is None or name in only):
                acc = [a + c for a, c in zip(acc, counters)]
        return acc

    def write(self, path):
        doc = {"ops": self.ops, "dropped": self.dropped,
               "fields": ["name", "start_s", "end_s", "parent", "op"],
               "spans": [[n, round(s, 7), round(e, 7), p, o] for n, s, e, p, o in self.spans]}
        path.write_text(json.dumps(doc))
