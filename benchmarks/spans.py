"""Spans around the calls into each `mmsqc` module's public functions.

`Tracer.install()` wraps every public function and public method defined in
the traced modules, wherever a module namespace refers to it, and
`uninstall()` puts the originals back. Each call records a span (id, parent
span, trace id, name, start, end); spans stay in memory until the benchmark
writes them out. Count hooks run at the same boundaries, so ratios are
measured where the work happens. Calls made inside worker processes are not
seen; their time shows in the parent's span.
"""

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# the program's layers; `models` and `streams` only do set-up work
LAYERS = ("sqc", "dataset", "surrogate", "analysis", "arrayio", "cli")


class Tracer:
    def __init__(self, hooks: dict):
        """`hooks` maps a span name to f(arguments, result) -> {counter: increment}."""
        self.hooks = hooks
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))   # per trace id
        self.trace_id = 0
        self._stack = []
        self._patched = []

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.trace_id, name, start, end)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in hook(bound.arguments, result).items():
                    tracer.counters[tracer.trace_id][key] += value
            return result

        return traced

    def install(self) -> None:
        namespaces = [module for name, module in list(sys.modules.items())
                      if name == "mmsqc" or name.startswith("mmsqc.")]
        wrapped = {}   # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"mmsqc.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)) and inspect.isfunction(raw.__func__):
                new = type(raw)(self._wrap(f"{prefix}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(f"{prefix}.{attr}", raw)
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries -----------------------------------------------------------------

    def summary(self, trace_id: int) -> dict:
        """Per span name: calls, inclusive and self seconds; per layer: self
        seconds; the hook counters. Self time is a span's duration minus that
        of its direct children (calls nest, so children never overlap)."""
        spans = [s for s in self.spans if s[2] == trace_id]
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for sid, _, _, name, start, end in spans:
            own = end - start - child_time[sid]
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
        return {"calls": calls, "incl": incl, "self": self_s, "layer_self": layer_self,
                "spans": len(spans), "counters": self.counters[trace_id]}
