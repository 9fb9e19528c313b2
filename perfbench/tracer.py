"""Outside-in tracing of syncsub's layers and dense factorizations.

The tracer replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent span, scenario id) and
counts the call and any exception it raises. The wrapper is installed under
every name that refers to the function in any syncsub module, so names bound
by ``from ... import`` (for example ``cli.parse_scenario``) are traced too.
It also counts dense factorizations at the numpy/scipy entry points the
library calls. Nothing inside the library is edited; ``uninstall`` restores
every patched name.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

LAYERS = ("opcore", "clocks", "sync", "grouprep", "literals", "scenario", "cli")
FACTORIZATIONS = ("linalg.svd", "linalg.eigh", "linalg.eigvalsh", "linalg.qr")


class Tracer:
    """Spans and counters for one traced pass; create one per pass."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, scenario id]
        self.errors = Counter()    # function name -> calls that raised
        self.factorizations = Counter()
        self.scenario = None
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import numpy as np
        import scipy.linalg

        modules = {name: importlib.import_module(f"syncsub.{name}") for name in LAYERS}
        modules["syncsub"] = importlib.import_module("syncsub")
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._span_wrapper(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

        self._patch(np.linalg, "svd", self._counting(np.linalg.svd, "linalg.svd"))
        self._patch(np.linalg, "eigh", self._counting(np.linalg.eigh, "linalg.eigh"))
        self._patch(np.linalg, "eigvalsh",
                    self._counting(np.linalg.eigvalsh, "linalg.eigvalsh"))
        self._patch(scipy.linalg, "qr", self._counting(scipy.linalg.qr, "linalg.qr"))
        self._patch(np.linalg, "norm", self._counting_norm(np.linalg.norm))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.scenario]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _counting(self, fn, key):
        counts = self.factorizations

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _counting_norm(self, fn):
        """np.linalg.norm(A, 2) on a matrix is a full SVD; count it as one."""
        counts = self.factorizations

        def counted(x, ord=None, axis=None, keepdims=False):
            if ord == 2 and axis is None and getattr(x, "ndim", 0) == 2 and x.size:
                counts["linalg.svd"] += 1
            return fn(x, ord, axis, keepdims)

        return counted

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict:
        """Totals over the pass: calls, self and inclusive seconds, errors."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = Counter()
        inclusive_s = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            # inclusive time counts only the outermost span of a recursive chain
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive_s[name] += end - start
        return {"calls": dict(calls), "self_s": dict(self_s),
                "inclusive_s": dict(inclusive_s), "errors": dict(self.errors),
                "factorizations": {k: self.factorizations.get(k, 0) for k in FACTORIZATIONS}}
