"""Span tracing of faberzeros from outside the package.

Tracer.install replaces public functions in every module namespace where
they are looked up (rootfind.faber_coeffs_mp, cli.equilibrium_moments,
...) with a wrapper that records a span, so spans nest at module boundaries
and each is named after the module that defines the function. Spans stay in
memory as [name, start, end, parent, op] and are written as JSON lines only
when the run ends.

Which functions are wrapped follows from the per-layer metric names in
BENCHMARK.json: `<module>.<function>.self_s` or `.calls` wraps that function.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("conformal", "faber", "rootfind", "limitsets", "measures", "cli")


def traced_functions(names) -> dict[str, tuple[str, ...]]:
    """Functions to wrap, per module, read off the metric names
    `<module>.<function>.self_s` and `<module>.<function>.calls`."""
    out: dict[str, list[str]] = {mod: [] for mod in MODULES}
    for name in names:
        parts = name.split(".")
        if (len(parts) == 3 and parts[0] in out and parts[2] in ("self_s", "calls")
                and parts[1] not in out[parts[0]]):
            out[parts[0]].append(parts[1])
    return {mod: tuple(funcs) for mod, funcs in out.items()}


class Tracer:
    def __init__(self, names, clock=time.perf_counter):
        self.traced = traced_functions(names)
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.methods: dict[str, int] = defaultdict(int)
        self.coverage: list[float] = []
        self.bytes_written = 0
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, after=None):
        """fn wrapped so that each call records a span; after(result), if
        given, runs once the span has closed."""
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op: int) -> None:
        """Open the benchmark's own span around one operation."""
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append(["op", self.clock(), 0.0, -1, op])

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = self.clock()

    def _count_method(self, zs) -> None:
        self.methods[zs.method.value] += 1

    def _count_coverage(self, plan) -> None:
        self.coverage.append(plan.count / plan.n)

    def install(self, package) -> None:
        """Wrap every traced function wherever a package module looks it up."""
        originals = {}
        for mod in MODULES:
            m = importlib.import_module(f"{package.__name__}.{mod}")
            for f in self.traced[mod]:
                originals[getattr(m, f)] = f"{mod}.{f}"
        after = {"rootfind.compute_zeros": self._count_method,
                 "rootfind.seed_plan": self._count_coverage}
        wrappers = {fn: self.span(name, fn, after.get(name))
                    for fn, name in originals.items()}
        namespaces = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                                  for m in MODULES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if callable(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])
        cli = importlib.import_module(f"{package.__name__}.cli")
        write = cli._write

        def counted_write(path, text):
            self.bytes_written += len(text.encode())
            return write(path, text)

        self._patch(cli, "_write", counted_write)

    def _patch(self, ns, attr, new) -> None:
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, new)

    def uninstall(self) -> None:
        for ns, attr, old in reversed(self._patched):
            setattr(ns, attr, old)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Self time and calls per operation for every traced function, self
        time per module, and the route and output counts per operation."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        out = {}
        for mod, funcs in self.traced.items():
            total = 0.0
            for f in funcs:
                key = f"{mod}.{f}"
                out[f"{key}.self_s"] = self_s[key] / ops
                out[f"{key}.calls"] = calls[key] / ops
                total += self_s[key]
            out[f"{mod}.self_s"] = total / ops
        out["rootfind.method.seeded"] = self.methods["seeded"] / ops
        out["rootfind.method.simultaneous"] = self.methods["simultaneous"] / ops
        out["rootfind.seed_plan.coverage"] = (
            sum(self.coverage) / len(self.coverage) if self.coverage else 0.0)
        out["cli.bytes_written"] = self.bytes_written / ops
        return out
