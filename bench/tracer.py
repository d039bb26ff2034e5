"""Call counts and self time of germval's public functions.

`install` wraps every public function of the traced modules and rebinds
each germval module attribute that names it, so calls made through
`from .exact import invert_symmetric` are seen too.  A span is one call
(one `next` for a generator); a function's self time is its span time
minus the span time of the traced calls it makes.  Spans are folded
into per-function totals in memory and read out with `stats`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

MODULES = ("exact", "germ", "valuation", "thresholds", "explorer", "cli")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.items: dict[str, int] = {}  # list lengths returned, or values yielded
        self.distinct: dict[str, set] = {}  # distinct values yielded
        self.edges: dict[tuple[str, str], int] = {}  # (caller, callee) call counts
        self._stack: list[list] = []  # [name, start_ns, child_ns]

    def _enter(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            edge = (self._stack[-1][0], name)
            self.edges[edge] = self.edges.get(edge, 0) + 1
        self._stack.append([name, time.perf_counter_ns(), 0])

    def _span(self, name: str, start: int) -> None:
        """Open a span that is not a new call (a generator resuming)."""
        self._stack.append([name, start, 0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter_ns() - start
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self._enter(name)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    self._exit()
                while True:
                    self._span(name, time.perf_counter_ns())
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    self.items[name] = self.items.get(name, 0) + 1
                    self.distinct.setdefault(name, set()).add(value)
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if type(result) is list:
                self.items[name] = self.items.get(name, 0) + len(result)
            return result

        return wrapper

    def install(self) -> None:
        pkg = sys.modules["germval"]
        mods = [pkg] + [m for n, m in sorted(sys.modules.items()) if n.startswith("germval.")]
        targets = {}
        for short in MODULES:
            mod = sys.modules[f"germval.{short}"]
            for attr, obj in vars(mod).items():
                traceable = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                if traceable and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    setattr(mod, attr, targets[id(obj)][1])

    def stats(self) -> dict:
        """Per-function totals plus the caller-callee call counts."""
        names = sorted(set(self.calls) | set(self.self_ns))
        return {
            "functions": {
                n: {
                    "calls": self.calls.get(n, 0),
                    "self_s": self.self_ns.get(n, 0) / 1e9,
                    "items": self.items.get(n, 0),
                    "distinct": len(self.distinct.get(n, ())),
                }
                for n in names
            },
            "edges": {f"{a}>{b}": c for (a, b), c in sorted(self.edges.items())},
        }
