"""Outside-in tracing of the dpcolor modules.

The tracer swaps every public module-level function of the package (bar the
helpers in UNWRAPPED) for a timing wrapper, in every dpcolor module that
binds the same function object, so calls made through
`from .graphs import find_cycle_of_length` are seen too.  A few methods
that stand for a whole layer step (building a PlaneGraph, inserting a
generator vertex) are wrapped on their class.  The source tree is not
modified; `remove()` puts every original back.

Each call is a span with a parent: the span open when it started.  Self time
is the span's duration minus the time of the spans it caused.  Spans are
folded into per-name and per-(parent, name) totals as they close, so hot
functions such as `reduce.local_solve` cost constant memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

MODULES = ("graphs", "patterns", "cover", "clusters", "discharge",
           "generate", "io", "reduce")

# One-line helpers called millions of times per run.  A wrapper costs more
# than the call and would be booked as self time of every caller.
UNWRAPPED = {"graphs.edge_key"}

# (module, class, method) wrapped on the class itself
METHODS = (
    ("graphs", "PlaneGraph", "__init__"),
    ("generate", "PlaneBuilder", "insert_vertex"),
)


class Totals:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0  # outermost spans only, so recursion is not doubled
        self.self_s = 0.0


class Tracer:
    """Install with `install()`; read `totals`, `edges` and `table()`.

    hooks maps a traced name to f(args, kwargs, result, self_s), called
    after each successful call to derive outcome counters.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.totals: dict[str, Totals] = {}
        self.edges: dict[tuple, int] = {}  # (parent, name) -> spans
        self.enabled = True
        self._stack: list[list] = []  # [name, child_s]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _totals(self, name: str) -> Totals:
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = Totals()
        return t

    def _enter(self, name: str) -> None:
        key = (self._stack[-1][0] if self._stack else None, name)
        self.edges[key] = self.edges.get(key, 0) + 1
        self._stack.append([name, 0.0])

    def _exit(self, depth: int, dur: float) -> float:
        # Frames above `depth` belong to calls that hit the recursion limit
        # before their own exit could run; they are dropped here.
        del self._stack[depth + 1:]
        name, child_s = self._stack.pop()
        t = self._totals(name)
        t.self_s += dur - child_s
        if all(f[0] != name for f in self._stack):
            t.total_s += dur
        if self._stack:
            self._stack[-1][1] += dur
        return dur - child_s

    def _wrap(self, name: str, fn):
        tracer = self
        hook = self.hooks.get(name)

        if inspect.isgeneratorfunction(fn):
            # the body runs inside next(), so each step is its own span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tracer.enabled:
                    yield from it
                    return
                tracer._totals(name).calls += 1
                try:
                    while True:
                        depth = len(tracer._stack)
                        tracer._enter(name)
                        t0 = time.perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            tracer._exit(depth, time.perf_counter() - t0)
                            return
                        except BaseException:
                            tracer._exit(depth, time.perf_counter() - t0)
                            raise
                        tracer._exit(depth, time.perf_counter() - t0)
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._totals(name).calls += 1
            depth = len(tracer._stack)
            tracer._enter(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(depth, time.perf_counter() - t0)
                raise
            self_s = tracer._exit(depth, time.perf_counter() - t0)
            if hook is not None:
                hook(args, kwargs, result, self_s)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"dpcolor.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and f"{mname}.{attr}" not in UNWRAPPED):
                    wrapped[id(obj)] = self._wrap(f"{mname}.{attr}", obj)
        # rebind in every module that holds the same function object
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for mname, cname, meth in METHODS:
            cls = getattr(mods[mname], cname)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{mname}.{cname}.{meth}", orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Calls made inside are neither timed nor counted (benchmark checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        t = self.totals.get(name)
        return t.calls if t else 0

    def seconds(self, name: str) -> float:
        t = self.totals.get(name)
        return t.total_s if t else 0.0

    def table(self) -> dict:
        """Per-name totals plus the (parent, name) span counts, as JSON data."""
        return {
            "functions": {
                name: {"calls": t.calls, "total_s": t.total_s,
                       "self_s": t.self_s}
                for name, t in sorted(self.totals.items())
            },
            "edges": [
                {"parent": p, "name": n, "spans": c}
                for (p, n), c in sorted(self.edges.items(),
                                        key=lambda kv: (str(kv[0][0]),
                                                        kv[0][1]))
            ],
        }
