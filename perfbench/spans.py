"""Span tracing over permtop's public names, installed from outside.

`Tracer.install` wraps every name listed in `layers.TARGETS`. A span wrapper
times the call and records it under (span name, parent), where the parent
is the enclosing span or, at top level, the task kind running it. Spans are
aggregated in memory as call counts and self time: a span's duration minus
the part of it covered by its child spans. A count wrapper only counts
calls. A name the installed permtop does not define is recorded as absent.
Nothing is wrapped unless `install` is called.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import thread_time

from layers import KINDS, TARGETS

# Every task, pass and span time is CPU time of the one workload thread: on a
# shared machine wall time also counts the time other tenants hold the CPU.
clock = thread_time


class Tracer:
    def __init__(self):
        self.on = False
        self.task = "bench"
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[list] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name_of, hook, fn):
        stack = self._stack
        spans = self.spans
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            name = name_of if isinstance(name_of, str) else name_of(args, kwargs)
            parent = stack[-1][0] if stack else self.task
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += took
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0]
                rec[0] += 1
                rec[1] += took - frame[1]
            if hook is not None:
                counts.update(hook(args, kwargs, out))
            return out

        return wrapped

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for module_name, dotted, name_of, how, hook in TARGETS:
            label = f"{module_name}.{dotted}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(label)
                continue
            *owner_path, attr = dotted.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            # class attributes are read raw, to see staticmethod wrappers
            raw = (owner.__dict__.get(attr) if isinstance(owner, type)
                   else getattr(owner, attr, None))
            if raw is None:
                self.absent.append(label)
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapper = (self._span(name_of, hook, fn) if how == "span"
                       else self._count(name_of, fn))
            if isinstance(owner, type):
                setattr(owner, attr, kind(wrapper) if kind else wrapper)
            else:
                # Module functions are also bound by `from .x import f` in other
                # permtop modules and the package namespace: rebind every copy.
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "permtop" or mod_name.startswith("permtop."):
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, key, wrapper)
            self.installed.update([f"oracle.subbase.{k}" for k in KINDS]
                                  if callable(name_of) else [name_of])

    # -- results ---------------------------------------------------------------

    def self_time(self, name: str) -> float:
        return sum(rec[1] for (n, _), rec in self.spans.items() if n == name)

    def calls(self, name: str) -> int:
        return (sum(rec[0] for (n, _), rec in self.spans.items() if n == name)
                + self.counts.get(name, 0))

    def covered(self) -> float:
        """Traced time inside any span: the sum of all self times."""
        return sum(rec[1] for rec in self.spans.values())

    def edges(self) -> list[dict]:
        return [{"span": n, "parent": p, "calls": rec[0], "self_s": round(rec[1], 6)}
                for (n, p), rec in sorted(self.spans.items())]
