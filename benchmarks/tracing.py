"""Spans around specspace's public functions, recorded from outside.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper in every ``specspace`` module namespace that binds the
original, because the modules import each other's functions by name.  A
few methods that carry layer work (down-set enumeration, descriptor
construction with its validation) are wrapped on their class.  Spans live
in flat arrays until the run ends; ``summary`` turns them into calls and
self time per name.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

# module -> layer, as in ROADMAP.md
LAYERS = {
    "poset": "L0",
    "spaces": "L1",
    "subsets": "L1",
    "topology": "L2",
    "ideals": "L3",
    "verify": "L4",
    "spacefile": "L4",
    "cli": "L4",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn, on_exit=None, name_of=None):
        fixed = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            nid = fixed if name_of is None else self._id(name_of(args, kwargs))
            if stack and names[stack[-1]] == nid:
                # direct recursion folds into the outer span
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if on_exit is not None:
                    on_exit(args, result, exc)

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=None, name_of=None) -> None:
        """Wrap the layer modules of the imported ``specspace`` package.

        ``hooks`` maps a span name to ``on_exit(args, result, exc)``;
        ``name_of`` maps a span name to a function of the call arguments
        that refines it (``cli.main`` -> ``cli.main.<command>``).
        """
        hooks = hooks or {}
        name_of = name_of or {}
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "specspace" or name.startswith("specspace."))
        }
        wrappers: dict[int, object] = {}
        for short in LAYERS:
            mod = modules[f"specspace.{short}"]
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    # a generator's work runs in its caller, after the call returns
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                span = f"{short}.{attr}"
                wrappers[id(fn)] = self._wrap(span, fn, hooks.get(span), name_of.get(span))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        poset = modules["specspace.poset"]
        subsets = modules["specspace.subsets"]
        for cls, attr, span in (
            (poset.FinitePoset, "down_set_masks", "poset.down_set_masks"),
            (subsets.SymbolicSubset, "__init__", "subsets.SymbolicSubset"),
        ):
            original = cls.__dict__.get(attr)
            if original is None:  # gone from the library: its metrics read 0
                continue
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original, hooks.get(span)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name.  Self time is the span's
        duration minus the durations of its direct children."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.span_name[i]], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """All spans as gzipped TSV: id, root (the op it belongs to),
        parent, name, start and end in seconds."""
        root = array("i", range(len(self.span_start)))
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\troot\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                p = self.span_parent[i]
                if p >= 0:
                    root[i] = root[p]
                fh.write(
                    f"{i}\t{root[i]}\t{p}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
