"""Span tracing of blca from outside the program.

`Tracer.install` finds each traced function at every module binding that
holds it (a function imported into three modules gets three bindings, so
each call is recorded once, at the binding it went through); `enable` and
`disable` swap the wrappers in and out around one item.  The one exception
is intmat's own namespace: its helpers calling each other are one
exact-algebra call seen from the layer above, and tracing them would cost
more than the work they do.

A span is (name, start, end, parent span, item id); spans stay in memory
until `write`.  The results of OBSERVED functions are kept by span index,
because they carry evidence the pipeline drops (rank verdicts, subgroup
counts, gaussian sweeps).
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from typing import Callable, Dict, List

MODULES = ("intmat", "exact", "groups", "homs", "subquot", "rank", "gaussian",
           "finite", "oracle", "structure", "cli")

# Private functions traced because a per-layer metric is defined on them.
PRIVATE = {
    "gaussian": ("_ascend",),
    "cli": ("_parse_datum", "_cmd_analyze", "_cmd_constant", "_cmd_tower",
            "_cmd_dual", "_cmd_reduce", "_cmd_verify"),
}

# Results worth keeping: the evidence the per-layer metrics read.
OBSERVED = {"rank.rank_condition", "finite.subgroup_bl_constant",
            "gaussian.gaussian_bl_constant"}


def traced_functions(blca) -> Dict[Callable, str]:
    """Every public function defined in a blca module, plus PRIVATE, keyed by
    the function object, with its '<module>.<name>' span name."""
    out: Dict[Callable, str] = {}
    for short in MODULES:
        mod = sys.modules[f"blca.{short}"]
        for name, obj in vars(mod).items():
            if not isinstance(obj, types.FunctionType):
                continue
            if obj.__module__ != mod.__name__:
                continue
            if name.startswith("_") and name not in PRIVATE.get(short, ()):
                continue
            out[obj] = f"{short}.{name}"
    return out


class Tracer:
    """A span is recorded as (name, start, end) when its call returns; the
    spans of each item are put back in call order, and each span's parent
    recovered from the nesting of the intervals, after the run.  That keeps
    the work done per traced call small."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.results: Dict[int, object] = {}   # span index -> result of OBSERVED
        self.raised: Dict[int, str] = {}       # span index -> exception name
        self.item_starts: List[int] = []       # first span index of each item
        self.swaps: List[tuple] = []

    def start_item(self) -> None:
        self.item_starts.append(len(self.spans))

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, clock = self.spans, time.perf_counter
        record = spans.append

        if name not in OBSERVED:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record((name, start, clock()))
            return traced

        results, raised = self.results, self.raised

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised[len(spans)] = type(exc).__name__
                record((name, start, clock()))
                raise
            results[len(spans)] = result
            record((name, start, clock()))
            return result
        return observed

    def install(self, blca) -> None:
        """Find every binding to wrap and build its wrapper."""
        targets = traced_functions(blca)
        wrappers: Dict[Callable, Callable] = {}
        self.swaps = []   # (namespace dict, key, original, wrapper)
        for modname in [f"blca.{m}" for m in MODULES] + ["blca"]:
            if modname == "blca.intmat":
                continue
            space = vars(sys.modules[modname])
            for attr, obj in list(space.items()):
                if isinstance(obj, types.FunctionType) and obj in targets:
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj, targets[obj])
                    self.swaps.append((space, attr, obj, wrappers[obj]))
        # cli dispatches through a table, not a module binding
        commands = sys.modules["blca.cli"]._COMMANDS
        for key, fn in commands.items():
            self.swaps.append((commands, key, fn, wrappers[fn]))

    def enable(self) -> None:
        for space, key, _, wrapper in self.swaps:
            space[key] = wrapper

    def disable(self) -> None:
        for space, key, original, _ in self.swaps:
            space[key] = original

    # -- analysis ------------------------------------------------------------

    def finish(self) -> List[int]:
        """Put each item's spans in call order (start time, outer first) and
        return each span's parent index (-1 for an item's root span)."""
        spans = self.spans
        bounds = self.item_starts + [len(spans)]
        order: List[int] = []
        for lo, hi in zip(bounds, bounds[1:]):
            order.extend(sorted(range(lo, hi), key=lambda i: (spans[i][1], -spans[i][2])))
        new_index = {old: new for new, old in enumerate(order)}
        spans[:] = [spans[i] for i in order]
        self.results = {new_index[i]: r for i, r in self.results.items()}
        self.raised = {new_index[i]: e for i, e in self.raised.items()}
        parents = [-1] * len(spans)
        for lo, hi in zip(bounds, bounds[1:]):
            open_spans: List[int] = []
            for i in range(lo, hi):
                end = spans[i][2]
                while open_spans and spans[open_spans[-1]][2] < end:
                    open_spans.pop()
                if open_spans:
                    parents[i] = open_spans[-1]
                open_spans.append(i)
        return parents

    def self_times(self, parents: List[int]) -> List[float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for s, p in zip(spans, parents):
            if p >= 0:
                child[p] += s[2] - s[1]
        return [s[2] - s[1] - c for s, c in zip(spans, child)]

    def write(self, path: str, parents: List[int]) -> None:
        """Spans as gzipped tab-separated name, start, end, parent, item."""
        bounds = self.item_starts + [len(self.spans)]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\titem\n")
            for item, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                fh.write("".join(
                    f"{name}\t{start:.7f}\t{end:.7f}\t{parents[i]}\t{item}\n"
                    for i, (name, start, end) in enumerate(self.spans[lo:hi], lo)))
