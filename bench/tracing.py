"""Spans around the public functions of hookchar, recorded from outside.

The modules of hookchar bind each other's functions at import time
(``from .characters import character_mn`` in harness, character_mn
called from character_branching), so a wrapper must replace the name in
every loaded hookchar namespace that holds it, or those calls go
untraced.  install() does that for every function below.

A span records its name, start, end and parent, in flat arrays kept in
memory.  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children; children of one
span never overlap, since everything runs on one thread.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, function, layer); functions that share a layer share its metrics.
FUNCTIONS = [
    ("characters", "character_mn", "characters.character_mn"),
    ("characters", "character_branching", "characters.character_branching"),
    ("characters", "diag_cycle_bound", "characters.diag_cycle_bound"),
    ("excited", "excited_sum", "excited.excited_sum"),
    ("excited", "naruse_ratio", "excited.naruse_ratio"),
    ("excited", "skew_dim_naruse", "excited.skew_dim_naruse"),
    ("dimensions", "dim_hlf", "dimensions.dim_hlf"),
    ("dimensions", "skew_dim_det", "dimensions.skew_dim_det"),
    ("dimensions", "skew_dim_oracle", "dimensions.skew_dim_oracle"),
    ("decompositions", "bound_S_row", "decompositions.bounds"),
    ("decompositions", "bound_S_general", "decompositions.bounds"),
    ("harness", "verify_orthogonality", "harness.sweep"),
    ("harness", "sweep_thm_main", "harness.sweep"),
    ("harness", "sweep_thm_diag", "harness.sweep"),
    ("harness", "sweep_skew_bound", "harness.sweep"),
    ("harness", "sweep_excited_bounds", "harness.sweep"),
    ("harness", "sweep_sharpness", "harness.sweep"),
    ("harness", "sweep_compression", "harness.sweep"),
    ("harness", "compression_stats", "harness.sweep"),
    ("harness", "sharpness_rectangles", "harness.sweep"),
    ("output", "write_result_csv", "output.write"),
    ("output", "write_result_json", "output.write"),
    ("output", "render_result", "output.write"),
    ("cli", "main", "cli.main"),
]
# Generator functions: one span per next(), so the consumer's loop body
# between items is not charged to the enumeration.
GENERATORS = [
    ("partitions", "enumerate_partitions", "partitions.enumerate"),
    ("partitions", "enumerate_subdiagrams", "partitions.enumerate"),
]
# Module-level lru_caches, read through cache_info() after the run.
CACHES = [
    ("dimensions", "_dim", "dimensions.dim_cache"),
    ("excited", "_hook_table", "excited.hook_cache"),
    ("excited", "_closure", "excited.closure_cache"),
    ("excited", "_excited_sum", "excited.sum_cache"),
]


def layers() -> list[str]:
    """Every layer name, in table order, without repeats."""
    return list(dict.fromkeys(layer for _, _, layer in FUNCTIONS + GENERATORS))


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.created: dict[str, int] = {}
        self.yielded: dict[str, int] = {}

    def intern(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.names)
            self.names.append(layer)
        return self._ids[layer]

    def open(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer: str):
        nid = self.intern(layer)

        def traced(*args, **kwargs):
            index = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, layer: str):
        nid = self.intern(layer)
        self.created[layer] = 0
        self.yielded[layer] = 0

        def traced(*args, **kwargs):
            self.created[layer] += 1
            inner = fn(*args, **kwargs)
            while True:
                index = self.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                self.yielded[layer] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: span count and self time in seconds."""
        count = len(self.name)
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        spans = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            nid = self.name[i]
            spans[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - covered[i]
        return {
            layer: {"spans": spans[nid], "self_s": self_s[nid]}
            for nid, layer in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Every span as CSV: index, layer, parent index, start and end in
        seconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as stream:
            stream.write("span,layer,parent,start_s,end_s\n")
            for i in range(len(self.name)):
                stream.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f}\n"
                )


def install(tracer: Tracer) -> None:
    """Replace every listed function in every loaded hookchar namespace."""
    namespaces = [
        mod for name, mod in sys.modules.items()
        if name == "hookchar" or name.startswith("hookchar.")
    ]
    for table, wrap in ((FUNCTIONS, tracer.wrap), (GENERATORS, tracer.wrap_generator)):
        for module, attr, layer in table:
            original = getattr(sys.modules[f"hookchar.{module}"], attr)
            traced = wrap(original, layer)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, traced)


def cache_counters() -> dict[str, dict[str, int]]:
    """hits, misses and current size of each module-level cache."""
    out = {}
    for module, attr, layer in CACHES:
        info = getattr(sys.modules[f"hookchar.{module}"], attr).cache_info()
        out[layer] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out
