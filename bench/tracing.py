"""Per-layer tracing of entroute from outside its sources.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
names through which entroute's layers call each other: module globals that a
caller looks up at call time (``entroute.harness.generate_topology``,
``entroute.routing.st_min_cut``, ...) and methods on the classes
(``EntangledGraph.copy``, ``RngStream.next_u64``, ...). Patching the
re-exports on the ``entroute`` package would miss every internal call, and
``entroute.fidelity`` there is the Uhlmann *function*, so the fidelity module
is reached through ``sys.modules``.

Each timed wrapper opens a span. A span's self time is its duration minus the
time of the spans it encloses, so the self times of all spans in one
operation add up to the operation's root span. Hot leaf calls
(``next_u64``, ``hash64``) are counted, not timed.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "harness"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)  # inclusive seconds per layer
        self.own = defaultdict(float)  # self seconds per layer
        self.calls = Counter()
        self.counts = Counter()  # untimed counters
        self._open: list[float] = []  # child time of each open span
        self.patches = self._plan()
        self._roots = {}

    # --- wrappers ---------------------------------------------------------

    def _span(self, layer, fn, after=None):
        busy, own, calls, counts, open_spans = (
            self.busy, self.own, self.calls, self.counts, self._open,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            draws = counts["rng.draws"]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                busy[layer] += elapsed
                own[layer] += elapsed - children
                calls[layer] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(result, counts["rng.draws"] - draws)
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- what gets patched ------------------------------------------------

    def _plan(self):
        harness = sys.modules["entroute.harness"]
        routing = sys.modules["entroute.routing"]
        rng = sys.modules["entroute.rng"]
        network = sys.modules["entroute.network"]
        fidelity = sys.modules["entroute.fidelity"]
        counts = self.counts

        def topology_done(net, draws):
            # Each Erdos-Renyi attempt draws one uniform per node pair; the
            # accepted graph then draws one per link and one per node.
            n = len(net.nodes)
            extra = draws - len(net.links) - n
            if extra > 0:
                counts["generation.er_attempts"] += extra // (n * (n - 1) // 2)

        def entanglement_done(graph, draws):
            # One uniform draw per Bell-pair attempt.
            counts["generation.bell_attempts"] += draws
            counts["generation.bell_pairs"] += len(graph.links)

        def schedule_done(schedule, _draws):
            counts["routing.paths_allocated"] += schedule.total_paths

        def mincut_done(cut, _draws):
            counts["routing.augmentations"] += cut.flexibility

        def path_done(path, _draws):
            counts["routing.path_hits"] += path is not None

        def sweep_done(rows, _draws):
            counts["fidelity.cells"] += len(rows)

        guard_hashlib = types.ModuleType("hashlib")
        guard_hashlib.__dict__.update(vars(hashlib))
        guard_hashlib.sha256 = self._span("harness.guard_hash", hashlib.sha256)

        def span(owner, name, layer, after=None):
            return (owner, name, self._span(layer, vars(owner)[name], after))

        def count(owner, name, key):
            return (owner, name, self._count(key, vars(owner)[name]))

        return [
            span(harness, "generate_topology", "generation.topology", topology_done),
            span(harness, "generate_entanglement", "generation.entanglement", entanglement_done),
            span(harness, "generate_grid", "generation.grid"),
            span(harness, "_sample_demands", "harness.demands"),
            span(harness, "smpsa_schedule", "routing.smpsa", schedule_done),
            span(harness, "mcsa_schedule", "routing.mcsa", schedule_done),
            span(harness, "rmpsa_schedule", "routing.rmpsa", schedule_done),
            span(harness, "dmpsa_schedule", "routing.dmpsa", schedule_done),
            span(harness, "compute_metrics", "metrics.compute"),
            span(harness, "fidelity_sweep", "fidelity.sweep", sweep_done),
            (harness, "hashlib", guard_hashlib),
            count(harness, "hash64", "rng.hash64"),
            count(rng, "hash64", "rng.hash64"),
            count(rng.RngStream, "next_u64", "rng.draws"),
            span(routing, "st_min_cut", "routing.mincut", mincut_done),
            span(routing, "shortest_entangled_path", "routing.shortest_path", path_done),
            span(network.EntangledGraph, "to_json", "network.to_json"),
            span(network.EntangledGraph, "copy", "network.copy"),
            span(fidelity, "apply_dephasing", "fidelity.channel"),
            span(fidelity, "apply_depolarizing", "fidelity.channel"),
            span(fidelity, "fidelity", "fidelity.uhlmann"),
            span(fidelity.DensityMatrix, "__post_init__", "fidelity.density_check"),
        ]

    @contextmanager
    def installed(self):
        """Patch every traced name; restore the originals on exit."""
        saved = []
        try:
            for owner, name, replacement in self.patches:
                saved.append((owner, name, vars(owner)[name]))
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def op(self, entry, args):
        """Run one operation as the root span; return (output, self seconds)."""
        root = self._roots.get(entry)
        if root is None:
            root = self._roots[entry] = self._span(ROOT_SPAN, entry)
        own_before = sum(self.own.values())
        output = root(*args)
        return output, sum(self.own.values()) - own_before

    # --- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); ``_ms`` is total busy time."""
        busy, own, calls, counts = self.busy, self.own, self.calls, self.counts

        def ms(layer):
            return busy[layer] * 1000.0

        def self_ms(layer):
            return own[layer] * 1000.0

        return {
            "generation.topology_ms": (ms("generation.topology"), "ms"),
            "generation.topology_calls": (calls["generation.topology"], "count"),
            "generation.connected_ratio": (
                _ratio(calls["generation.topology"], counts["generation.er_attempts"]), "ratio"),
            "rng.draws": (counts["rng.draws"], "count"),
            "rng.hash64_calls": (counts["rng.hash64"], "count"),
            "generation.entanglement_ms": (ms("generation.entanglement"), "ms"),
            "generation.bell_attempts": (counts["generation.bell_attempts"], "count"),
            "generation.bell_pairs": (counts["generation.bell_pairs"], "count"),
            "generation.bell_success_ratio": (
                _ratio(counts["generation.bell_pairs"], counts["generation.bell_attempts"]),
                "ratio"),
            "generation.grid_ms": (ms("generation.grid"), "ms"),
            "network.to_json_ms": (ms("network.to_json"), "ms"),
            "network.to_json_calls": (calls["network.to_json"], "count"),
            "network.copy_ms": (ms("network.copy"), "ms"),
            "network.copy_calls": (calls["network.copy"], "count"),
            # The digest guard serializes the graph, then hashes it.
            "harness.guard_ms": (ms("network.to_json") + ms("harness.guard_hash"), "ms"),
            "routing.smpsa_ms": (ms("routing.smpsa"), "ms"),
            "routing.mcsa_ms": (ms("routing.mcsa"), "ms"),
            "routing.rmpsa_ms": (ms("routing.rmpsa"), "ms"),
            "routing.dmpsa_ms": (ms("routing.dmpsa"), "ms"),
            "routing.smpsa_self_ms": (self_ms("routing.smpsa"), "ms"),
            "routing.mcsa_self_ms": (self_ms("routing.mcsa"), "ms"),
            "routing.rmpsa_self_ms": (self_ms("routing.rmpsa"), "ms"),
            "routing.dmpsa_self_ms": (self_ms("routing.dmpsa"), "ms"),
            "routing.mincut_calls": (calls["routing.mincut"], "count"),
            "routing.mincut_ms": (ms("routing.mincut"), "ms"),
            "routing.augmentations": (counts["routing.augmentations"], "count"),
            "routing.shortest_path_calls": (calls["routing.shortest_path"], "count"),
            "routing.shortest_path_ms": (ms("routing.shortest_path"), "ms"),
            "routing.path_hit_ratio": (
                _ratio(counts["routing.path_hits"], calls["routing.shortest_path"]), "ratio"),
            "routing.paths_allocated": (counts["routing.paths_allocated"], "count"),
            "harness.demands_ms": (ms("harness.demands"), "ms"),
            "harness.self_ms": (self_ms(ROOT_SPAN), "ms"),
            "metrics.compute_ms": (ms("metrics.compute"), "ms"),
            "fidelity.channel_ms": (ms("fidelity.channel"), "ms"),
            "fidelity.channel_self_ms": (self_ms("fidelity.channel"), "ms"),
            "fidelity.uhlmann_ms": (ms("fidelity.uhlmann"), "ms"),
            "fidelity.density_checks": (calls["fidelity.density_check"], "count"),
            "fidelity.density_check_ms": (ms("fidelity.density_check"), "ms"),
            "fidelity.cells": (counts["fidelity.cells"], "count"),
        }

    def self_times_ms(self) -> dict[str, float]:
        """Self time of every span layer, including leaves and the root."""
        return {layer: s * 1000.0 for layer, s in sorted(self.own.items()) if s}
