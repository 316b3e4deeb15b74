"""Fixed-seed benchmark of entroute.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this single-threaded process as a
closed loop: operation j+1 starts only after operation j has returned. The
timed phase lasts at least ``--seconds`` and at least ``MIN_TIMED_OPS``
operations, so the reported p90 always has more than ten samples beyond it.

Times are reported at reference speed (see ``refspeed.py``): each window of
operations is scaled by the speed of a fixed reference loop timed around it,
and each set-up by that of a fixed reference import, which removes the host's
speed drift. The plain wall-clock figures are printed alongside.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median, over
``SETUP_PROBES`` fresh interpreters, of the time to import entroute and build
the workload's inputs, scaled by a reference import timed in each of them.

``--trace 1`` reports per-layer metrics instead, totalled over the first
``digest_ops`` operations so that every count repeats exactly. Each operation
runs twice on the same arguments: once untouched, then under ``Tracer``, whose
wrappers time the calls into each layer. The two outputs must be identical;
the ratio of the two times is the tracing overhead.

Either way, the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run is correct when no
operation raised or broke an output invariant and, at the default seed, the
digest of the first outputs matches the recorded reference. Exit status 2
means the checkout has no entroute sources; no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import refspeed
import workloads
from tracing import Tracer

SETUP_PROBES = 9
MIN_TIMED_OPS = 120
# Operations run in windows of about this long between two reference samples.
WINDOW_S = 0.05
# Stop starting operations after this long whatever the floor above says, so
# that a run ends well inside three minutes even if the program slows down.
HARD_STOP_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the workload; print the seconds taken")
    return parser.parse_args(argv)


class Ledger:
    """Failures and the output digest of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.failed_ops: set[int] = set()
        self.digest = hashlib.sha256()
        self.problems: list[str] = []

    def fail(self, j: int, reason: str) -> None:
        self.failed_ops.add(j)
        if len(self.problems) < 5:
            self.problems.append(f"operation {j}: {reason}")

    def accept(self, j: int, args: tuple, output) -> bytes | None:
        """Check one output; fold it into the digest if it is among the first."""
        try:
            self.workload.check(args, output)
        except workloads.OutputError as exc:
            self.fail(j, f"invalid output: {exc}")
            return None
        data = self.workload.serialize(output)
        if j < self.workload.digest_ops:
            self.digest.update(data)
        return data


def call(ledger: Ledger, j: int, fn, *args):
    try:
        return fn(*args)
    except Exception:
        ledger.fail(j, traceback.format_exc().rstrip())
        return None


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Import entroute and build the workload: (reference seconds, wall seconds).

    Scaled by the import of a fixed set of other modules, timed first in this
    same fresh process: the host's speed at import work drifts apart from its
    speed at the reference loop.
    """
    reference = refspeed.reference_import_seconds()
    start = perf_counter()
    er = workloads.import_entroute()
    workloads.WORKLOADS[name](er, seed)
    wall = perf_counter() - start
    return wall * refspeed.NOMINAL_IMPORT_S / reference, wall


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median set-up time of fresh interpreters: (reference seconds, wall seconds)."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append([float(x) for x in probe.stdout.split()])
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def keep_going(start: float, now: float, j: int, seconds: float, floor: int) -> bool:
    elapsed = now - start
    return (elapsed < seconds or j < floor) and elapsed < HARD_STOP_S


def latency_metrics(ops: int, elapsed_s: float, latencies_ms: list[float]) -> dict:
    return {
        "ops_per_s": (ops / elapsed_s, "1/s"),
        "op_ms_p50": (statistics.median(latencies_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(latencies_ms, n=10)[8], "ms"),
    }


def run_untraced(workload, seconds: float):
    ledger = Ledger(workload)
    windows: list[list[float]] = []  # wall seconds of each operation, per window
    window_walls: list[float] = []
    reference = [refspeed.reference_seconds()]
    floor = max(MIN_TIMED_OPS, workload.digest_ops)
    start = now = perf_counter()
    j = 0
    while keep_going(start, now, j, seconds, floor):
        window: list[float] = []
        window_start = perf_counter()
        while True:
            args = workload.args(j)
            before = perf_counter()
            output = call(ledger, j, workload.entry, *args)
            now = perf_counter()
            window.append(now - before)
            if output is not None:
                ledger.accept(j, args, output)
            j += 1
            if now - window_start >= WINDOW_S or not keep_going(start, now, j, seconds, floor):
                break
        windows.append(window)
        window_walls.append(now - window_start)
        reference.append(refspeed.reference_seconds())
        now = perf_counter()

    scales = refspeed.window_scales(reference, window_walls)
    latencies_ms = [w * k * 1000.0 for window, k in zip(windows, scales) for w in window]
    metrics = latency_metrics(j, sum(w * k for w, k in zip(window_walls, scales)), latencies_ms)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    wall = latency_metrics(j, sum(window_walls), [w * 1000.0 for window in windows for w in window])
    return ledger, j, metrics, wall


def run_traced(workload, seconds: float):
    """Per-layer totals over the first ``digest_ops`` operations (the deck).

    The deck is fixed by the seed, so every count repeats exactly between
    runs and commits. Operation pairs go on until ``seconds`` have passed to
    measure the tracing overhead.
    """
    ledger = Ledger(workload)
    tracer = Tracer()
    plain_ms: list[float] = []
    traced_ms: list[float] = []
    self_sum_ms: list[float] = []
    reference = [refspeed.reference_seconds()]
    deck = None
    start = now = last_sample = perf_counter()
    j = 0
    while keep_going(start, now, j, seconds, workload.digest_ops):
        args = workload.args(j)
        before = perf_counter()
        plain = call(ledger, j, workload.entry, *args)
        plain_ms.append((perf_counter() - before) * 1000.0)
        with tracer.installed():
            before = perf_counter()
            traced = call(ledger, j, tracer.op, workload.entry, args)
            now = perf_counter()
        traced_ms.append((now - before) * 1000.0)
        if plain is not None and traced is not None:
            output, self_seconds = traced
            self_sum_ms.append(self_seconds * 1000.0)
            data = ledger.accept(j, args, output)
            if data is not None and data != workload.serialize(plain):
                ledger.fail(j, "traced output differs from the untraced output")
        j += 1
        if j == workload.digest_ops:
            deck = tracer.metrics(), tracer.self_times_ms()
        if now - last_sample >= WINDOW_S:
            reference.append(refspeed.reference_seconds())
            now = last_sample = perf_counter()

    # One scale for the whole run: layer totals cannot be split by window.
    scale = refspeed.NOMINAL_S / statistics.median(reference)
    untraced_p50 = statistics.median(plain_ms)
    self_sum_p50 = statistics.median(self_sum_ms) if self_sum_ms else 0.0
    overhead_ms = statistics.median(traced_ms) - untraced_p50
    problems = []
    if deck is None:
        problems.append(f"only {j} of the {workload.digest_ops} deck operations ran")
        deck = tracer.metrics(), tracer.self_times_ms()
    metrics, self_ms = deck
    metrics.update({
        "trace.ops": (j, "count"),
        "trace.overhead_ratio": (sum(traced_ms) / sum(plain_ms) - 1.0, "ratio"),
        "trace.untraced_op_ms_p50": (untraced_p50, "ms"),
        "trace.layer_self_sum_ms_p50": (self_sum_p50, "ms"),
    })
    metrics = {
        name: (value * scale if unit == "ms" else value, unit)
        for name, (value, unit) in metrics.items()
    }

    problems += [
        f"counter {name} is zero on {workload.name}"
        for name in workload.must_fire
        if not metrics[name][0]
    ]
    # The layers' self times add up to the traced operation, so they may
    # miss the untraced p50 only by what tracing itself costs.
    if abs(self_sum_p50 - untraced_p50) > abs(overhead_ms) + 0.02 * untraced_p50:
        problems.append(
            f"layer self times sum to {self_sum_p50:.3f} ms at p50, untraced p50 is "
            f"{untraced_p50:.3f} ms and tracing costs {overhead_ms:.3f} ms (wall)"
        )
    self_ms = {layer: ms * scale for layer, ms in self_ms.items()}
    return ledger, j, metrics, problems, self_ms, scale


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(*setup_probe(args.workload, args.seed))
            return 0
        er = workloads.import_entroute()
    except workloads.SourceMissing as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](er, args.seed)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    problems: list[str] = []
    if args.trace:
        ledger, attempted, metrics, problems, self_ms, scale = run_traced(workload, args.seconds)
        print(f"  times at reference speed: the reference loop took {1 / scale:.3f}x its nominal time")
    else:
        setup_s, setup_wall_s = measure_setup(args.workload, args.seed)
        ledger, attempted, metrics, wall = run_untraced(workload, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        wall["setup_s"] = (setup_wall_s, "s")
        print("  wall clock: " + ", ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit) in wall.items()))

    digest = ledger.digest.hexdigest()
    reference = workloads.REFERENCE_DIGESTS[args.workload]
    if args.seed != workloads.DEFAULT_SEED:
        verdict = f"reference exists for seed {workloads.DEFAULT_SEED} only"
    elif digest == reference:
        verdict = "matches the reference"
    else:
        verdict = "DOES NOT MATCH the reference"
        problems.append(f"digest {digest} does not match the reference {reference}")
    problems = ledger.problems + problems
    failed = len(ledger.failed_ops)

    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  {'failed_ratio':32s} {failed / attempted:.6g} ({failed}/{attempted} operations)")
    if args.trace:
        print("  self time per layer (ms): " + json.dumps(self_ms, sort_keys=True))
    print(f"  digest of first {workload.digest_ops} outputs: {digest} ({verdict})")
    for problem in problems:
        print(f"  PROBLEM: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
