"""Reference-speed timing for a shared, noisy host.

The benchmark's reference machine is a 2-core VM whose CPUs each drift in
speed, independently, in regimes lasting seconds to minutes: the same fixed
pure-Python work takes anywhere from 1.0x to 1.8x its fastest time, and
process CPU time drifts with wall time, so CPU time does not help. The VM
exposes no hardware counters. Pinning the process to one CPU makes it worse:
it then waits whenever anything else in the VM runs there.

Times are therefore measured against a fixed pure-Python reference loop
(``reference_loop``), sampled in the same process around the timed work. An
interval of wall time ``w`` whose neighbouring samples took a median of ``r``
seconds is reported as ``w * NOMINAL_S / r``: the time
the work would have taken on a host where the loop takes ``NOMINAL_S``. Both
commits of a comparison run the same loop, so the scale cancels out of any
ratio between them; only the host's drift goes away. The benchmark prints the
plain wall-clock figures as well.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter

# About the loop's time on the reference machine in its fast regime; it only
# sets the unit, since both commits of a comparison share it.
NOMINAL_S = 0.0008

# Samples within this many seconds of a window take part in its scale.
REACH_S = 0.15

# Standard-library modules that neither the benchmark nor entroute imports.
# Importing them in a fresh interpreter is work of the same kind as importing
# entroute (finding, unmarshalling and running modules, loading extensions),
# whose speed drifts apart from that of the reference loop.
REFERENCE_MODULES = (
    "xml.etree.ElementTree", "email.message", "sqlite3", "tarfile", "difflib", "csv",
    "calendar", "plistlib", "configparser", "tomllib", "uuid", "gzip", "html.parser",
    "http.cookies",
)
# About their import time on the reference machine in its fast regime.
NOMINAL_IMPORT_S = 0.03

_MASK64 = (1 << 64) - 1


def reference_loop() -> int:
    """Fixed interpreter work like entroute's: integer mixing, dicts, lists."""
    acc = 0
    table = {}
    values = []
    for i in range(1500):
        z = (i * 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        table[z & 1023] = i
        values.append(z >> 40)
        acc ^= z
    values.sort()
    return acc ^ values[len(values) // 2] ^ len(table)


def reference_seconds() -> float:
    """The faster of two timed runs of the reference loop."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best


def window_scales(samples: list[float], walls: list[float]) -> list[float]:
    """Scale for each window of ``walls`` seconds between consecutive ``samples``.

    Window i lies between samples i and i+1; its scale uses the median of the
    samples within ``REACH_S`` of it, which damps the noise of single samples
    while still following the host's speed regimes.
    """
    scales = []
    for i, wall in enumerate(walls):
        reach = int(REACH_S / wall) if wall > 0 else 0
        scales.append(NOMINAL_S / statistics.median(samples[max(0, i - reach): i + reach + 2]))
    return scales


def reference_import_seconds() -> float:
    """Time to import ``REFERENCE_MODULES``; meaningful once per fresh interpreter."""
    start = perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return perf_counter() - start
