"""Golden outputs: SHA-256 pins on what the schedulers compute.

The acceptance tests check properties (disjointness, trends, feasibility);
these tests pin the exact outputs, so a change that keeps every property but
moves one tie-break or one draw still fails. Floats are hashed at full
precision through ``repr``; ``runtime_ms`` is measured and left out.

If a change alters outputs on purpose, re-record the digests from the
failing assertion and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from entroute.harness import _substitute_axis, load_config, run_grid_check, run_single

ITERATIONS = range(6)

RUN_SINGLE_SHA256 = "283de62b2b03e61d8d957bd9850294079792443bb4b56f94631da22c26d49f8f"
GRID_CHECK_SHA256 = "d878f2f4743c5a48f3f47d12e9b5354030baa8e9023224288996e1458958af45"

GRID_CHECKS = [
    (rows, cols, demands, seed)
    for rows, cols, demands in (
        (3, 3, 1), (5, 4, 3), (7, 5, 5), (8, 8, 4), (12, 6, 6), (20, 12, 10), (30, 20, 16)
    )
    for seed in (0, 1, 7, 12345)
]


def _sha256(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _run_single_records():
    for name in ("fig5a", "fig5c", "fig5d"):
        config = load_config(name)
        for axis_index, value in enumerate(config.sweep_values):
            sub = _substitute_axis(config, config.sweep_axis, value)
            for iteration in ITERATIONS:
                for row in run_single(sub, iteration, axis_index, value):
                    record = asdict(row)
                    del record["runtime_ms"]
                    record["preset"] = name
                    yield record


def test_run_single_rows_are_pinned():
    assert _sha256(_run_single_records()) == RUN_SINGLE_SHA256


def test_grid_check_reports_are_pinned():
    records = (asdict(run_grid_check(*shape)) for shape in GRID_CHECKS)
    assert _sha256(records) == GRID_CHECK_SHA256
