"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Tracing must not change a single output byte, every counter a workload
relies on must fire, and the wrappers must leave entroute as they found it.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracing import Tracer

er = workloads.import_entroute()


def _digest(workload, ops: int, tracer: Tracer | None = None) -> str:
    digest = hashlib.sha256()
    for j in range(ops):
        args = workload.args(j)
        if tracer is None:
            output = workload.entry(*args)
        else:
            with tracer.installed():
                output, _ = tracer.op(workload.entry, args)
        workload.check(args, output)
        digest.update(workload.serialize(output))
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name, ops",
    [("sweep_nodes", 5), ("mcsa_dense", 1), ("gridcheck", len(workloads.GRID_TRIPLES)),
     ("fidelity_grid", 10)],
)
def test_traced_and_untraced_digests_match(name, ops):
    workload = workloads.WORKLOADS[name](er, workloads.DEFAULT_SEED)
    tracer = Tracer()
    assert _digest(workload, ops, tracer) == _digest(workload, ops)
    metrics = tracer.metrics()
    assert [m for m in workload.must_fire if not metrics[m][0]] == []


def test_wrappers_restore_the_originals():
    tracer = Tracer()
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in tracer.patches]
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(vars(owner)[name] is not f for owner, name, f in originals)
            raise RuntimeError("leave the block early")
    assert all(vars(owner)[name] is f for owner, name, f in originals)


def test_run_exits_nonzero_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gridcheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2
    assert run.stdout == ""
