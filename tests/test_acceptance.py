"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Statistical criteria use master seed 42 (the repository convention)
and are fully deterministic.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from entroute.fidelity import (
    DensityMatrix,
    apply_dephasing,
    apply_depolarizing,
    bell_state,
    fidelity,
    fidelity_sweep,
)
from entroute.generation import generate_entanglement, generate_topology
from entroute.harness import ExperimentConfig, run_grid_check, run_single, run_sweep
from entroute.metrics import compute_metrics
from entroute.routing import (
    dmpsa_schedule,
    mcsa_schedule,
    rmpsa_schedule,
    smpsa_schedule,
    st_min_cut,
)
from entroute.rng import RngStream, hash64

from oracles import (
    connected,
    draw_int,
    draw_uniform,
    max_edge_disjoint_paths_bruteforce,
    min_cut_size_bruteforce,
    st_min_cut_reference,
    validate_schedule,
)
from conftest import build_graph

MASTER_SEED = 42


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def _mean_se(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var / n)


def _sample_demand_set(n, count, rng):
    pairs, out = set(), []
    while len(out) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or frozenset((u, v)) in pairs:
            continue
        pairs.add(frozenset((u, v)))
        out.append((u, v))
    return tuple(out)


def _fuzz_instance(seed: int, max_nodes: int = 100):
    rng = RngStream(seed)
    n = draw_int(rng, 4, max_nodes)
    net = generate_topology(n, 7.44, draw_uniform(rng, 2.0, 10.0), rng.substream(0))
    g = generate_entanglement(net, draw_uniform(rng, 0.0, 0.15), rng.substream(1))
    demands = _sample_demand_set(n, draw_int(rng, 1, min(5, n // 2)), rng.substream(2))
    return net, g, demands, rng.substream(3)


def test_c1_min_cut_oracle_equivalence():
    start = time.perf_counter()
    rng = RngStream(hash64(MASTER_SEED, 1))
    for case in range(500):
        n = draw_int(rng, 2, 6)
        edge_count = draw_int(rng, 0, 12)
        edges = []
        for _ in range(edge_count):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((min(u, v), max(u, v)))
        src = rng.randrange(n)
        dst = (src + 1 + rng.randrange(n - 1)) % n
        g = build_graph(n, edges)
        value = st_min_cut(g, src, dst).flexibility
        oracle_paths = max_edge_disjoint_paths_bruteforce(edges, src, dst)
        oracle_cut = min_cut_size_bruteforce(edges, src, dst)
        assert value == oracle_paths, (case, edges, src, dst)
        assert value == oracle_cut, (case, edges, src, dst)
        cut, reference_value = st_min_cut_reference(g, src, dst)
        assert reference_value == value, (case, edges, src, dst)
        assert len(cut) == value
        if value > 0:
            assert not connected(edges, src, dst, cut)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(1, "min-cut oracle equivalence", ok, f"500 graphs in {elapsed:.1f}s")
    assert ok


def test_c2_edge_disjointness_and_validity_fuzz():
    start = time.perf_counter()
    for case in range(1000):
        net, g, demands, rmpsa_rng = _fuzz_instance(hash64(MASTER_SEED, 2, case))
        for schedule in (
            smpsa_schedule(g, demands),
            mcsa_schedule(g, demands),
            rmpsa_schedule(g, demands, rmpsa_rng),
            dmpsa_schedule(g, demands),
        ):
            validate_schedule(schedule, g, demands)
    report(2, "edge-disjointness and path validity", True,
           f"1000 instances in {time.perf_counter() - start:.0f}s")


def test_c3_scheduling_efficiency_trend():
    config = ExperimentConfig(
        node_count=100, demand_count=5, avg_capacity=9.09, avg_distance_km=7.44,
        alpha_per_km=0.05, iterations=1, master_seed=MASTER_SEED,
    )
    ks: dict[str, list[int]] = {}
    for iteration in range(250):
        for row in run_single(config, iteration):
            ks.setdefault(row.algorithm, []).append(row.k)
    means = {name: sum(v) / len(v) for name, v in ks.items()}
    baseline = max(means["rmpsa"], means["dmpsa"])
    leg1 = means["mcsa"] >= means["smpsa"]
    leg2 = means["smpsa"] >= baseline - 0.05
    detail = (
        f"mcsa={means['mcsa']:.3f} smpsa={means['smpsa']:.3f} "
        f"rmpsa={means['rmpsa']:.3f} dmpsa={means['dmpsa']:.3f}"
    )
    report(3, "scheduling-efficiency trend", leg1 and leg2, detail)
    assert leg2, f"SMPSA {means['smpsa']:.3f} < baseline-0.05 {baseline - 0.05:.3f}"
    # Leg 1: min-cut priority yields a mean k no lower than FCFS round-robin.
    assert leg1, detail


AXES = (
    ("avg_capacity", (3, 5.05, 6.95, 9.09, 10.96), +1),
    ("avg_distance", (7.44, 12.87, 17.49, 22.48, 27.5), -1),
    ("node_count", (50, 100, 150, 200, 250), +1),
    ("demand_count", (5, 10, 15, 20, 25), -1),
)


def test_c4_monotone_trends():
    iterations = 150
    base = dict(
        node_count=100, demand_count=5, avg_capacity=9.09, avg_distance_km=7.44,
        alpha_per_km=0.05, algorithms=("smpsa", "mcsa"), iterations=iterations,
        master_seed=MASTER_SEED,
    )
    failures = []
    for axis, values, sign in AXES:
        config = ExperimentConfig(**base, sweep_axis=axis, sweep_values=values)
        result = run_sweep(config)
        for algo in ("mcsa", "smpsa"):
            stats = []
            for value in values:
                ks = [
                    r.k for r in result.raw_rows
                    if r.algorithm == algo and r.sweep_value == value
                ]
                assert len(ks) == iterations
                stats.append(_mean_se(ks))
            for i in range(len(stats) - 1):
                delta = (stats[i + 1][0] - stats[i][0]) * sign
                allowance = math.sqrt(stats[i][1] ** 2 + stats[i + 1][1] ** 2)
                if delta < -allowance:
                    failures.append(
                        f"{algo}/{axis} {values[i]}->{values[i + 1]}: "
                        f"step {delta:+.3f} beyond 1 s.e. {allowance:.3f}"
                    )
    report(4, "monotone trends", not failures, "; ".join(failures) or "all axes")
    assert not failures, failures


def test_c5_depletion_accounting():
    checked = 0
    for case in range(200):
        net, g, demands, rmpsa_rng = _fuzz_instance(
            hash64(MASTER_SEED, 5, case), max_nodes=60
        )
        for schedule in (
            smpsa_schedule(g, demands),
            mcsa_schedule(g, demands),
            rmpsa_schedule(g, demands, rmpsa_rng),
            dmpsa_schedule(g, demands),
        ):
            _, depletion = compute_metrics(schedule, net)
            total_hops = sum(
                p.hop_count for ps in schedule.paths for p in ps
            )
            # Exact accounting: ratio x C_N = 2 x hops in rational arithmetic.
            assert depletion == 2 * total_hops / sum(net.nodes)
            assert 0.0 <= depletion <= 1.0
            checked += 1
    report(5, "depletion accounting", True, f"{checked} schedules")


def test_c6_grid_boundary_feasibility():
    start = time.perf_counter()
    failures = 0
    checks = 0
    for demand_count in range(1, 6):
        for rows in range(demand_count + 2, 11):
            for cols in range(max(2, demand_count), 11):
                for seed in range(100):
                    checks += 1
                    if not run_grid_check(rows, cols, demand_count, seed).satisfied:
                        failures += 1
    ok = failures == 0
    report(6, "grid boundary-demand feasibility", ok,
           f"{checks} checks, {failures} failures, {time.perf_counter() - start:.0f}s")
    assert ok


def test_c7_fidelity_analytics():
    bell = bell_state()
    assert fidelity(bell, bell) == pytest.approx(1.0, abs=1e-9)

    # Saturation at rate*time >= 20.
    deph = apply_dephasing(apply_dephasing(bell, 20.0, 1.0, 0), 20.0, 1.0, 1)
    assert fidelity(deph, bell) == pytest.approx(0.5, abs=1e-3)
    depo = apply_depolarizing(apply_depolarizing(bell, 20.0, 1.0, 0), 20.0, 1.0, 1)
    assert fidelity(depo, bell) == pytest.approx(0.25, abs=1e-3)

    # Monotone non-increasing along rate and distance axes.
    rates = [10.0 ** e for e in range(0, 11)]
    distances = [1.0, 2.5, 5.0, 7.5]
    rows = fidelity_sweep(rates, rates, distances)
    for channel in ("dephasing", "depolarizing"):
        for d in distances:
            series = [
                r.fidelity for r in rows
                if r.channel == channel and r.distance_km == d
            ]
            assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
        for rate in rates:
            series = [
                r.fidelity for r in rows
                if r.channel == channel and r.rate_hz == rate
            ]
            assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))

    # Channel outputs keep trace/Hermiticity/PSD at 1e-9 on 1000 mixed states.
    gen = np.random.default_rng(MASTER_SEED)
    for case in range(1000):
        a = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        m = a @ a.conj().T
        rho = DensityMatrix(m / np.trace(m))
        rate = float(gen.uniform(0.0, 30.0))
        qubit = int(gen.integers(0, 2))
        for apply in (apply_dephasing, apply_depolarizing):
            out = apply(rho, rate, 1.0, qubit).entries
            assert abs(np.trace(out) - 1.0) < 1e-9
            assert np.allclose(out, out.conj().T, atol=1e-9)
            assert np.linalg.eigvalsh(out).min() >= -1e-9
    report(7, "fidelity analytics", True, "limits, monotonicity, 1000 states")


def test_c8_sweep_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        """{
  "node_count": 30, "demand_count": 3, "avg_capacity": 5,
  "avg_distance_km": 7.44, "alpha_per_km": 0.05,
  "algorithms": ["smpsa", "mcsa", "rmpsa", "dmpsa"],
  "iterations": 5, "master_seed": 42,
  "sweep_axis": "avg_capacity", "sweep_values": [3, 9.09]
}"""
    )
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "entroute.cli", "sweep",
             "--config", str(config_path), "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    report(8, "sweep byte-determinism", ok, f"{len(outputs[0])} bytes")
    assert ok


def test_c9_performance_sanity():
    config = ExperimentConfig(
        node_count=250, demand_count=25, avg_capacity=11, avg_distance_km=7.44,
        iterations=1, master_seed=MASTER_SEED, algorithms=("smpsa", "mcsa"),
    )
    rows = {r.algorithm: r for r in run_single(config, 0)}
    smpsa_ms = rows["smpsa"].runtime_ms
    mcsa_ms = rows["mcsa"].runtime_ms
    ok_single = smpsa_ms < 1000.0 and mcsa_ms < 10000.0

    slopes = {}
    for algo in ("smpsa", "mcsa"):
        times = []
        for n in (50, 100, 200):
            cfg = ExperimentConfig(
                node_count=n, demand_count=5, avg_capacity=9.09,
                avg_distance_km=7.44, iterations=1, master_seed=MASTER_SEED,
                algorithms=(algo,),
            )
            ms = [run_single(cfg, it)[0].runtime_ms for it in range(10)]
            times.append(sum(ms) / len(ms))
        slopes[algo] = (math.log(times[2]) - math.log(times[0])) / (
            math.log(200) - math.log(50)
        )
    ok_slope = all(s <= 3.5 for s in slopes.values())
    detail = (
        f"smpsa {smpsa_ms:.0f}ms, mcsa {mcsa_ms:.0f}ms, slopes "
        f"{slopes['smpsa']:.2f}/{slopes['mcsa']:.2f}"
    )
    report(9, "performance sanity", ok_single and ok_slope, detail)
    assert ok_single and ok_slope
