import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from entroute.cli import main


BASE_CONFIG = {
    "node_count": 20,
    "demand_count": 3,
    "avg_capacity": 4,
    "avg_distance_km": 7.44,
    "alpha_per_km": 0.05,
    "algorithms": ["smpsa", "mcsa"],
    "iterations": 3,
    "master_seed": 9,
    "sweep_axis": "avg_capacity",
    "sweep_values": [3, 6],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def test_schedule_csv(config_path, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["schedule", "--config", config_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("seed,algorithm,sweep_value,k,")
    assert len(lines) == 3


def test_schedule_json_single_algorithm(config_path, tmp_path):
    out = tmp_path / "rows.json"
    assert main(
        ["schedule", "--config", config_path, "--algorithm", "smpsa",
         "--out", str(out), "--format", "json"]
    ) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["algorithm"] == "smpsa"


def test_sweep_outputs_aggregate_and_raw(config_path, tmp_path):
    agg = tmp_path / "agg.csv"
    raw = tmp_path / "raw.csv"
    assert main(
        ["sweep", "--config", config_path, "--out", str(agg), "--raw", str(raw)]
    ) == 0
    agg_lines = agg.read_text().splitlines()
    assert agg_lines[0].startswith("sweep_axis,sweep_value,algorithm,iterations,")
    assert len(agg_lines) == 1 + 2 * 2  # two values x two algorithms
    raw_lines = raw.read_text().splitlines()
    assert len(raw_lines) == 1 + 2 * 3 * 2  # values x iterations x algorithms


def test_sweep_axis_override(config_path, tmp_path):
    out = tmp_path / "agg.csv"
    assert main(
        ["sweep", "--config", config_path, "--axis", "demand_count",
         "--values", "2,4", "--out", str(out)]
    ) == 0
    body = out.read_text()
    assert "demand_count,2," in body
    assert "demand_count,4," in body


def test_sweep_byte_identical_reruns(config_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--config", config_path, "--out", str(a)])
    main(["sweep", "--config", config_path, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_fidelity_csv(config_path, tmp_path):
    out = tmp_path / "fid.csv"
    assert main(
        ["fidelity", "--config", config_path,
         "--dephasing-rates", "0,1e10", "--depolarization-rates", "0",
         "--distances", "1,2.5"]
        + ["--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "channel,rate_hz,distance_km,fidelity"
    assert len(lines) == 1 + 2 * 2 + 1 * 2


def test_gridcheck_prints_true(capsys):
    assert main(["gridcheck", "--rows", "5", "--cols", "4", "--demands", "2",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"node_count": 10}))
    assert main(["schedule", "--config", str(bad)]) == 2


def test_missing_config_exit_code(capsys):
    assert main(["schedule", "--config", "/nope/missing.json"]) == 2


def test_gridcheck_bad_geometry_exit_code(capsys):
    assert main(["gridcheck", "--rows", "3", "--cols", "4", "--demands", "3",
                 "--seed", "0"]) == 2


def test_preset_resolves(tmp_path):
    out = tmp_path / "fid.csv"
    assert main(["fidelity", "--config", "fig4", "--out", str(out)]) == 0
    assert out.read_text().startswith("channel,rate_hz,distance_km,fidelity")


def test_console_entry_point(config_path, tmp_path):
    out = tmp_path / "rows.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "entroute.cli", "schedule", "--config", config_path,
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("node_count", 10.5, "node_count must be an integer"),
        ("avg_capacity", math.inf, "avg_capacity must be finite"),
        ("avg_distance_km", math.nan, "avg_distance_km must be finite"),
        ("algorithms", "smpsa", "algorithms must be a list of names"),
        ("noise", {"distance_km": 50.0}, "unknown noise keys"),
        ("noise", {"source_frequency_hz": 21.05}, "unknown noise keys"),
    ],
)
def test_malformed_field_exit_code(field, value, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**BASE_CONFIG, field: value}))
    assert main(["schedule", "--config", str(bad)]) == 2
    assert message in capsys.readouterr().err



@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--dephasing-rates", "dephasing rate must be finite"),
        ("--depolarization-rates", "depolarization rate must be finite"),
        ("--distances", "distance must be finite"),
    ],
)
def test_non_finite_fidelity_grid_exit_code(flag, message, value, tmp_path, capsys):
    out = tmp_path / "fid.csv"
    assert main(["fidelity", "--config", "fig4", flag, f"1,{value}",
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1,,2", "1, ,2", "1,2,"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("sweep", "--values"),
        ("fidelity", "--dephasing-rates"),
        ("fidelity", "--depolarization-rates"),
        ("fidelity", "--distances"),
    ],
)
def test_empty_list_entry_exit_code(command, flag, value, config_path, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, "--config", config_path, flag, value, "--out", str(out)]) == 2
    assert f"bad numeric list '{value}'" in capsys.readouterr().err
    assert not out.exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _positive_finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value) and value > 0
    except OverflowError:  # an int past the float range
        return False


@settings(max_examples=60, deadline=None)
@given(JSON_VALUES)
@example(10**400)
@example(math.nan)
@example(-math.inf)
@example(0)
@example(True)
@example("7.44")
@example([7.44])
def test_any_json_distance_runs_or_exits_2(value):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({**BASE_CONFIG, "avg_distance_km": value}))
        code = main(["schedule", "--config", str(config), "--out", str(Path(tmp) / "rows.csv")])
    assert code == (0 if _positive_finite(value) else 2)
