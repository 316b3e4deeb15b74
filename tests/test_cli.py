import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from entroute import cli
from entroute.cli import main
from entroute.errors import GenerationFailureError, InvariantViolationError
from entroute.harness import load_config, run_single


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


def test_schedule_seed_override(config_path, tmp_path):
    out = tmp_path / "rows.json"
    assert main(["schedule", "--config", config_path, "--seed", "7",
                 "--out", str(out), "--format", "json"]) == 0
    expected = run_single(dataclasses.replace(load_config(config_path), master_seed=7), 0)
    rows = json.loads(out.read_text())
    for row in rows:
        del row["runtime_ms"]
    assert rows == [
        {k: v for k, v in dataclasses.asdict(r).items() if k != "runtime_ms"}
        for r in expected
    ]
    assert [r["seed"] for r in rows] != [r.seed for r in run_single(load_config(config_path), 0)]


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (GenerationFailureError, 3, "entroute: generation failure: boom"),
        (InvariantViolationError, 4, "entroute: internal invariant breach: boom"),
    ],
)
def test_run_failure_exit_codes(error, code, prefix, config_path, monkeypatch, capsys):
    def fail(*args):
        raise error("boom")

    monkeypatch.setattr(cli, "run_single", fail)
    assert main(["schedule", "--config", config_path]) == code
    assert capsys.readouterr().err.startswith(prefix)


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"node_count": 10}))
    assert main(["schedule", "--config", str(bad)]) == 2


def test_sweep_bad_iteration_checkpoint_exit_code(config_path, capsys):
    assert main(["sweep", "--config", config_path, "--axis", "iterations",
                 "--values", "2,0"]) == 2


def test_missing_config_exit_code(capsys):
    assert main(["schedule", "--config", "/nope/missing.json"]) == 2


def test_gridcheck_bad_geometry_exit_code(capsys):
    assert main(["gridcheck", "--rows", "3", "--cols", "4", "--demands", "3",
                 "--seed", "0"]) == 2


def test_preset_resolves(tmp_path):
    out = tmp_path / "fid.csv"
    assert main(["fidelity", "--config", "fig4", "--out", str(out)]) == 0
    assert out.read_text().startswith("channel,rate_hz,distance_km,fidelity")


def test_out_dash_writes_stdout(config_path, capsys):
    assert main(["schedule", "--config", config_path, "--out", "-"]) == 0
    assert capsys.readouterr().out.startswith("seed,algorithm,sweep_value,k,")


@pytest.mark.parametrize(
    "command, flag, target",
    [
        ("schedule", "--out", "missing/rows.csv"),
        ("sweep", "--out", "missing/agg.csv"),
        ("sweep", "--raw", "missing/raw.csv"),
        ("fidelity", "--out", "missing/fid.csv"),
        ("fidelity", "--out", "."),
    ],
)
def test_unwritable_output_exit_code(command, flag, target, config_path, tmp_path, capsys):
    path = str(tmp_path / target)
    assert main([command, "--config", config_path, flag, path]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {path}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "written, name, unwritable, missing",
    [("--out", "agg.csv", "--raw", "missing/raw.csv"),
     ("--raw", "raw.csv", "--out", "missing/agg.csv")],
)
def test_sweep_leaves_no_file_when_one_output_is_unwritable(
    written, name, unwritable, missing, config_path, tmp_path, capsys
):
    target, missing = tmp_path / name, str(tmp_path / missing)
    argv = ["sweep", "--config", config_path, written, str(target), unwritable, missing]
    assert main(argv) == 2
    assert f"cannot write {missing}" in capsys.readouterr().err
    assert not target.exists()


def test_sweep_rejects_one_file_for_out_and_raw(config_path, tmp_path, capsys):
    target = tmp_path / "rows.csv"
    alias = str(tmp_path / "." / "rows.csv")
    assert main(["sweep", "--config", config_path, "--out", str(target), "--raw", alias]) == 2
    assert "--out and --raw both name" in capsys.readouterr().err
    assert not target.exists()


def test_failed_write_keeps_an_existing_path(config_path, tmp_path):
    target = tmp_path / "agg.csv"
    target.write_text("old")
    missing = str(tmp_path / "missing" / "raw.csv")
    argv = ["sweep", "--config", config_path, "--out", str(target), "--raw", missing]
    assert main(argv) == 2
    assert target.exists()


# Each subcommand with its output on stdout; sweep's --raw goes there too.
STDOUT_COMMANDS = {
    "schedule": ["schedule", "--config", "{config}"],
    "sweep": ["sweep", "--config", "{config}", "--raw", "-"],
    "fidelity": ["fidelity", "--config", "{config}"],
    "gridcheck": ["gridcheck", "--rows", "4", "--cols", "4", "--demands", "2", "--seed", "1"],
}


def _stdout_argv(command: str, config_path: str) -> list[str]:
    return [arg.format(config=config_path) for arg in STDOUT_COMMANDS[command]]


class _FullStdout(io.StringIO):
    """A stdout that fails as a full device does: on write, or on flush only."""

    def __init__(self, fail_on: str):
        super().__init__()
        self.fail_on = fail_on

    def _fail(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self.fail_on == "write":
            self._fail()
        return super().write(text)

    def flush(self):
        if self.fail_on == "flush":
            self._fail()


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize("command", sorted(STDOUT_COMMANDS))
def test_unwritable_stdout_exit_code(command, fail_on, config_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout(fail_on))
    assert main(_stdout_argv(command, config_path)) == 2
    err = capsys.readouterr().err
    assert err == "entroute: configuration error: cannot write stdout: No space left on device\n"


def test_failed_write_removes_a_created_file(config_path, tmp_path, monkeypatch, capsys):
    def write_some_then_fail(rows, out):
        out.write("channel")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "write_fidelity_csv", write_some_then_fail)
    target = tmp_path / "fid.csv"
    assert main(["fidelity", "--config", config_path, "--out", str(target)]) == 2
    assert f"cannot write {target}: No space left on device" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [*sorted(STDOUT_COMMANDS), "fidelity --out"])
def test_full_device_exits_2_without_traceback(command, buffered, config_path):
    # Buffered stdout keeps the bytes of a failed flush and the interpreter
    # flushes them again at exit, where a second failure would print
    # "Exception ignored" and end with exit code 120.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    if command == "fidelity --out":
        argv, stdout = ["fidelity", "--config", "fig4", "--out", "/dev/full"], None
        target = "/dev/full"
    else:
        argv, stdout = _stdout_argv(command, config_path), "/dev/full"
        target = "stdout"
    with open(stdout or os.devnull, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "entroute.cli", *argv], stdout=out, stderr=subprocess.PIPE,
            text=True, env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr == (
        f"entroute: configuration error: cannot write {target}: No space left on device\n"
    )


def test_dmpsa_runs_at_the_largest_average_distance(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, "avg_distance_km": sys.float_info.max,
                                  "alpha_per_km": 0.0, "algorithms": ["dmpsa"]}))
    out = tmp_path / "rows.csv"
    assert main(["schedule", "--config", str(config), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


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
        ("node_count", 1, "node_count must be >= 2"),
        ("iterations", 0, "iterations must be >= 1"),
        ("algorithms", [], "at least one algorithm must be selected"),
        ("sweep_values", "3,6", "sweep_values must be a list of numbers"),
        ("noise", [], "noise must be an object"),
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


def test_time_overflow_exit_code(tmp_path, capsys):
    # distance / speed overflows to inf: the sweep rejects that time.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, "noise": {"propagation_speed_km_per_s": 1e-310}}))
    out = tmp_path / "fid.csv"
    assert main(["fidelity", "--config", str(config), "--out", str(out)]) == 2
    assert "time must be in [0, inf), got inf" in capsys.readouterr().err
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
