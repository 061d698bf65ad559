import os
import subprocess
import sys

import pytest
import yaml

import meshsim
from meshsim.cli import _parse_range, main


def write_tiny(tmp_path, **kw):
    # serialize the canonical tiny scenario back to a file the CLI can load
    raw = {
        "topology": {"nodes": [
            {"id": i, "position": [i * 10.0, 0.0], "is_server": i == 0,
             "radios": [{"channel": 1, "nominal_rate": 12e6,
                         "tx_range": 15.0, "cs_range": 80.0}]}
            for i in range(3)],
            "link_overrides": [{"a": 0, "b": 1, "p": 1.0},
                               {"a": 1, "b": 2, "p": 1.0}]},
        "workload": {
            "clients": [{"id": "cA", "attach": 0}, {"id": "cB", "attach": 2}],
            "calls": {"count": 1, "duration": 5.0},
        },
        "run": {"duration": 20.0, "warmup": 10.0, "seeds": [1]},
    }
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def _cli(argv):
    """Run the meshsim CLI in a fresh interpreter on this checkout's source."""
    src = os.path.dirname(os.path.dirname(meshsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "meshsim.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_parse_range_forms():
    assert _parse_range("1..5") == [1, 2, 3, 4, 5]
    assert _parse_range("1..9..4") == [1, 5, 9]
    assert _parse_range("2,7,11") == [2, 7, 11]


@pytest.mark.parametrize("args", [
    ["run", "--seeds", "1..x"],
    ["run", "--seeds", "5..1"],
    ["run", "--seeds", "1..2..3..4"],
    ["sweep", "--calls", "a", "--bg", "1"],
    ["sweep", "--calls", "1", "--bg", "1..2..0"],
    ["sweep", "--calls", "1", "--bg", "1", "--seeds", "0"],
])
def test_bad_range_is_one_scenario_error(tmp_path, args):
    path = write_tiny(tmp_path)
    out_dir = tmp_path / "out"
    proc = _cli([args[0], str(path), *args[1:], "--out", str(out_dir)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("scenario error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not out_dir.exists()            # nothing run, nothing written


def test_validate_ok(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "3 nodes" in out


def test_validate_missing_file_exits_one(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_validate_invalid_scenario_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"run": {"duration": 1.0, "warmup": 5.0}}))
    assert main(["validate", str(path)]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_run_writes_csv(tmp_path, capsys):
    path = write_tiny(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--seed", "1", "--out", str(out_dir)]) == 0
    assert (out_dir / "tiny.csv").exists()
    assert (out_dir / "tiny.flows.csv").exists()
    header = (out_dir / "tiny.csv").read_text().splitlines()[0]
    assert header == "cell_calls,cell_bg_load,metric,mean,ci95_half,n_seeds"


def test_run_json_format(tmp_path):
    path = write_tiny(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--seeds", "1..2", "--out", str(out_dir),
                 "--format", "json"]) == 0
    assert (out_dir / "tiny.json").exists()


def test_sweep_writes_grid(tmp_path):
    path = write_tiny(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", str(path), "--calls", "1,2", "--bg", "0,1",
                 "--seeds", "2", "--out", str(out_dir)]) == 0
    body = (out_dir / "tiny.csv").read_text()
    for cell in ("1,0,", "1,1,", "2,0,", "2,1,"):
        assert any(line.startswith(cell) for line in body.splitlines())


def test_validate_out_of_range_value_exits_one(tmp_path):
    path = write_tiny(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["protocol"] = {"elp": {"w": 0.3}}
    path.write_text(yaml.safe_dump(raw))
    proc = _cli(["validate", str(path)])
    assert proc.returncode == 1
    assert "scenario error" in proc.stderr and "protocol.elp" in proc.stderr
    assert "Traceback" not in proc.stderr
