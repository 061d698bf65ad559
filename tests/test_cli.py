import contextlib
import io
import os
import subprocess
import sys

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

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


def test_timer_below_floor_is_one_scenario_error(tmp_path):
    path = write_tiny(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["protocol"] = {"routing": {"hello_interval": 1e-6}}
    path.write_text(yaml.safe_dump(raw))
    proc = _cli(["validate", str(path)])
    assert proc.returncode == 1
    assert proc.stderr.count("scenario error") == 1
    assert "protocol.routing.hello_interval" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_stream_rate_above_floor_is_one_scenario_error(tmp_path):
    path = write_tiny(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["workload"]["calls"].update(background=1)
    raw["protocol"] = {"services": {"voice_rate": 1e12}}
    path.write_text(yaml.safe_dump(raw))
    proc = _cli(["run", str(path), "--seed", "1"])
    assert proc.returncode == 1
    assert proc.stderr.count("scenario error") == 1
    assert "protocol.services.voice_rate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_late_video_answer_is_one_scenario_error(tmp_path):
    path = write_tiny(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["protocol"] = {"services": {"video_answer_delay": 10.0,
                                    "video_answer_timeout": 10.0}}
    path.write_text(yaml.safe_dump(raw))
    proc = _cli(["run", str(path), "--seed", "1"])
    assert proc.returncode == 1
    assert proc.stderr.count("scenario error") == 1
    assert "protocol.services: video_answer_delay" in proc.stderr
    assert "video_answer_timeout" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("action,path", [
    ({"kind": "sms", "src": "cA", "dst": "cB", "duration": 5.0},
     "workload.actions[0].duration: unknown key"),
    ({"kind": "teleport"}, "workload.actions[0].kind: unknown kind 'teleport'"),
    ({"kind": ["sms"]}, "workload.actions[0].kind: unknown kind ['sms']"),
])
def test_bad_action_is_one_scenario_error(tmp_path, action, path):
    scn = write_tiny(tmp_path)
    raw = yaml.safe_load(scn.read_text())
    raw["workload"]["actions"] = [{"at": 12.0, **action}]
    scn.write_text(yaml.safe_dump(raw))
    proc = _cli(["validate", str(scn)])
    assert proc.returncode == 1
    assert proc.stderr == f"scenario error: {path}\n"


@pytest.mark.parametrize("content", [b"run: \x80\x81\n", b"topology: [unclosed\n",
                                     None], ids=["bad-utf8", "syntax", "directory"])
def test_unreadable_file_is_one_scenario_error(tmp_path, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
    proc = _cli(["validate", str(path)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("scenario error: ")
    assert proc.stderr.count("scenario error") == 1
    assert "Traceback" not in proc.stderr


def test_usage_errors_exit_one():
    # one argparse path per kind of mistake, in a fresh interpreter
    for argv in (["run", "tiny.yaml", "--seed", "x"],
                 ["run", "tiny.yaml", "--seed", "3", "--seeds", "1..2"],
                 ["sweep", "tiny.yaml", "--calls", "1"],
                 ["nonsense"], []):
        proc = _cli(argv)
        assert proc.returncode == 1, argv
        # argparse's usage line: the argv was refused before any scenario
        # was read, and tiny.yaml does not exist
        assert proc.stderr.startswith("usage: meshsim"), argv
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert _cli(["--help"]).returncode == 0


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """A runnable two-second scenario, an empty file and a missing one."""
    root = tmp_path_factory.mktemp("argv")
    raw = yaml.safe_load(write_tiny(root).read_text())
    raw["run"].update(duration=2.0, warmup=1.0)
    raw["workload"]["calls"] = {"count": 1, "duration": 0.5}
    (root / "tiny.yaml").write_text(yaml.safe_dump(raw))
    (root / "empty.yaml").write_text("")
    return root


# valid command lines, each edited below by replacing, deleting or inserting
# palette tokens: subcommands, flags, bad ints and missing or tiny files
VALID_ARGVS = [
    ["run", "tiny.yaml", "--seed", "1", "--out", "out"],
    ["run", "tiny.yaml", "--seeds", "1..2", "--format", "json", "--out", "out"],
    ["sweep", "tiny.yaml", "--calls", "1", "--bg", "0,1", "--seeds", "1",
     "--out", "out"],
    ["validate", "tiny.yaml"],
]
PALETTE = ["run", "sweep", "validate", "bogus", "tiny.yaml", "empty.yaml",
           "missing.yaml", "--seed", "--seeds", "--calls", "--bg", "--format",
           "--out", "--help", "--bogus", "1", "2", "0", "-1", "x", "1.5", "",
           "1..2", "1..x", "5..1", "2,1", "json", "xml"]


@st.composite
def argvs(draw):
    argv = list(draw(st.sampled_from(VALID_ARGVS)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(st.sampled_from(PALETTE)))
        elif edit == "replace":
            argv[i] = draw(st.sampled_from(PALETTE))
        else:
            del argv[i]
    return argv


@settings(derandomize=True, deadline=None, max_examples=150)
@given(argv=argvs())
@example(argv=["run", "tiny.yaml", "--seed", "1", "--out", ""])
def test_any_argv_exits_0_1_or_2_without_traceback(argv_files, argv):
    # in process, an exception escaping main is what would print a traceback
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(argv_files)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if "--help" in argv and code == 0:
        assert "usage:" in stdout.getvalue()
