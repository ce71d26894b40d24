import concurrent.futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import glcell
from glcell.cli import EXIT_ERROR, EXIT_MAXITER, EXIT_OK, main
from glcell.energy import energy
from glcell.snapshot import read_snapshot


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_minimize_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run1"
    code, _, _ = run(["minimize", "--b", "0.25", "--N", "1", "--n", "48",
                      "--init", "trial", "--out", str(out)], capsys)
    assert code == EXIT_OK
    assert (out / "field.glc").exists()
    result = json.loads((out / "result.json").read_text())
    assert result["converged"]
    assert result["stop_reason"] == "converged"
    assert result["operator_evals"] >= 2 * result["iterations"]
    assert isinstance(result["restarts"], int) and 0 <= result["restarts"] < result["iterations"]
    assert result["energy"]["total"] < 0.0
    assert set(result["energy"]) == {"kinetic", "potential", "offset", "total"}


def test_minimize_deterministic(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code, _, _ = run(["minimize", "--b", "0.25", "--N", "1", "--n", "48",
                          "--init", "random", "--seed", "3", "--out", str(out)],
                         capsys)
        assert code == EXIT_OK
        outs.append((out / "result.json").read_text())
    assert outs[0] == outs[1]


def test_minimize_invalid_b(capsys):
    code, _, err = run(["minimize", "--b", "1.5", "--N", "1", "--n", "48"], capsys)
    assert code == EXIT_ERROR
    assert "b out of range" in err


def test_minimize_maxiter_exit_code(tmp_path, capsys):
    code, _, _ = run(["minimize", "--b", "0.25", "--N", "1", "--n", "48",
                      "--init", "random", "--max-iter", "2",
                      "--out", str(tmp_path)], capsys)
    assert code == EXIT_MAXITER
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["stop_reason"] == "max_iter" and result["iterations"] == 2


@pytest.mark.parametrize("flags", [["--max-iter", "-5"], ["--grad-tol", "nan"],
                                   ["--grad-tol", "-1"]])
def test_minimize_bad_solver_settings(flags, tmp_path, capsys):
    code, _, err = run(["minimize", "--b", "0.25", "--N", "1", "--n", "48",
                        "--out", str(tmp_path / "o"), *flags], capsys)
    assert code == EXIT_ERROR
    assert flags[0][2:].replace("-", "_") in err
    assert not (tmp_path / "o").exists()


def test_minimize_rejects_zero_init(tmp_path, capsys):
    # u = 0 is an exact critical point, not a start: the flag and the config
    # key both refuse it, the latter before the output directory is made
    code, _, err = run(["minimize", "--b", "0.25", "--N", "1", "--n", "48",
                        "--init", "zero", "--out", str(tmp_path / "f")], capsys)
    assert code == EXIT_ERROR and "invalid choice" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 0.25, "N": 1, "n": 48, "init": "zero"}))
    code, _, err = run(["minimize", "--config", str(cfg), "--out", str(tmp_path / "o")],
                       capsys)
    assert code == EXIT_ERROR
    assert "unknown init kind" in err
    assert not (tmp_path / "f").exists() and not (tmp_path / "o").exists()


def test_trial_report(tmp_path, capsys):
    out = tmp_path / "t"
    code, stdout, _ = run(["trial", "--b", "0.04", "--N", "4", "--out", str(out)],
                          capsys)
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"g_trial", "predicted", "gap"}
    assert re.search(r"predicted = -?\d+\.\d{5}", stdout)


def test_trial_non_square_N(capsys):
    code, _, err = run(["trial", "--b", "0.1", "--N", "5", "--n", "160"], capsys)
    assert code == EXIT_ERROR
    assert "trial requires square N" in err


def test_missing_b_usage(capsys):
    code, _, err = run(["trial"], capsys)
    assert code == EXIT_ERROR
    assert "usage" in err.lower()


def test_vortices_on_trial_snapshot(tmp_path, capsys):
    out = tmp_path / "t"
    code, _, _ = run(["trial", "--b", "0.04", "--N", "4", "--out", str(out)], capsys)
    assert code == EXIT_OK
    vout = tmp_path / "v"
    code, _, _ = run(["vortices", str(out / "field.glc"), "--out", str(vout)],
                     capsys)
    assert code == EXIT_OK
    balls = json.loads((vout / "balls.json").read_text())
    assert len(balls) == 4
    assert all(b["degree"] == 1 for b in balls)
    lines = (vout / "squares.jsonl").read_text().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["good"] for line in lines)
    assert (vout / "vorticity.glc").exists()


def test_vortices_corrupted_payload(tmp_path, capsys):
    out = tmp_path / "t"
    run(["trial", "--b", "0.25", "--N", "1", "--n", "48", "--out", str(out)],
        capsys)
    snap = out / "field.glc"
    snap.write_bytes(snap.read_bytes()[:-8])
    code, _, err = run(["vortices", str(snap), "--out", str(tmp_path / "v")], capsys)
    assert code == EXIT_ERROR
    assert "payload length mismatch" in err


def test_sweep_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GLCELL_THREADS", raising=False)
    out = tmp_path / "sw"
    code, _, _ = run(["sweep", "--b", "0.2,0.25,0.3", "--N", "1",
                      "--out", str(out)], capsys)
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "b,N,n,g_est,g_trial,d_lower,d_upper,pot,r0,zeta,iterations,stop_reason,flags"
    assert len(lines) == 4
    # the two points after the anchor from two worker processes: the same bytes
    code, _, _ = run(["sweep", "--b", "0.2,0.25,0.3", "--N", "1", "--jobs", "2",
                      "--out", str(tmp_path / "sw2")], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "sw2" / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()
    points = json.loads((out / "sweep.json").read_text())["points"]
    # the middle b is the cold anchor; the others start from its solution
    assert [p["start"] for p in points] == ["anchor", "trial", "anchor"]
    for point in points:
        assert point["stop_reason"] == "converged" and point["iterations"] > 0
        assert point["wall_s"] > 0.0
        assert isinstance(point["restarts"], int) and 0 <= point["restarts"] < point["iterations"]


def test_sweep_threads_cap_runs_serially(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("GLCELL_THREADS=1 must not start a process pool")

    monkeypatch.setenv("GLCELL_THREADS", "1")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "sw"
    code, _, _ = run(["sweep", "--b-list", "0.2,0.25,0.3", "--N", "1", "--jobs", "2",
                      "--out", str(out)], capsys)
    assert code == EXIT_OK
    sweep = json.loads((out / "sweep.json").read_text())
    assert [p["b"] for p in sweep["points"]] == [0.2, 0.25, 0.3]


@pytest.mark.parametrize("jobs, threads", [("0", None), ("-3", None), ("2", "0"),
                                           ("2", "-4"), ("1", "two")])
def test_sweep_jobs_and_threads_must_be_positive(jobs, threads, tmp_path, capsys,
                                                 monkeypatch):
    if threads is None:
        monkeypatch.delenv("GLCELL_THREADS", raising=False)
    else:
        monkeypatch.setenv("GLCELL_THREADS", threads)
    code, _, err = run(["sweep", "--b", "0.2,0.25,0.3", "--N", "1", "--jobs", jobs,
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_ERROR
    assert ("GLCELL_THREADS" if threads else "jobs") in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_single_b_flagged(tmp_path, capsys):
    out = tmp_path / "sw1"
    code, _, _ = run(["sweep", "--b", "0.25", "--N", "1", "--out", str(out)],
                     capsys)
    assert code == EXIT_OK
    csv_text = (out / "sweep.csv").read_text()
    row = csv_text.splitlines()[1]
    assert "insufficient points" in row
    assert ",,," in row  # empty derivative columns


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"b": 0.25, "N": 1, "n": 48, "init": "trial"}))
    out = tmp_path / "r"
    code, _, _ = run(["minimize", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    assert result["init"] == "trial"


def test_config_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"b": 0.25, "bogus_key": 1}))
    code, _, err = run(["minimize", "--config", str(cfg)], capsys)
    assert code == EXIT_ERROR
    assert "unknown config keys" in err
    # a key another command reads is unknown to one that does not: a sweep
    # sets n from its smallest b
    cfg.write_text(json.dumps({"b": "0.2,0.25", "N": 1, "n": 400}))
    code, _, err = run(["sweep", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == EXIT_ERROR
    assert "unknown config keys: ['n']" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_inputs_that_would_change_nothing_are_rejected(tmp_path, capsys):
    code, _, err = run(["minimize", "--b", "0.25", "--N", "1", "--n", "48",
                        "--init", "trial", "--seed", "3", "--out", str(tmp_path)], capsys)
    assert code == EXIT_ERROR
    assert "seed applies only to the random init" in err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"b": 0.25, "N": 1, "n": 48, "samples_per_core": 3}))
    for command in ("minimize", "trial"):
        code, _, err = run([command, "--config", str(cfg), "--out", str(tmp_path / "o")],
                           capsys)
        assert code == EXIT_ERROR
        assert "n and samples_per_core both set the resolution" in err
    assert not (tmp_path / "o").exists()


# config-file values that int() used to truncate or parse, or that crashed
_N_CASES = [({"b": 0.25, "N": 4.7}, "N must be an integer, got 4.7"),
            ({"b": 0.25, "N": "4"}, "N must be an integer, got '4'"),
            ({"b": 0.25, "N": True}, "N must be an integer, got True"),
            ({"b": 0.25, "N": 4, "samples_per_core": 8.9},
             "samples_per_core must be an integer, got 8.9")]


@pytest.mark.parametrize("command, cfg, message", [
    *(("minimize", cfg, message) for cfg, message in _N_CASES),
    *(("sweep", cfg, message) for cfg, message in _N_CASES),
    ("minimize", {"b": "0.25", "N": 4}, "b must be a real number, got '0.25'"),
    ("minimize", {"b": 0.25, "N": 1, "n": 84.5}, "n must be an integer, got 84.5"),
    ("minimize", {"b": 0.25, "N": 1, "init": "random", "seed": 2.5},
     "seed must be an integer, got 2.5"),
    ("sweep", {"b": ["0.25", "0.3"], "N": 1}, "b must be a real number, got '0.25'"),
    ("sweep", {"b": [0.0, 0.3], "N": 1}, "b out of range: b=0.0 not in (0, 1)"),
])
def test_config_values_are_checked_not_converted(command, cfg, message, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run([command, "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == EXIT_ERROR
    assert f"error: {message}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--b", "0.2,0.25", "--N", "1", "--n", "400"],
    ["sweep", "--b", "0.2,0.25", "--N", "1", "--seed", "3"],
    ["trial", "--b", "0.25", "--N", "1", "--max-iter", "5"],
    ["trial", "--b", "0.25", "--N", "1", "--seed", "3"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, tmp_path, capsys):
    code, _, err = run(argv + ["--out", str(tmp_path)], capsys)
    assert code == EXIT_ERROR
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert not any(tmp_path.iterdir())


def test_json_float_precision(tmp_path, capsys):
    # report.json must carry g_trial to the last bit of the written snapshot
    code, _, _ = run(["trial", "--b", "0.25", "--N", "1", "--n", "48",
                      "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    field, b = read_snapshot(tmp_path / "field.glc")
    assert report["g_trial"] == energy(field, b).total / field.grid.area


def test_import_loads_no_scipy():
    # scipy costs ~0.4 s and ~20 MB at start-up; glcell needs only numpy
    src = str(Path(glcell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, glcell, glcell.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
