import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import glcell
from glcell.cli import EXIT_ERROR, EXIT_MAXITER, EXIT_OK, EXIT_STALLED, build_parser, main
from glcell.energy import energy
from glcell.minimize import SolverSettings
from glcell.snapshot import read_snapshot


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_minimize_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run1"
    code, _, _ = run(["minimize", "--b", "0.25", "--N", "1", "--n", "48",
                      "--out", str(out)], capsys)
    assert code == EXIT_OK
    assert (out / "field.glc").exists()
    result = json.loads((out / "result.json").read_text())
    assert result["init"] == "trial"  # the default
    assert isinstance(result["wall_s"], float) and result["wall_s"] > 0.0
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
        result = json.loads((out / "result.json").read_text())
        assert result.pop("wall_s") > 0.0  # the one timing: all else must repeat
        outs.append(result)
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
    # two iterations on the half grid, then two on the fine grid
    assert result["stop_reason"] == "max_iter" and result["iterations"] == 2 + 2


def test_minimize_line_search_failed_exit_code(tmp_path, capsys):
    # with grad_tol 0 the solve never converges; it stops when the line search
    # finds no drop above the rounding of the energy, well inside its budget
    code, _, _ = run(["minimize", "--b", "0.25", "--N", "1", "--n", "48",
                      "--init", "trial", "--grad-tol", "0", "--out", str(tmp_path)], capsys)
    assert code == EXIT_STALLED
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["stop_reason"] == "line_search_failed" and not result["converged"]
    budget = SolverSettings().max_iter
    coarse = result["coarse"]["iterations"]
    assert coarse < budget and result["iterations"] - coarse < budget


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


@pytest.mark.parametrize("grid, message", [
    (["--N", "2", "--n", "64"], "trial requires square N, got N=2"),
    (["--N", "2"], "trial requires square N, got N=2"),
    (["--N", "4", "--n", "91"], "n=91 must be divisible by sqrt(N)=2"),
])
def test_minimize_trial_init_errors_name_the_random_init(grid, message, tmp_path, capsys):
    # trial is the default init: a grid it cannot start names the init that can
    out = tmp_path / "m"
    code, _, err = run(["minimize", "--b", "0.25", *grid, "--out", str(out)], capsys)
    assert code == EXIT_ERROR
    assert message in err and "--init random with --n" in err
    assert not out.exists()


def test_minimize_random_init_starts_non_square_N(tmp_path, capsys):
    code, _, _ = run(["minimize", "--b", "0.25", "--N", "2", "--n", "64", "--init", "random",
                      "--max-iter", "1", "--out", str(tmp_path)], capsys)
    assert code == EXIT_MAXITER


def test_missing_b_usage(capsys):
    code, _, err = run(["trial"], capsys)
    assert code == EXIT_ERROR
    assert "usage" in err.lower()


@pytest.mark.parametrize("command", ["minimize", "trial", "sweep"])
@pytest.mark.parametrize("content, message", [
    ('{"N": 4}', "b is required"),
    ("5", "must hold a JSON object, got int"),
    ("[]", "must hold a JSON object, got list"),
])
def test_config_without_b_or_object_is_rejected(command, content, message, tmp_path, capsys):
    # {"N": 4} used to die with a KeyError traceback, a 5 with a TypeError,
    # and [] was taken as an empty config
    cfg = tmp_path / "c.json"
    cfg.write_text(content)
    code, _, err = run([command, "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()


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


# C_star values that float() used to convert, and after which every square
# was classified bad with exit code 0
@pytest.mark.parametrize("c_star, message", [
    ("3", "C_star must be a real number, got '3'"),
    (float("nan"), "C_star must be finite and positive, got nan"),
    (-1.0, "C_star must be finite and positive, got -1.0"),
    (True, "C_star must be a real number, got True"),
])
def test_vortices_c_star_is_checked_not_converted(c_star, message, tmp_path, capsys):
    run(["trial", "--b", "0.25", "--N", "1", "--n", "48", "--out", str(tmp_path)], capsys)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"C_star": c_star}))
    code, _, err = run(["vortices", str(tmp_path / "field.glc"), "--config", str(cfg),
                        "--out", str(tmp_path / "v")], capsys)
    assert code == EXIT_ERROR
    assert f"error: {message}" in err
    assert not (tmp_path / "v").exists()


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sw"
    code, _, _ = run(["sweep", "--b", "0.2,0.25,0.3", "--N", "1",
                      "--out", str(out)], capsys)
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "b,N,n,g_est,g_trial,d_lower,d_upper,pot,r0,zeta,iterations,stop_reason,flags"
    assert len(lines) == 4
    points = json.loads((out / "sweep.json").read_text())["points"]
    # the middle b is the cold anchor; the others start from its solution
    assert [p["start"] for p in points] == ["anchor", "trial", "anchor"]
    for point in points:
        assert point["stop_reason"] == "converged" and point["iterations"] > 0
        assert point["wall_s"] > 0.0
        assert isinstance(point["restarts"], int) and 0 <= point["restarts"] < point["iterations"]


def test_sweep_acceptance_report(tmp_path, capsys):
    code, out, _ = run(["sweep", "--b", "0.2,0.25,0.3", "--N", "1", "--report", "acceptance",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    rows = lines[:lines.index("(remaining acceptance criteria are exercised by the test suite)")]
    assert rows and all(row.startswith(("[PASS] ", "[FAIL] ")) for row in rows)
    checks = [row[len("[PASS] "):].split(":")[0] for row in rows]
    assert sorted(checks) == sorted([*(f"{kind} b={b}" for b in ("0.2", "0.25", "0.3")
                                       for kind in ("asymptotics", "potential")),
                                     "derivative b=0.25", "bracket ordering b=0.25"])


def test_sweep_single_b_flagged(tmp_path, capsys):
    out = tmp_path / "sw1"
    code, _, _ = run(["sweep", "--b", "0.25", "--N", "1", "--out", str(out)],
                     capsys)
    assert code == EXIT_OK
    csv_text = (out / "sweep.csv").read_text()
    row = csv_text.splitlines()[1]
    assert "insufficient points" in row
    assert ",,," in row  # empty derivative columns


def test_sweep_repeated_b_rejected_before_any_solve(tmp_path, capsys, monkeypatch):
    # a repeated b is refused before any point is solved and before the
    # output directory is made
    def no_solve(*args, **kwargs):
        raise AssertionError("a sweep point was solved")

    monkeypatch.setattr(glcell.analysis, "estimate_g", no_solve)
    out = tmp_path / "o"
    code, _, err = run(["sweep", "--b", "0.2,0.25,0.25", "--N", "1", "--out", str(out)], capsys)
    assert code == EXIT_ERROR
    assert "sweep b values must not repeat, got [0.2, 0.25, 0.25]" in err
    assert not out.exists()
    with pytest.raises(glcell.analysis.AnalysisError, match="must not repeat"):
        glcell.analysis.run_sweep([0.25, 0.2, 0.25], 1)


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
    # a sweep runs its points in one process and reads no worker count
    cfg.write_text(json.dumps({"b": "0.2,0.25", "N": 1, "jobs": 2}))
    code, _, err = run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == EXIT_ERROR
    assert "unknown config keys: ['jobs']" in err
    assert not (tmp_path / "o").exists()


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



@pytest.mark.parametrize("command", ["trial", "sweep"])
@pytest.mark.parametrize("spc", [0, -4])
def test_samples_per_core_below_one_is_rejected(command, spc, tmp_path, capsys):
    # it used to fall through to the 32-sample floor, the same n as 8
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"b": 0.5, "N": 1, "samples_per_core": spc}))
    code, _, err = run([command, "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == EXIT_ERROR
    assert f"error: samples_per_core must be >= 1, got {spc}" in err
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


@pytest.mark.parametrize("command", ["minimize", "sweep"])
@pytest.mark.parametrize("key, kind", [("max_iter", "an integer"), ("grad_tol", "a real number")])
def test_solver_settings_reject_true_in_config(command, key, kind, tmp_path, capsys):
    # a true used to run a 1-iteration budget or a tolerance of 1.0
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"b": 0.25, "N": 1, key: True}))
    code, _, err = run([command, "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == EXIT_ERROR
    assert f"error: {key} must be {kind}, got True" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--b", "0.2,0.25", "--N", "1", "--n", "400"],
    ["sweep", "--b", "0.2,0.25", "--N", "1", "--seed", "3"],
    ["sweep", "--b", "0.2,0.25", "--N", "1", "--jobs", "2"],
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


def test_readme_flag_table_matches_parser():
    # README's command table lists, per command, exactly what its subparser
    # accepts: every option string and the positional arguments (upper case)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| command | flags |"):].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[2:]:
        command, flags = re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups()
        documented[command] = set(re.findall(r"[^\s`/]+", flags))
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {}
    for command, sub in commands.choices.items():
        accepted[command] = {a.dest.upper() for a in sub._actions if not a.option_strings}
        accepted[command] |= {o for a in sub._actions for o in a.option_strings
                              if o not in ("-h", "--help")}
    assert documented == accepted


def test_minimize_records_the_coarse_solve(tmp_path, capsys):
    # the half-grid solve that started the run, converged or stopped at max_iter
    argv = ["minimize", "--b", "0.25", "--N", "1", "--n", "48", "--init", "trial"]
    code, _, _ = run(argv + ["--out", str(tmp_path / "a")], capsys)
    assert code == EXIT_OK
    result = json.loads((tmp_path / "a" / "result.json").read_text())
    coarse = result["coarse"]
    assert set(coarse) == {"n", "iterations", "stop_reason"}
    assert coarse["n"] == 24 and coarse["stop_reason"] == "converged"
    assert 0 < coarse["iterations"] < result["iterations"]
    code, _, _ = run(argv + ["--max-iter", "3", "--out", str(tmp_path / "b")], capsys)
    assert code == EXIT_MAXITER
    result = json.loads((tmp_path / "b" / "result.json").read_text())
    assert result["coarse"] == {"n": 24, "iterations": 3, "stop_reason": "max_iter"}
    assert result["iterations"] == 3 + 3


def test_sweep_json_records_the_coarse_solve(tmp_path, capsys):
    code, _, _ = run(["sweep", "--b", "0.2,0.25,0.3", "--N", "1", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    points = json.loads((tmp_path / "sweep.json").read_text())["points"]
    assert [p["start"] for p in points] == ["anchor", "trial", "anchor"]
    for point in points:  # the anchor and the warm points alike
        assert point["coarse"]["n"] == point["n"] // 2
        assert point["coarse"]["stop_reason"] == "converged"
        assert 0 < point["coarse"]["iterations"] < point["iterations"]


@pytest.mark.parametrize("command", ["minimize", "trial", "vortices", "sweep"])
@pytest.mark.parametrize("out", [5, None, ["o"]])
def test_config_out_must_be_a_string(command, out, tmp_path, capsys, monkeypatch):
    # an out of 5 used to crash every command with a TypeError traceback
    cfg = {"out": out} if command == "vortices" else {"b": 0.25, "N": 1, "out": out}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)]
    if command == "vortices":
        run(["trial", "--b", "0.25", "--N", "1", "--n", "48", "--out", str(tmp_path / "t")],
            capsys)
        argv.insert(1, str(tmp_path / "t" / "field.glc"))
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    code, _, err = run(argv, capsys)
    assert code == EXIT_ERROR
    assert f"error: out must be a string, got {out!r}" in err
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["minimize", "trial", "vortices", "sweep"])
def test_config_invalid_json_names_the_file(command, tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text('{"b": 0.25,\n')
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
    if command == "vortices":
        argv.insert(1, str(tmp_path / "field.glc"))
    code, _, err = run(argv, capsys)
    assert code == EXIT_ERROR
    assert err.startswith(f"error: config file {path} is not valid JSON: Expecting property name")
    assert not (tmp_path / "o").exists()
