"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/tests

It is not part of the Tier-1 suite: pytest collects only tests/ by default.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from setup_probe import load_glcell  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# tiny versions of the three workloads, with references measured at n=46, 68, 180
TINY = {
    "minimize": workloads.Minimize(b=0.2, N=1, energy_ref=-1.7772367220197696),
    "sweep": workloads.Sweep(
        b_values=(0.09, 0.1, 0.11), N=1, bracket_b=0.1,
        g_refs=(-0.3770164128828213, -0.36728573999562353, -0.35785829957460263),
    ),
    "vortices": workloads.Vortices(b=0.05, N=4, pairs=2, separation=1.0),
}
WRONG = {
    "minimize": workloads.Minimize(b=0.2, N=1, energy_ref=-2.0),
    "sweep": workloads.Sweep(b_values=(0.09, 0.1, 0.11), N=1, bracket_b=0.1,
                             g_refs=(-0.4, -0.4, -0.4)),
}


def test_benchmark_json_names_the_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = run.run(name, seed=1, seconds=0.01, trace=False, catalog=TINY)
    summary = result["summary"]
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert result["failed_frac"] == 0.0
    assert list(summary["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        entry = summary["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and entry["value"] > 0.0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_every_layer_metric_and_unwraps(name):
    mods = load_glcell()
    before = {(mod.__name__, attr): obj for mod in mods.values() for attr, obj in vars(mod).items()}
    result = run.run(name, seed=1, seconds=0.01, trace=True, catalog=TINY)
    metrics = result["summary"]["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert np.isfinite(metrics[m["name"]]["value"])
    assert result["spans"]
    after = {(mod.__name__, attr): obj for mod in mods.values() for attr, obj in vars(mod).items()}
    assert after == before


def test_traced_minimize_counts_calls_per_iteration():
    metrics = run.run("minimize", seed=1, seconds=0.01, trace=True, catalog=TINY)["summary"]["metrics"]
    iterations = metrics["minimize.iterations"]["value"]
    evals = metrics["energy.energy.calls"]["value"] + metrics["energy.gradient.calls"]["value"]
    assert iterations > 0
    # every energy and gradient call of this workload is made inside minimize
    assert metrics["minimize.evals_per_iter"]["value"] * iterations == pytest.approx(evals)


@pytest.mark.parametrize("name", list(WRONG))
def test_wrong_reference_fails_every_operation(name):
    result = run.run(name, seed=1, seconds=0.01, trace=False, catalog=WRONG)
    assert result["failed_frac"] == 1.0
    assert not result["summary"]["correct"]


def test_wrong_dual_distance_reference_fails_every_operation(monkeypatch):
    monkeypatch.setattr(workloads, "dual_distance_oracle", lambda *args, **kwargs: 1.0)
    result = run.run("vortices", seed=1, seconds=0.01, trace=False, catalog=TINY)
    assert result["failed_frac"] == 1.0


def test_vortex_generator_is_seeded():
    mods = load_glcell()
    spec = TINY["vortices"]
    args = (mods, spec.b, spec.N, spec.pairs, spec.separation)
    one, again, two = (workloads.imprint_pairs(*args, seed) for seed in (1, 1, 2))
    assert np.array_equal(one.u, again.u)
    assert not np.array_equal(one.u, two.u)
    find_balls = mods["vortices"].find_balls
    counts = [(len(balls), sum(ball.degree for ball in balls))
              for balls in (find_balls(one, spec.b), find_balls(two, spec.b))]
    assert counts == [(spec.N + 2 * spec.pairs, spec.N)] * 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "vortices", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
