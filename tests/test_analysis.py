import math

import numpy as np
import pytest

import glcell.minimize
from glcell.analysis import (
    AnalysisError,
    SweepReport,
    aggregate_tiles,
    build_sweep,
    density_profile_check,
    derivative_bracket,
    potential_check,
    r0,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)
from glcell.energy import DiscreteField
from glcell.grid import WrapRule, build_grid
from glcell.minimize import GCurvePoint, MinimizationError
from glcell.trial import build_trial, trial_config
from glcell.vortices import VortexBall


def model_point(b, g=None):
    g_val = -0.5 - 0.5 * b * math.log(b) if g is None else g
    return GCurvePoint(b=b, N=16, R=math.sqrt(32 * math.pi), n=256, g_est=g_val)


def test_r0_values():
    v = r0(0.1, -0.5 - 0.5 * 0.1 * math.log(0.1) * 0.0)  # middle term forced
    # b = 0.1 with middle term 0 (g chosen so (g+1/2)/(b|log b|) = 1/2)
    g_mid = 0.5 * 0.1 * abs(math.log(0.1)) - 0.5
    v = r0(0.1, g_mid)
    log_b = abs(math.log(0.1))
    assert abs(v - log_b ** (-0.5)) < 1e-12
    assert abs(v - 0.659) < 1e-3
    # b = 1/e: first term 1, third term 0
    b = math.exp(-1.0)
    g_mid = 0.5 * b - 0.5
    assert abs(r0(b, g_mid) - 1.0) < 1e-12
    # g = -1/2 makes the middle term exactly 1/2
    v = r0(0.1, -0.5)
    assert v == max(log_b ** (-0.5), 0.5, math.log(log_b) / log_b)


def test_r0_validation():
    with pytest.raises(AnalysisError):
        r0(1.5, -0.5)


def test_derivative_bracket_model_curve():
    # g(b) = -1/2 - (b/2) log b has derivative -1/2 log b - 1/2
    b, delta = 0.02, 0.005
    points = [model_point(b - delta), model_point(b), model_point(b + delta)]
    lower, upper, mid = derivative_bracket(points, b, delta)
    exact = -0.5 * math.log(b) - 0.5
    assert lower <= exact + 1e-9 <= upper + 1e-6
    assert lower <= upper
    assert abs(mid - exact) < 0.1


def test_derivative_bracket_constant():
    points = [model_point(b, g=-0.4) for b in (0.01, 0.02, 0.03)]
    lower, upper, mid = derivative_bracket(points, 0.02, 0.01)
    assert lower == upper == mid == 0.0


def test_derivative_bracket_missing_point():
    points = [model_point(0.02), model_point(0.025)]
    with pytest.raises(AnalysisError, match="missing sweep point"):
        derivative_bracket(points, 0.02, 0.005)


def test_build_sweep_report():
    bs = (0.015, 0.02, 0.025)
    rep = build_sweep([model_point(b) for b in bs])
    assert [p.b for p in rep.points] == sorted(bs)
    assert 0.02 in rep.brackets
    lower, upper, mid = rep.brackets[0.02]
    assert lower <= upper + 1e-3
    assert all(b in rep.r0_values for b in bs)
    # model points are exactly on the curve: no flags
    assert not any(rep.flags[b] for b in bs)


def test_build_sweep_single_point_flagged():
    rep = build_sweep([model_point(0.02)])
    assert rep.flags[0.02] == ["insufficient points for derivative bracket"]
    assert not rep.brackets


def test_sweep_ordering_enforced():
    with pytest.raises(AnalysisError, match="increasing"):
        SweepReport(points=[model_point(0.02), model_point(0.01)])


def test_sweep_point_error_keeps_diagnostics(monkeypatch):
    # a failed solve is not swallowed: run_sweep raises the solver's own
    # error, diagnostics included
    def diverge(init, b, settings=None, init_label="custom"):
        raise MinimizationError("minimization diverged: test",
                                {"stop_reason": "diverged", "iteration": 7})

    monkeypatch.setattr(glcell.minimize, "minimize", diverge)
    with pytest.raises(MinimizationError, match="diverged: test") as info:
        run_sweep([0.2, 0.25], 1)
    assert info.value.diagnostics == {"stop_reason": "diverged", "iteration": 7}
    monkeypatch.undo()

    # the anchor solves cold and succeeds; a warm point's failure reaches
    # the caller just the same
    anchors = []
    cold = glcell.minimize.minimize

    def count_cold(*args, **kwargs):
        anchors.append(args[1])
        return cold(*args, **kwargs)

    solve = glcell.minimize._solve

    def diverge(init, b, settings, init_label, e0=None, phase=None):
        if phase is None:  # the cold solve, inside minimize
            return solve(init, b, settings, init_label, e0, phase)
        raise MinimizationError("minimization diverged: warm",
                                {"stop_reason": "diverged", "iteration": 3})

    monkeypatch.setattr(glcell.minimize, "minimize", count_cold)
    monkeypatch.setattr(glcell.minimize, "_solve", diverge)
    with pytest.raises(MinimizationError, match="diverged: warm") as info:
        run_sweep([0.2, 0.25, 0.3], 1)
    assert anchors == [0.25]
    assert info.value.diagnostics == {"stop_reason": "diverged", "iteration": 3}


def test_sweep_serialization_columns():
    rep = build_sweep([model_point(b) for b in (0.015, 0.02, 0.025)])
    csv_text = sweep_to_csv(rep)
    header = csv_text.splitlines()[0]
    assert header == "b,N,n,g_est,g_trial,d_lower,d_upper,pot,r0,zeta,iterations,stop_reason,flags"
    assert len(csv_text.splitlines()) == 4
    js = sweep_to_json(rep)
    assert '"points"' in js and '"brackets"' in js


def uniform_field(b=0.1, N=4):
    cfg = trial_config(b, N)
    g = build_grid(cfg)
    return DiscreteField(u=np.ones((g.n, g.n), dtype=complex), grid=g,
                         wrap=WrapRule(n=g.n, N=N))


def test_potential_check_cases():
    f = uniform_field()
    out = potential_check(f, 0.1)
    assert out["value"] == 0.0 and out["pass"]
    b, N = 0.04, 4
    g = build_grid(trial_config(b, N))
    trial = build_trial(b, N, g)
    out = potential_check(trial, b)
    assert out["pass"]
    # core contribution is O(b), well under the b|log b| budget
    assert out["ratio"] < 0.5


def test_density_profile_cases():
    out = density_profile_check(uniform_field())
    assert out == {"min": 1.0, "max": 1.0, "variance": 0.0}
    b, N = 0.04, 4
    trial = build_trial(b, N, build_grid(trial_config(b, N)))
    out = density_profile_check(trial)
    assert out["min"] == 0.0
    assert out["max"] >= 1.0 - 1e-9


def test_aggregate_tiles_perfect_cell():
    # synthetic cell: one centered degree-1 ball per unit square
    b, N = 0.1, 4
    g = build_grid(trial_config(b, N))
    f = uniform_field(b, N)
    side = g.R / 2
    centers = [(-side / 2, -side / 2), (-side / 2, side / 2),
               (side / 2, -side / 2), (side / 2, side / 2)]
    balls = [VortexBall(center=c, radius=0.05, degree=1) for c in centers]
    agg = aggregate_tiles(f, M=4, b=b, balls=balls)
    assert agg.per_tile_degree == N
    assert abs(agg.target_per_tile - N) < 1e-9
    assert agg.deviation < 1e-9
    # the lower-bound estimate grows with dictionary depth but stays under
    # the per-cell transport bound (half a cell diameter per unit mass)
    prev = -1.0
    for depth in (2, 4, 6):
        a = aggregate_tiles(f, M=4, b=b, balls=balls, dictionary_depth=depth)
        assert a.relative_distance >= prev - 1e-12
        prev = a.relative_distance
    cell_diameter = math.sqrt(2.0) * agg.ell / 2
    assert prev <= cell_diameter


def test_aggregate_tiles_quantization_error():
    f = uniform_field()
    with pytest.raises(AnalysisError, match="quantization"):
        aggregate_tiles(f, M=2, b=0.1, epsilon=0.1, ell=0.3, balls=[])


def test_aggregate_tiles_scale_relation():
    f = uniform_field()
    eps = 0.05
    agg = aggregate_tiles(f, M=2, b=0.1, epsilon=eps, balls=[])
    assert abs(agg.ell - eps * math.sqrt(2 * math.pi * 4 / 0.1)) < 1e-12
    assert abs(agg.target_per_tile - 4.0) < 1e-9
