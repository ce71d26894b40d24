import dataclasses

import numpy as np
import pytest

import glcell.minimize as minimize_module
from glcell.energy import DiscreteField, energy, gradient
from glcell.grid import CellConfig, ConfigError, build_grid
from glcell.minimize import (
    MinimizationError,
    SolverSettings,
    _kinetic_preconditioner,
    _ncg,
    _precondition,
    _unit_phase,
    estimate_g,
    init_state,
    minimize,
)
from glcell.trial import build_trial, trial_config

B, N = 0.25, 1
CFG = trial_config(B, N)


def test_init_kinds():
    for kind in ("uniform", "random", "trial"):
        f = init_state(kind, CFG)
        assert f.u.shape == (CFG.n, CFG.n)
    for kind in ("bogus", "zero"):
        with pytest.raises(ValueError, match="unknown init"):
            init_state(kind, CFG)
    # random init is reproducible for a fixed seed
    a = init_state("random", dataclasses.replace(CFG, seed=5))
    c = init_state("random", dataclasses.replace(CFG, seed=5))
    assert np.array_equal(a.u, c.u)
    assert not np.array_equal(a.u, init_state("random", CFG).u)


def test_minimizer_below_trial_and_zero():
    res = minimize(init_state("trial", CFG), B, SolverSettings(max_iter=3000), "trial")
    g = build_grid(CFG)
    trial_energy = energy(build_trial(B, N, g), B).total
    assert res.breakdown.total <= trial_energy + 1e-10
    # the trial bound 2 pi b |log sqrt b| - pi is only asymptotic; at this
    # coarse b the minimizer itself must still be strictly negative
    assert res.breakdown.total < 0.0
    assert res.grad_norm * g.h / max(abs(res.breakdown.total), 1.0) <= 1e-8


def test_best_seen_monotone():
    # the solver returns its last iterate, which must be its best: the loop is
    # deterministic, so the run with max_iter = k is a prefix of the run with
    # k + 1, and the final energy may not rise from one prefix to the next
    for kind in ("uniform", "random"):
        init = init_state(kind, CFG)
        prev = energy(init, B).total
        for k in range(60):
            res = minimize(init, B, SolverSettings(max_iter=k, grad_tol=1e-14), kind)
            assert res.iterations <= k
            assert res.breakdown.total <= prev + 1e-12 * abs(prev), (kind, k)
            prev = res.breakdown.total


def test_restarts_counted(monkeypatch):
    # a restart is an iteration after the first that steps on -P grad: with a
    # forced restart every iteration that is all of them but the first, and
    # with one every 10th there are at least iterations // 10
    init = init_state("random", CellConfig(b=B, N=N, n=48, seed=3))
    monkeypatch.setattr(minimize_module, "RESTART_EVERY", 1)
    res = minimize(init, B, SolverSettings(max_iter=30))
    assert res.iterations == 30 and res.restarts == 29
    monkeypatch.setattr(minimize_module, "RESTART_EVERY", 10)
    res = minimize(init, B, SolverSettings(max_iter=30))
    assert res.iterations == 30 and 3 <= res.restarts < 29
    point = estimate_g(CellConfig(b=B, N=N, n=48), SolverSettings(max_iter=30))
    assert point.restarts >= 3


def test_estimate_g_protocol():
    point = estimate_g(CFG, SolverSettings(max_iter=3000))
    assert (point.b, point.N, point.n) == (B, N, CFG.n)
    assert point.g_est < -0.2
    g = build_grid(CFG)
    assert point.g_trial == energy(build_trial(B, N, g), B).total / g.area
    assert point.g_est <= point.g_trial + 1e-10
    assert point.zeta is not None
    assert point.stop_reason == "converged" and point.iterations > 0
    assert not point.flags


def test_estimate_g_fixed_resolution():
    # the point is the one trial solve on the config's own grid, not on the
    # resolution trial_config would pick
    cfg = CellConfig(b=B, N=N, n=48)
    s = SolverSettings(max_iter=3000)
    point = estimate_g(cfg, s)
    assert point.n == 48 != CFG.n
    res = minimize(init_state("trial", cfg), B, s)
    assert point.g_est == res.density
    assert point.iterations == res.iterations


def test_warm_start_from_anchor():
    # from the b = 0.25 minimizer, the neighbours solve with the preconditioner
    # conjugated by its phase to the cold answers in under half the cold iterations
    n = trial_config(0.2, N).n
    anchor = estimate_g(CellConfig(b=B, N=N, n=n))
    assert anchor.start == "trial" and anchor.solution._operator is None
    for b in (0.2, 0.3):
        cfg = CellConfig(b=b, N=N, n=n)
        cold = estimate_g(cfg)
        warm = estimate_g(cfg, start=anchor.solution)
        assert warm.start == "anchor" and warm.stop_reason == "converged"
        assert warm.g_trial == cold.g_trial
        assert abs(warm.g_est - cold.g_est) <= 2e-9 * abs(cold.g_est)
        assert 2 * warm.iterations <= cold.iterations
        # the minimizer comes back in the cell's own gauge
        area = warm.solution.grid.area
        assert energy(warm.solution, b).total / area == warm.g_est
    assert anchor.solution._operator is None  # never cached on the start
    assert energy(anchor.solution, B).total / anchor.solution.grid.area == anchor.g_est


def test_start_above_trial_solves_cold():
    # a start that lies above the trial state is not used: the point is the
    # cold solve, bit for bit
    cold = estimate_g(CFG)
    high = init_state("uniform", CFG)
    high.u *= 3.0  # potential (1 - 9)^2 / 2 per unit area
    point = estimate_g(CFG, start=high)
    assert point.start == "trial"
    assert (point.g_est, point.iterations) == (cold.g_est, cold.iterations)


def test_start_on_another_grid_rejected():
    start = init_state("uniform", CellConfig(b=B, N=N, n=CFG.n + 2))
    with pytest.raises(ConfigError, match="start field"):
        estimate_g(CFG, start=start)


def test_degenerate_budget_flagged():
    # with no iterations the estimate is the trial state's own density,
    # which is positive at b = 0.5, N = 1 (+0.754), and must be flagged
    b = 0.5
    point = estimate_g(trial_config(b, 1), SolverSettings(max_iter=0))
    assert point.g_est == point.g_trial > 0.0
    assert point.stop_reason == "max_iter"
    assert "likely not converged to ground state" in point.flags


def test_submodules_are_not_shadowed():
    import glcell.energy as E
    import glcell.minimize as M

    assert M.SolverSettings is SolverSettings
    assert E.energy is energy


@pytest.mark.parametrize("bad", [{"max_iter": -5}, {"max_iter": 2.5}, {"max_iter": "100"},
                                 {"grad_tol": -1e-3}, {"grad_tol": "1e-8"},
                                 {"grad_tol": float("nan")}, {"grad_tol": float("inf")}])
def test_solver_settings_reject_bad_values(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        SolverSettings(**bad)


def test_stop_reason_max_iter():
    res = minimize(init_state("random", CFG), B, SolverSettings(max_iter=3, grad_tol=1e-14))
    assert res.stop_reason == "max_iter"
    assert res.iterations == 3 and not res.converged
    # each iteration applies D twice and its adjoint once
    assert res.operator_evals >= 3 * res.iterations


def test_stop_reason_line_search_failed_at_round_off():
    # with no tolerance the solver runs into the rounding of the energy; the
    # quartic then predicts no decrease along -P grad and the run stops
    s = SolverSettings(grad_tol=0.0, max_iter=5000)
    res = minimize(init_state("trial", CFG), B, s, "trial")
    assert res.stop_reason == "line_search_failed"
    assert res.iterations < s.max_iter
    assert res.grad_norm * res.field.grid.h / abs(res.breakdown.total) <= 1e-8


def test_nonfinite_step_raises_minimization_error():
    # |u|^2 = 1e80 keeps the energy and gradient finite, but |d|^4 in the
    # line search overflows.  The gradient is tiny next to |G| ~ 3e160, so
    # this also checks that the stopping test caps |G| at the cell area
    # instead of calling the state converged after 0 iterations.
    init = init_state("uniform", CFG)
    init.u *= 1e40
    with np.errstate(all="ignore"), pytest.raises(MinimizationError) as info:
        minimize(init, B)
    assert info.value.diagnostics["stop_reason"] == "diverged"
    assert info.value.diagnostics["iteration"] == 1


@pytest.mark.parametrize("n", [204, 360])
def test_precondition_matches_2d_fft(n):
    # plain, and conjugated by a unit-modulus phase: phi ifft2(fft2(conj(phi) g) symbol)
    rng = np.random.default_rng(n)
    grad = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    before = grad.copy()
    symbol = _kinetic_preconditioner(n, 0.05, 0.2)
    phi = np.exp(2j * np.pi * rng.random((n, n)))
    for phase, want in ((None, np.fft.ifft2(np.fft.fft2(before) * symbol)),
                        (phi, phi * np.fft.ifft2(np.fft.fft2(np.conjugate(phi) * before) * symbol))):
        out = np.empty_like(grad)
        got = _precondition(grad, symbol, out, phase)
        assert got is out
        assert np.array_equal(grad, before)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("b0, b, N, n", [(0.25, 0.3, 1, 48), (0.5, 0.55, 4, 64)])
def test_conjugated_preconditioner_matches_gauged_links(b0, b, N, n, gauged_operator):
    # NCG with phi P conj(phi) on the cell's own operator takes the iterates of
    # plain NCG on w = conj(phi) u over phi's gauge transform of the links,
    # from a warm start as in a sweep
    start = estimate_g(CellConfig(b=b0, N=N, n=n)).solution
    phi = _unit_phase(start.u)
    s = SolverSettings()
    u, w = start.u.copy(), np.conjugate(phi) * start.u  # updated in place
    it, _, reason = _ncg(u, start.operator(), b, s, phi)
    it_w, _, reason_w = _ncg(w, gauged_operator(start.grid, start.wrap, phi), b, s)
    assert reason == reason_w == "converged"
    assert it == it_w > 10
    assert np.max(np.abs(phi * w - u)) <= 1e-12


B4, CFG4 = 0.25, trial_config(0.25, 4)


@pytest.mark.parametrize("shift", [(1, 2), (3, 1)])
def test_magnetic_translation_energy_and_gradient(shift, magnetic_translate):
    f = init_state("random", dataclasses.replace(CFG4, seed=3))
    moved = magnetic_translate(f, *shift)
    e = energy(f, B4).total
    assert abs(energy(moved, B4).total - e) <= 1e-12 * abs(e)
    grad = gradient(f, B4)
    moved_grad = magnetic_translate(DiscreteField(u=grad, grid=f.grid, wrap=f.wrap), *shift).u
    assert np.max(np.abs(gradient(moved, B4) - moved_grad)) <= 1e-12 * np.max(np.abs(grad))


def test_magnetic_translation_minimize(magnetic_translate):
    # The bare N=4 trial state sits near the square-lattice saddle.  The
    # preconditioner ignores the magnetic phases, so it does not commute with
    # magnetic translations, and from the bare trial state some translations
    # leave the saddle while others stop on it.  A seeded perturbation moves
    # the start off the saddle, so every translate must reach the same minimum.
    init = init_state("trial", CFG4)
    rng = np.random.default_rng(1)
    init.u = init.u + 0.05 * (rng.standard_normal(init.u.shape)
                              + 1j * rng.standard_normal(init.u.shape))
    s = SolverSettings(grad_tol=1e-9)
    ref = minimize(init, B4, s).breakdown.total
    for shift in ((1, 2), (1, 0)):
        res = minimize(magnetic_translate(init, *shift), B4, s)
        assert res.stop_reason == "converged"
        assert abs(res.breakdown.total - ref) <= 1e-9 * abs(ref)
