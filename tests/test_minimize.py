import dataclasses
import math

import numpy as np
import pytest

import glcell.minimize as minimize_module
from glcell.energy import CellOperator, DiscreteField, energy, gradient, redot
from glcell.grid import CellConfig, ConfigError, WrapRule, build_grid, coarse_grid
from glcell.minimize import (
    CoarseSolve,
    MinimizationError,
    SolverSettings,
    _kinetic_preconditioner,
    _ncg,
    _precondition,
    _prolong,
    _solve,
    _unit_phase,
    estimate_g,
    init_state,
    minimize,
)
from glcell.trial import build_trial, trial_config

B, N = 0.25, 1
CFG = trial_config(B, N)


def ones(config):
    """u = 1 on the config's grid: a start with no vortices at all."""
    grid = build_grid(config)
    return DiscreteField(u=np.ones((grid.n, grid.n), dtype=np.complex128), grid=grid,
                         wrap=WrapRule(n=grid.n, N=grid.N))


def test_init_kinds():
    for kind in ("random", "trial"):
        f = init_state(kind, CFG)
        assert f.u.shape == (CFG.n, CFG.n)
    for kind in ("bogus", "zero", "uniform"):
        with pytest.raises(ValueError, match="unknown init"):
            init_state(kind, CFG)
    # random init is reproducible for a fixed seed
    a = init_state("random", dataclasses.replace(CFG, seed=5))
    c = init_state("random", dataclasses.replace(CFG, seed=5))
    assert np.array_equal(a.u, c.u)
    assert not np.array_equal(a.u, init_state("random", CFG).u)


def test_minimizer_below_trial_and_zero():
    res = minimize(init_state("trial", CFG), B, SolverSettings(max_iter=3000))
    g = build_grid(CFG)
    trial_energy = energy(build_trial(B, N, g), B).total
    assert res.breakdown.total <= trial_energy + 1e-10
    # the trial bound 2 pi b |log sqrt b| - pi is only asymptotic; at this
    # coarse b the minimizer itself must still be strictly negative
    assert res.breakdown.total < 0.0
    assert res.grad_norm * g.h / max(abs(res.breakdown.total), 1.0) <= 1e-8


def test_best_seen_monotone():
    # the solver returns its last iterate, which must be its best: the loop is
    # deterministic, so the half grid's run with max_iter = k is a prefix of
    # its run with k + 1, each fine solve takes at most k more steps from its
    # prolonged answer, and the final energy may not rise from one k to the next
    for kind, init in (("ones", ones(CFG)), ("random", init_state("random", CFG))):
        prev = energy(init, B).total
        for k in range(60):
            res = minimize(init, B, SolverSettings(max_iter=k, grad_tol=1e-14))
            assert res.iterations <= 2 * k
            assert res.breakdown.total <= prev + 1e-12 * abs(prev), (kind, k)
            prev = res.breakdown.total


def test_restarts_counted(monkeypatch):
    # a restart is an iteration after the first that steps on -P grad, and
    # the counts sum the half grid's and the fine solve's: with a forced
    # restart every iteration that is all of them but the first of each
    # level, and with one every 10th there are at least iterations // 10 on each
    init = init_state("random", CellConfig(b=B, N=N, n=48, seed=3))
    monkeypatch.setattr(minimize_module, "RESTART_EVERY", 1)
    res = minimize(init, B, SolverSettings(max_iter=30))
    assert res.iterations == 30 + 30 and res.restarts == 29 + 29
    monkeypatch.setattr(minimize_module, "RESTART_EVERY", 10)
    res = minimize(init, B, SolverSettings(max_iter=30))
    assert res.coarse.iterations == 30 and res.iterations == 30 + 20
    assert 3 + 2 <= res.restarts < 29 + 19
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
    assert anchor.start == "trial"
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
    assert energy(anchor.solution, B).total / anchor.solution.grid.area == anchor.g_est


def test_start_above_trial_solves_cold():
    # a start that lies above the trial state is not used: the point is the
    # cold solve, bit for bit
    cold = estimate_g(CFG)
    high = ones(CFG)
    high.u *= 3.0  # potential (1 - 9)^2 / 2 per unit area
    point = estimate_g(CFG, start=high)
    assert point.start == "trial"
    assert (point.g_est, point.iterations) == (cold.g_est, cold.iterations)


def test_start_on_another_grid_rejected():
    start = ones(CellConfig(b=B, N=N, n=CFG.n + 2))
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


@pytest.mark.parametrize("bad", [{"max_iter": True}, {"grad_tol": True}, {"max_iter": False},
                                 {"grad_tol": False}])
def test_solver_settings_reject_bools(bad):
    with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be"):
        SolverSettings(**bad)
    # numpy numbers are numbers
    settings = SolverSettings(max_iter=np.int64(7), grad_tol=np.float64(1e-6))
    assert (settings.max_iter, settings.grad_tol) == (7, 1e-6)


@pytest.mark.parametrize("b", [2.0, 1.0, float("nan"), True])
def test_b_is_checked_before_the_solve(b, monkeypatch):
    # these ran NCG to the end (a nan reported "diverged") before the final
    # energy raised; a True would have run as 1.0
    def no_solve(*args):
        raise AssertionError("the NCG loop ran")

    monkeypatch.setattr(minimize_module, "_ncg", no_solve)
    with pytest.raises(ConfigError, match="b "):
        minimize(init_state("trial", CFG), b)


def test_operator_evals_count_the_final_energy():
    # the loop's D and D* applications plus the one D of the final breakdown
    res = minimize(ones(CFG), B, SolverSettings(max_iter=0))
    assert res.iterations == 0 and res.operator_evals == 2 + 1


def test_stop_reason_max_iter():
    # the budget holds on each level: three half-grid and three fine iterations
    res = minimize(init_state("random", CFG), B, SolverSettings(max_iter=3, grad_tol=1e-14))
    assert res.stop_reason == "max_iter"
    assert res.iterations == 3 + 3 and not res.converged
    # each iteration applies D twice and its adjoint once
    assert res.operator_evals >= 3 * res.iterations


@pytest.mark.parametrize("settings, reason", [(SolverSettings(), "converged"),
                                              (SolverSettings(max_iter=3), "max_iter")])
def test_grad_norm_is_the_gradient_of_the_answer(settings, reason):
    # the loop's last evaluation is at the final field, so grad_norm needs no
    # second one and is the gradient's norm to the last bit
    res = minimize(init_state("trial", CFG), B, settings)
    assert res.stop_reason == reason
    g = gradient(res.field, B)
    assert res.grad_norm == math.sqrt(redot(g, g))


def test_stop_reason_line_search_failed_at_round_off():
    # with no tolerance the solver runs into the rounding of the energy; the
    # quartic then predicts no decrease along -P grad and the run stops
    s = SolverSettings(grad_tol=0.0, max_iter=5000)
    res = minimize(init_state("trial", CFG), B, s)
    assert res.stop_reason == "line_search_failed"
    assert res.iterations < s.max_iter
    assert res.grad_norm * res.field.grid.h / abs(res.breakdown.total) <= 1e-8


def test_nonfinite_step_raises_minimization_error():
    # |u|^2 = 1e80 keeps the energy and gradient finite, but |d|^4 in the
    # line search overflows.  The gradient is tiny next to |G| ~ 3e160, so
    # this also checks that the stopping test caps |G| at the cell area
    # instead of calling the state converged after 0 iterations.
    init = ones(CFG)
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
    it, _, reason, _ = _ncg(u, start.operator(), b, s, phi)
    it_w, _, reason_w, _ = _ncg(w, gauged_operator(start.grid, start.wrap, phi), b, s)
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


@pytest.mark.parametrize("N, n, twists", [(1, 48, (0.0, 0.0)), (4, 84, (0.3, -1.1))])
def test_prolong_matches_rolled_reference(N, n, twists, reference_operator):
    # the odd sites of the fine field are means of their two neighbours,
    # transported along the full (n, n) link arrays, seam rows and columns
    # included: first the odd rows of the even columns, then the odd columns
    grid = build_grid(CellConfig(b=0.25, N=N, n=n))
    wrap = WrapRule(n=n, N=N, alpha=twists[0], beta=twists[1])
    rng = np.random.default_rng(n)
    coarse = rng.standard_normal((n // 2, n // 2)) + 1j * rng.standard_normal((n // 2, n // 2))
    fine = _prolong(coarse, grid, wrap)

    op = reference_operator(grid, wrap)
    want = np.zeros((n, n), np.complex128)
    want[::2, ::2] = coarse
    mean = 0.5 * (np.roll(np.conj(op.cx) * want, 1, axis=0) + op.cx * np.roll(want, -1, axis=0))
    want[1::2, ::2] = mean[1::2, ::2]
    mean = 0.5 * (np.roll(np.conj(op.cy) * want, 1, axis=1) + op.cy * np.roll(want, -1, axis=1))
    want[:, 1::2] = mean[:, 1::2]
    assert np.array_equal(fine[::2, ::2], coarse)
    assert np.max(np.abs(fine - want)) <= 1e-14 * np.max(np.abs(want))
    # the seams: the last odd row and column take a neighbour across the wrap
    assert np.max(np.abs(fine[-1] - want[-1])) <= 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(fine[:, -1] - want[:, -1])) <= 1e-14 * np.max(np.abs(want))


def test_coarse_grid_is_the_even_sites():
    grid = build_grid(CFG4)
    coarse = coarse_grid(grid)
    assert (coarse.n, coarse.N, coarse.R, coarse.h) == (grid.n // 2, grid.N, grid.R, 2 * grid.h)
    assert np.array_equal(coarse.x1, grid.x1[::2]) and np.array_equal(coarse.x2, grid.x2[::2])
    # two fine links in a row carry the coarse link's factor, seams included
    fine_op = CellOperator(grid, WrapRule(n=grid.n, N=grid.N))
    coarse_op = CellOperator(coarse, WrapRule(n=coarse.n, N=coarse.N))
    (x, x_seam), (y, y_seam) = fine_op.links
    (cx, cx_seam), (cy, cy_seam) = coarse_op.links
    assert np.max(np.abs(x[::2] ** 2 - cx)) <= 1e-14
    assert np.max(np.abs(x[::2] * x_seam[::2] - cx_seam)) <= 1e-14
    assert np.max(np.abs(y[::2] ** 2 - cy)) <= 1e-14
    assert np.max(np.abs(y[::2] * y_seam[::2] - cy_seam)) <= 1e-14


@pytest.mark.parametrize("b, N, n", [(0.25, 1, 48), (0.25, 4, 84)])
def test_cascade_reaches_the_direct_critical_point(b, N, n):
    init = init_state("trial", CellConfig(b=b, N=N, n=n))
    res = minimize(init, b, SolverSettings())
    direct = _solve(init.copy(), b, SolverSettings())
    assert res.coarse == CoarseSolve(n=n // 2, iterations=res.coarse.iterations,
                                     stop_reason="converged")
    assert res.stop_reason == direct.stop_reason == "converged" and res.converged
    assert abs(res.breakdown.total - direct.breakdown.total) <= 1e-9 * abs(direct.breakdown.total)
    assert res.iterations < direct.iterations
    assert direct.coarse is None


def test_cascade_counters_sum_both_levels():
    # replay the two levels by hand: the half-grid NCG from the even sites,
    # then the fine solve from its prolonged answer with P conjugated by its phase
    b, cfg, s = B4, CFG4, SolverSettings()
    init = init_state("trial", cfg)
    res = minimize(init, b, s)
    grid = coarse_grid(init.grid)
    u = init.u[::2, ::2].copy()
    op = CellOperator(grid, WrapRule(n=grid.n, N=grid.N))
    it, restarts, reason, _ = _ncg(u, op, b, s)
    assert reason == "converged" and res.coarse == CoarseSolve(grid.n, it, reason)
    start = DiscreteField(u=_prolong(u, init.grid, init.wrap), grid=init.grid, wrap=init.wrap)
    fine = _solve(start, b, s, _unit_phase(start.u))
    assert np.array_equal(res.field.u, fine.field.u)
    assert res.iterations == it + fine.iterations
    assert res.restarts == restarts + fine.restarts
    assert res.operator_evals == op.evaluations + fine.operator_evals
    assert (res.stop_reason, res.grad_norm, res.breakdown) == (
        fine.stop_reason, fine.grad_norm, fine.breakdown)
    assert res.wall_time > 0.0


def _replay(init, b, s, warm):
    """The two levels by hand: the half-grid NCG from init's even sites, with
    P conjugated by their phase if warm, then the fine solve from its
    prolonged answer with P conjugated by that answer's phase.  Returns the
    half grid's CoarseSolve, restarts and operator evaluations, and the fine
    solve's result."""
    grid = coarse_grid(init.grid)
    u = init.u[::2, ::2].copy()
    op = CellOperator(grid, WrapRule(n=grid.n, N=grid.N))
    it, restarts, reason, _ = _ncg(u, op, b, s, _unit_phase(u) if warm else None)
    start = DiscreteField(u=_prolong(u, init.grid, init.wrap), grid=init.grid, wrap=init.wrap)
    fine = _solve(start, b, s, _unit_phase(start.u))
    return CoarseSolve(grid.n, it, reason), restarts, op.evaluations, fine


@pytest.mark.parametrize("settings, reason", [(SolverSettings(max_iter=5), "max_iter"),
                                              (SolverSettings(max_iter=0), "max_iter"),
                                              (SolverSettings(grad_tol=0.0, max_iter=40), "max_iter")])
def test_unconverged_coarse_solve_falls_back_bit_for_bit(settings, reason):
    # a half grid stopped at max_iter still hands its answer to the fine
    # solve, bit for bit as the replay of the two levels; one that took no
    # step leaves the field and the counters of the direct solve from init
    init = init_state("trial", CFG)
    res = minimize(init, B, settings)
    assert res.coarse == CoarseSolve(CFG.n // 2, settings.max_iter, reason)
    if settings.max_iter:
        coarse, restarts, evals, fine = _replay(init, B, settings, warm=False)
        assert coarse == res.coarse
        want = (coarse.iterations + fine.iterations, restarts + fine.restarts,
                evals + fine.operator_evals)
    else:
        fine = _solve(init.copy(), B, settings)
        want = (fine.iterations, fine.restarts, fine.operator_evals)
    assert np.array_equal(res.field.u, fine.field.u)
    assert (res.iterations, res.restarts, res.operator_evals) == want
    assert (res.stop_reason, res.grad_norm) == (fine.stop_reason, fine.grad_norm)


def test_half_grid_stopped_at_max_iter_still_converges():
    # 30 iterations leave the half grid short of converged, and the fine
    # solve from its answer converges in 17 more, to the unbudgeted answer;
    # the direct solve from the trial state does not converge in 30
    init = init_state("trial", CellConfig(b=B, N=N, n=48))
    res = minimize(init, B, SolverSettings(max_iter=30))
    assert res.coarse == CoarseSolve(24, 30, "max_iter")
    assert res.converged and res.stop_reason == "converged"
    assert res.iterations == 30 + 17
    full = minimize(init, B)
    assert abs(res.breakdown.total - full.breakdown.total) <= 1e-9 * abs(full.breakdown.total)
    assert not _solve(init.copy(), B, SolverSettings(max_iter=30)).converged


@pytest.mark.parametrize("huge", [True, False])
def test_bad_start_raises_as_the_direct_solve(huge):
    # a huge field diverges at iteration 1 on the half grid, and that error
    # reaches the caller; a nan on an odd site, which the half grid does not
    # see, goes straight to the direct solve and raises what it raises
    init = ones(CFG)
    if huge:
        init.u *= 1e40
    else:
        init.u[1, 1] = np.nan
    with np.errstate(all="ignore"), pytest.raises(MinimizationError) as first:
        if huge:
            grid = coarse_grid(init.grid)
            _ncg(init.u[::2, ::2].copy(), CellOperator(grid, WrapRule(n=grid.n, N=grid.N)), B,
                 SolverSettings())
        else:
            _solve(init.copy(), B, SolverSettings())
    with np.errstate(all="ignore"), pytest.raises(MinimizationError) as cascaded:
        minimize(init, B)
    assert str(cascaded.value) == str(first.value)
    assert repr(cascaded.value.diagnostics) == repr(first.value.diagnostics)  # nan != nan
    assert cascaded.value.diagnostics["iteration"] == (1 if huge else 0)


def test_odd_grid_solves_directly():
    init = init_state("random", CellConfig(b=B, N=N, n=49, seed=2))
    s = SolverSettings(max_iter=200)
    res = minimize(init, B, s)
    direct = _solve(init.copy(), B, s)
    assert res.coarse is None
    assert np.array_equal(res.field.u, direct.field.u)
    assert (res.iterations, res.operator_evals) == (direct.iterations, direct.operator_evals)


def test_estimate_g_reports_the_coarse_solve():
    point = estimate_g(CFG)
    assert point.start == "trial" and point.coarse.n == CFG.n // 2
    assert point.coarse.stop_reason == "converged"
    assert point.iterations > point.coarse.iterations
    warm = estimate_g(CellConfig(b=0.3, N=N, n=CFG.n), start=point.solution)
    assert warm.start == "anchor" and warm.coarse.n == CFG.n // 2
    assert warm.coarse.stop_reason == "converged"
    assert warm.iterations > warm.coarse.iterations


@pytest.fixture(scope="module")
def anchor4():
    # the b = 0.3 minimizer on the grid of the b = 0.25, N = 4 point
    return estimate_g(CellConfig(b=0.3, N=4, n=CFG4.n)).solution


def test_warm_cascade_reaches_the_direct_warm_critical_point(anchor4):
    before = anchor4.u.copy()
    point = estimate_g(CFG4, start=anchor4)
    direct = _solve(anchor4.copy(), B4, SolverSettings(), _unit_phase(anchor4.u))
    assert point.start == "anchor" and point.stop_reason == direct.stop_reason == "converged"
    assert abs(point.g_est - direct.density) <= 1e-9 * abs(direct.density)
    assert np.array_equal(anchor4.u, before)  # the sweep hands the anchor to every point


def test_warm_cascade_counters_sum_both_levels(anchor4):
    # replay the two levels by hand: the half-grid NCG from the start's even
    # sites with P conjugated by their phase, then the fine solve from its
    # prolonged answer with P conjugated by that answer's phase
    s = SolverSettings()
    point = estimate_g(CFG4, s, start=anchor4)
    grid = coarse_grid(anchor4.grid)
    u = anchor4.u[::2, ::2].copy()
    op = CellOperator(grid, WrapRule(n=grid.n, N=grid.N))
    it, restarts, reason, _ = _ncg(u, op, B4, s, _unit_phase(u))
    assert reason == "converged" and point.coarse == CoarseSolve(grid.n, it, reason)
    start = DiscreteField(u=_prolong(u, anchor4.grid, anchor4.wrap), grid=anchor4.grid,
                          wrap=anchor4.wrap)
    fine = _solve(start, B4, s, _unit_phase(start.u))
    assert np.array_equal(point.solution.u, fine.field.u)
    assert point.iterations == it + fine.iterations
    assert point.restarts == restarts + fine.restarts
    assert point.stop_reason == fine.stop_reason == "converged"


@pytest.mark.parametrize("settings", [SolverSettings(max_iter=5),
                                      SolverSettings(grad_tol=0.0, max_iter=40)])
def test_unconverged_warm_half_grid_falls_back_bit_for_bit(anchor4, settings):
    # a warm half grid stopped at max_iter still hands its answer to the fine
    # solve, bit for bit as the replay of the two levels
    point = estimate_g(CFG4, settings, start=anchor4)
    coarse, restarts, _, fine = _replay(anchor4, B4, settings, warm=True)
    assert point.start == "anchor"
    assert point.coarse == coarse == CoarseSolve(CFG4.n // 2, settings.max_iter, "max_iter")
    assert np.array_equal(point.solution.u, fine.field.u)
    assert point.g_est == fine.density
    assert (point.iterations, point.restarts, point.stop_reason) == (
        coarse.iterations + fine.iterations, restarts + fine.restarts, fine.stop_reason)
