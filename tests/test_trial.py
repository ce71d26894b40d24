import math

import numpy as np
import pytest

from glcell.energy import energy
from glcell.grid import CellConfig, WrapRule, build_grid
from glcell.trial import (
    TWO_PI,
    CellGreen,
    TrialError,
    build_phase,
    build_trial,
    predicted_density,
    ring_log_slope,
    solve_cell_green,
    trial_config,
)
from glcell.vortices import cell_boundary_loop, winding


# oracles of solve_cell_green, computed from its spectrum


def green_residual(green: CellGreen) -> float:
    """Max-norm residual of the spectral equation Delta h = rhs."""
    m, hc = green.m, green.hc
    k = TWO_PI * np.fft.fftfreq(m, d=hc)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    lap = np.real(np.fft.ifft2(-k2 * green.spectrum))
    rhs = -np.ones((m, m))
    rhs[green.pole_index] += TWO_PI / hc**2
    rhs -= np.mean(rhs)  # the solve only sees the mean-zero part
    return float(np.max(np.abs(lap - rhs)))


def energy_ring_estimates(green: CellGreen, b: float) -> tuple[float, float]:
    """(outer, inner) Dirichlet integrals of h split at radius sqrt(b).

    outer = int_{Q1 \\ B(a1, sqrt(b))} |grad h|^2, which grows like
    2*pi*|log sqrt(b)|; inner = (1/b) int_{B} |x - a1|^2 |grad h|^2 = O(1).
    """
    m, hc = green.m, green.hc
    k = TWO_PI * np.fft.fftfreq(m, d=hc)
    gx = np.real(np.fft.ifft2(1j * k[:, None] * green.spectrum))
    gy = np.real(np.fft.ifft2(1j * k[None, :] * green.spectrum))
    grad2 = gx**2 + gy**2
    y = green.coords()
    r2 = y[:, None] ** 2 + y[None, :] ** 2
    core = r2 < b
    outer = float(np.sum(grad2[~core]) * hc**2)
    inner = float(np.sum((r2 * grad2)[core]) * hc**2 / b)
    return outer, inner


def test_green_solver_residual():
    green = solve_cell_green(128)
    assert green_residual(green) < 1e-9
    assert abs(float(np.mean(green.values))) < 1e-12


def test_green_log_singularity_slope():
    # h = log|x - a1| + smooth: the radial log-slope near the pole is +1
    green = solve_cell_green(256)
    slope = ring_log_slope(green, 0.08, 0.35)
    assert abs(slope - 1.0) < 0.1


def test_green_resolution_validation():
    with pytest.raises(TrialError):
        solve_cell_green(31)
    with pytest.raises(TrialError):
        solve_cell_green(16)


def test_ring_energy_growth():
    # outer Dirichlet energy grows like 2*pi*|log sqrt(b)|; inner stays O(1)
    green = solve_cell_green(256)
    prev = None
    for b in (0.2, 0.05, 0.0125):
        outer, inner = energy_ring_estimates(green, b)
        expected = 2.0 * math.pi * abs(math.log(math.sqrt(b)))
        assert abs(outer - expected) < 0.25 * expected + 2.0
        assert inner < 10.0
        if prev is not None:
            assert outer > prev
        prev = outer


def test_phase_wrap_compliance():
    # the twist constants must be constant along the edges to ~1e-9
    for b, N in ((0.1, 4), (0.25, 1)):
        cfg = trial_config(b, N)
        g = build_grid(cfg)
        phase = build_phase(g, N)
        assert phase.alpha_spread < 1e-9
        assert phase.beta_spread < 1e-9


def test_trial_requires_square_N():
    cfg = CellConfig(b=0.25, N=2, n=64)
    g = build_grid(cfg)
    with pytest.raises(TrialError, match="square N"):
        build_trial(0.25, 2, g)


def test_trial_zeros_at_poles():
    cfg = trial_config(0.1, 4)
    g = build_grid(cfg)
    phase = build_phase(g, 4)
    f = build_trial(0.1, 4, g)
    vals = f.u[phase.pole_sites[:, 0], phase.pole_sites[:, 1]]
    assert np.max(np.abs(vals)) == 0.0
    assert phase.pole_sites.shape == (4, 2)


def test_boundary_winding_quantized():
    for N in (1, 4):
        cfg = trial_config(0.1, N)
        g = build_grid(cfg)
        f = build_trial(0.1, N, g)
        assert winding(f, cell_boundary_loop(g.n)) == N


def test_trial_energy_upper_bound():
    b, N = 0.04, 4
    cfg = trial_config(b, N)
    g = build_grid(cfg)
    f = build_trial(b, N, g)
    per_cell = energy(f, b).total / N
    target = 2.0 * math.pi * b * abs(math.log(math.sqrt(b))) - math.pi
    assert abs(per_cell - target) <= 5.0 * b


def test_predicted_density_value():
    assert abs(predicted_density(0.01) - (-0.47697)) < 5e-6


def test_twisted_and_gauged_energies_agree(reference_operator):
    # The gauge map removing (alpha, beta) preserves the energy: the
    # ungauged state v = e^{-i chi} u, chi = -(alpha x1 + beta x2)/R, lives in
    # the (alpha, beta)-twisted space, and on the twisted connection shifted
    # by d chi per link it has the energy of u.
    b = 0.1
    for N in (4, 1):
        g = build_grid(trial_config(b, N))
        u = build_trial(b, N, g).u
        phase = build_phase(g, N)
        chi = -(phase.alpha * g.x1[:, None] + phase.beta * g.x2[None, :]) / g.R
        v = np.exp(-1j * chi) * u
        op = reference_operator(g, WrapRule(n=g.n, N=N, alpha=phase.alpha, beta=phase.beta))
        potential = 0.5 * g.h**2 * np.sum((1.0 - np.abs(v) ** 2) ** 2)

        def twisted_energy(shift_x, shift_y):
            dx = op.cx * np.exp(-1j * shift_x) * np.roll(v, -1, axis=0) - v
            dy = op.cy * np.exp(-1j * shift_y) * np.roll(v, -1, axis=1) - v
            return b * np.sum(np.abs(dx) ** 2 + np.abs(dy) ** 2) + potential - 0.5 * g.area

        # energy(e^{i chi} v; theta) = energy(v; theta - d chi), d chi = -alpha h / R per x-link
        e_twist = twisted_energy(phase.alpha * g.h / g.R, phase.beta * g.h / g.R)
        e_plain = energy(build_trial(b, N, g), b).total
        assert abs(e_plain - e_twist) < 1e-8 * abs(e_plain)
        # the shift matters: without it the gap is a thousand times larger
        assert abs(e_plain - e_twist) < 1e-3 * abs(e_plain - twisted_energy(0.0, 0.0))


def test_trial_config_shapes():
    cfg = trial_config(0.1, 4)
    k = 2
    assert cfg.n % k == 0
    assert (cfg.n // k) % 2 == 0
    assert cfg.h <= math.sqrt(0.1) / 8.0 + 1e-12
    with pytest.raises(TrialError, match="square N"):
        trial_config(0.1, 3)


def test_build_phase_grid_mismatch():
    # the grid must split into sqrt(N) x sqrt(N) cells of an even side
    g = build_grid(CellConfig(b=0.5, N=4, n=65))
    with pytest.raises(TrialError, match="divisible"):
        build_phase(g, 4)
    g = build_grid(CellConfig(b=0.5, N=4, n=66))
    with pytest.raises(TrialError, match="even"):
        build_phase(g, 4)
