import math

import numpy as np
import pytest

from glcell.energy import DiscreteField, energy
from glcell.grid import CellConfig, ConfigError, WrapRule, build_grid, link_phases
from glcell.trial import (
    CELL_SIDE,
    TWO_PI,
    TrialError,
    _square_poles,
    _stream_function,
    _wrap_pi,
    build_phase,
    build_trial,
    predicted_density,
    trial_config,
)
from glcell.vortices import cell_boundary_loop, winding


# checks of the Green function the trial state is built from: the 5-point
# solve of Delta H = 2*pi*delta - 1 on the plaquette centers of the torus,
# at N = 1 (the torus is the unit cell Q1), with the pole on plaquette (M/2, M/2)

M = 256
HC = CELL_SIDE / M


@pytest.fixture(scope="module")
def green():
    g = build_grid(CellConfig(b=0.25, N=1, n=M))
    assert g.h == HC
    return _stream_function(g, np.array([[M // 2, M // 2]]))


def pole_offsets(shift: float = 0.0) -> np.ndarray:
    """Coordinates of plaquette centers (or of points `shift` spacings past
    them) along one axis, relative to the pole."""
    return HC * (np.arange(M) - M // 2 + shift)


def test_green_solver_residual(green):
    lap = (np.roll(green, 1, 0) + np.roll(green, -1, 0) + np.roll(green, 1, 1)
           + np.roll(green, -1, 1) - 4.0 * green) / HC**2
    rhs = -np.ones((M, M))
    rhs[M // 2, M // 2] += TWO_PI / HC**2
    rhs -= np.mean(rhs)  # the solve only sees the mean-zero part
    assert float(np.max(np.abs(lap - rhs))) < 1e-9
    assert abs(float(np.mean(green))) < 1e-12


def test_green_log_singularity_slope(green):
    # H = log|x - a1| + smooth: the least-squares slope of H against log r
    # on the ring 0.08 <= r <= 0.35 is +1
    y = pole_offsets()
    r = np.hypot(y[:, None], y[None, :])
    ring = (r >= 0.08) & (r <= 0.35)
    A = np.stack([np.log(r[ring]), np.ones(int(ring.sum()))], axis=1)
    slope = np.linalg.lstsq(A, green[ring], rcond=None)[0][0]
    assert abs(slope - 1.0) < 0.1


def test_ring_energy_growth(green):
    # the Dirichlet energy outside B(a1, sqrt(b)) grows like
    # 2*pi*|log sqrt(b)|, and (1/b) int_B |x - a1|^2 |grad H|^2 stays O(1);
    # grad H is the difference quotient on each dual link, at its midpoint
    y, mid = pole_offsets(), pole_offsets(0.5)
    gx, gy = ((np.roll(green, -1, axis) - green) / HC for axis in (0, 1))
    links = [(gx, mid[:, None] ** 2 + y[None, :] ** 2), (gy, y[:, None] ** 2 + mid[None, :] ** 2)]
    prev = None
    for b in (0.2, 0.05, 0.0125):
        outer = sum(float(np.sum(g[r2 >= b] ** 2)) for g, r2 in links) * HC**2
        inner = sum(float(np.sum((r2 * g**2)[r2 < b])) for g, r2 in links) * HC**2 / b
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
        phase = build_phase(g, _square_poles(g.n, N))
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
    phase = build_phase(g, _square_poles(g.n, 4))
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
        phase = build_phase(g, _square_poles(g.n, N))
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


@pytest.mark.parametrize("spc", [0, -4])
def test_trial_config_rejects_samples_per_core_below_one(spc):
    with pytest.raises(ConfigError, match="samples_per_core must be >= 1"):
        trial_config(0.5, 1, samples_per_core=spc)


def test_build_phase_grid_mismatch():
    # the square pole set needs a grid that splits into sqrt(N) x sqrt(N) cells
    g = build_grid(CellConfig(b=0.5, N=4, n=65))
    with pytest.raises(TrialError, match="divisible"):
        build_trial(0.5, 4, g)


def test_odd_cell_side_builds():
    # on the torus solve a cell side m = 33 needs no half-cell symmetry
    g = build_grid(CellConfig(b=0.5, N=4, n=66))
    phase = build_phase(g, _square_poles(g.n, 4))
    assert phase.alpha_spread < 1e-12
    assert phase.beta_spread < 1e-12
    assert winding(build_trial(0.5, 4, g), cell_boundary_loop(g.n)) == 4


def test_build_phase_needs_one_pole_per_flux_quantum():
    g = build_grid(CellConfig(b=0.5, N=4, n=64))
    for poles in (_square_poles(64, 4)[:3], _square_poles(64, 4).T):
        with pytest.raises(TrialError, match=r"need N=4 pole sites as an \(N, 2\) array"):
            build_phase(g, poles)


def cell_stream_function(m, hc):
    """One unit cell's stream function, 5-point Delta H = 2*pi/hc^2 * 1_pole - 1
    with the pole on plaquette (m/2, m/2): the trial's construction before the
    solve on the whole torus."""
    rhs = -np.ones((m, m))
    rhs[m // 2, m // 2] += TWO_PI / hc**2
    lam = -4.0 * np.sin(math.pi * np.fft.fftfreq(m)[:, None]) ** 2 \
          - 4.0 * np.sin(math.pi * np.fft.fftfreq(m)[None, :]) ** 2
    lam = lam / hc**2
    lam[0, 0] = 1.0
    spec = np.fft.fft2(rhs) / lam
    spec[0, 0] = 0.0
    return np.real(np.fft.ifft2(spec))


def tiled_cell_parts(grid, N):
    """(H, distance to the pole): one cell's stream function tiled over the
    sqrt(N) x sqrt(N) cells, and each site's distance to its own cell's center."""
    n, k = grid.n, math.isqrt(N)
    m = n // k
    d = grid.h * ((np.arange(n) % m) - m // 2)
    return np.tile(cell_stream_function(m, grid.h), (k, k)), np.hypot(d[:, None], d[None, :])


def torus_parts(grid, N):
    """(H, distance to the pole): the torus solve, and each site's distance to
    the nearest pole site over the whole torus (minimal image per axis)."""
    n, poles = grid.n, _square_poles(grid.n, N)
    dist = np.full((n, n), np.inf)
    for p in poles:
        d0, d1 = (grid.h * ((np.arange(n) - p[a] + n // 2) % n - n // 2) for a in (0, 1))
        dist = np.minimum(dist, np.hypot(d0[:, None], d1[None, :]))
    return _stream_function(grid, poles), dist


def reference_trial(b, N, grid, parts=torus_parts):
    """(u, phi, alpha, beta) built with full-size temporaries: np.roll
    differences of the stream function and whole-array products."""
    n = grid.n
    H, dist = parts(grid, N)
    theta_x, theta_y = link_phases(grid)
    omega_x = -(H - np.roll(H, 1, axis=1)) + theta_x
    omega_y = (H - np.roll(H, 1, axis=0)) + theta_y
    phi = np.empty((n, n))
    row0 = np.concatenate(([0.0], np.cumsum(omega_x[:-1, 0])))
    phi[:, 0] = row0
    phi[:, 1:] = row0[:, None] + np.cumsum(omega_y[:, :-1], axis=1)
    mis_x = _wrap_pi(np.sum(omega_x, axis=0) - grid.R * grid.x2 / 2.0)
    mis_y = _wrap_pi(np.sum(omega_y, axis=1) + grid.R * grid.x1 / 2.0)
    alpha = float(np.angle(np.mean(np.exp(1j * mis_x))))
    beta = float(np.angle(np.mean(np.exp(1j * mis_y))))
    rho = np.minimum(1.0, dist / (2.0 * math.sqrt(b)))
    v = rho * np.exp(1j * phi)
    poles = _square_poles(n, N)
    v[poles[:, 0], poles[:, 1]] = 0.0
    chi = -(alpha * grid.x1[:, None] + beta * grid.x2[None, :]) / grid.R
    return np.exp(1j * chi) * v, phi, alpha, beta


@pytest.mark.parametrize("b, N", [(0.04, 4), (0.25, 4), (0.05, 16)])
def test_trial_matches_full_size_reference(b, N):
    # the in-place construction rounds exactly as the full-size one
    g = build_grid(trial_config(b, N))
    u, phi, alpha, beta = reference_trial(b, N, g)
    phase = build_phase(g, _square_poles(g.n, N))
    assert phase.phi.tobytes() == phi.tobytes()
    assert (phase.alpha, phase.beta) == (alpha, beta)
    f = build_trial(b, N, g)
    assert f.u.flags.c_contiguous
    assert f.u.tobytes() == u.tobytes()


@pytest.mark.parametrize("b, N", [(0.04, 4), (0.25, 4), (0.05, 16), (0.02, 16)])
def test_torus_trial_matches_tiled_cell_trial(b, N):
    # the torus solve reproduces the trial built from one cell's solve, tiled
    g = build_grid(trial_config(b, N))
    u = reference_trial(b, N, g, parts=tiled_cell_parts)[0]
    f = build_trial(b, N, g)
    assert float(np.max(np.abs(f.u - u))) < 1e-12
    tiled = energy(DiscreteField(u=u, grid=g, wrap=f.wrap), b).total
    assert abs(energy(f, b).total - tiled) <= 1e-14 * abs(tiled)
