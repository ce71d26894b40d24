import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glcell.energy import (
    CellOperator,
    DiscreteField,
    EnergyError,
    abs2,
    covariant_differences,
    density_moments,
    energy,
    energy_and_gradient,
    gradient,
    line_quartic,
    redot,
)
from glcell.grid import CellConfig, ConfigError, WrapRule, build_grid, link_phases, wrap_value

TWIST = (0.3, -0.7)  # wrap twists (alpha, beta)


def make_field(b=0.5, N=1, n=32, kind="random", seed=0, twist=(0.0, 0.0)):
    g = build_grid(CellConfig(b=b, N=N, n=n))
    wrap = WrapRule(n=n, N=N, alpha=twist[0], beta=twist[1])
    if kind == "random":
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    elif kind == "ones":
        u = np.ones((n, n), dtype=complex)
    else:
        u = np.zeros((n, n), dtype=complex)
    return DiscreteField(u=u, grid=g, wrap=wrap)


def test_zero_field_energy_and_gradient():
    f = make_field(kind="zero")
    bd = energy(f, 0.5)
    assert bd.kinetic == 0.0
    # potential of u = 0 exactly cancels against the offset: G(0) = 0
    assert abs(bd.total) < 1e-10
    assert np.max(np.abs(gradient(f, 0.5))) == 0.0


def energy_quartic_form(field, b):
    """The total via the |u|^4 form: b|Du|^2 - |u|^2 + |u|^4/2, fsum-accumulated."""
    dx, dy = covariant_differences(field)
    kinetic = b * (math.fsum((np.abs(dx) ** 2).ravel()) + math.fsum((np.abs(dy) ** 2).ravel()))
    rho2 = (np.abs(field.u) ** 2).ravel()
    return kinetic + field.grid.h**2 * (0.5 * math.fsum(rho2**2) - math.fsum(rho2))


def open_kinetic(field, b):
    """Kinetic energy of the open cell: the seam links dropped."""
    dx, dy = covariant_differences(field)
    return b * (np.sum(np.abs(dx[:-1]) ** 2) + np.sum(np.abs(dy[:, :-1]) ** 2))


def test_energy_forms_agree():
    for seed in range(3):
        f = make_field(seed=seed)
        bd = energy(f, 0.5)
        assert abs(bd.total - energy_quartic_form(f, 0.5)) < 1e-9


def test_uniform_field_open_energy_matches_riemann_sum():
    # u = 1 on the open cell: kinetic = b * sum of 4 sin^2(theta/2) over
    # interior links, which is within O(h^2) of the Riemann sum of |A0|^2
    for n, bound in ((32, 2e-3), (64, 5e-4)):
        f = make_field(n=n, kind="ones")
        g = f.grid
        b = 0.5
        kinetic = open_kinetic(f, b)
        tx = -g.x2 * g.h / 2.0
        ty = g.x1 * g.h / 2.0
        riemann = b * (
            (g.n - 1) * np.sum(tx**2) + (g.n - 1) * np.sum(ty**2)
        )
        assert abs(kinetic - riemann) < bound
    # and converges to the continuum value b R^4/24 - R^2/2 as h -> 0
    diffs = []
    for n in (32, 64, 128):
        f = make_field(n=n, kind="ones")
        g = f.grid
        total = open_kinetic(f, 0.5) - 0.5 * g.area  # potential is 0 at |u| = 1
        cont = 0.5 * g.R**4 / 24.0 - g.R**2 / 2.0
        diffs.append(abs(total - cont))
    assert diffs[2] < diffs[1] < diffs[0]
    assert diffs[2] < 0.01


def test_wrap_energy_counts_seam_links():
    f = make_field(kind="ones")
    closed = energy(f, 0.5).kinetic
    assert closed > open_kinetic(f, 0.5)  # the wrap-extended u=1 pays a seam cost


def test_nonfinite_rejected():
    f = make_field()
    f.u[3, 4] = np.nan
    with pytest.raises(EnergyError, match="non-finite"):
        energy(f, 0.5)
    with pytest.raises(EnergyError):
        gradient(f, 0.5)


def test_b_range_checked():
    f = make_field()
    with pytest.raises(EnergyError, match="b out of range"):
        energy(f, 1.5)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    f = make_field(seed=1)
    b = 0.5
    grad = gradient(f, b)
    eps = 1e-6
    for _ in range(4):
        v = rng.standard_normal(f.u.shape) + 1j * rng.standard_normal(f.u.shape)
        up = DiscreteField(u=f.u + eps * v, grid=f.grid, wrap=f.wrap)
        dn = DiscreteField(u=f.u - eps * v, grid=f.grid, wrap=f.wrap)
        fd = (energy(up, b).total - energy(dn, b).total) / (2 * eps)
        an = float(np.sum(grad.real * v.real + grad.imag * v.imag))
        assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an), 1.0)


def test_gradient_seam_terms():
    # perturb a single seam site and compare against the analytic gradient
    f = make_field(seed=2)
    b = 0.3
    grad = gradient(f, b)
    eps = 1e-5
    for site in ((0, 5), (f.grid.n - 1, 7), (4, 0), (6, f.grid.n - 1)):
        for direction in (1.0, 1.0j):
            v = np.zeros_like(f.u)
            v[site] = direction
            up = DiscreteField(u=f.u + eps * v, grid=f.grid, wrap=f.wrap)
            dn = DiscreteField(u=f.u - eps * v, grid=f.grid, wrap=f.wrap)
            fd = (energy(up, b).total - energy(dn, b).total) / (2 * eps)
            an = float(np.sum(grad.real * v.real + grad.imag * v.imag))
            assert abs(fd - an) < 1e-6


def test_density_moments_uniform():
    f = make_field(kind="ones")
    m2, m4, mpot = density_moments(f)
    assert abs(m2 - 1.0) < 1e-12
    assert abs(m4 - 1.0) < 1e-12
    assert abs(mpot) < 1e-12


def test_covariant_difference_gauge_covariance():
    # multiplying u by a global constant phase rotates the differences
    f = make_field(seed=3)
    dx, dy = covariant_differences(f)
    rot = DiscreteField(u=np.exp(0.7j) * f.u, grid=f.grid, wrap=f.wrap)
    dx2, dy2 = covariant_differences(rot)
    assert np.max(np.abs(dx2 - np.exp(0.7j) * dx)) < 1e-12
    assert np.max(np.abs(dy2 - np.exp(0.7j) * dy)) < 1e-12


@settings(max_examples=30, derandomize=True, deadline=None)
@given(N=st.sampled_from([1, 4]), twisted=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_gauge_covariance(gauged_operator, N, twisted, seed):
    # for unit-modulus phi, the operator on the links conj(phi(x)) c(x) phi(x + h e)
    # maps conj(phi) u to conj(phi) D u; energy is invariant and the gradient
    # maps by conj(phi)
    b, n = 0.9, 48
    f = make_field(b=b, N=N, n=n, seed=seed, twist=TWIST if twisted else (0.0, 0.0))
    rng = np.random.default_rng(seed)
    phi = np.exp(2j * np.pi * rng.random((n, n)))
    op = CellOperator(f.grid, f.wrap)
    gauged = gauged_operator(f.grid, f.wrap, phi)
    w = np.conjugate(phi) * f.u
    dx, dy = op.D(f.u)
    gx, gy = gauged.D(w)
    scale = np.max(np.abs(f.u))
    assert np.max(np.abs(gx - np.conjugate(phi) * dx)) <= 1e-13 * scale
    assert np.max(np.abs(gy - np.conjugate(phi) * dy)) <= 1e-13 * scale

    def evaluate(o, v):
        grad = np.empty_like(v)
        val = energy_and_gradient(o, v, b, grad, np.empty((2,) + v.shape), np.empty_like(v))
        return val, grad

    val, grad = evaluate(op, f.u)
    gval, ggrad = evaluate(gauged, w)
    assert abs(gval - val) <= 1e-13 * max(abs(val), 1.0)
    assert np.max(np.abs(ggrad - np.conjugate(phi) * grad)) <= 1e-13 * np.max(np.abs(grad))
    # the gauged operator is built, not cached: the field keeps the cell's own
    assert f.operator() is not gauged and np.array_equal(f.operator().links, op.links)


@pytest.mark.parametrize("N", [1, 4])
@pytest.mark.parametrize("twisted", [False, True])
def test_stencil_kernels_match_reference(reference_operator, N, twisted):
    # the broadcast kernels against full (n, n) link arrays: the stencil
    # gradient is 2b Dt D u - 2h^2 c0 u, the in-loop energy is energy(), and
    # |D d|^2 one axis at a time is |D d|^2 from D
    b, n = 0.9, 48
    rng = np.random.default_rng(N)
    f = make_field(b=b, N=N, n=n, seed=N, twist=TWIST if twisted else (0.0, 0.0))
    f.u = np.exp(1j * np.angle(f.u)) * (1.0 - 0.3 * rng.random((n, n)))  # |u| near 1
    op, ref = f.operator(), reference_operator(f.grid, f.wrap)
    grad, planes, work = np.empty_like(f.u), np.empty((2, n, n)), np.empty_like(f.u)
    evals = op.evaluations
    val = energy_and_gradient(op, f.u, b, grad, planes, work)
    assert op.evaluations - evals == 2  # one D and one adjoint
    c0 = 1.0 - abs2(f.u)
    want = 2.0 * b * ref.Dt(*ref.D(f.u)) - 2.0 * f.grid.h**2 * c0 * f.u
    assert np.max(np.abs(grad - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(planes[0], c0)
    e = energy(f, b).total
    assert abs(val - e) <= 1e-12 * abs(e)
    d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dx, dy = op.D(d)
    assert op.D_norm2(d, work) == redot(dx, dx) + redot(dy, dy)
    rx, ry = ref.D(d)
    want = redot(rx, rx) + redot(ry, ry)
    assert abs(op.D_norm2(d, work) - want) <= 1e-13 * want


def test_gradient_of_real_samples():
    # a field may hold real samples; its gradient is that of the complex field
    f = make_field(b=0.9, N=4, n=48)
    real = DiscreteField(u=f.u.real.copy(), grid=f.grid, wrap=f.wrap)
    complex_ = DiscreteField(u=real.u.astype(complex), grid=f.grid, wrap=f.wrap)
    assert np.array_equal(gradient(real, 0.9), gradient(complex_, 0.9))


def test_operator_holds_only_link_vectors():
    # the connection is kept as per-axis vectors: no array of the operator
    # has more than n elements, whatever it has been applied to
    f = make_field(b=0.9, N=4, n=48, twist=TWIST)
    op = f.operator()
    gradient(f, 0.9)
    op.D_norm2(f.u, np.empty_like(f.u))

    def leaves(v):
        return [a for item in v for a in leaves(item)] if isinstance(v, tuple) else [v]

    arrays = [a for v in vars(op).values() for a in leaves(v) if isinstance(a, np.ndarray)]
    assert len(arrays) == 8 and max(a.size for a in arrays) <= f.grid.n


def test_field_must_match_its_grid():
    # a wrong wrap rule would silently change the energy (the trial state at
    # b = 0.5 has G = -0.437 on its N=4, n=64 grid and 114.38 with a
    # WrapRule(n=64, N=2)), and a wrong shape would fail deep inside D
    g = build_grid(CellConfig(b=0.5, N=4, n=64))
    u = np.ones((64, 64), dtype=complex)
    with pytest.raises(ConfigError, match=r"wrap rule has n=64, N=2; the grid has n=64, N=4"):
        DiscreteField(u=u, grid=g, wrap=WrapRule(n=64, N=2))
    with pytest.raises(ConfigError, match=r"wrap rule has n=32, N=4"):
        DiscreteField(u=u, grid=g, wrap=WrapRule(n=32, N=4))
    with pytest.raises(ConfigError, match=r"shape \(32, 32\); the grid needs \(64, 64\)"):
        DiscreteField(u=u[:32, :32], grid=g, wrap=WrapRule(n=64, N=4))
    f = DiscreteField(u=u, grid=g, wrap=WrapRule(n=64, N=4, alpha=0.3))
    with pytest.raises(ConfigError, match="shape"):
        dataclasses.replace(f, u=u[:, :63])


def reference_differences(f):
    """D u from the magnetic-periodic extension (wrap_value) and the link phases."""
    theta_x, theta_y = link_phases(f.grid)
    i = np.arange(f.grid.n)[:, None]
    j = np.arange(f.grid.n)[None, :]
    dx = wrap_value(f.u, f.wrap, i + 1, j) * np.exp(-1j * theta_x) - f.u
    dy = wrap_value(f.u, f.wrap, i, j + 1) * np.exp(-1j * theta_y) - f.u
    return dx, dy


def test_operator_matches_reference_at_twisted_wrap():
    f = make_field(b=0.9, N=2, seed=4, twist=TWIST)
    ref_x, ref_y = reference_differences(f)
    dx, dy = f.operator().D(f.u)
    assert np.max(np.abs(dx - ref_x)) < 1e-13 and np.max(np.abs(dy - ref_y)) < 1e-13
    cx, cy = covariant_differences(f)
    assert np.array_equal(cx, dx) and np.array_equal(cy, dy)


def test_operator_adjoint():
    rng = np.random.default_rng(5)
    f = make_field(b=0.9, N=3, n=40, seed=5, twist=TWIST)
    op = f.operator()
    shape = f.u.shape
    vx, vy = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    dx, dy = op.D(f.u)
    lhs = redot(dx, vx) + redot(dy, vy)
    rhs = redot(f.u, op.Dt(vx.copy(), vy.copy()))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_line_quartic_is_exact():
    # E(u + t d) - E(u) = s t + q2 t^2 + q3 t^3 + q4 t^4 with s = Re <grad, d>
    rng = np.random.default_rng(6)
    b = 0.3
    f = make_field(b=b, N=2, n=56, seed=6, twist=TWIST)
    d = 0.4 * (rng.standard_normal(f.u.shape) + 1j * rng.standard_normal(f.u.shape))
    slope = redot(gradient(f, b), d)
    planes = np.empty((2,) + f.u.shape)
    planes[0] = 1.0 - abs2(f.u)
    q2, q3, q4 = line_quartic(f.operator(), f.u, d, planes, b, np.empty_like(f.u))
    e0 = energy(f, b).total
    for t in (-0.7, -0.05, 0.1, 0.5, 1.3):
        moved = DiscreteField(u=f.u + t * d, grid=f.grid, wrap=f.wrap)
        exact = energy(moved, b).total - e0
        quartic = slope * t + q2 * t**2 + q3 * t**3 + q4 * t**4
        assert abs(exact - quartic) <= 1e-12 * max(abs(e0), abs(exact), 1.0)


def test_replaced_wrap_never_reuses_connection():
    b = 0.5
    twisted = WrapRule(n=32, N=1, alpha=TWIST[0], beta=TWIST[1])
    f = make_field(seed=7)
    energy(f, b)  # builds and caches the untwisted operator
    fresh = make_field(seed=7, twist=TWIST)
    expected = energy(fresh, b).total
    assert energy(dataclasses.replace(f, wrap=twisted), b).total == expected
    assert energy(f.copy(), b).total == energy(make_field(seed=7), b).total
    f.wrap = twisted
    assert energy(f, b).total == expected
    assert np.array_equal(gradient(f, b), gradient(fresh, b))
    # so is a replaced grid, even one with equal values
    f.grid = build_grid(CellConfig(b=0.5, N=1, n=32))
    assert f.operator().grid is f.grid and energy(f, b).total == expected
