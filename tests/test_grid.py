import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glcell.grid import (
    TWO_PI,
    CellConfig,
    ConfigError,
    WrapRule,
    build_grid,
    connection,
    link_phases,
    wrap_value,
)


def test_config_validation():
    cfg = CellConfig(b=0.5, N=1, n=32)
    assert abs(cfg.R**2 - TWO_PI) < 1e-12
    with pytest.raises(ConfigError, match="b out of range"):
        CellConfig(b=1.5, N=1, n=32)
    with pytest.raises(ConfigError, match="b out of range"):
        CellConfig(b=0.0, N=1, n=32)
    with pytest.raises(ConfigError, match="grid too coarse"):
        CellConfig(b=0.01, N=16, n=64)
    with pytest.raises(ConfigError):
        CellConfig(b=0.5, N=1, n=8)


def test_grid_coords():
    g = build_grid(CellConfig(b=0.5, N=4, n=64))
    assert g.x1[0] == -g.R / 2
    assert abs(g.x1[1] - g.x1[0] - g.h) < 1e-15
    # the cell is half-open: the last site is one spacing short of R/2
    assert abs(g.x1[-1] - (g.R / 2 - g.h)) < 1e-12


def test_plaquette_fluxes_exact(reference_operator):
    # every plaquette of the solver's connection, seams and twists included,
    # has holonomy h^2 mod 2 pi
    for N, twist in ((1, (0.0, 0.0)), (4, (0.0, 0.0)), (4, (0.3, -1.1))):
        g = build_grid(CellConfig(b=0.5, N=N, n=96))
        wrap = WrapRule(n=g.n, N=N, alpha=twist[0], beta=twist[1])
        op = reference_operator(g, wrap)  # the solver's link vectors, as (n, n) arrays
        cx, cy = op.cx, op.cy
        # c = exp(-i phi): the counterclockwise transport is conj of the product
        hol = cx * np.roll(cy, -1, axis=0) * np.conj(np.roll(cx, -1, axis=1) * cy)
        F = -np.angle(hol)
        assert np.max(np.abs(F - g.h**2)) < 1e-12
        assert abs(math.fsum(F.ravel()) - TWO_PI * N) < 1e-10


def test_wrap_factors_match_continuum_phases():
    g = build_grid(CellConfig(b=0.5, N=3, n=64))
    wrap = WrapRule(n=g.n, N=3)
    idx = np.arange(g.n)
    bx, by = wrap.ghost_factors(g.n, idx), wrap.ghost_factors(idx, g.n)
    assert np.max(np.abs(bx - np.exp(1j * g.R * g.x2 / 2))) < 1e-12
    assert np.max(np.abs(by - np.exp(-1j * g.R * g.x1 / 2))) < 1e-12


def test_wrap_orders_commute_exactly():
    # reducing x-then-y and y-then-x must give the same ghost value bit for
    # bit; both orders go through the same numpy array product
    rng = np.random.default_rng(7)
    for N in (1, 2, 5):
        n = 32
        wrap = WrapRule(n=n, N=N)
        u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        i = rng.integers(-3 * n, 3 * n, 100)
        j = rng.integers(-3 * n, 3 * n, 100)
        p, i0 = np.divmod(i, n)
        q, j0 = np.divmod(j, n)
        units_yx = (-q * N * (2 * i - n) + p * N * (2 * j0 - n)) % (4 * n)
        other = np.exp(1j * (math.pi * units_yx / (2 * n))) * u[i0, j0]
        assert np.array_equal(wrap_value(u, wrap, i, j), other)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(16, 96), st.sampled_from([1, 4, 9]), st.integers(-3, 2), st.integers(-3, 2),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True),
       st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
def test_wrap_cocycle_commutes(n, N, p, q, fi, fj, alpha, beta):
    # one period in x then one in y, each by the continuum rule at the
    # unreduced position (crossing x multiplies by exp(i(R x2/2 + alpha)),
    # crossing y by exp(i(-R x1/2 + beta))), reaches the factor of the other
    # order because R^2 = 2 pi N, and the ghost rule gives the same factor
    # from (i, j) to (i + n, j + n); (i, j) lie within three periods of the
    # cell, where the continuum phases stay small enough for 1e-13
    i, j = p * n + int(fi * n), q * n + int(fj * n)
    R = math.sqrt(TWO_PI * N)
    h = R / n

    def step_x(j):
        return np.exp(1j * (R * (-R / 2 + j * h) / 2 + alpha))

    def step_y(i):
        return np.exp(1j * (-R * (-R / 2 + i * h) / 2 + beta))

    x_then_y = step_x(j) * step_y(i + n)
    y_then_x = step_y(i) * step_x(j + n)
    assert abs(x_then_y - y_then_x) < 1e-13
    wrap = WrapRule(n=n, N=N, alpha=alpha, beta=beta)
    rule = wrap.ghost_factors(i + n, j + n) * np.conj(wrap.ghost_factors(i, j))
    assert abs(rule - x_then_y) < 1e-13


def test_wrap_identity_inside_cell():
    n = 32
    g = build_grid(CellConfig(b=0.9, N=2, n=n))
    wrap = WrapRule(n=n, N=2)
    u = np.arange(n * n, dtype=complex).reshape(n, n)
    assert wrap_value(u, wrap, 3, 5) == u[3, 5]
    assert np.array_equal(wrap_value(u, wrap, np.arange(n)[:, None], np.arange(n)), u)
    # one full period in x multiplies by the continuum phase exp(i R x2 / 2)
    val = wrap_value(u, wrap, 3 + n, 5)
    assert abs(val - np.exp(0.5j * g.R * g.x2[5]) * u[3, 5]) < 1e-12


def test_twisted_wrap_adds_constant_phase():
    n, N = 32, 1
    alpha, beta = 0.3, -1.1
    plain = WrapRule(n=n, N=N)
    twisted = WrapRule(n=n, N=N, alpha=alpha, beta=beta)
    j = np.arange(n)
    ratio = twisted.ghost_factors(n, j) / plain.ghost_factors(n, j)
    assert np.max(np.abs(ratio - np.exp(1j * alpha))) < 1e-12
    ratio = twisted.ghost_factors(j, n) / plain.ghost_factors(j, n)
    assert np.max(np.abs(ratio - np.exp(1j * beta))) < 1e-12


@pytest.mark.parametrize("b, N, n, twist", [(0.5, 1, 32, (0.0, 0.0)), (0.9, 3, 40, (0.3, -0.7)),
                                            (0.04, 4, 204, (0.0, 0.0))])
def test_connection_matches_elementwise_reference(b, N, n, twist):
    # the n distinct phases per axis, exponentiated and broadcast, give the
    # same bits as exponentiating every link phase of the (n, n) grid
    g = build_grid(CellConfig(b=b, N=N, n=n))
    wrap = WrapRule(n=n, N=N, alpha=twist[0], beta=twist[1])
    theta_x, theta_y = link_phases(g)
    idx = np.arange(n)
    ref_x = np.exp(-1j * np.array(theta_x))
    ref_x[-1, :] *= wrap.ghost_factors(n, idx)
    ref_y = np.exp(-1j * np.array(theta_y))
    ref_y[:, -1] *= wrap.ghost_factors(idx, n)
    x, x_seam, y, y_seam = connection(g, wrap)
    cx = np.broadcast_to(x, (n, n)).copy()
    cx[-1] = x_seam
    cy = np.broadcast_to(y[:, None], (n, n)).copy()
    cy[:, -1] = y_seam
    assert np.array_equal(cx, ref_x) and np.array_equal(cy, ref_y)
    assert all(v.shape == (n,) and v.flags.writeable for v in (x, x_seam, y, y_seam))
