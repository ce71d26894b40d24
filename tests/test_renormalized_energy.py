"""The lattice term of the trial energy against its closed form.

At small b a vortex lattice of shape tau enters the cell energy at order b
through Sandier and Serfaty's renormalized energy W (Comm. Math. Phys. 313,
2012), which for a lattice of unit covolume is, up to a constant,
f(tau) = -log(sqrt(Im tau) |eta(tau)|^2), Dedekind's eta by the Kronecker
limit formula.  The cell's lattice-dependent energy is 2*pi*b*N*f(tau), so
two pole sets of one cell differ in energy by 2*pi*b*N*(f(tau1) - f(tau2)).
"""

import cmath
import math

import numpy as np
import pytest

from glcell.energy import DiscreteField, energy
from glcell.grid import CellConfig, WrapRule, build_grid
from glcell.trial import _square_poles, build_phase, cutoff_profile


def f_raw(tau: complex, terms: int = 400) -> float:
    """-log(sqrt(Im tau) |eta(tau)|^2) from the product
    eta = q^(1/24) prod (1 - q^k), q = e^(2 pi i tau), at tau as given."""
    q = cmath.exp(2j * math.pi * tau)
    log_eta = -math.pi * tau.imag / 12.0 + sum(math.log(abs(1.0 - q**k)) for k in range(1, terms))
    return -0.5 * math.log(tau.imag) - 2.0 * log_eta


def f(tau: complex) -> float:
    """f at tau reduced to the fundamental domain, where the product
    converges in a few terms (|q| <= e^(-pi sqrt 3))."""
    while True:
        tau -= round(tau.real)
        if abs(tau) >= 1.0:
            return f_raw(tau, terms=20)
        tau = -1.0 / tau


TAUS = [0.2 + 0.9j, -0.45 + 0.7j, 0.1 + 1.3j, 3.3 + 0.2j]


def test_eta_at_i_is_closed_form():
    eta_i = math.exp(-0.5 * f(1j))
    assert abs(eta_i - math.gamma(0.25) / (2.0 * math.pi**0.75)) < 1e-12


@pytest.mark.parametrize("tau", TAUS)
def test_f_is_modular_invariant(tau):
    # the product, unreduced, is invariant under tau -> tau + 1 and
    # tau -> -1/tau; the reduction agrees with it
    assert abs(f_raw(tau + 1) - f_raw(tau)) < 1e-12
    assert abs(f_raw(-1.0 / tau) - f_raw(tau)) < 1e-12
    assert abs(f(tau) - f_raw(tau)) < 1e-12


def test_f_at_the_square_rhombic_and_triangular_lattices():
    assert abs(f(1j) - 0.527344) < 1e-6
    assert abs(f(0.5 + 1j) - 0.519874) < 1e-6
    assert abs(f(cmath.exp(1j * math.pi / 3)) - 0.516760) < 1e-6


def trial_energy(b, grid, poles):
    """(energy, phase) of rho e^{i phi} on a pole set, gauged to the untwisted space."""
    phase = build_phase(grid, poles)
    poles = phase.pole_sites  # wrapped onto the torus
    chi = -(phase.alpha * grid.x1[:, None] + phase.beta * grid.x2[None, :]) / grid.R
    u = np.exp(1j * chi) * cutoff_profile(grid, poles, 2.0 * math.sqrt(b)) * np.exp(1j * phase.phi)
    u[poles[:, 0], poles[:, 1]] = 0.0
    return energy(DiscreteField(u=u, grid=grid, wrap=WrapRule(n=grid.n, N=grid.N)), b).total, phase


def sheared(poles, m, shifts):
    """The pole set with the rows of poles at the a-th x1 position moved
    along x2 by shifts[a % 2] sites."""
    out = poles.copy()
    out[:, 1] += np.where((poles[:, 0] // m) % 2, shifts[1], shifts[0])
    return out


@pytest.mark.parametrize("b, n", [(0.05, 184), (0.02, 288)])
def test_trial_gap_square_to_rhombic(b, n):
    # N = 4: the symmetric shear by -m/4 and +m/4 turns the square lattice
    # (tau = i) into the rhombic one (tau = 1/2 + i) with the square's twist
    N, m = 4, n // 2
    assert m % 4 == 0
    g = build_grid(CellConfig(b=b, N=N, n=n))
    square = _square_poles(n, N)
    e_square, p_square = trial_energy(b, g, square)
    e_shear, p_shear = trial_energy(b, g, sheared(square, m, (-m // 4, m // 4)))
    assert max(p_shear.alpha_spread, p_shear.beta_spread) < 1e-9
    assert abs(p_shear.alpha - p_square.alpha) < 1e-12
    assert abs(p_shear.beta - p_square.beta) < 1e-12
    predicted = 2.0 * math.pi * (f(1j) - f(0.5 + 1j))
    assert abs(predicted - 0.046934) < 1e-6
    assert abs((e_square - e_shear) / (b * N) - predicted) < 0.005 * predicted
    # a one-sided half-spacing shift is the same lattice with a wrap twist
    # about pi off the square's (alpha = 3.07 at b = 0.05), which the gauge
    # removes with a uniform current that costs energy: its gap reads -2.245
    e_one, p_one = trial_energy(b, g, sheared(square, m, (0, m // 2)))
    assert abs(p_one.alpha - p_square.alpha) > 3.0
    assert (e_square - e_one) / (b * N) < -2.0
