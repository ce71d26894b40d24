"""Periodic vortex-lattice trial state.

Construction: on the cell of area 2*pi*N, the periodic Green function h of a
pole set solves Delta h = 2*pi*sum_p delta_p - 1 (so h = log|x - p| + smooth
near each pole p).  The multivalued phase phi satisfies grad phi = perp-grad
h + A0 and winds by +1 around every pole.  The modulus is the cutoff
rho(x) = min(1, |x - p|/(2 sqrt(b))) at the nearest pole p, a core radius
that keeps the O(b) remainder of the energy comfortably small.  The state
v = rho e^{i phi} lies in the (alpha, beta)-twisted magnetic-periodic space;
build_trial returns its gauge image u = e^{-i(alpha x1 + beta x2)/R} v, which
lies in the untwisted space with identical energy, for the square pole set.

Discretely h is one real-FFT solve on the plaquettes of the whole torus: a
stream function whose five-point Laplacian carries each Dirac mass on the
plaquette with the pole's site as its lower-left corner, so every plaquette
curl of the total connection is exactly 2*pi*(pole count) and the wrap
mismatches are exactly constant along each edge (alpha, beta).  This lattice
solve is the only Green function here: its ring checks (log slope, residual,
Dirichlet energy) are in the tests.  The cutoff is set only in a window of
2 sqrt(b)/h sites around each pole.  Each stage holds its inputs, its result
and at most one full-size scratch array (phi reuses a link field's buffer,
chi the gauge factor's imaginary plane), and every value rounds as in the
whole-array formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import DiscreteField
from .grid import CellConfig, ConfigError, Grid, WrapRule, check_b, check_number, link_phases

TWO_PI = 2.0 * math.pi
CELL_SIDE = math.sqrt(TWO_PI)  # side of the unit cell Q1, |Q1| = 2*pi


class TrialError(ValueError):
    pass


@dataclass(frozen=True)
class PhaseField:
    """Single-valued representative of the multivalued trial phase."""

    phi: np.ndarray = field(repr=False)      # (n, n) phase at sites
    alpha: float = 0.0
    beta: float = 0.0
    alpha_spread: float = 0.0   # max deviation of the x-edge mismatch from alpha
    beta_spread: float = 0.0
    pole_sites: np.ndarray = field(default=None, repr=False)  # (N, 2) site indices


def _wrap_pi(x):
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


def _stream_function(grid: Grid, poles: np.ndarray) -> np.ndarray:
    """5-point Delta H = 2*pi/h^2 * sum_p 1_p - 1 on the plaquettes of the
    torus, plaquette (i, j) having site (i, j) as its lower-left corner; the
    right-hand side is freed before the inverse transform."""
    n, h = grid.n, grid.h
    rhs = np.full((n, n), -1.0)
    np.add.at(rhs, (poles[:, 0], poles[:, 1]), TWO_PI / h**2)
    spec = np.fft.rfft2(rhs)
    del rhs
    lam = -4.0 * np.sin(math.pi * np.fft.fftfreq(n)[:, None]) ** 2 \
          - 4.0 * np.sin(math.pi * np.fft.rfftfreq(n)[None, :]) ** 2
    lam /= h**2
    lam[0, 0] = 1.0
    spec /= lam
    spec[0, 0] = 0.0
    return np.fft.irfft2(spec, s=(n, n))


def build_phase(grid: Grid, poles) -> PhaseField:
    """Phase with grad phi = perp-grad h + A0, integrated along a comb tree,
    for the (N, 2) site indices of the poles, one per flux quantum."""
    poles = np.asarray(poles) % grid.n
    if poles.shape != (grid.N, 2):
        raise TrialError(f"need N={grid.N} pole sites as an (N, 2) array, got shape {poles.shape}")
    H = _stream_function(grid, poles)

    # perp-grad part: x-link between plaquettes below/above, y-link left/right
    theta_x, theta_y = link_phases(grid)
    omega_x = np.diff(H, axis=1, prepend=H[:, -1:])
    np.subtract(theta_x, omega_x, out=omega_x)
    omega_y = np.diff(H, axis=0, prepend=H[-1:])
    del H
    omega_y += theta_y

    # wrap mismatches: holonomy minus the magnetic wrap phase must be a
    # constant (mod 2*pi) along each edge
    mis_x = _wrap_pi(np.sum(omega_x, axis=0) - grid.R * grid.x2 / 2.0)  # per height j
    mis_y = _wrap_pi(np.sum(omega_y, axis=1) + grid.R * grid.x1 / 2.0)  # per column i
    alpha = float(np.angle(np.mean(np.exp(1j * mis_x))))
    beta = float(np.angle(np.mean(np.exp(1j * mis_y))))

    # comb spanning tree: along row j=0, then up each column; phi takes
    # omega_x's buffer
    row0 = np.concatenate(([0.0], np.cumsum(omega_x[:-1, 0])))
    phi = omega_x
    np.cumsum(omega_y[:, :-1], axis=1, out=phi[:, 1:])
    phi[:, 1:] += row0[:, None]
    phi[:, 0] = row0
    return PhaseField(phi=phi, alpha=alpha, beta=beta,
                      alpha_spread=float(np.max(np.abs(_wrap_pi(mis_x - alpha)))),
                      beta_spread=float(np.max(np.abs(_wrap_pi(mis_y - beta)))), pole_sites=poles)


def _square_poles(n: int, N: int) -> np.ndarray:
    """The square pole set: the center site m/2 + m*a of each of the
    sqrt(N) x sqrt(N) cells of side m = n/sqrt(N)."""
    k = math.isqrt(N)
    if k * k != N:
        raise TrialError(f"trial requires square N, got N={N}")
    if n % k:
        raise TrialError(f"n={n} must be divisible by sqrt(N)={k}")
    m = n // k
    centers = m // 2 + m * np.arange(k)
    return np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1).reshape(-1, 2)


def cutoff_profile(grid: Grid, poles: np.ndarray, core_radius: float) -> np.ndarray:
    """rho(x) = min(1, dist(x, nearest pole site)/core_radius) at the sites,
    set only in the window of sites within core_radius of each pole."""
    w = min(math.ceil(core_radius / grid.h), grid.n // 2)
    offsets = np.arange(-w, w + 1)
    r = np.hypot(grid.h * offsets[:, None], grid.h * offsets[None, :]) / core_radius
    rho = np.ones((grid.n, grid.n))
    for i, j in poles:
        window = np.ix_((i + offsets) % grid.n, (j + offsets) % grid.n)
        rho[window] = np.minimum(rho[window], r)
    return rho


def build_trial(b: float, N: int, grid: Grid) -> DiscreteField:
    """Gauged vortex-lattice trial state u in the untwisted magnetic-periodic
    space, on the square pole set."""
    phase = build_phase(grid, _square_poles(grid.n, N))
    u = np.zeros((grid.n, grid.n), np.complex128)
    u.imag = phase.phi
    np.exp(u, out=u)
    np.multiply(cutoff_profile(grid, phase.pole_sites, 2.0 * math.sqrt(b)), u, out=u)
    u[phase.pole_sites[:, 0], phase.pole_sites[:, 1]] = 0.0  # rho = 0 at the poles
    alpha, beta = phase.alpha, phase.beta
    del phase
    e = np.zeros_like(u)  # the gauge factor e^{i chi}, chi formed in its imaginary plane
    chi = e.imag
    np.add(alpha * grid.x1[:, None], beta * grid.x2[None, :], out=chi)
    np.negative(chi, out=chi)
    chi /= grid.R
    np.exp(e, out=e)
    # e * u, not u * e: numpy's complex product rounds by operand order
    return DiscreteField(u=np.multiply(e, u, out=e), grid=grid, wrap=WrapRule(n=grid.n, N=N))


def predicted_density(b: float) -> float:
    """Leading upper-bound density b*|log sqrt(b)| - 1/2."""
    return b * abs(math.log(math.sqrt(b))) - 0.5


def trial_config(b: float, N: int, samples_per_core: int = 8, **kw) -> CellConfig:
    """CellConfig resolving the core with an even per-cell sample count."""
    check_b(b)
    check_number("N", N, integral=True)
    check_number("samples_per_core", samples_per_core, integral=True)
    if samples_per_core < 1:
        raise ConfigError(f"samples_per_core must be >= 1, got {samples_per_core}")
    k = int(round(math.sqrt(N)))
    if k * k != N:
        raise TrialError(f"trial requires square N, got N={N}")
    m = int(math.ceil(CELL_SIDE * samples_per_core / math.sqrt(b)))
    m = max(m + m % 2, 32)
    return CellConfig(b=b, N=N, n=k * m, **kw)
