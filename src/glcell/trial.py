"""Periodic vortex-lattice trial state.

Construction: on the unit cell Q1 of area 2*pi, the periodic Green function
h solves Delta h = 2*pi*delta_{a1} - 1 (so h = log|x - a1| + smooth near the
pole).  The multivalued phase phi satisfies grad phi = perp-grad h + A0 and
winds by +1 around every pole.  The modulus is the cutoff
rho(x) = min(1, |x - a1|/(2 sqrt(b))), a core radius that keeps the O(b)
remainder of the energy comfortably small.
The state v = rho e^{i phi} lies in the (alpha, beta)-twisted
magnetic-periodic space; build_trial returns its gauge image
u = e^{-i(alpha x1 + beta x2)/R} v, which lies in the untwisted space with
identical energy.

Discretely the phase is built from a dual-lattice stream function whose
five-point Laplacian carries the Dirac mass on a single plaquette, so every
plaquette curl of the total connection is exactly 2*pi*(pole indicator) and
the wrap mismatches are exactly constant along each edge (alpha, beta).
This lattice solve is the only Green function here: its ring checks (log
slope, residual, Dirichlet energy) are in the tests.

Each stage holds its inputs, its result and at most one full-size scratch
array (phi reuses a link field's buffer, chi the gauge factor's imaginary
plane), and every value rounds as in the whole-array formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import DiscreteField
from .grid import CellConfig, Grid, WrapRule, check_b, check_number, link_phases

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


def _dual_stream_function(m: int, hc: float) -> np.ndarray:
    """Stream function on plaquette centers: 5-point Delta H = 2*pi/hc^2 * 1_pole - 1.

    The pole plaquette is the one whose lower-left corner is the cell center,
    i.e. the phase singularity sits half a grid cell off the sample sites.
    """
    rhs = -np.ones((m, m))
    rhs[m // 2, m // 2] += TWO_PI / hc**2
    lam = -4.0 * np.sin(math.pi * np.fft.fftfreq(m)[:, None]) ** 2 \
          - 4.0 * np.sin(math.pi * np.fft.fftfreq(m)[None, :]) ** 2
    lam = lam / hc**2
    lam[0, 0] = 1.0
    spec = np.fft.fft2(rhs) / lam
    spec[0, 0] = 0.0
    return np.real(np.fft.ifft2(spec))


def build_phase(grid: Grid, N: int) -> PhaseField:
    """Phase with grad phi = perp-grad h + A0, integrated along a comb tree."""
    n = grid.n
    k = int(round(math.sqrt(N)))
    if k * k != N:
        raise TrialError(f"trial requires square N, got N={N}")
    if n % k:
        raise TrialError(f"n={n} must be divisible by sqrt(N)={k}")
    m = n // k
    if m % 2:
        raise TrialError(f"samples per cell side must be even, got {m}")

    # perp-grad part: x-link between plaquettes below/above, y-link left/right,
    # differenced on one cell's stream function and tiled over the N cells
    H = _dual_stream_function(m, grid.h)
    theta_x, theta_y = link_phases(grid)
    omega_x = np.empty((n, n))
    omega_x.reshape(k, m, k, m)[...] = -(H - np.roll(H, 1, axis=1))[:, None]
    omega_x += theta_x
    omega_y = np.empty((n, n))
    omega_y.reshape(k, m, k, m)[...] = (H - np.roll(H, 1, axis=0))[:, None]
    omega_y += theta_y
    hol_x = np.sum(omega_x, axis=0)           # (n,) holonomy per height j
    hol_y = np.sum(omega_y, axis=1)           # (n,) per column i

    # comb spanning tree: along row j=0, then up each column; phi takes
    # omega_x's buffer
    row0 = np.concatenate(([0.0], np.cumsum(omega_x[:-1, 0])))
    phi = omega_x
    np.cumsum(omega_y[:, :-1], axis=1, out=phi[:, 1:])
    phi[:, 1:] += row0[:, None]
    phi[:, 0] = row0

    # wrap mismatches: holonomy minus the magnetic wrap phase must be a
    # constant (mod 2*pi) along each edge
    mis_x = _wrap_pi(hol_x - grid.R * grid.x2 / 2.0)
    mis_y = _wrap_pi(hol_y + grid.R * grid.x1 / 2.0)
    alpha = float(np.angle(np.mean(np.exp(1j * mis_x))))
    beta = float(np.angle(np.mean(np.exp(1j * mis_y))))
    alpha_spread = float(np.max(np.abs(_wrap_pi(mis_x - alpha))))
    beta_spread = float(np.max(np.abs(_wrap_pi(mis_y - beta))))

    centers = m // 2 + m * np.arange(k)
    poles = np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1).reshape(-1, 2)
    return PhaseField(
        phi=phi,
        alpha=alpha,
        beta=beta,
        alpha_spread=alpha_spread,
        beta_spread=beta_spread,
        pole_sites=poles,
    )


def cutoff_profile(grid: Grid, N: int, core_radius: float) -> np.ndarray:
    """rho(x) = min(1, dist(x, nearest cell center)/core_radius) at the sites."""
    k = int(round(math.sqrt(N)))
    m = grid.n // k
    # distance to the center of the cell containing each site
    local = (np.arange(grid.n) % m) - m // 2
    d = grid.h * local
    r = np.hypot(d[:, None], d[None, :])
    r /= core_radius
    return np.minimum(r, 1.0, out=r)


def build_trial(b: float, N: int, grid: Grid) -> DiscreteField:
    """Gauged vortex-lattice trial state u in the untwisted magnetic-periodic space."""
    phase = build_phase(grid, N)
    u = np.zeros((grid.n, grid.n), np.complex128)
    u.imag = phase.phi
    np.exp(u, out=u)
    np.multiply(cutoff_profile(grid, N, 2.0 * math.sqrt(b)), u, out=u)
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
    k = int(round(math.sqrt(N)))
    if k * k != N:
        raise TrialError(f"trial requires square N, got N={N}")
    m = int(math.ceil(CELL_SIDE * samples_per_core / math.sqrt(b)))
    m += m % 2
    m = max(m, 32)
    return CellConfig(b=b, N=N, n=k * m, **kw)
