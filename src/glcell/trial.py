"""Periodic vortex-lattice trial state.

Construction: on the unit cell Q1 of area 2*pi, the periodic Green function
h solves Delta h = 2*pi*delta_{a1} - 1 (so h = log|x - a1| + smooth near the
pole).  The multivalued phase phi satisfies grad phi = perp-grad h + A0 and
winds by +1 around every pole.  The modulus is the cutoff
rho(x) = min(1, |x - a1|/core_radius); the default core_radius = 2*sqrt(b)
keeps the O(b) remainder of the energy comfortably small.
The state v = rho e^{i phi} lies in the (alpha, beta)-twisted
magnetic-periodic space; build_trial returns its gauge image
u = e^{-i(alpha x1 + beta x2)/R} v, which lies in the untwisted space with
identical energy.

Discretely the phase is built from a dual-lattice stream function whose
five-point Laplacian carries the Dirac mass on a single plaquette, so every
plaquette curl of the total connection is exactly 2*pi*(pole indicator) and
the wrap mismatches are exactly constant along each edge (alpha, beta).
The spectral CellGreen solve of the continuum problem is not needed for the
state; it serves the ring checks of the Green function's log singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import DiscreteField
from .grid import CellConfig, Grid, WrapRule, link_phases

TWO_PI = 2.0 * math.pi
CELL_SIDE = math.sqrt(TWO_PI)  # side of the unit cell Q1, |Q1| = 2*pi


class TrialError(ValueError):
    pass


@dataclass(frozen=True)
class CellGreen:
    """Periodic Green function h on Q1: Delta h = 2*pi*delta - 1, mean zero."""

    m: int                       # samples per side
    hc: float                    # spacing CELL_SIDE / m
    values: np.ndarray = field(repr=False)       # (m, m) h at sites
    spectrum: np.ndarray = field(repr=False)     # (m, m) complex FFT coefficients
    pole_index: tuple[int, int] = (0, 0)         # site index of a1 (cell center)

    def coords(self) -> np.ndarray:
        return -CELL_SIDE / 2 + self.hc * np.arange(self.m)


def solve_cell_green(resolution: int) -> CellGreen:
    """Spectral solution of Delta h = 2*pi*delta_{a1} - 1 on the periodic cell."""
    m = resolution
    if m < 32 or m % 2:
        raise TrialError(f"resolution must be even and >= 32, got {m}")
    hc = CELL_SIDE / m
    # Dirac mass as a single site of weight 2*pi/hc^2: the RHS then has
    # exactly zero total integral, 2*pi - |Q1| = 0.
    rhs = -np.ones((m, m))
    p = m // 2
    rhs[p, p] += TWO_PI / hc**2
    k = TWO_PI * np.fft.fftfreq(m, d=hc)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    k2[0, 0] = 1.0
    spec = np.fft.fft2(rhs) / (-k2)
    spec[0, 0] = 0.0  # zero mode: mean(h) = 0
    h = np.real(np.fft.ifft2(spec))
    return CellGreen(m=m, hc=hc, values=h, spectrum=spec, pole_index=(p, p))


def ring_log_slope(green: CellGreen, r_lo: float, r_hi: float) -> float:
    """Least-squares slope of h against log|x - a1| on sites with r in [r_lo, r_hi]."""
    y = green.coords()
    r = np.hypot(y[:, None], y[None, :])
    mask = (r >= r_lo) & (r <= r_hi)
    logr = np.log(r[mask])
    hv = green.values[mask]
    A = np.stack([logr, np.ones_like(logr)], axis=1)
    slope, _ = np.linalg.lstsq(A, hv, rcond=None)[0]
    return float(slope)


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

    H = _dual_stream_function(m, grid.h)
    H = np.tile(H, (k, k))  # periodic tiling over the N cells

    # perp-grad part: x-link between plaquettes below/above, y-link left/right
    cx = -(H - np.roll(H, 1, axis=1))
    cy = H - np.roll(H, 1, axis=0)
    theta_x, theta_y = link_phases(grid)
    omega_x = cx + theta_x
    omega_y = cy + theta_y

    # comb spanning tree: along row j=0, then up each column
    phi = np.empty((n, n))
    row0 = np.concatenate(([0.0], np.cumsum(omega_x[:-1, 0])))
    phi[:, 0] = row0
    phi[:, 1:] = row0[:, None] + np.cumsum(omega_y[:, :-1], axis=1)

    # wrap mismatches: holonomy minus the magnetic wrap phase must be a
    # constant (mod 2*pi) along each edge
    hol_x = np.sum(omega_x, axis=0)           # (n,) per height j
    hol_y = np.sum(omega_y, axis=1)           # (n,) per column i
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
    return np.minimum(1.0, r / core_radius)


def build_trial(
    b: float, N: int, grid: Grid, core_radius: float | None = None
) -> DiscreteField:
    """Gauged vortex-lattice trial state u in the untwisted magnetic-periodic space."""
    if core_radius is None:
        core_radius = 2.0 * math.sqrt(b)
    phase = build_phase(grid, N)
    rho = cutoff_profile(grid, N, core_radius)
    v = rho * np.exp(1j * phase.phi)
    v[phase.pole_sites[:, 0], phase.pole_sites[:, 1]] = 0.0  # rho = 0 at the poles
    chi = -(phase.alpha * grid.x1[:, None] + phase.beta * grid.x2[None, :]) / grid.R
    u = np.exp(1j * chi) * v
    return DiscreteField(u=u, grid=grid, wrap=WrapRule(n=grid.n, N=N))


def predicted_density(b: float) -> float:
    """Leading upper-bound density b*|log sqrt(b)| - 1/2."""
    return b * abs(math.log(math.sqrt(b))) - 0.5


def trial_config(b: float, N: int, samples_per_core: int = 8, **kw) -> CellConfig:
    """CellConfig resolving the core with an even per-cell sample count."""
    k = int(round(math.sqrt(N)))
    if k * k != N:
        raise TrialError(f"trial requires square N, got N={N}")
    R = math.sqrt(TWO_PI * N)
    m = int(math.ceil(CELL_SIDE * samples_per_core / math.sqrt(b)))
    m += m % 2
    m = max(m, 32)
    return CellConfig(b=b, N=N, n=k * m, **kw)
