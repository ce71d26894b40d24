"""Magnetic-periodic square cell: grid, background link phases, wrap rules.

The cell is K_R = (-R/2, R/2)^2 with R^2 = 2*pi*N, discretized by n samples
per side (spacing h = R/n).  The background potential is
A0(x) = (1/2)(-x2, x1), so curl A0 = 1 and each plaquette carries flux h^2.

Fields live on sites u[i, j] with x(i, j) = (-R/2 + i*h, -R/2 + j*h); links
point in +x and +y.  Crossing the right edge multiplies the field by
exp(i*R*x2/2), crossing the top edge by exp(-i*R*x1/2).  Those phases are
exact multiples of pi/(2n) (R*x2(j)/2 = pi*N*(2j - n)/(2n)), so the wrap
cocycle is tracked in integer units of pi/(2n) and the two wrap orders
agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CellConfig:
    """Physical and numerical parameters of one cell problem."""

    b: float
    N: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.b < 1.0):
            raise ConfigError(f"b out of range: b={self.b} not in (0, 1)")
        if self.N < 1 or int(self.N) != self.N:
            raise ConfigError(f"N must be a positive integer, got {self.N}")
        if self.n < 16:
            raise ConfigError(f"n must be >= 16, got {self.n}")
        h = self.R / self.n
        if h > math.sqrt(self.b) / 8.0 + 1e-15:
            raise ConfigError(
                f"grid too coarse: h={h:.5g} exceeds sqrt(b)/8={math.sqrt(self.b)/8:.5g}"
            )
        if abs(self.R**2 - TWO_PI * self.N) > 1e-12:
            raise ConfigError("R^2 must equal 2*pi*N")

    @property
    def R(self) -> float:
        return math.sqrt(TWO_PI * self.N)

    @property
    def h(self) -> float:
        return self.R / self.n


def choose_n(b: float, N: int, samples_per_core: int = 8, multiple_of: int = 1) -> int:
    """Smallest n with h = R/n <= sqrt(b)/samples_per_core, rounded up to a multiple."""
    R = math.sqrt(TWO_PI * N)
    n = int(math.ceil(R * samples_per_core / math.sqrt(b)))
    if multiple_of > 1:
        n = multiple_of * int(math.ceil(n / multiple_of))
    return max(n, 16)


@dataclass(frozen=True)
class Grid:
    """Sites, spacing and coordinates of the discretized cell."""

    n: int
    N: int
    R: float
    h: float
    x1: np.ndarray = field(repr=False)  # (n,) site coordinates along axis 0
    x2: np.ndarray = field(repr=False)  # (n,) site coordinates along axis 1

    @property
    def area(self) -> float:
        return self.R * self.R

    def coords(self, i: int, j: int) -> tuple[float, float]:
        return (-self.R / 2 + i * self.h, -self.R / 2 + j * self.h)


def build_grid(config: CellConfig) -> Grid:
    n, R = config.n, config.R
    h = R / n
    x = -R / 2 + h * np.arange(n)
    return Grid(n=n, N=config.N, R=R, h=h, x1=x, x2=x.copy())


@dataclass(frozen=True)
class LinkPhases:
    """Line integrals of A0 along +x and +y links (midpoint rule, exact)."""

    theta_x: np.ndarray = field(repr=False)  # (n, n), link from (i,j) to (i+1,j)
    theta_y: np.ndarray = field(repr=False)  # (n, n), link from (i,j) to (i,j+1)


def link_phases(grid: Grid) -> LinkPhases:
    # A0 is affine, so the midpoint rule is exact:
    #   x-link: int A0_x dx1 = -x2/2 * h (x2 constant on the link)
    #   y-link: int A0_y dx2 =  x1/2 * h
    n, h = grid.n, grid.h
    theta_x = np.broadcast_to(-grid.x2 * h / 2.0, (n, n)).copy()
    theta_y = np.broadcast_to((grid.x1 * h / 2.0)[:, None], (n, n)).copy()
    return LinkPhases(theta_x=theta_x, theta_y=theta_y)


@dataclass(frozen=True)
class WrapRule:
    """Magnetic-periodic wrap phases, plus optional gauge twists (alpha, beta).

    The flux parts of the wrap phases are integer multiples of pi/(2n) and
    are reduced with exact integer arithmetic, so iterated wraps commute
    exactly.  R*x2(j)/2 = pi*N*(2j - n)/(2n).
    """

    n: int
    N: int
    alpha: float = 0.0
    beta: float = 0.0

    def factor_x(self, j) -> complex | np.ndarray:
        """Phase factor for u(x1 + R, x2(j)) = factor * u(x1, x2(j))."""
        units = (self.N * (2 * np.asarray(j) - self.n)) % (4 * self.n)
        return np.exp(1j * (math.pi * units / (2 * self.n) + self.alpha))

    def factor_y(self, i) -> complex | np.ndarray:
        """Phase factor for u(x1(i), x2 + R) = factor * u(x1(i), x2)."""
        units = (-self.N * (2 * np.asarray(i) - self.n)) % (4 * self.n)
        return np.exp(1j * (math.pi * units / (2 * self.n) + self.beta))

    def ghost_phase(self, i: int, j: int) -> complex:
        """Total phase relating u at arbitrary integer (i, j) to the cell value.

        Canonical reduction order: x first (at unreduced j), then y (at the
        reduced i).  The opposite order differs by an exact multiple of 2*pi
        in the integer units, so both yield the same factor.
        """
        n = self.n
        p, i0 = divmod(i, n)
        q, j0 = divmod(j, n)
        units = (p * self.N * (2 * j - n) - q * self.N * (2 * i0 - n)) % (4 * n)
        extra = p * self.alpha + q * self.beta
        return complex(np.exp(1j * (math.pi * units / (2 * n) + extra)))


def wrap_value(u: np.ndarray, wrap: WrapRule, i: int, j: int) -> complex:
    """Value of the magnetic-periodic extension of u at integer index (i, j)."""
    n = wrap.n
    i0, j0 = i % n, j % n
    if i0 == i and j0 == j:
        return complex(u[i, j])
    return wrap.ghost_phase(i, j) * complex(u[i0, j0])


def boundary_factors(grid: Grid, wrap: WrapRule) -> tuple[np.ndarray, np.ndarray]:
    """(bx, by): ghost factors for the +x seam (per j) and +y seam (per i)."""
    idx = np.arange(grid.n)
    return np.asarray(wrap.factor_x(idx)), np.asarray(wrap.factor_y(idx))


def effective_link_phases(
    phases: LinkPhases, grid: Grid, wrap: WrapRule
) -> tuple[np.ndarray, np.ndarray]:
    """Torus connection phases: link phases with the seam wrap folded in.

    The covariant difference across the seam reads
    u(0, j) * bx(j) * exp(-i theta_x) - u(n-1, j), so the effective phase on
    that link is theta_x - arg(bx).  With these phases the cell is a plain
    periodic U(1) lattice gauge field.
    """
    bx, by = boundary_factors(grid, wrap)
    phi_x = phases.theta_x.copy()
    phi_y = phases.theta_y.copy()
    phi_x[-1, :] -= np.angle(bx)
    phi_y[:, -1] -= np.angle(by)
    return phi_x, phi_y


def connection(
    phases: LinkPhases, grid: Grid, wrap: WrapRule
) -> tuple[np.ndarray, np.ndarray]:
    """(exp(-i phi_x), exp(-i phi_y)) of the effective link phases.

    The seam wrap factors are multiplied into the unit link factors once, so
    the covariant difference on every link, seam included, is c * u(tip) - u.
    """
    bx, by = boundary_factors(grid, wrap)
    cx = np.exp(-1j * phases.theta_x)
    cx[-1, :] *= bx
    cy = np.exp(-1j * phases.theta_y)
    cy[:, -1] *= by
    return cx, cy


def plaquette_fluxes(phases: LinkPhases, grid: Grid, wrap: WrapRule) -> np.ndarray:
    """Oriented phase sum around each plaquette, reduced to (-pi, pi].

    Interior plaquettes carry exactly h^2 (curl A0 = 1); seam plaquettes
    carry h^2 modulo 2 pi, so after reduction every plaquette reads h^2 and
    the total over the cell is R^2 = 2 pi N.
    """
    phi_x, phi_y = effective_link_phases(phases, grid, wrap)
    raw = (
        phi_x
        + np.roll(phi_y, -1, axis=0)
        - np.roll(phi_x, -1, axis=1)
        - phi_y
    )
    return raw - TWO_PI * np.round(raw / TWO_PI)
