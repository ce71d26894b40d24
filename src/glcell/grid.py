"""Magnetic-periodic square cell: grid, background link phases, wrap rule.

The cell is K_R = (-R/2, R/2)^2 with R^2 = 2*pi*N, discretized by n samples
per side (spacing h = R/n).  The background potential is
A0(x) = (1/2)(-x2, x1), so curl A0 = 1 and each plaquette carries flux h^2.

Fields live on sites u[i, j] with x(i, j) = (-R/2 + i*h, -R/2 + j*h); links
point in +x and +y.  Crossing the right edge multiplies the field by
exp(i*R*x2/2), crossing the top edge by exp(-i*R*x1/2).  Those phases are
exact multiples of pi/(2n) (R*x2(j)/2 = pi*N*(2j - n)/(2n)), so the wrap
cocycle is tracked in integer units of pi/(2n) and the two wrap orders
agree exactly.

The wrap rule is written once, in WrapRule.ghost_factors, which takes index
arrays.  wrap_value reads the magnetic-periodic extension through it, and
connection folds its seam values into the link factors of the one torus
connection that the solver and the analysis share: four length-n vectors,
because in this gauge the +x links vary along axis 1 only and the +y links
along axis 0 only, except on the seams.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    pass


def check_number(name: str, value, integral: bool = False) -> None:
    """Raise ConfigError unless value is a real number, or an integer when
    integral, and no bool: a 4.7 or a "4" from a config file is an error, not
    a truncated or parsed value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral
                                                 else numbers.Real):
        kind = "an integer" if integral else "a real number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def check_b(b) -> None:
    check_number("b", b)
    if not (0.0 < b < 1.0):
        raise ConfigError(f"b out of range: b={b} not in (0, 1)")


@dataclass(frozen=True)
class CellConfig:
    """Physical and numerical parameters of one cell problem."""

    b: float
    N: int
    n: int
    seed: int = 0

    def __post_init__(self):
        check_b(self.b)
        for name in ("N", "n", "seed"):
            check_number(name, getattr(self, name), integral=True)
        if self.N < 1:
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


def build_grid(config: CellConfig) -> Grid:
    n, R = config.n, config.R
    h = R / n
    x = -R / 2 + h * np.arange(n)
    return Grid(n=n, N=config.N, R=R, h=h, x1=x, x2=x.copy())


def link_phases(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(theta_x, theta_y): line integrals of A0 along the +x and +y links.

    theta_x[i, j] belongs to the link from (i, j) to (i+1, j), theta_y[i, j]
    to the link from (i, j) to (i, j+1).  A0 is affine, so the midpoint rule
    is exact: -x2/2 * h on x-links (x2 constant on the link), x1/2 * h on
    y-links.  Both are read-only (n, n) broadcast views.
    """
    n, h = grid.n, grid.h
    return (np.broadcast_to(-grid.x2 * h / 2.0, (n, n)),
            np.broadcast_to((grid.x1 * h / 2.0)[:, None], (n, n)))


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

    def ghost_factors(self, i, j) -> np.ndarray:
        """Factors relating u at integer indices (i, j) to u[i % n, j % n].

        i and j are integer arrays (or ints) and broadcast.  Canonical
        reduction order: x first (at unreduced j), then y (at the reduced i).
        The opposite order differs by an exact multiple of 2*pi in the integer
        units, so both give the same factor.  Inside the cell the factor is 1.
        """
        n = self.n
        p, i0 = np.divmod(i, n)
        q = np.floor_divide(j, n)
        units = (p * self.N * (2 * j - n) - q * self.N * (2 * i0 - n)) % (4 * n)
        return np.exp(1j * (math.pi * units / (2 * n) + (p * self.alpha + q * self.beta)))


def wrap_value(u: np.ndarray, wrap: WrapRule, i, j) -> np.ndarray:
    """Values of the magnetic-periodic extension of u at integer indices (i, j).

    i and j are integer arrays (or ints) and broadcast; the result has their
    broadcast shape.
    """
    return wrap.ghost_factors(i, j) * u[np.mod(i, wrap.n), np.mod(j, wrap.n)]


def connection(grid: Grid, wrap: WrapRule) -> tuple[np.ndarray, ...]:
    """(x, x_seam, y, y_seam): the link factors exp(-i theta), seam wrap folded in.

    theta_x varies along axis 1 only and theta_y along axis 0 only, so the
    connection is four length-n vectors: x[j] on the +x links (i, j), i < n-1,
    and x_seam[j] on the seam link (n-1, j), which carries the ghost factor of
    the site one step past the +x seam; y[i] and y_seam[i] likewise on the +y
    links (i, j), j < n-1, and (i, n-1).  The covariant difference on every
    link, seam included, is c * u(tip) - u, and the cell is a plain periodic
    U(1) lattice gauge field whose plaquette holonomies are all h^2 mod 2*pi.
    """
    n = grid.n
    idx = np.arange(n)
    theta_x, theta_y = link_phases(grid)
    x, y = np.exp(-1j * theta_x[0]), np.exp(-1j * theta_y[:, 0])
    return x, x * wrap.ghost_factors(n, idx), y, y * wrap.ghost_factors(idx, n)
