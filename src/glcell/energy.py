"""Discrete cell energy G_{b,R} and its gradient.

Kinetic term per link: b * |u(x + h e) e^{-i theta} - u(x)|^2 (the 1/h^2 of
the covariant difference cancels the h^2 area weight), which is exactly
gauge invariant.  Potential term per site: (h^2/2) (1 - |u|^2)^2.  The
-(1/2)|K_R| offset is kept symbolic rather than summed per site.

The connection is a function of the field's grid and wrap rule alone
(grid.connection), four length-n vectors of link factors.  Every covariant
difference goes through a CellOperator, which DiscreteField.operator builds
afresh on each call (eight length-n vectors, cheap to build), so a replaced
grid or wrap rule never meets a stale connection.  The solver's kernels,
energy_and_gradient and line_quartic, form D*D as one neighbour stencil and
|D d|^2 one axis at a time, in buffers the caller owns.  `energy` holds,
besides u, one complex buffer for D u and one real plane, and rounds as the
whole-array formulas do.  A solve in another gauge conjugates its
preconditioner, not this operator (minimize._precondition): the energy is
exactly gauge covariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import ConfigError, Grid, WrapRule, connection


class EnergyError(ValueError):
    pass


class CellOperator:
    """Covariant difference D on one field's torus connection, and D*D as a stencil.

    (D u)_x = c_x * u(x + h e1) - u(x) and (D u)_y = c_y * u(x + h e2) - u(x),
    where the link factors of grid.connection, a bulk and a seam vector per
    axis, carry the seam wrap factors.  Its adjoint D* is applied only inside
    D*D u = 4 u - neighbours(u).  `evaluations` counts applications of D and
    D*: `D` and `D_norm2` count as one D, and the stencil `neighbours` as one
    D and one D*.  `D_axis`, one axis of D for the analysis, is not counted.
    """

    def __init__(self, grid: Grid, wrap: WrapRule):
        self.grid, self.wrap = grid, wrap
        x, x_seam, y, y_seam = connection(grid, wrap)
        self.links = ((x, x_seam), (y, y_seam))  # (bulk, seam) along axes 0 and 1
        self.links_bar = tuple((np.conj(c), np.conj(seam)) for c, seam in self.links)
        self.evaluations = 0

    def _hop(self, u: np.ndarray, axis: int, out: np.ndarray, ahead: bool = True) -> None:
        """out = c u(x + h e) ahead, or conj(c) u(x - h e) behind: the
        link-weighted neighbour of every site along one axis."""
        c, seam = (self.links if ahead else self.links_bar)[axis]
        if axis:  # the y-links, in the layout of the x-links
            u, out = u.T, out.T
        if ahead:
            np.multiply(u[1:], c, out=out[:-1])
            np.multiply(u[0], seam, out=out[-1])
        else:
            np.multiply(u[:-1], c, out=out[1:])
            np.multiply(u[-1], seam, out=out[0])

    def D_axis(self, u: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        """out = the covariant difference of u along one axis, D u's dx or dy."""
        self._hop(u, axis, out)
        out -= u
        return out

    def D(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dx, dy) = D u."""
        out = tuple(self.D_axis(u, axis, np.empty(u.shape, np.complex128)) for axis in (0, 1))
        self.evaluations += 1
        return out

    def neighbours(self, u: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """out = the sum of the four link-weighted neighbours of u; work is overwritten."""
        self._hop(u, 0, out)
        for axis, ahead in ((0, False), (1, True), (1, False)):
            self._hop(u, axis, work, ahead)
            out += work
        self.evaluations += 2
        return out

    def D_norm2(self, d: np.ndarray, work: np.ndarray) -> float:
        """|D d|^2, one axis at a time in work."""
        total = 0.0
        for axis in (0, 1):
            self.D_axis(d, axis, work)
            total += redot(work, work)
        self.evaluations += 1
        return total


@dataclass
class DiscreteField:
    """Complex order-parameter samples on the fundamental cell."""

    u: np.ndarray = field(repr=False)  # (n, n) complex128, u[i, j]
    grid: Grid
    wrap: WrapRule

    def __post_init__(self):
        n, N = self.grid.n, self.grid.N
        if np.shape(self.u) != (n, n):
            raise ConfigError(f"field u has shape {np.shape(self.u)}; the grid needs ({n}, {n})")
        if (self.wrap.n, self.wrap.N) != (n, N):
            raise ConfigError(f"wrap rule has n={self.wrap.n}, N={self.wrap.N}; "
                              f"the grid has n={n}, N={N}")

    def copy(self) -> "DiscreteField":
        return replace(self, u=self.u.copy())

    def operator(self) -> CellOperator:
        """A new cell operator on this field's grid and wrap rule."""
        return CellOperator(self.grid, self.wrap)


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    potential: float
    offset: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential + self.offset


def _accurate_sum(a: np.ndarray) -> float:
    # compensated accumulation: exact fsum over pairwise-summed rows
    return math.fsum(np.sum(a, axis=0))


def covariant_differences(field: DiscreteField) -> tuple[np.ndarray, np.ndarray]:
    """Per-link differences u(x+he) e^{-i theta} - u(x), seam links closed
    with the magnetic-periodic ghost values."""
    return field.operator().D(field.u)


def energy(field: DiscreteField, b: float) -> EnergyBreakdown:
    if not (0.0 < b < 1.0):
        raise EnergyError(f"b out of range: {b}")
    if not np.all(np.isfinite(field.u)):
        raise EnergyError("non-finite field values")
    return _breakdown(field.operator(), field.u, b)


def _breakdown(op: CellOperator, u: np.ndarray, b: float) -> EnergyBreakdown:
    """The energy of u on op's connection, each sum compensated: D u one axis
    at a time in one complex buffer (one D), the squares in one real plane."""
    g = op.grid
    d, plane = np.empty(u.shape, np.complex128), np.empty(u.shape)

    def squared(z):  # |z|^2 in plane, through the same roundings as np.abs(z) ** 2
        return np.square(np.abs(z, out=plane), out=plane)

    sx, sy = (_accurate_sum(squared(op.D_axis(u, axis, d))) for axis in (0, 1))
    op.evaluations += 1
    kinetic = b * (sx + sy)
    np.subtract(1.0, squared(u), out=plane)
    potential = 0.5 * g.h**2 * _accurate_sum(np.square(plane, out=plane))
    return EnergyBreakdown(kinetic=kinetic, potential=potential, offset=-0.5 * g.area)


def redot(a: np.ndarray, c: np.ndarray) -> float:
    """Re <a, c> = sum of Re(conj(a) c) over all sites, for two real or two complex arrays."""
    a = np.ascontiguousarray(a).view(np.float64).ravel()
    c = np.ascontiguousarray(c).view(np.float64).ravel()
    return float(np.einsum("i,i->", a, c))  # no BLAS ddot: its thread split sets the rounding


def abs2(z: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """|z|^2 per site as a real array; tmp, a real array of z's shape, is overwritten."""
    out = np.multiply(z.real, z.real, out=out)
    out += np.multiply(z.imag, z.imag, out=tmp)
    return out


def energy_and_gradient(op: CellOperator, u: np.ndarray, b: float, grad: np.ndarray,
                        planes: np.ndarray, work: np.ndarray) -> float:
    """Total energy at u; writes the gradient into grad and c0 = 1 - |u|^2 into planes[0].

    grad = 2b D*D u - 2h^2 c0 u = (8b - 2h^2 c0) u - 2b (CellOperator.neighbours)
    and b |D u|^2 = (1/2) Re<u, grad> + h^2 sum c0 (1 - c0), so neither D u
    nor its adjoint is formed.  planes[1], of the real (2, n, n) planes, and
    work are overwritten.  Sums run in one pass each, without the
    compensated accumulation of `energy`.
    """
    h2 = op.grid.h ** 2
    c0, coef = planes
    np.subtract(1.0, abs2(u, c0, coef), out=c0)
    np.multiply(c0, -2.0 * h2, out=coef)
    coef += 8.0 * b
    op.neighbours(u, grad, work)
    grad *= -2.0 * b
    grad += np.multiply(u, coef, out=work)
    c2 = redot(c0, c0)
    kinetic = 0.5 * redot(u, grad) + h2 * (float(np.sum(c0)) - c2)
    return kinetic + 0.5 * h2 * c2 - 0.5 * op.grid.area


def gradient(field: DiscreteField, b: float) -> np.ndarray:
    """Real-linear gradient: dG along v equals Re <grad, v> = Re sum(grad * conj(v))."""
    if not np.all(np.isfinite(field.u)):
        raise EnergyError("non-finite field values")
    u = field.u.astype(np.complex128, copy=False)  # redot pairs u with the complex grad
    grad, work = np.empty(u.shape, np.complex128), np.empty(u.shape, np.complex128)
    energy_and_gradient(field.operator(), u, b, grad, np.empty((2,) + u.shape), work)
    return grad


def line_quartic(op: CellOperator, u: np.ndarray, d: np.ndarray, planes: np.ndarray, b: float,
                 work: np.ndarray) -> tuple[float, float, float]:
    """(q2, q3, q4) with E(u + t d) - E(u) = s t + q2 t^2 + q3 t^3 + q4 t^4.

    s = Re <gradient at u, d> and planes[0] = c0 = 1 - |u|^2, as
    energy_and_gradient leaves them.  With a1 = 2 Re(conj(u) d) and
    a2 = |d|^2 the potential term is (h^2/2) sum (c0 - a1 t - a2 t^2)^2, and
    the kinetic term adds b |D d|^2 t^2, so the expansion is exact.  work
    holds D d one axis at a time, then a1 and a2 as its real planes;
    planes[1] is overwritten.
    """
    dd2 = op.D_norm2(d, work)
    c0, tmp = planes
    a1, a2 = work.view(np.float64).reshape((2,) + u.shape)  # scratch, not Re and Im
    np.multiply(u.real, d.real, out=a1)
    a1 += np.multiply(u.imag, d.imag, out=tmp)
    a1 *= 2.0
    abs2(d, a2, tmp)
    h2 = op.grid.h ** 2
    q2 = b * dd2 + 0.5 * h2 * (redot(a1, a1) - 2.0 * redot(c0, a2))
    return q2, h2 * redot(a1, a2), 0.5 * h2 * redot(a2, a2)


def density_moments(field: DiscreteField) -> tuple[float, float, float]:
    """(mean |u|^2, mean |u|^4, mean (1-|u|^2)^2), normalized by |K_R|."""
    g = field.grid
    rho2 = np.abs(field.u) ** 2
    w = g.h**2 / g.area
    m2 = w * _accurate_sum(rho2)
    m4 = w * _accurate_sum(rho2**2)
    mpot = w * _accurate_sum((1.0 - rho2) ** 2)
    return m2, m4, mpot
