"""Discrete cell energy G_{b,R} and its gradient.

Kinetic term per link: b * |u(x + h e) e^{-i theta} - u(x)|^2 (the 1/h^2 of
the covariant difference cancels the h^2 area weight), which is exactly
gauge invariant.  Potential term per site: (h^2/2) (1 - |u|^2)^2.  The
-(1/2)|K_R| offset is kept symbolic rather than summed per site.

The connection is a function of the field's grid and wrap rule alone
(grid.connection), four length-n vectors of link factors.  Every covariant
difference goes through one CellOperator per field, built on first use and
cached on the field (DiscreteField.operator).  The solver's kernels,
energy_and_gradient and line_quartic, form D*D as one neighbour stencil and
|D d|^2 one axis at a time, in buffers the caller owns.  A solve in another
gauge conjugates its preconditioner, not this operator
(minimize._precondition): the energy is exactly gauge covariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import ConfigError, Grid, WrapRule, connection


class EnergyError(ValueError):
    pass


class CellOperator:
    """Covariant difference D on one field's torus connection, and its adjoint.

    (D u)_x = c_x * u(x + h e1) - u(x) and (D u)_y = c_y * u(x + h e2) - u(x),
    where the link factors of grid.connection, a bulk and a seam vector per
    axis, carry the seam wrap factors.  Dt is the adjoint,
    Re<D u, v> = Re<u, Dt v>.  `evaluations` counts applications of D and
    Dt; the stencil `neighbours` (Dt D u = 4 u - neighbours) counts as one of
    each, and `D_norm2` as one D.
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

    def D(self, u: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(dx, dy) = D u, written into `out` when given."""
        if out is None:
            out = (np.empty(u.shape, np.complex128), np.empty(u.shape, np.complex128))
        for axis, v in enumerate(out):
            self._hop(u, axis, v)
            v -= u
        self.evaluations += 1
        return out

    def Dt(self, vx: np.ndarray, vy: np.ndarray, out=None) -> np.ndarray:
        """Dt (vx, vy), written into `out` when given.  Overwrites vx."""
        out = np.empty(vx.shape, np.complex128) if out is None else out
        self._hop(vx, 0, out, ahead=False)
        out -= vx
        self._hop(vy, 1, vx, ahead=False)
        out += vx
        out -= vy
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
            self._hop(d, axis, work)
            work -= d
            total += redot(work, work)
        self.evaluations += 1
        return total


@dataclass
class DiscreteField:
    """Complex order-parameter samples on the fundamental cell."""

    u: np.ndarray = field(repr=False)  # (n, n) complex128, u[i, j]
    grid: Grid
    wrap: WrapRule
    _operator: CellOperator | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n, N = self.grid.n, self.grid.N
        if np.shape(self.u) != (n, n):
            raise ConfigError(f"field u has shape {np.shape(self.u)}; the grid needs ({n}, {n})")
        if (self.wrap.n, self.wrap.N) != (n, N):
            raise ConfigError(f"wrap rule has n={self.wrap.n}, N={self.wrap.N}; "
                              f"the grid has n={n}, N={N}")

    def copy(self) -> "DiscreteField":
        out = replace(self, u=self.u.copy())
        out._operator = self._operator  # valid while grid and wrap are shared
        return out

    def operator(self) -> CellOperator:
        """The cell operator of this field's grid and wrap rule, built once.

        It is rebuilt whenever either is no longer the object it was built
        from, so a replaced grid or wrap never meets a stale connection.
        """
        op = self._operator
        if op is None or op.grid is not self.grid or op.wrap is not self.wrap:
            op = self._operator = CellOperator(self.grid, self.wrap)
        return op


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
    g = field.grid
    dx, dy = covariant_differences(field)
    kinetic = b * (_accurate_sum(np.abs(dx) ** 2) + _accurate_sum(np.abs(dy) ** 2))
    rho2 = np.abs(field.u) ** 2
    potential = 0.5 * g.h**2 * _accurate_sum((1.0 - rho2) ** 2)
    return EnergyBreakdown(kinetic=kinetic, potential=potential, offset=-0.5 * g.area)


def redot(a: np.ndarray, c: np.ndarray) -> float:
    """Re <a, c> = sum of Re(conj(a) c) over all sites, for two real or two complex arrays."""
    a = np.ascontiguousarray(a).view(np.float64).ravel()
    c = np.ascontiguousarray(c).view(np.float64).ravel()
    return float(np.dot(a, c))  # BLAS: 0.09 ms at n = 360 on 2 cores, where einsum took 0.22


def abs2(z: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """|z|^2 per site as a real array; tmp, a real array of z's shape, is overwritten."""
    out = np.multiply(z.real, z.real, out=out)
    out += np.multiply(z.imag, z.imag, out=tmp)
    return out


def energy_and_gradient(op: CellOperator, u: np.ndarray, b: float, grad: np.ndarray,
                        planes: np.ndarray, work: np.ndarray) -> float:
    """Total energy at u; writes the gradient into grad and c0 = 1 - |u|^2 into planes[0].

    grad = 2b Dt D u - 2h^2 c0 u = (8b - 2h^2 c0) u - 2b (CellOperator.neighbours)
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
