"""Discrete cell energy G_{b,R} and its gradient.

Kinetic term per link: b * |u(x + h e) e^{-i theta} - u(x)|^2 (the 1/h^2 of
the covariant difference cancels the h^2 area weight), which is exactly
gauge invariant.  Potential term per site: (h^2/2) (1 - |u|^2)^2.  The
-(1/2)|K_R| offset is kept symbolic rather than summed per site.

The connection is a function of the field's grid and wrap rule alone
(grid.connection).  Every covariant difference goes through one CellOperator
per field, built on first use and cached on the field (DiscreteField.operator).
A solve in another gauge conjugates its preconditioner, not this operator
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

    (D u)_x = cx * u(x + h e1) - u(x) and (D u)_y = cy * u(x + h e2) - u(x),
    where (cx, cy) = grid.connection carries the seam wrap factors, so the
    seam links need no patching.  Dt is the adjoint, Re<D u, v> = Re<u, Dt v>.
    `evaluations` counts applications of D and Dt.
    """

    def __init__(self, grid: Grid, wrap: WrapRule):
        self.grid, self.wrap = grid, wrap
        self.cx, self.cy = connection(grid, wrap)
        self.evaluations = 0

    def D(self, u: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(dx, dy) = D u, written into `out` when given."""
        if out is None:
            out = (np.empty(u.shape, np.complex128), np.empty(u.shape, np.complex128))
        dx, dy = out
        cx, cy = self.cx, self.cy
        np.multiply(u[1:], cx[:-1], out=dx[:-1])
        np.multiply(u[0], cx[-1], out=dx[-1])
        dx -= u
        np.multiply(u[:, 1:], cy[:, :-1], out=dy[:, :-1])
        np.multiply(u[:, 0], cy[:, -1], out=dy[:, -1])
        dy -= u
        self.evaluations += 1
        return dx, dy

    def Dt(self, vx: np.ndarray, vy: np.ndarray, out=None) -> np.ndarray:
        """Dt (vx, vy), written into `out` when given.  Overwrites vx and vy."""
        out = np.negative(vx, out=out)
        out -= vy
        for v, c in ((vx, self.cx), (vy, self.cy)):
            # v * conj(c), without a conjugated copy of the connection
            np.conjugate(v, out=v)
            v *= c
            np.conjugate(v, out=v)
        out[1:] += vx[:-1]
        out[0] += vx[-1]
        out[:, 1:] += vy[:, :-1]
        out[:, 0] += vy[:, -1]
        self.evaluations += 1
        return out


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
    return float(np.einsum("i,i->", a, c))


def abs2(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|z|^2 per site as a real array."""
    out = np.multiply(z.real, z.real, out=out)
    out += z.imag * z.imag
    return out


def energy_and_gradient(
    op: CellOperator, u: np.ndarray, b: float, dxy, c0: np.ndarray, grad: np.ndarray
) -> float:
    """Total energy at u; writes the gradient into grad and 1 - |u|^2 into c0.

    The buffers dxy = (dx, dy) receive D u and are overwritten.  Sums run in
    one pass each, without the compensated accumulation of `energy`.
    """
    h2 = op.grid.h ** 2
    dx, dy = op.D(u, out=dxy)
    kinetic = b * (redot(dx, dx) + redot(dy, dy))
    np.subtract(1.0, abs2(u, out=c0), out=c0)
    potential = 0.5 * h2 * redot(c0, c0)
    op.Dt(dx, dy, out=grad)
    grad *= 2.0 * b
    np.multiply(u, c0, out=dx)
    dx *= 2.0 * h2
    grad -= dx
    return kinetic + potential - 0.5 * op.grid.area


def gradient(field: DiscreteField, b: float) -> np.ndarray:
    """Real-linear gradient: dG along v equals Re <grad, v> = Re sum(grad * conj(v))."""
    if not np.all(np.isfinite(field.u)):
        raise EnergyError("non-finite field values")
    u = field.u
    grad = np.empty(u.shape, np.complex128)
    dxy = (np.empty_like(grad), np.empty_like(grad))
    energy_and_gradient(field.operator(), u, b, dxy, np.empty(u.shape), grad)
    return grad


def line_quartic(
    u: np.ndarray, d: np.ndarray, dd, c0: np.ndarray, b: float, h: float
) -> tuple[float, float, float]:
    """(q2, q3, q4) with E(u + t d) - E(u) = s t + q2 t^2 + q3 t^3 + q4 t^4.

    s = Re <gradient at u, d>, dd = (dx, dy) = D d and c0 = 1 - |u|^2.  With
    a1 = 2 Re(conj(u) d) and a2 = |d|^2 the potential term is
    (h^2/2) sum (c0 - a1 t - a2 t^2)^2, and the kinetic term adds b |D d|^2 t^2,
    so the expansion is exact.
    """
    a1 = np.multiply(u.real, d.real)
    a1 += u.imag * d.imag
    a1 *= 2.0
    a2 = abs2(d)
    h2 = h * h
    q2 = b * (redot(dd[0], dd[0]) + redot(dd[1], dd[1])) \
        + 0.5 * h2 * (redot(a1, a1) - 2.0 * redot(c0, a2))
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
