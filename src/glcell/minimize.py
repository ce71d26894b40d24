"""Minimization of the cell energy over the magnetic-periodic space.

Preconditioned nonlinear conjugate gradient (Polak-Ribiere+, with restarts)
on the real and imaginary parts of the field, after Antoine, Levitt and Tang,
J. Comput. Phys. 343 (2017).  Along a search direction the energy is an
exact quartic in the step length, so the line search takes the real root of
its cubic derivative with the lowest energy; a step is taken only when its
drop exceeds the rounding of the energy, so the energy falls with every
iteration.  The preconditioner (2b L + 2 sigma h^2)^-1, with L the symbol
of the periodic 5-point Laplacian, is applied by FFT and ignores the
magnetic phases.  estimate_g gives one point of g(b): a single solve, cold
from the vortex-lattice trial state of the given cell, or warm from a nearby
solution of phase phi with P conjugated to phi P conj(phi) (a sweep's
continuation step).  The energy is gauge covariant, so that solve takes the
iterates of NCG on conj(phi) u over phi's gauge transform of the links,
where P fits the covariant Laplacian near the start.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    CellOperator,
    DiscreteField,
    EnergyBreakdown,
    density_moments,
    energy,
    energy_and_gradient,
    gradient,
    line_quartic,
    redot,
)
from .grid import CellConfig, ConfigError, WrapRule, build_grid
from .trial import build_trial

SIGMA = 2.0  # potential shift of the preconditioner, in units of 2 h^2
RESTART_EVERY = 200       # iterations between forced steepest-descent restarts


class MinimizationError(RuntimeError):
    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


@dataclass
class SolverSettings:
    grad_tol: float = 1e-8          # relative: |grad|*h / max(min(|G|, area), 1)
    max_iter: int = 20000

    def __post_init__(self):
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise ConfigError(f"max_iter must be a non-negative integer, got {self.max_iter!r}")
        if not (isinstance(self.grad_tol, numbers.Real) and math.isfinite(self.grad_tol)
                and self.grad_tol >= 0.0):
            raise ConfigError(f"grad_tol must be finite and non-negative, got {self.grad_tol!r}")


@dataclass
class MinimizationResult:
    field: DiscreteField
    breakdown: EnergyBreakdown
    iterations: int
    grad_norm: float
    converged: bool
    init_label: str
    wall_time: float
    stop_reason: str      # "converged", "max_iter" or "line_search_failed"
    restarts: int         # iterations after the first that stepped on -P grad
    operator_evals: int   # applications of D and its adjoint, final evaluation included

    @property
    def density(self) -> float:
        return self.breakdown.total / self.field.grid.area


@dataclass
class GCurvePoint:
    """One point of the g(b) record, with diagnostics."""

    b: float
    N: int
    R: float
    n: int
    g_est: float
    g_trial: float | None = None
    d_lower: float | None = None
    d_upper: float | None = None
    potential_moment: float | None = None
    zeta: float | None = None
    iterations: int | None = None     # of the minimize run
    stop_reason: str | None = None    # of the same run
    restarts: int | None = None       # of the same run
    flags: list = field(default_factory=list)
    start: str = "trial"              # the init: "trial", or "anchor" for a warm start
    wall_s: float | None = None       # wall time of the whole point
    # the minimizer, without its cached operator: the start of warm points
    solution: DiscreteField | None = field(default=None, repr=False, compare=False)


def init_state(kind: str, config: CellConfig) -> DiscreteField:
    grid = build_grid(config)
    wrap = WrapRule(n=grid.n, N=grid.N)
    if kind == "uniform":
        u = np.ones((grid.n, grid.n), dtype=np.complex128)
        return DiscreteField(u=u, grid=grid, wrap=wrap)
    if kind == "random":
        rng = np.random.default_rng(config.seed)
        mod = rng.random((grid.n, grid.n))
        phase = rng.uniform(0.0, 2.0 * math.pi, (grid.n, grid.n))
        return DiscreteField(u=mod * np.exp(1j * phase), grid=grid, wrap=wrap)
    if kind == "trial":
        return build_trial(config.b, config.N, grid)
    raise ValueError(f"unknown init kind: {kind}")


def _kinetic_preconditioner(n: int, b: float, h: float) -> np.ndarray:
    """FFT symbol of (2b L + 2 SIGMA h^2)^-1, L = 4 - 2 cos k1 - 2 cos k2."""
    c = np.cos(2.0 * math.pi * np.arange(n) / n)
    lap = 4.0 - 2.0 * c[:, None] - 2.0 * c[None, :]
    return 1.0 / (2.0 * b * lap + 2.0 * SIGMA * h * h)


def _precondition(grad: np.ndarray, symbol: np.ndarray, out: np.ndarray,
                  phase: np.ndarray | None = None) -> np.ndarray:
    """out = ifft2(fft2(grad) * symbol), or phi ifft2(fft2(conj(phi) grad) * symbol)
    for a unit-modulus phase phi, computed in place in out.

    One axis at a time: with out=, numpy's fft2/ifft2 pair took 1.5 to 2.3
    times as long as these four transforms at n = 204 and 360.
    """
    if phase is not None:
        # conj(phi) grad = conj(conj(grad) phi), without a conjugated copy of phi
        np.conjugate(grad, out=out)
        out *= phase
        grad = np.conjugate(out, out=out)
    np.fft.fft(grad, axis=1, out=out)
    np.fft.fft(out, axis=0, out=out)
    out *= symbol
    np.fft.ifft(out, axis=0, out=out)
    np.fft.ifft(out, axis=1, out=out)
    if phase is not None:
        out *= phase
    return out


def _exact_step(slope: float, q2: float, q3: float, q4: float) -> tuple[float, float]:
    """(t, p(t)) for the real critical point t of the quartic
    p(t) = slope t + q2 t^2 + q3 t^3 + q4 t^4 with the lowest value."""
    def p(t):
        return t * (slope + t * (q2 + t * (q3 + t * q4)))

    if not slope < 0.0:
        return 0.0, 0.0
    roots = np.roots([4.0 * q4, 3.0 * q3, 2.0 * q2, slope])
    # the real parts of complex roots are not critical points, but the global
    # minimiser is a real root and no other candidate can undercut it
    t = min((float(r) for r in roots.real), key=p)
    return t, p(t)


def _diverged(msg: str, diagnostics: dict) -> MinimizationError:
    return MinimizationError(f"minimization diverged: {msg}",
                             {"stop_reason": "diverged", **diagnostics})


def _converged(gn: float, val: float, grid, s: SolverSettings) -> bool:
    # every field has G >= -area/2, so the cap only bites far above the
    # minimum, where a huge |G| would otherwise pass any gradient
    return gn * grid.h / max(min(abs(val), grid.area), 1.0) <= s.grad_tol


def _ncg(u: np.ndarray, op: CellOperator, b: float, s: SolverSettings,
         phase: np.ndarray | None = None) -> tuple[int, int, str]:
    """The NCG loop from u on op's connection, in place: (iterations,
    restarts, stop reason).  A restart is an iteration after the first whose
    step is taken on -P grad.

    Six complex arrays, u included, are the working set, and no iteration
    allocates another: pg is dead while the next gradient is formed and
    grad_old once beta has used it, and scratch holds c0 = 1 - |u|^2 and a
    real temporary.
    """
    g = op.grid
    grad, grad_old, pg, d, scratch = (np.empty(u.shape, np.complex128) for _ in range(5))
    planes = scratch.view(np.float64).reshape((2,) + u.shape)  # two real planes
    symbol = _kinetic_preconditioner(g.n, b, g.h)

    def evaluate(it):
        val = energy_and_gradient(op, u, b, grad, planes, pg)
        gn = math.sqrt(redot(grad, grad))
        if not (math.isfinite(val) and math.isfinite(gn)):
            raise _diverged("non-finite energy or gradient", {"iteration": it, "value": val})
        return val, gn

    def line_search(slope):
        coeffs = (slope, *line_quartic(op, u, d, planes, b, grad_old))
        if not all(math.isfinite(q) for q in coeffs):
            raise _diverged("non-finite line search coefficients",
                            {"iteration": it, "value": value})
        return _exact_step(*coeffs)

    value, gnorm = evaluate(0)
    it = restarts = 0
    gpg_old = 1.0
    while True:
        if _converged(gnorm, value, g, s):
            reason = "converged"
            break
        if it >= s.max_iter:
            reason = "max_iter"
            break
        it += 1
        pg = _precondition(grad, symbol, pg, phase)
        gpg = redot(grad, pg)
        beta = 0.0
        if it > 1 and it % RESTART_EVERY != 0:
            beta = max(0.0, (gpg - redot(grad_old, pg)) / gpg_old)
        if beta > 0.0:
            d *= beta
            d -= pg
            slope = redot(grad, d)
        if beta == 0.0 or slope >= 0.0:  # restart on -P grad
            beta = 0.0
            np.negative(pg, out=d)
            slope = -gpg
        t, drop = line_search(slope)
        # a drop below the rounding of the energy cannot be told from none
        resolution = np.finfo(float).eps * max(abs(value), 1.0)
        if not drop < -resolution and beta > 0.0:
            beta = 0.0
            np.negative(pg, out=d)
            t, drop = line_search(-gpg)
        if not drop < -resolution:
            reason = "line_search_failed"
            break
        if beta == 0.0 and it > 1:
            restarts += 1
        u += np.multiply(d, t, out=grad_old)
        grad, grad_old = grad_old, grad
        gpg_old = gpg
        value, gnorm = evaluate(it)
    return it, restarts, reason


def _solve(init: DiscreteField, b: float, settings: SolverSettings | None, init_label: str,
           phase: np.ndarray | None = None) -> MinimizationResult:
    """NCG from a copy of init on its own operator, then one final evaluation.

    A phase conjugates the preconditioner, which makes a warm start only:
    from the trial state, with its own phase, the solve stops on the
    square-lattice saddle.
    """
    s = settings or SolverSettings()
    t0 = time.perf_counter()
    fld = init.copy()
    fld.u = fld.u.astype(np.complex128, copy=False)
    op = fld.operator()
    evals0 = op.evaluations
    it, restarts, reason = _ncg(fld.u, op, b, s, phase)
    bd = energy(fld, b)
    grad = gradient(fld, b)
    gnorm = math.sqrt(redot(grad, grad))
    return MinimizationResult(
        field=fld,
        breakdown=bd,
        iterations=it,
        grad_norm=gnorm,
        converged=_converged(gnorm, bd.total, fld.grid, s),
        init_label=init_label,
        wall_time=time.perf_counter() - t0,
        stop_reason=reason,
        restarts=restarts,
        operator_evals=op.evaluations - evals0,
    )


def minimize(
    init: DiscreteField, b: float, settings: SolverSettings | None = None,
    init_label: str = "custom",
) -> MinimizationResult:
    """Minimize from init with the plain preconditioner.  A start on an exact
    critical point, such as u = 0 where the gradient vanishes, comes back
    converged after 0 iterations (estimate_g flags g >= -1e-9)."""
    return _solve(init, b, settings, init_label)


def _unit_phase(u: np.ndarray) -> np.ndarray:
    """phi = u/|u|, and 1 where u = 0."""
    r = np.abs(u)
    return np.divide(u, r, out=np.ones(u.shape, np.complex128), where=r > 0.0)


def estimate_g(config: CellConfig, settings: SolverSettings | None = None,
               start: DiscreteField | None = None) -> GCurvePoint:
    """One point of g(b): minimize once, from the trial state of the cell or
    from `start`.

    start, a field on the config's grid (a sweep's anchor solution), is used
    whenever its energy at b lies below the trial state's; the solve then
    conjugates the preconditioner by phi = start.u/|start.u|.  Otherwise, and
    without start, the point is the cold solve from the trial state.  g_trial
    is the energy density of the trial state, an upper bound on g.  The point
    keeps its minimizer as `solution` and the wall time of the whole point as
    `wall_s`.  A MinimizationError reaches the caller with its diagnostics.
    """
    t0 = time.perf_counter()
    b = config.b
    init = init_state("trial", config)
    grid = init.grid
    e_trial = energy(init, b).total
    g_trial = e_trial / grid.area
    e_start = None
    if start is not None:
        if (start.grid.n, start.grid.N) != (grid.n, grid.N):
            raise ConfigError(f"start field has n={start.grid.n}, N={start.grid.N}; "
                              f"the point has n={grid.n}, N={grid.N}")
        # a fresh field, so that start never caches an operator; the solve
        # copies it together with the operator this energy builds
        warm = DiscreteField(u=start.u, grid=start.grid, wrap=start.wrap)
        e_start = energy(warm, b).total
    if e_start is not None and e_start < e_trial:
        del init  # the trial state and its operator are not needed any more
        res = _solve(warm, b, settings, "anchor", _unit_phase(start.u))
    else:
        warm = None  # free the start's operator before the cold solve
        res = minimize(init, b, settings, init_label="trial")
    g_est = res.density
    flags = ["likely not converged to ground state"] if g_est >= -1e-9 else []
    _, _, mpot = density_moments(res.field)
    zeta = (g_est + 0.5 + 0.5 * b * math.log(b)) / (b * math.log(b))
    fld = res.field
    return GCurvePoint(
        b=b, N=config.N, R=grid.R, n=grid.n, g_est=g_est, g_trial=g_trial,
        potential_moment=mpot, zeta=zeta, iterations=res.iterations,
        stop_reason=res.stop_reason, restarts=res.restarts, flags=flags, start=res.init_label,
        wall_s=time.perf_counter() - t0,
        solution=DiscreteField(u=fld.u, grid=fld.grid, wrap=fld.wrap),  # without its operator
    )
