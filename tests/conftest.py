import numpy as np
import pytest

from glcell.energy import CellOperator, DiscreteField, redot
from glcell.grid import wrap_value
from glcell.minimize import SolverSettings, init_state, minimize
from glcell.trial import trial_config


@pytest.fixture(scope="session")
def minimizer_b002():
    """Converged minimizer at b = 0.02, N = 16 (shared across acceptance)."""
    b, N = 0.02, 16
    cfg = trial_config(b, N)
    return minimize(init_state("trial", cfg), b, SolverSettings(max_iter=6000))


@pytest.fixture(scope="session")
def minimizer_b005():
    b, N = 0.05, 16
    cfg = trial_config(b, N)
    return minimize(init_state("trial", cfg), b, SolverSettings(max_iter=6000))


@pytest.fixture(scope="session")
def derivative_sweep():
    """Shared-resolution sweep around b = 0.02 for the derivative bracket."""
    from glcell.analysis import run_sweep

    return run_sweep([0.015, 0.02, 0.025], 16)


def _magnetic_translate(f, p, q):
    g, n = f.grid, f.grid.n
    s1, s2 = p * n // g.N, q * n // g.N
    a1, a2 = s1 * g.h, s2 * g.h
    i = np.arange(n)
    shifted = wrap_value(f.u, f.wrap, (i - s1)[:, None], (i - s2)[None, :])
    phase = np.exp(0.5j * (a1 * g.x2[None, :] - a2 * g.x1[:, None]))
    return DiscreteField(u=phase * shifted, grid=g, wrap=f.wrap)


@pytest.fixture
def magnetic_translate():
    """translate(f, p, q): u'(x) = e^{i phi(x)} u(x - a) with a = (p, q) (n/N) h
    and phi = (a1 x2 - a2 x1)/2.

    Shifts by whole multiples of n/N sites map the magnetic-periodic space
    onto itself and leave the discrete energy invariant.
    """
    return _magnetic_translate


class ReferenceOperator(CellOperator):
    """CellOperator on full (n, n) link arrays cx and cy, rebuilt from the
    per-axis vectors of grid.connection, with every kernel written out with
    np.roll: a reference for the broadcast kernels, and the base of gauged
    links, which are no product of per-axis vectors."""

    def __init__(self, grid, wrap):
        super().__init__(grid, wrap)
        n = grid.n
        (x, x_seam), (y, y_seam) = self.links
        self.cx = np.broadcast_to(x, (n, n)).copy()
        self.cx[-1] = x_seam
        self.cy = np.broadcast_to(y[:, None], (n, n)).copy()
        self.cy[:, -1] = y_seam

    def D(self, u):
        self.evaluations += 1
        return self.cx * np.roll(u, -1, axis=0) - u, self.cy * np.roll(u, -1, axis=1) - u

    def Dt(self, vx, vy):
        self.evaluations += 1
        return (np.roll(np.conj(self.cx) * vx, 1, axis=0) - vx
                + np.roll(np.conj(self.cy) * vy, 1, axis=1) - vy)

    def neighbours(self, u, out, work):
        out[...] = (self.cx * np.roll(u, -1, axis=0) + np.roll(np.conj(self.cx) * u, 1, axis=0)
                    + self.cy * np.roll(u, -1, axis=1) + np.roll(np.conj(self.cy) * u, 1, axis=1))
        self.evaluations += 2
        return out

    def D_norm2(self, d, work):
        dx, dy = self.D(d)
        return redot(dx, dx) + redot(dy, dy)


@pytest.fixture(scope="session")
def reference_operator():
    """reference_operator(grid, wrap): the ReferenceOperator of the cell."""
    return ReferenceOperator


def _gauged_operator(grid, wrap, phi):
    """The cell operator conjugated by unit-modulus phi: D' = conj(phi) D phi.

    Its links are conj(phi(x)) c(x) phi(x + h e), seam links included, so
    D' w = conj(phi) D (phi w), and the energy of w on D' equals the energy
    of u = phi w on D.  A reference for the conjugated preconditioner, which
    the solver uses in place of these links.
    """
    op = ReferenceOperator(grid, wrap)
    phi_bar = np.conjugate(phi)
    op.cx = np.roll(phi, -1, axis=0) * op.cx * phi_bar
    op.cy = np.roll(phi, -1, axis=1) * op.cy * phi_bar
    return op


@pytest.fixture(scope="session")
def gauged_operator():
    """gauged_operator(grid, wrap, phi): the CellOperator on phi's gauge
    transform of the cell's links, built here and never cached on a field."""
    return _gauged_operator
