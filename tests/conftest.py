import numpy as np
import pytest

from glcell.energy import DiscreteField
from glcell.grid import wrap_value
from glcell.minimize import SolverSettings, init_state, minimize
from glcell.trial import trial_config


@pytest.fixture(scope="session")
def minimizer_b002():
    """Converged minimizer at b = 0.02, N = 16 (shared across acceptance)."""
    b, N = 0.02, 16
    cfg = trial_config(b, N)
    return minimize(init_state("trial", cfg), b,
                    SolverSettings(max_iter=6000), init_label="trial")


@pytest.fixture(scope="session")
def minimizer_b005():
    b, N = 0.05, 16
    cfg = trial_config(b, N)
    return minimize(init_state("trial", cfg), b,
                    SolverSettings(max_iter=6000), init_label="trial")


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
