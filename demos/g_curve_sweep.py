"""Sweep the optimal energy density g(b) and bracket its derivative.

Minimizes on a shared grid for a short list of b values (the middle b from
the trial state, the others warm from its solution), prints the sweep table,
and compares the centered derivative bracket at the middle point against
the prediction g'(b) ~ |log b|/2.
"""

import math

from glcell.analysis import run_sweep, sweep_to_csv

b_values = [0.04, 0.05, 0.06]
N = 16

sweep = run_sweep(b_values, N)
print(sweep_to_csv(sweep), end="")

b_mid = b_values[1]
lower, upper, mid = sweep.brackets[b_mid]
target = 0.5 * abs(math.log(b_mid))
print(f"\ng'({b_mid}) bracket: ({lower:.3f}, {upper:.3f}), midpoint {mid:.3f}")
print(f"prediction |log b|/2 = {target:.3f}")
