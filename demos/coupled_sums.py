"""Entropy bounds for coupled sums (X1 + Y, X2 + Y) with dependent X1, X2.

The classical vector EPI gives nothing useful here because (X1, X2) may
be dependent; treating the problem as a three-block datum does.  The
inequality

    alpha h(X1,X2) + beta h(Y)
        <= h(X1+Y, X2+Y) + delta h(X1) + delta h(X2) + C

holds iff four exponent conditions are met, and then C has a closed
form.  This script maps a slice of the feasibility region, compares the
formula against a brute-force supremum and the general solver, and
prints the constant along a sweep.
"""

import numpy as np

import blepi
from blepi.closed_forms import CoupledSumsParams


def main():
    print("feasibility on the balanced slice alpha = 1 + delta - beta/2, delta=0.5:")
    for beta in (0.2, 0.6, 1.0, 1.2):
        alpha = 1.0 + 0.5 - beta / 2.0
        feas = blepi.coupled_sums_feasible(CoupledSumsParams(alpha, beta, 0.5, 0.5))
        tag = "feasible" if feas.feasible else f"fails conditions {feas.failed_conditions()}"
        print(f"  alpha={alpha:.2f} beta={beta:.2f}: {tag}")

    # (1.0, 0.8, 0.4) sits on the boundary rho = beta / (2 delta) = 1, where
    # the supremum is a limit that the brute force approaches from below
    for alpha, beta, delta in ((1.25, 0.5, 0.5), (1.0, 0.8, 0.4)):
        print(f"\nthree routes to the constant at (alpha, beta, delta) = {(alpha, beta, delta)}:")
        C, D = blepi.coupled_sums_constant(alpha, beta, delta)
        bf = blepi.coupled_sums_bruteforce(alpha, beta, delta)
        res = blepi.solve_mg(blepi.make_coupled_sums_datum(alpha, beta, delta, delta))
        print(f"  closed form   C = {C:.10f}")
        print(f"  brute force       {bf:.10f}")
        print(f"  general solver    {res.mg_value:.10f}")

    print("\nconstant along beta at delta = 0.5 (alpha balanced):")
    for beta in np.linspace(0.1, 0.9, 9):
        alpha = 1.5 - beta / 2.0
        C, _ = blepi.coupled_sums_constant(alpha, beta, 0.5)
        print(f"  beta={beta:.1f}  alpha={alpha:.2f}  C = {C:+.6f} nats")


if __name__ == "__main__":
    main()
