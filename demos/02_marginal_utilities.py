"""
What is one more token worth?
=============================

Whether agents comply with a protocol hinges on the marginal utility
M(k) = V(k+1) - V(k) of holding one extra token.  The library computes it
three independent ways (the closed-form solution of a tridiagonal system for
the marginals, a dense linear solve for the values, and plain fixed-point
iteration) and they agree to solver precision -- a useful property when one of them is refactored.

An agent keeps serving while beta*M(k) >= c: the marginal token must be worth
the serving cost, after one period of discounting.
"""

import numpy as np

from token_lab import (
    PopulationParams,
    Protocol,
    invariant_distribution,
    solve_marginals,
    solve_values,
    value_iteration_oracle,
)

params = PopulationParams.from_ratio(rho=0.5, beta=0.9, r=2.0)
proto = Protocol.pi_k(5)
steady = invariant_distribution(proto)

marginals = solve_marginals(5, params, steady, extra_above=3)
values = solve_values(5, params, steady)
oracle = value_iteration_oracle(5, params, steady)

print("k :   M(k)      V(k)     beta*M(k) vs c=1")
bar = params.c / params.beta
for k in range(6):
    flag = "serve" if marginals.M[k] >= bar else "stop"
    print(f"{k} : {marginals.M[k]:8.4f}  {values.V[k]:8.4f}   {flag}")

print(f"\nroute agreement, dense solve vs iteration: "
      f"{np.max(np.abs(values.V - oracle.V)):.2e}")
print(f"route agreement, marginals vs value differences: "
      f"{np.max(np.abs(np.diff(values.V) - marginals.M[:6])):.2e}")

print("\nabove the threshold the marginal decays geometrically:")
print("  M(5..8) =", np.round(marginals.M[5:], 5))

print("\npatience raises every marginal (same steady state):")
for beta in (0.80, 0.85, 0.90, 0.95):
    m = solve_marginals(5, params.with_beta(beta), steady)
    print(f"  beta={beta}: M(4) = {m.M[4]:.4f}")
