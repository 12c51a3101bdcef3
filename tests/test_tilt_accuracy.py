"""Steady states and marginals against 50-digit references.

The steady-state reference bisects the mean condition sum_k k*eta_t(k) =
alpha in the log-tilt t with mpmath, from the same sigma profile, and
rebuilds eta, mu and nu at that precision.  The marginal reference solves the
tridiagonal system of ``token_lab.values`` by elimination at 50 digits, from
the (mu, nu) of the library's own steady state, so it tests the marginal
kernel alone.  Skipped where mpmath is not installed.
"""

import pytest

from token_lab import (
    PopulationParams,
    PopulationStrategy,
    Protocol,
    invariant_distribution,
    r_interval,
    solve_marginals,
)
from token_lab.equilibrium import _slacks

mp = pytest.importorskip("mpmath")

CASES = (
    # (alpha, threshold K, weight on K + 1)
    (0.6, 2, 0.0),
    (1.0, 3, 0.0),
    (1.7, 5, 0.0),
    (6.5, 8, 0.0),
    (0.3, 12, 0.0),
    (17.3, 20, 0.0),
    (1e-13, 5, 0.0),
    (1 - 1e-13, 1, 0.0),
    (1.3, 3, 0.4),  # the golden `steady --alpha 1.3 --k 3 --mix-weight 0.4`
    (0.25, 1, 0.25),
    (3.9, 4, 0.9),
    (5.5, 6, 0.05),
)


def _reference(alpha: float, strategy: PopulationStrategy):
    """(eta, mu, nu) at 50 digits, from 200 bisection steps on t in [-200, 200]."""
    top = strategy.max_support
    sig = [mp.mpf(float(s)) for s in strategy.sigma_vector(top + 1)]
    with mp.workdps(50):
        prefix = [mp.mpf(1)]
        for s in sig[:top]:
            prefix.append(prefix[-1] * s)

        def weights(t):
            return [c * mp.exp(k * t) for k, c in enumerate(prefix)]

        lo, hi = mp.mpf(-200), mp.mpf(200)
        for _ in range(200):
            mid = (lo + hi) / 2
            w = weights(mid)
            if mp.fsum(k * x for k, x in enumerate(w)) < mp.mpf(alpha) * mp.fsum(w):
                lo = mid
            else:
                hi = mid
        w = weights((lo + hi) / 2)
        eta = [x / mp.fsum(w) for x in w]
        nu = mp.fsum(e * (1 - s) for e, s in zip(eta, sig))
        return eta, eta[0], nu


def _rel(x, exact) -> float:
    return float(abs(mp.mpf(float(x)) - exact) / abs(exact))


@pytest.mark.parametrize("alpha,K,w", CASES)
def test_steady_state_matches_50_digit_solve(alpha, K, w):
    strategy = PopulationStrategy.mix(K, w)
    steady = invariant_distribution(Protocol(alpha, strategy))
    eta, mu, nu = _reference(alpha, strategy)
    assert _rel(steady.mu, mu) <= 1e-11
    assert _rel(steady.nu, nu) <= 1e-11
    assert max(_rel(x, e) for x, e in zip(steady.eta, eta)) <= 1e-11


def test_golden_mixed_entry_is_correctly_rounded():
    eta, _, _ = _reference(1.3, PopulationStrategy.mix(3, 0.4))
    assert mp.nstr(eta[4], 15) == "0.0463554697644442"
    steady = invariant_distribution(Protocol(1.3, PopulationStrategy.mix(3, 0.4)))
    assert format(steady.eta[4], ".12g") == "0.0463554697644"


MARGINAL_BETAS = (0.3, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12)
MARGINAL_TOL = 2e-13


def _reference_marginals(K, mu, nu, rho, beta, b, c):
    """M(0..K) at 50 digits: elimination on the K x K system, then the decay."""
    rho, beta, mu, nu = (mp.mpf(x) for x in (rho, beta, mu, nu))
    lo = -(1 - nu) * rho * beta
    diag = 1 - beta + ((1 - nu) + (1 - mu)) * rho * beta
    hi = -(1 - mu) * rho * beta
    rhs = [mp.mpf(0)] * K
    rhs[0] += (1 - nu) * rho * b
    rhs[-1] += (1 - mu) * rho * c
    piv, y = [diag], [rhs[0]]
    for i in range(1, K):
        f = lo / piv[-1]
        piv.append(diag - f * hi)
        y.append(rhs[i] - f * y[-1])
    m = [y[-1] / piv[-1]]
    for i in range(K - 2, -1, -1):
        m.insert(0, (y[i] - hi * m[0]) / piv[i])
    q = -lo / (diag + hi)
    return m + [q * m[-1]], q


@pytest.mark.parametrize("beta", MARGINAL_BETAS)
@pytest.mark.parametrize("K", (1, 2, 3, 5, 8, 13, 21, 34, 45))
def test_marginals_match_50_digit_solve(K, beta):
    rho, r = 0.4, 2.5
    params = PopulationParams.from_ratio(rho, beta, r)
    for frac in (0.5, 0.3, 0.8):  # canonical, then off-canonical supplies
        protocol = Protocol(frac * K, PopulationStrategy.pure(K))
        steady = invariant_distribution(protocol)
        M = solve_marginals(K, params, steady).M
        slack_low, slack_high = _slacks(K, params, steady.mu, steady.nu)
        iv = r_interval(protocol, rho, beta)
        with mp.workdps(50):
            m, q = _reference_marginals(K, steady.mu, steady.nu, rho, beta, r, 1)
            assert max(_rel(x, e) for x, e in zip(M, m)) <= MARGINAL_TOL
            A = _reference_marginals(K, steady.mu, steady.nu, rho, beta, 1, 0)[0][K - 1]
            B = _reference_marginals(K, steady.mu, steady.nu, rho, beta, 0, 1)[0][K - 1]
            # A slack subtracts M from c/beta, and an r endpoint subtracts
            # B/A from (c/beta)/A or (c/(q beta))/A; near beta -> 1 the
            # difference can be 1000 times smaller than the operands, so the
            # error is measured against the larger operand.
            bar = 1 / mp.mpf(beta)
            for got, exact, operand in (
                (slack_low, m[K - 1] - bar, bar),
                (slack_high, bar - m[K], bar),
                (iv.lo, (bar - B) / A, bar / A),
                (iv.hi, (bar / q - B) / A, bar / (q * A)),
            ):
                err = abs(mp.mpf(float(got)) - exact) / max(abs(exact), operand)
                assert err <= MARGINAL_TOL, (frac, got, exact)
