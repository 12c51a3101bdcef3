"""Steady states against a 50-digit solve of the tilt equation.

The reference bisects the mean condition sum_k k*eta_t(k) = alpha in the
log-tilt t with mpmath, from the same sigma profile, and rebuilds eta, mu and
nu at that precision.  Skipped where mpmath is not installed.
"""

import pytest

from token_lab import PopulationStrategy, Protocol, invariant_distribution

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
