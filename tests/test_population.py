"""Invariant distributions, strategy profiles, and the one-step dynamics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from token_lab import (
    InvalidSupply,
    NoConvergence,
    PopulationStrategy,
    Protocol,
    invariant_distribution,
    one_step_update,
)
from token_lab import population
from token_lab.population import MEAN_TOL
from conftest import random_protocol


def test_uniform_at_half_threshold_supply():
    steady = invariant_distribution(Protocol(2.0, PopulationStrategy.pure(4)))
    assert np.max(np.abs(steady.eta - 0.2)) < 1e-15
    assert steady.mu == pytest.approx(0.2, abs=1e-15)
    assert steady.nu == pytest.approx(0.2, abs=1e-15)


def test_two_state_symmetric_supply():
    steady = invariant_distribution(Protocol(0.5, PopulationStrategy.pure(1)))
    assert np.allclose(steady.eta, [0.5, 0.5], atol=1e-14)


def test_tilted_distribution_against_quadratic_oracle():
    # alpha=0.6, K=2: the mean condition reads 1.4 y^2 + 0.4 y - 0.6 = 0;
    # solve it independently and rebuild eta from the root.
    roots = np.roots([1.4, 0.4, -0.6])
    y = float(roots[roots > 0][0])
    expected = np.array([1.0, y, y * y])
    expected /= expected.sum()

    steady = invariant_distribution(Protocol(0.6, PopulationStrategy.pure(2)))
    assert np.max(np.abs(steady.eta - expected)) < 1e-12
    assert steady.eta == pytest.approx([0.55397, 0.29206, 0.15397], abs=2e-5)
    lhs = steady.mu * (1 - steady.mu) ** 2
    rhs = steady.nu * (1 - steady.nu) ** 2
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert lhs == pytest.approx(0.1102, abs=1e-4)


def test_sigma_profile_shape(rng):
    assert PopulationStrategy.pure(3).sigma_vector(4)[[2, 3]].tolist() == [1.0, 0.0]
    mixed = PopulationStrategy.mix(3, 0.75).sigma_vector(5)
    assert np.allclose(mixed[[0, 3, 4]], [1.0, 0.75, 0.0])
    # values in [0,1], non-increasing, 1 below the support, 0 at and above it
    for _ in range(50):
        k = int(rng.integers(1, 20))
        w = float(rng.uniform(0, 1))
        strat = PopulationStrategy.mix(k, w)
        sig = strat.sigma_vector(strat.max_support + 3)
        assert np.all(sig >= 0) and np.all(sig <= 1)
        assert np.all(np.diff(sig) <= 0)
        assert np.all(sig[:k] == 1.0)
        assert np.all(sig[strat.max_support:] == 0.0)


def test_strategy_validation():
    with pytest.raises(ValueError):
        PopulationStrategy(((1, 0.5), (3, 0.5)))  # not adjacent
    with pytest.raises(ValueError):
        PopulationStrategy(((1, 0.4), (2, 0.4)))  # does not sum to 1
    with pytest.raises(ValueError):
        PopulationStrategy(((-1, 1.0),))
    with pytest.raises(ValueError):
        PopulationStrategy.pure(2.5)  # non-integer threshold
    with pytest.raises(ValueError):
        PopulationStrategy(((3.7, 1.0),))


def test_invalid_supply():
    with pytest.raises(InvalidSupply):
        Protocol(3.0, PopulationStrategy.pure(3))
    with pytest.raises(InvalidSupply):
        Protocol(0.0, PopulationStrategy.pure(3))


def test_supplies_at_the_edges_meet_closed_form():
    # K = 1 has eta = (1 - alpha, alpha) however close alpha is to 0 or 1
    for alpha in (1e-13, 1 - 1e-13):
        s = invariant_distribution(Protocol(alpha, PopulationStrategy.pure(1)))
        assert s.mu == pytest.approx(1 - alpha, rel=1e-9)
        assert s.nu == pytest.approx(alpha, rel=1e-9)
    s = invariant_distribution(Protocol(1e-13, PopulationStrategy.pure(5)))
    assert float(np.arange(6) @ s.eta) == pytest.approx(1e-13, rel=1e-9)


def test_tilt_step_cap_raises(monkeypatch):
    # a solve that runs out of steps raises instead of returning its last tilt
    monkeypatch.setattr(population, "MAX_TILT_STEPS", 2)
    with pytest.raises(NoConvergence):
        invariant_distribution(Protocol(0.6, PopulationStrategy.pure(2)))
    with pytest.raises(NoConvergence):
        population._pure_row(2, np.array([0.6, 1.0]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    K=st.integers(1, 10),
    w=st.sampled_from([0.0, 1e-6, 0.5, 0.97]),
    side=st.one_of(
        st.tuples(st.just(False), st.floats(-300.0, -0.01)),
        st.tuples(st.just(True), st.floats(-15.0, -0.01)),
    ),
)
def test_log_spaced_supplies_meet_mean_condition(K, w, side):
    # alpha sits 10**e * top away from 0, or from the top: the mean condition
    # holds relative to that distance, in a bounded number of steps
    strat = PopulationStrategy.mix(K, w)
    top = strat.max_support
    upper, e = side
    alpha = top - top * 10.0**e if upper else top * 10.0**e
    s = invariant_distribution(Protocol(alpha, strat))
    ks = np.arange(top + 1)
    assert abs(ks @ s.eta - alpha) <= 1e-12 * alpha
    assert abs((top - ks) @ s.eta - (top - alpha)) <= 1e-12 * (top - alpha)
    assert s.iterations <= 20


def test_grid_solves_take_few_newton_steps():
    # every supply of the designer's grids: iterations and residual on the result
    for K in range(1, 41):
        for steps in (2, 7, 16, 200):
            for alpha in np.arange(1, steps) * K / steps:
                s = invariant_distribution(Protocol(float(alpha), PopulationStrategy.pure(K)))
                assert (s.iterations == 0) == (alpha == K / 2) and s.iterations <= 15
                assert s.residual <= MEAN_TOL * min(1.0, alpha, K - alpha)


def test_update_keeps_uniform_fixed():
    eta = np.full(5, 0.2)
    out = one_step_update(eta, PopulationStrategy.pure(4), rho=0.5)
    assert np.max(np.abs(out - eta)) < 1e-15


def test_update_point_mass_at_zero_is_stuck():
    eta = np.array([1.0])
    out = one_step_update(eta, PopulationStrategy.pure(3), rho=0.3)
    assert out == pytest.approx([1.0])


def test_update_hand_recursion():
    # eta=(0.7, 0.3), threshold 1, rho=0.5: mu=0.7, nu=0.3,
    # up(0)=rho*(1-mu)*1=0.15, down(1)=rho*(1-nu)=0.35
    eta = np.array([0.7, 0.3])
    out = one_step_update(eta, PopulationStrategy.pure(1), rho=0.5)
    expected0 = 0.7 * (1 - 0.15) + 0.3 * 0.35
    expected1 = 0.3 * (1 - 0.35) + 0.7 * 0.15
    assert out == pytest.approx([expected0, expected1], abs=1e-15)


def test_update_conserves_mass_and_mean(rng):
    for _ in range(100):
        k = int(rng.integers(1, 12))
        w = float(rng.uniform(0, 1))
        strat = PopulationStrategy.mix(k, w)
        eta = rng.uniform(0, 1, size=strat.max_support + 1)
        eta /= eta.sum()
        out = one_step_update(eta, strat, rho=float(rng.uniform(0.05, 0.5)))
        assert abs(out.sum() - eta.sum()) < 1e-12
        mean_in = float(np.arange(len(eta)) @ eta)
        mean_out = float(np.arange(len(out)) @ out)
        assert abs(mean_in - mean_out) < 1e-12


def test_invariant_is_update_fixed_point(rng):
    for _ in range(40):
        proto = random_protocol(rng, k_max=20)
        rho = float(rng.uniform(0.05, 0.5))
        steady = invariant_distribution(proto)
        out = one_step_update(steady.eta, proto.strategy, rho)
        width = max(len(out), len(steady.eta))
        pad_out = np.zeros(width)
        pad_in = np.zeros(width)
        pad_out[: len(out)] = out
        pad_in[: len(steady.eta)] = steady.eta
        assert np.max(np.abs(pad_out - pad_in)) < 1e-10


def test_mixed_invariant_is_fixed_point(rng):
    for _ in range(20):
        k = int(rng.integers(1, 10))
        w = float(rng.uniform(0.05, 0.95))
        strat = PopulationStrategy.mix(k, w)
        alpha = float(rng.uniform(0.1, 0.9)) * strat.max_support
        steady = invariant_distribution(Protocol(alpha, strat))
        out = one_step_update(steady.eta, strat, rho=0.4)
        assert len(out) == len(steady.eta)
        assert np.max(np.abs(out - steady.eta)) < 1e-10


def test_iterated_update_converges_to_invariant(rng):
    # start from a feasible two-point distribution with the same mean
    for _ in range(5):
        k = int(rng.integers(2, 9))
        alpha = float(rng.uniform(0.2, 0.8)) * k
        proto = Protocol(alpha, PopulationStrategy.pure(k))
        steady = invariant_distribution(proto)
        eta = np.zeros(k + 1)
        eta[0] = (k - alpha) / k
        eta[k] = alpha / k
        for _ in range(20000):
            nxt = one_step_update(eta, proto.strategy, rho=0.45)[: k + 1]
            if np.max(np.abs(nxt - eta)) < 1e-13:
                eta = nxt
                break
            eta = nxt
        assert np.max(np.abs(eta - steady.eta)) < 1e-8


def test_feasibility_and_detailed_balance(rng):
    # eta sums to one, matches the supply, and balances the up/down flows
    # eta(k+1)*(1-nu) = eta(k)*(1-mu)*sigma(k) at every holding
    for _ in range(50):
        k = int(rng.integers(1, 20))
        w = float(rng.uniform(0, 1))
        strat = PopulationStrategy.mix(k, w)
        alpha = float(rng.uniform(0.05, 0.95)) * strat.max_support
        s = invariant_distribution(Protocol(alpha, strat))
        assert abs(s.eta.sum() - 1.0) < 1e-12
        assert abs(float(np.arange(len(s.eta)) @ s.eta) - alpha) < 1e-12
        sig = strat.sigma_vector(len(s.eta))
        up = s.eta * (1 - s.mu) * sig
        down = s.eta[1:] * (1 - s.nu)
        assert np.max(np.abs(down - up[:-1])) < 1e-13


def test_extreme_supplies_stay_solvable():
    for alpha in (1e-6, 5 - 1e-6):
        s = invariant_distribution(Protocol(alpha, PopulationStrategy.pure(5)))
        assert abs(float(np.arange(6) @ s.eta) - alpha) < 1e-12


def test_pure_threshold_balance_identity(rng):
    for _ in range(100):
        proto = random_protocol(rng, k_max=30)
        k = proto.strategy.pure_threshold
        s = invariant_distribution(proto)
        assert s.mu * (1 - s.mu) ** k == pytest.approx(
            s.nu * (1 - s.nu) ** k, abs=1e-10
        )


def test_result_independent_of_rho(rng):
    for _ in range(20):
        proto = random_protocol(rng, k_max=15)
        a = invariant_distribution(proto, rho=0.1)
        b = invariant_distribution(proto, rho=0.5)
        assert np.array_equal(a.eta, b.eta)


def test_steady_state_serialization():
    steady = invariant_distribution(Protocol(2.0, PopulationStrategy.pure(4)))
    csv = steady.to_csv()
    assert csv.splitlines()[0] == "k,eta"
    assert csv.splitlines()[1] == "0,0.2"
    side = steady.sidecar()
    assert side["alpha"] == 2.0
    assert side["thresholds"] == [4]
    assert side["weights"] == [1.0]
    assert side["mu"] == pytest.approx(0.2)
