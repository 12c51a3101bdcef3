"""Efficiency, threshold bounds, designer bisection, and protocol search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from token_lab import (
    NoEquilibriumFound,
    PopulationParams,
    PopulationStrategy,
    Protocol,
    ProtocolChoice,
    SearchResult,
    bisection_design,
    check_equilibrium,
    classification_sweep,
    efficiency,
    efficiency_bounds,
    exhaustive_scan,
    fixed_threshold_sweep,
    invariant_distribution,
    mixed_equilibrium_weight,
    optimal_efficiency_sweep,
    optimal_protocol_search,
    threshold_bounds,
)
import token_lab.design as design_module
import token_lab.equilibrium as equilibrium_module
from token_lab.equilibrium import EquilibriumClass, _robust, _slacks, classify
from token_lab.population import _pure_row
from conftest import random_protocol

ORACLE = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def test_canonical_efficiency():
    steady = invariant_distribution(Protocol.pi_k(3))
    assert efficiency(steady) == pytest.approx(0.5625, abs=1e-14)


def test_efficiency_of_tilted_state():
    steady = invariant_distribution(Protocol(0.6, PopulationStrategy.pure(2)))
    assert efficiency(steady) == pytest.approx(
        (1 - 0.5539722826784925) * (1 - 0.15397228267840266), abs=1e-9
    )
    assert efficiency(steady) == pytest.approx(0.37735, abs=1e-4)


def test_efficiency_degenerate_zero():
    from token_lab import SteadyState

    dead = SteadyState(
        eta=np.array([1.0]), mu=1.0, nu=0.0, alpha=0.0,
        strategy=PopulationStrategy.pure(1),
    )
    assert efficiency(dead) == 0.0


def test_efficiency_bounds_examples():
    upper_alpha, upper_k = efficiency_bounds(0.6, 2)
    assert upper_alpha == pytest.approx(1 - 1 / 3)
    assert upper_k == pytest.approx(4 / 9)
    actual = efficiency(invariant_distribution(Protocol(0.6, PopulationStrategy.pure(2))))
    assert actual <= min(upper_alpha, upper_k)

    # half-threshold supply attains the threshold bound exactly
    for k in (1, 3, 7):
        _, upper_k = efficiency_bounds(k / 2, k)
        actual = efficiency(invariant_distribution(Protocol.pi_k(k)))
        assert actual == pytest.approx(upper_k, abs=1e-13)

    assert efficiency_bounds(0.4, 1)[1] == pytest.approx(0.25)


def test_efficiency_below_bounds_random(rng):
    for _ in range(100):
        proto = random_protocol(rng, k_max=25)
        k = proto.strategy.pure_threshold
        actual = efficiency(invariant_distribution(proto))
        upper_alpha, upper_k = efficiency_bounds(proto.alpha, k)
        assert actual <= min(upper_alpha, upper_k) + 1e-12


def test_threshold_bounds_values():
    tb = threshold_bounds(PopulationParams.from_ratio(0.5, 0.9, 2.0))
    # direct evaluation of the two logarithms
    base_low = 0.45 / (0.2 + 0.9)
    base_high = 0.45 / (0.1 + 0.45)
    assert tb.K_L == pytest.approx(math.log(1 / 3) / math.log(base_low) - 1, abs=1e-12)
    assert tb.K_H == pytest.approx(math.log(0.25) / math.log(base_high), abs=1e-12)
    assert tb.K_L == pytest.approx(0.2291, abs=1e-4)
    assert tb.K_H == pytest.approx(6.9083, abs=1e-4)


def test_threshold_bounds_floor_at_zero():
    # as r -> 1+ the lower bound formula dips and clamps at zero
    tb = threshold_bounds(PopulationParams.from_ratio(0.5, 0.6, 1.0 + 1e-9))
    assert tb.K_L == 0.0


def test_threshold_bound_grows_with_patience():
    tb_90 = threshold_bounds(PopulationParams.from_ratio(0.5, 0.9, 2.0))
    tb_99 = threshold_bounds(PopulationParams.from_ratio(0.5, 0.99, 2.0))
    base = 0.495 / (0.01 + 0.495)
    assert tb_99.K_H == pytest.approx(math.log(0.25) / math.log(base), abs=1e-10)
    assert tb_99.K_H > tb_90.K_H


def test_design_finds_robust_k1():
    result = bisection_design(PopulationParams.from_ratio(0.5, 0.85, 2.0))
    assert result.K_star == 1
    assert result.alpha_star == 0.5
    assert result.efficiency == pytest.approx(0.25)


def test_design_matches_scan_at_higher_beta():
    params = PopulationParams.from_ratio(0.5, 0.95, 2.0)
    result = bisection_design(params)
    assert result.K_star > 1
    scan = exhaustive_scan(params)
    assert scan[result.K_star].is_equilibrium


def test_design_empty_range():
    with pytest.raises(NoEquilibriumFound):
        bisection_design(PopulationParams.from_ratio(0.5, 0.5, 1.2))


def test_design_agrees_with_scan_on_grid():
    for r in np.linspace(1.3, 9.0, 8):
        for beta in np.linspace(0.55, 0.98, 8):
            params = PopulationParams.from_ratio(0.5, float(beta), float(r))
            tb = threshold_bounds(params)
            scan = exhaustive_scan(params)
            eq_set = [k for k, rep in scan.items() if rep.is_equilibrium]
            cap = max(1, math.ceil(math.log2(max(tb.K_H - tb.K_L, 1.0))) + 1)
            try:
                result = bisection_design(params)
            except NoEquilibriumFound:
                assert not [k for k in eq_set if k in tb.integer_range]
                continue
            assert result.K_star in eq_set
            assert result.iterations <= cap


def test_equilibrium_set_contiguous_and_small(rng):
    # at most two equilibrium thresholds, and always adjacent
    for _ in range(30):
        beta = float(rng.uniform(0.6, 0.98))
        r = float(rng.uniform(1.3, 8.0))
        scan = exhaustive_scan(PopulationParams.from_ratio(0.5, beta, r))
        eq = sorted(k for k, rep in scan.items() if rep.is_equilibrium)
        if eq:
            assert len(eq) <= 2
            assert eq == list(range(eq[0], eq[-1] + 1))


def test_robust_coverage_above_onset():
    # above the smallest robust onset some canonical protocol is always robust
    onset = 0.8  # lower endpoint of the K=1 interval at rho=0.5, r=2
    for beta in np.linspace(onset + 0.01, 0.99, 25):
        scan = exhaustive_scan(PopulationParams.from_ratio(0.5, float(beta), 2.0))
        robust = [k for k, rep in scan.items() if rep.tag.value == "robust"]
        assert robust, f"no robust threshold at beta={beta}"


def test_optimal_search_beats_canonical():
    params = PopulationParams.from_ratio(0.5, 0.9, 2.0)
    res = optimal_protocol_search(params, alpha_steps=100)
    assert res.best_canonical is not None
    assert res.best.efficiency >= res.best_canonical.efficiency
    assert check_equilibrium(
        Protocol(res.best.alpha, PopulationStrategy.pure(res.best.K)), params
    ).tag.value == "robust"


def test_optimal_search_deterministic():
    params = PopulationParams.from_ratio(0.5, 0.92, 2.0)
    a = optimal_protocol_search(params, alpha_steps=80)
    b = optimal_protocol_search(params, alpha_steps=80)
    assert a == b


def test_optimal_search_no_equilibrium():
    with pytest.raises(NoEquilibriumFound):
        optimal_protocol_search(
            PopulationParams.from_ratio(0.5, 0.3, 1.2), alpha_steps=40
        )


def test_optimal_search_rejects_bad_grid():
    params = PopulationParams.from_ratio(0.5, 0.9, 2.0)
    for steps in (-3, 0, 1):  # no interior supply on the grid
        with pytest.raises(ValueError, match="alpha_steps"):
            optimal_protocol_search(params, alpha_steps=steps)
    for K_range in ([0], [2, -1], [1.5]):  # K = 0 never serves
        with pytest.raises(ValueError, match="thresholds"):
            optimal_protocol_search(params, alpha_steps=10, K_range=K_range)


def _scan_search(params, alpha_steps, K_range):
    """The search one cell at a time: a scalar steady solve and equilibrium
    check per (K, alpha), in the documented tie-breaking order."""
    best = best_canonical = None
    for K in K_range:
        for j in range(1, alpha_steps):
            protocol = Protocol(j * K / alpha_steps, PopulationStrategy.pure(K))
            if check_equilibrium(protocol, params).tag.value != "robust":
                continue
            choice = ProtocolChoice(
                protocol.alpha, K, efficiency(invariant_distribution(protocol))
            )
            if best is None or choice.efficiency > best.efficiency:
                best = choice
            if protocol.alpha == K / 2 and (
                best_canonical is None or choice.efficiency > best_canonical.efficiency
            ):
                best_canonical = choice
    return None if best is None else SearchResult(best, best_canonical)


@ORACLE
@given(K=st.integers(1, 40), alpha_steps=st.sampled_from([2, 7, 16, 200]))
def test_row_steady_states_match_scalar_solve(K, alpha_steps):
    alphas = np.arange(1, alpha_steps) * K / alpha_steps
    mu, nu = _pure_row(K, alphas)
    for j, alpha in enumerate(alphas):
        steady = invariant_distribution(Protocol(float(alpha), PopulationStrategy.pure(K)))
        assert abs(mu[j] - steady.mu) <= np.spacing(steady.mu)
        assert abs(nu[j] - steady.nu) <= np.spacing(steady.nu)
    # the grid solves long rows in chunks of cells, which must not move a bit
    head = _pure_row(K, alphas[: len(alphas) // 2 + 1])
    assert all(np.array_equal(h, x[: len(h)]) for h, x in zip(head, (mu, nu)))


@ORACLE
@given(
    K=st.integers(1, 40),
    alpha_steps=st.sampled_from([2, 7, 16, 200]),
    rho=st.floats(0.05, 0.5),
    beta=st.floats(0.5, 0.99),
    r=st.floats(1.1, 8.0),
)
def test_row_classes_match_check_equilibrium(K, alpha_steps, rho, beta, r):
    params = PopulationParams.from_ratio(rho, beta, r)
    alphas = np.arange(1, alpha_steps) * K / alpha_steps
    low, high = _slacks(K, params, *_pure_row(K, alphas))
    for j, alpha in enumerate(alphas):
        report = check_equilibrium(Protocol(float(alpha), PopulationStrategy.pure(K)), params)
        assert (low[j], high[j]) == (report.slack_low, report.slack_high)
        assert classify(low[j], high[j]) is report.tag


def test_robust_mask_matches_classify():
    # edge slacks at and around +-tol, for the default, zero and negative tol
    low, high = np.meshgrid(*2 * [[-1.0, -1e-9, 0.0, 1e-9, 2e-9, 1.0]])
    for tol in (1e-9, 0.0, -1e-9):
        tags = [classify(lo, hi, tol) for lo, hi in zip(low.flat, high.flat)]
        expected = [tag is EquilibriumClass.ROBUST for tag in tags]
        assert _robust(low, high, tol).ravel().tolist() == expected


@ORACLE
@given(
    rho=st.floats(0.2, 0.5),
    r=st.floats(1.5, 3.0),
    beta=st.floats(0.75, 0.93),
    alpha_steps=st.sampled_from([2, 7, 16]),
    fixed_K=st.integers(1, 12),
)
def test_grid_search_matches_per_cell_scan(rho, r, beta, alpha_steps, fixed_K):
    params = PopulationParams.from_ratio(rho, beta, r)
    default = range(1, max(1, math.floor(threshold_bounds(params).K_H)) + 1)
    for K_range in (None, [fixed_K], [fixed_K, 1]):
        expected = _scan_search(params, alpha_steps, default if K_range is None else K_range)
        if expected is None:
            with pytest.raises(NoEquilibriumFound):
                optimal_protocol_search(params, alpha_steps, K_range)
        else:
            assert optimal_protocol_search(params, alpha_steps, K_range) == expected


@ORACLE
@given(
    rho=st.floats(0.2, 0.5),
    r=st.floats(1.5, 3.0),
    beta_min=st.floats(0.6, 0.93),
    beta_steps=st.integers(1, 6),
    alpha_steps=st.sampled_from([2, 7, 16]),
    fixed_K=st.integers(1, 12),
)
def test_sweeps_match_per_beta_searches(rho, r, beta_min, beta_steps, alpha_steps, fixed_K):
    betas = np.linspace(beta_min, beta_min + 0.04, beta_steps)

    def search(beta, K_range=None):
        params = PopulationParams.from_ratio(rho, beta, r)
        try:
            return optimal_protocol_search(params, alpha_steps, K_range)
        except NoEquilibriumFound:
            return None

    fig3, fig4 = [], []
    for beta in betas:
        res, fixed = search(beta), search(beta, [fixed_K])
        if res is None:
            fig3.append((beta, 0, 0.0, 0.0, 0.0))
        else:
            pik = 0.0 if res.best_canonical is None else res.best_canonical.efficiency
            fig3.append((beta, res.best.K, res.best.alpha, res.best.efficiency, pik))
        fig4.append((beta, fig3[-1][3], 0.0 if fixed is None else fixed.best.efficiency))
    assert optimal_efficiency_sweep(rho, r, betas, alpha_steps) == fig3
    assert fixed_threshold_sweep(rho, r, betas, fixed_K, alpha_steps) == fig4


@pytest.mark.parametrize("alpha", [0.25, 1.5])
def test_sweep_solves_each_steady_state_once(monkeypatch, alpha):
    # rows as per-beta public calls give them, from one solve per protocol
    betas = np.linspace(0.7, 0.95, 12)
    expected = []
    for beta in betas:
        params = PopulationParams.from_ratio(0.5, beta, 2.0)
        for K in range(2 if alpha > 1 else 1, 5):
            tag = check_equilibrium(Protocol(alpha, PopulationStrategy.pure(K)), params).tag
            w = mixed_equilibrium_weight(alpha, K, params)
            expected.append((beta, K, tag.value, math.nan if w is None else w))

    solved = []

    def counting(protocol, rho=None):
        solved.append((protocol.alpha, protocol.strategy.weights))
        return invariant_distribution(protocol, rho)

    for module in (design_module, equilibrium_module):
        monkeypatch.setattr(module, "invariant_distribution", counting)
    rows = classification_sweep(alpha, 0.5, 2.0, betas, k_max=4)
    assert [r[:3] for r in rows] == [r[:3] for r in expected]
    np.testing.assert_array_equal([r[3] for r in rows], [r[3] for r in expected])
    assert len(solved) == len(set(solved))


def test_fig3_shape():
    rows = optimal_efficiency_sweep(0.5, 2.0, np.linspace(0.78, 0.96, 8), alpha_steps=60)
    assert all(row[3] >= row[4] for row in rows)  # eff_opt >= eff_piK
    assert any(row[3] > row[4] + 1e-9 for row in rows)  # strictly better somewhere


def test_fig4_cap_and_gap():
    rows = fixed_threshold_sweep(0.5, 2.0, np.linspace(0.75, 0.97, 8), fixed_K=3,
                                 alpha_steps=60)
    assert all(row[2] <= 0.5625 + 1e-12 for row in rows)
    assert any(row[1] - row[2] > 0.2 for row in rows)


def test_asymptotic_efficiency_trend():
    # more patience: best robust canonical protocol weakly improves, and the
    # best equilibrium threshold weakly grows
    best_eff, best_k = [], []
    for beta in (0.9, 0.95, 0.99, 0.995):
        scan = exhaustive_scan(PopulationParams.from_ratio(0.5, beta, 2.0))
        robust = [k for k, rep in scan.items() if rep.tag.value == "robust"]
        assert robust
        best_k.append(max(robust))
        best_eff.append(max((k / (k + 1)) ** 2 for k in robust))
    assert all(a <= b for a, b in zip(best_eff, best_eff[1:]))
    assert all(a <= b for a, b in zip(best_k, best_k[1:]))


def test_equilibrium_marginals_capped_by_deviation_value(rng):
    # At an equilibrium the marginal value of a token is capped by the value
    # of mimicking a one-token-richer agent until the first forced shortfall:
    # M(k) <= h*b / (1 - beta*(1-h)) with per-period hazard h = rho*(1-nu),
    # hence strictly below b/beta (which is what "always request" needs).
    # The cruder cap rho*b fails, e.g. at rho=.5, beta=.875, r=2.64, K=1.
    from token_lab import solve_marginals

    found = 0
    for _ in range(60):
        beta = float(rng.uniform(0.75, 0.98))
        r = float(rng.uniform(1.5, 6.0))
        params = PopulationParams.from_ratio(0.5, beta, r)
        scan = exhaustive_scan(params)
        for k, rep in scan.items():
            if not rep.is_equilibrium:
                continue
            found += 1
            steady = invariant_distribution(Protocol.pi_k(k))
            m = solve_marginals(k, params, steady, extra_above=2).M
            h = params.rho * (1 - steady.nu)
            assert np.all(m <= h * params.b / (1 - beta * (1 - h)) + 1e-9)
            assert np.all(m < params.b / beta)
    assert found > 20
