"""Designer-side tools: efficiency, threshold bounds, bisection search for an
equilibrium threshold, and grid search for the most efficient protocol.

Efficiency of a protocol is the fraction of matches in which trade actually
happens, Eff = (1 - mu)(1 - nu), relative to the first best where every match
trades.  The canonical protocol Pi_K (supply K/2, threshold K) has the
uniform invariant distribution and Eff(Pi_K) = (K/(K+1))^2, which caps any
protocol using threshold K; a supply cap gives Eff <= 1 - 1/(2*ceil(alpha)+1).

Every threshold whose canonical protocol is a robust equilibrium lies inside
closed-form bounds [K_L, K_H] driven by the geometric growth/decay of the
marginals, which shrinks the designer's search to a finite range.  Inside the
range, one midpoint check per step suffices: if the climbing condition
M(K-1) >= c/beta fails at K, it fails for every larger threshold; if the
stopping condition M(K) <= c/beta fails, it fails for every smaller one, so
the equilibrium thresholds form a contiguous run and bisection lands on one
in at most ceil(log2(K_H - K_L)) + 1 checks.

The canonical supply K/2 need not be optimal: the grid search below often
finds a higher threshold with fewer tokens strictly more efficient.  It
solves the grid row by row, once per command whatever its discount factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .equilibrium import (
    CLASS_TOL,
    ROOT_TOL,
    EquilibriumReport,
    _mixed_weight,
    _robust,
    _slacks,
    check_equilibrium,
    classify,
)
from .errors import NoEquilibriumFound
from .population import (
    PopulationParams,
    PopulationStrategy,
    Protocol,
    SteadyState,
    _pure_row,
    invariant_distribution,
)

DEFAULT_ALPHA_STEPS = 200


def efficiency(steady: SteadyState) -> float:
    """Fraction of matches that trade: (1 - mu)(1 - nu)."""
    return _efficiency(steady.mu, steady.nu)


def _efficiency(mu, nu):
    return (1.0 - mu) * (1.0 - nu)  # elementwise for arrays


def efficiency_bounds(alpha: float, K: int) -> tuple[float, float]:
    """Upper bounds (supply-driven, threshold-driven) on Eff(alpha, K)."""
    if alpha <= 0 or K < 1:
        raise ValueError("need alpha > 0 and K >= 1")
    upper_alpha = 1.0 - 1.0 / (2.0 * math.ceil(alpha) + 1.0)
    upper_k = (K / (K + 1.0)) ** 2
    return upper_alpha, upper_k


@dataclass(frozen=True)
class ThresholdBounds:
    """Real-valued bracket containing every robust-equilibrium threshold."""

    K_L: float
    K_H: float

    @property
    def integer_range(self) -> range:
        lo = max(1, math.ceil(self.K_L))
        hi = math.floor(self.K_H)
        return range(lo, hi + 1)

    def as_dict(self) -> dict:
        return {"K_L": self.K_L, "K_H": self.K_H}


def threshold_bounds(params: PopulationParams) -> ThresholdBounds:
    """Closed-form bracket [K_L, K_H] for robust canonical protocols.

    Both logarithm bases and arguments lie in (0, 1), so both logs are
    positive; K_L is floored at 0.
    """
    rho, beta, r = params.rho, params.beta, params.r
    base_low = rho * beta / (2.0 * (1.0 - beta) + 2.0 * rho * beta)
    base_high = rho * beta / (1.0 - beta + rho * beta)
    k_low = math.log(1.0 / (1.0 + r)) / math.log(base_low) - 1.0
    k_high = math.log(1.0 / (2.0 * r)) / math.log(base_high)
    return ThresholdBounds(K_L=max(k_low, 0.0), K_H=k_high)


@dataclass(frozen=True)
class DesignResult:
    """Outcome of the designer's bisection over canonical protocols."""

    K_star: int
    alpha_star: float
    efficiency: float
    iterations: int
    trail: tuple[tuple[int, float, float, str], ...]  # (K, slack_low, slack_high, class)
    bounds: ThresholdBounds

    def as_dict(self) -> dict:
        return {
            "K_star": self.K_star,
            "alpha_star": self.alpha_star,
            "efficiency": self.efficiency,
            "iterations": self.iterations,
            "K_L": self.bounds.K_L,
            "K_H": self.bounds.K_H,
            "trail": [
                {"K": k, "slack_low": sl, "slack_high": sh, "class": tag}
                for k, sl, sh, tag in self.trail
            ],
        }


def bisection_design(params: PopulationParams, tol: float = CLASS_TOL) -> DesignResult:
    """Find an equilibrium canonical protocol by bisecting on the threshold.

    Midpoints are integers inside [K_L, K_H]; a failed climbing condition
    discards everything to the right, a failed stopping condition everything
    to the left.  Raises NoEquilibriumFound when the integer range is empty or
    the run of equilibrium thresholds misses it (the bracket is necessary,
    not sufficient).
    """
    bounds = threshold_bounds(params)
    rng = bounds.integer_range
    lo, hi = rng.start, rng.stop - 1
    iterations = 0
    trail: list[tuple[int, float, float, str]] = []
    while lo <= hi:
        K = (lo + hi) // 2
        iterations += 1
        report = check_equilibrium(Protocol.pi_k(K), params, tol)
        trail.append((K, report.slack_low, report.slack_high, report.tag.value))
        if report.is_equilibrium:
            return DesignResult(
                K_star=K,
                alpha_star=K / 2.0,
                efficiency=(K / (K + 1.0)) ** 2,
                iterations=iterations,
                trail=tuple(trail),
                bounds=bounds,
            )
        if report.slack_low < -tol:
            hi = K - 1  # no larger threshold can satisfy the climbing condition
        else:
            lo = K + 1  # no smaller threshold can satisfy the stopping condition
    raise NoEquilibriumFound(
        f"no equilibrium threshold in [{bounds.K_L:.4g}, {bounds.K_H:.4g}] at "
        f"rho={params.rho}, beta={params.beta}, r={params.r}"
    )


def exhaustive_scan(
    params: PopulationParams, K_max: int | None = None, tol: float = CLASS_TOL
) -> dict[int, EquilibriumReport]:
    """Classify the canonical protocol for every threshold up to K_max
    (default: a little beyond the upper bound).  Oracle for the bisection."""
    if K_max is None:
        K_max = math.ceil(threshold_bounds(params).K_H) + 5
    return {
        K: check_equilibrium(Protocol.pi_k(K), params, tol) for K in range(1, K_max + 1)
    }


@dataclass(frozen=True)
class ProtocolChoice:
    alpha: float
    K: int
    efficiency: float

    def as_dict(self) -> dict:
        return {"alpha": self.alpha, "K": self.K, "efficiency": self.efficiency}


@dataclass(frozen=True)
class SearchResult:
    """Best robust protocol overall and best robust canonical protocol."""

    best: ProtocolChoice
    best_canonical: ProtocolChoice | None

    def as_dict(self) -> dict:
        return {
            "best": self.best.as_dict(),
            "best_pi_k": None
            if self.best_canonical is None
            else self.best_canonical.as_dict(),
        }


def optimal_protocol_search(
    params: PopulationParams,
    alpha_steps: int = DEFAULT_ALPHA_STEPS,
    K_range: Iterable[int] | None = None,
    tol: float = CLASS_TOL,
) -> SearchResult:
    """Grid search for the most efficient robust equilibrium protocol.

    For each threshold K >= 1 the supply grid is alpha = j*K/alpha_steps,
    j = 1..alpha_steps-1 with alpha_steps >= 2 (ValueError otherwise); only
    robust classifications count.  Ties break toward smaller K, then smaller
    alpha (iteration order does that).  The upper threshold bound applies to
    any robust protocol, canonical or not, so the default K range stops there.
    """
    (result,) = _grid_search([(params, K_range)], alpha_steps, tol)
    if result is None:
        raise NoEquilibriumFound(
            f"no robust equilibrium protocol at rho={params.rho}, "
            f"beta={params.beta}, r={params.r}"
        )
    return result


def _grid_search(
    searches: Sequence[tuple[PopulationParams, Iterable[int] | None]],
    alpha_steps: int,
    tol: float,
) -> list[SearchResult | None]:
    """Best robust protocol of each (params, K_range) search (None: K up to
    floor(K_H)), or None where no cell is robust.  Steady states depend only on
    (alpha, K): each row is solved once per call, its slacks once per search."""
    if alpha_steps < 2:
        raise ValueError(f"alpha_steps must be at least 2, got {alpha_steps}")
    rows: dict[int, tuple] = {}  # K -> (alphas, eff, mu, nu, chunks of cells)
    results = []
    for params, ks in searches:
        if ks is None:
            ks = range(1, max(1, math.floor(threshold_bounds(params).K_H)) + 1)
        best: list[ProtocolChoice | None] = [None, None]  # overall, canonical
        for K in ks:
            if K < 1 or K != int(K):
                raise ValueError(f"thresholds must be integers >= 1, got {K}")
            K = int(K)
            if K not in rows:
                alphas = np.arange(1, alpha_steps) * K / alpha_steps
                # independent chunks of cells keep each (cells, K) array near 8 MB
                parts = np.array_split(range(len(alphas)), 1 + len(alphas) * K // 2**20)
                mu, nu = np.concatenate([_pure_row(K, alphas[s]) for s in parts], 1)
                rows[K] = alphas, _efficiency(mu, nu), mu, nu, parts
            alphas, eff, mu, nu, parts = rows[K]
            slacks = [_slacks(K, params, mu[s], nu[s]) for s in parts]
            robust = _robust(*np.concatenate(slacks, 1), tol)
            for i, cells in enumerate((robust, robust & (alphas == K / 2.0))):
                if cells.any():  # first cell of the row maximum, as a scan finds it
                    j = np.flatnonzero(cells)[np.argmax(eff[cells])]
                    if best[i] is None or eff[j] > best[i].efficiency:
                        best[i] = ProtocolChoice(float(alphas[j]), K, float(eff[j]))
        results.append(None if best[0] is None else SearchResult(*best))
    return results


def classification_sweep(
    alpha: float,
    rho: float,
    r: float,
    betas: Sequence[float],
    k_max: int = 10,
    tol: float = CLASS_TOL,
) -> list[tuple[float, int, str, float]]:
    """Rows (beta, K, class, mix_weight) for a fixed supply alpha.

    Thresholds K <= alpha are skipped (no bounded steady state).  mix_weight
    is the equilibrium weight on K+1 adjacent to K, NaN when none exists.
    """
    pure = {K: invariant_distribution(Protocol(alpha, PopulationStrategy.pure(K)))
            for K in range(1, k_max + 2) if alpha < K}
    # steady states of the mix {K, K+1}, shared across betas; its weights 0
    # and 1 are the pure K and K+1 protocols
    mixes = {K: {0.0: (pure[K].mu, pure[K].nu), 1.0: (pure[K + 1].mu, pure[K + 1].nu)}
             for K in pure if K <= k_max}
    rows = []
    for beta in betas:
        params = PopulationParams.from_ratio(rho, beta, r)
        for K, states in mixes.items():
            tag = classify(*_slacks(K, params, *states[0.0]), tol)
            w = _mixed_weight(alpha, K, params, states, tol, ROOT_TOL)
            rows.append((beta, K, tag.value, math.nan if w is None else w))
    return rows


def optimal_efficiency_sweep(
    rho: float,
    r: float,
    betas: Sequence[float],
    alpha_steps: int = DEFAULT_ALPHA_STEPS,
    tol: float = CLASS_TOL,
) -> list[tuple[float, int, float, float, float]]:
    """Rows (beta, K_star, alpha_star, eff_opt, eff_piK): best robust
    protocol vs best robust canonical protocol.  Zeros mark betas where no
    robust equilibrium exists (the community stays at the no-trade outcome).
    """
    searches = [(PopulationParams.from_ratio(rho, beta, r), None) for beta in betas]
    rows = []
    for beta, res in zip(betas, _grid_search(searches, alpha_steps, tol)):
        if res is None:
            rows.append((beta, 0, 0.0, 0.0, 0.0))
            continue
        eff_pik = 0.0 if res.best_canonical is None else res.best_canonical.efficiency
        rows.append((beta, res.best.K, res.best.alpha, res.best.efficiency, eff_pik))
    return rows


def fixed_threshold_sweep(
    rho: float,
    r: float,
    betas: Sequence[float],
    fixed_K: int = 3,
    alpha_steps: int = DEFAULT_ALPHA_STEPS,
    tol: float = CLASS_TOL,
) -> list[tuple[float, float, float]]:
    """Rows (beta, eff_opt, eff_fixedK): the cost of hard-wiring a threshold.

    eff_fixedK is the best robust protocol constrained to threshold fixed_K
    (supply free), 0 where no such equilibrium exists.
    """
    envs = [PopulationParams.from_ratio(rho, beta, r) for beta in betas]
    # fixed-K searches first, so a bad fixed_K fails before any row is solved
    searches = [(p, [fixed_K]) for p in envs] + [(p, None) for p in envs]
    effs = [0.0 if res is None else res.best.efficiency
            for res in _grid_search(searches, alpha_steps, tol)]
    return list(zip(betas, effs[len(envs) :], effs[: len(envs)]))
