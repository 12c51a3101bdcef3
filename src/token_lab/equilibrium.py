"""Equilibrium classification and parameter intervals for threshold protocols.

A pure threshold-K protocol is an equilibrium exactly when an individual,
facing the steady state the protocol itself induces, is willing both to keep
serving until it reaches K tokens and to stop serving there:

    M(K-1) >= c/beta    (worth earning the K-th token)
    M(K)   <= c/beta    (not worth earning the (K+1)-th)

Robustness means both inequalities are strict; the protocol then survives
small perturbations of (r, beta) because the two indifference gaps, the low
slack and the negated high slack,

    F(beta) = M(K-1, beta) - c/beta
    G(beta) = M(K, beta)   - c/beta

are continuous with unique zeros beta_L (of F) and beta_H (of G) bracketing
a non-degenerate equilibrium interval.  F is strictly increasing in beta; G
has the sign of the strictly increasing

    M(K-1, beta) - (1 - 1/(rho(1-nu)) + 1/(rho(1-nu)beta)) * c/beta

because M(K) = q M(K-1) with the decay ratio q = -phi_l/(phi_c + phi_r) > 0.
The steady state, hence (mu, nu), does not depend on beta or r, so it is
computed once per interval.

In r the interval is closed-form: M is linear in (b, c), so with A the
marginal solution for (b, c) = (1, 0) and B for (0, 1),

    r_L = (1/beta - B(K-1)) / A(K-1),   r_H = (1/(q beta) - B(K-1)) / A(K-1).

Mixtures over two adjacent thresholds {K, K+1} are in equilibrium only when
the individual is exactly indifferent at K: M(K) = c/beta computed against
the mixed steady state's (mu, nu), with M(K-1) >= c/beta still required.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidSupply, NoRoot
from .population import (
    PopulationParams,
    PopulationStrategy,
    Protocol,
    invariant_distribution,
)
from .serialize import csv_lines
from .values import _coefficients, _marginal, coefficients

ROOT_TOL = 1e-10  # bisection tolerance in the parameter (beta or w)
CLASS_TOL = 1e-9  # slack tolerance separating boundary from robust/none


class EquilibriumClass(str, Enum):
    NOT_EQUILIBRIUM = "none"
    BOUNDARY = "boundary"
    ROBUST = "robust"


@dataclass(frozen=True)
class EquilibriumReport:
    """Classification of one protocol at one parameter point."""

    tag: EquilibriumClass
    slack_low: float  # M(K-1) - c/beta
    slack_high: float  # c/beta - M(K)

    @property
    def is_equilibrium(self) -> bool:
        return self.tag is not EquilibriumClass.NOT_EQUILIBRIUM

    def as_dict(self) -> dict:
        return {
            "class": self.tag.value,
            "slack_low": self.slack_low,
            "slack_high": self.slack_high,
        }


@dataclass(frozen=True)
class ParameterInterval:
    """Closed parameter interval on which a protocol stays an equilibrium."""

    lo: float
    hi: float
    kind: str  # "beta" or "r"

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains_strictly(self, x: float) -> bool:
        return self.lo < x < self.hi


def classify(slack_low: float, slack_high: float, tol: float = CLASS_TOL) -> EquilibriumClass:
    if slack_low < -tol or slack_high < -tol:
        return EquilibriumClass.NOT_EQUILIBRIUM
    if not _robust(slack_low, slack_high, tol):
        return EquilibriumClass.BOUNDARY
    return EquilibriumClass.ROBUST


def _robust(low, high, tol: float):
    """Whether ``classify`` calls the slacks ROBUST (both clear tol, and -tol
    when tol < 0), elementwise for arrays."""
    return (low > tol) & (high > tol) & (low >= -tol) & (high >= -tol)


def _pure_threshold(protocol: Protocol) -> int:
    K = protocol.strategy.pure_threshold
    if K < 1:
        raise ValueError("equilibrium analysis needs a serving threshold K >= 1")
    return K


def _slacks(K: int, params: PopulationParams, mu, nu) -> tuple:
    """Slacks M(K-1) - c/beta and c/beta - M(K) of a threshold-K server at the
    steady state (mu, nu), for scalars or elementwise for arrays."""
    phi = _coefficients(params, mu, nu)
    m_low = _marginal(K - 1, K, phi, params.beta, params.b, params.c)
    bar = params.c / params.beta
    return m_low - bar, bar - m_low * phi.decay


def check_equilibrium(
    protocol: Protocol, params: PopulationParams, tol: float = CLASS_TOL
) -> EquilibriumReport:
    """Classify a pure threshold protocol at the given parameters.

    Strict slacks on both conditions are equivalent to (r, beta) lying in the
    interior of the equilibrium parameter set, because both interval
    endpoints are zeros of strictly monotone gap functions; no perturbed
    re-solve is needed.
    """
    K = _pure_threshold(protocol)
    steady = invariant_distribution(protocol)
    slack_low, slack_high = _slacks(K, params, steady.mu, steady.nu)
    return EquilibriumReport(classify(slack_low, slack_high, tol), slack_low, slack_high)


def _bisect_increasing(f, lo: float, hi: float, tol: float) -> float:
    """A root of a continuous f with f(lo) < 0 < f(hi), by bisection on the
    sign of f (the root of an increasing f)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def beta_interval(
    protocol: Protocol, rho: float, r: float, tol: float = ROOT_TOL
) -> ParameterInterval:
    """Equilibrium interval [beta_L, beta_H] in the discount factor."""
    if r <= 1.0:
        raise ValueError(f"benefit/cost ratio must exceed 1, got {r}")
    K = _pure_threshold(protocol)
    steady = invariant_distribution(protocol)  # independent of beta and r
    mu, nu = steady.mu, steady.nu

    def gap_low(beta: float) -> float:
        return _slacks(K, PopulationParams.from_ratio(rho, beta, r), mu, nu)[0]

    def gap_high(beta: float) -> float:
        return -_slacks(K, PopulationParams.from_ratio(rho, beta, r), mu, nu)[1]

    lo, hi = 1e-6, 1.0 - 1e-12
    if gap_low(hi) < 0.0:
        raise NoRoot(f"threshold {K} is never an equilibrium at r={r}")
    beta_l = _bisect_increasing(gap_low, lo, hi, tol)
    if gap_high(hi) < 0.0:
        raise NoRoot(f"stopping condition never binds below beta=1 at r={r}")
    beta_h = _bisect_increasing(gap_high, max(lo, beta_l - tol), hi, tol)
    return ParameterInterval(lo=beta_l, hi=beta_h, kind="beta")


def r_interval(protocol: Protocol, rho: float, beta: float) -> ParameterInterval:
    """Equilibrium interval [r_L, r_H] in the benefit/cost ratio (closed form
    via linearity of the marginals in (b, c))."""
    K = _pure_threshold(protocol)
    steady = invariant_distribution(protocol)
    # (b, c) only enter through the ghost values M(-1) = b/beta and
    # M(K) = c/beta, so M(K-1) splits into b*A + c*B with A, B the unit
    # solutions.
    params = PopulationParams.from_ratio(rho, beta, 2.0)  # b, c dummies here
    phi = coefficients(params, steady)
    A = float(_marginal(K - 1, K, phi, beta, b=1.0, c=0.0))
    B = float(_marginal(K - 1, K, phi, beta, b=0.0, c=1.0))
    if A <= 0.0:
        raise NoRoot("benefit-side marginal vanished; no r interval")
    q = phi.decay
    r_lo = (1.0 / beta - B) / A
    r_hi = (1.0 / (q * beta) - B) / A
    return ParameterInterval(lo=r_lo, hi=r_hi, kind="r")


@dataclass(frozen=True)
class InterleavingTable:
    """Equilibrium intervals of the canonical protocols for K = 1..K_max."""

    thresholds: list[int]
    intervals: list[ParameterInterval]
    chain_holds: bool  # lo(K-1) < lo(K) < hi(K-1) < hi(K) for every K
    lower_endpoints_increasing: bool

    def lengths(self) -> list[float]:
        """Interval lengths, exposed as a diagnostic only: whether they
        shrink monotonically is an open question, never asserted."""
        return [iv.length for iv in self.intervals]

    def to_csv(self) -> str:
        rows = ((k, iv.lo, iv.hi) for k, iv in zip(self.thresholds, self.intervals))
        return csv_lines(("K", "lo", "hi"), rows)


def interval_interleaving(
    K_max: int,
    rho: float,
    r: float | None = None,
    beta: float | None = None,
    tol: float = ROOT_TOL,
) -> InterleavingTable:
    """Intervals for the protocols Pi_1..Pi_{K_max} plus the strict
    interleaving verdict: consecutive intervals overlap but never nest.
    ``tol`` is the bisection tolerance of beta intervals; r intervals are
    closed-form."""
    if (r is None) == (beta is None):
        raise ValueError("fix exactly one of r (beta intervals) or beta (r intervals)")
    if K_max < 1:
        raise ValueError("K_max must be at least 1")
    ks = list(range(1, K_max + 1))
    if r is not None:
        ivs = [beta_interval(Protocol.pi_k(k), rho, r, tol) for k in ks]
    else:
        ivs = [r_interval(Protocol.pi_k(k), rho, beta) for k in ks]
    chain = all(
        prev.lo < cur.lo < prev.hi < cur.hi for prev, cur in zip(ivs, ivs[1:])
    )
    lower_mono = all(prev.lo < cur.lo for prev, cur in zip(ivs, ivs[1:]))
    return InterleavingTable(ks, ivs, chain, lower_mono)


def mixed_equilibrium_weight(
    alpha: float,
    K: int,
    params: PopulationParams,
    tol: float = CLASS_TOL,
    w_tol: float = ROOT_TOL,
) -> float | None:
    """Weight w on threshold K+1 making the mix {K: 1-w, K+1: w} an
    equilibrium at ``alpha``, or None when no such weight exists.

    The individual plays pure strategies, so the indifference M(K) = c/beta
    is evaluated through the pure threshold-K system against the mixed steady
    state's (mu, nu).  No monotonicity in w is assumed: the residual is
    bisected only when it changes sign between the endpoints.
    """
    if K < 1:
        raise ValueError("mixing requires a serving threshold K >= 1")
    if not (0.0 < alpha < K + 1):
        raise InvalidSupply(f"alpha must lie in (0, {K + 1}), got {alpha}")
    return _mixed_weight(alpha, K, params, {}, tol, w_tol)


def _mixed_weight(
    alpha: float,
    K: int,
    params: PopulationParams,
    states: dict[float, tuple[float, float]],
    tol: float,
    w_tol: float,
) -> float | None:
    """``mixed_equilibrium_weight`` given ``states``, the steady states
    w -> (mu, nu) of the mix {K: 1-w, K+1: w} at ``alpha`` solved so far; it
    gains every weight solved here.  They do not depend on ``params``, so a
    caller sweeping beta passes one dict per (alpha, K) and solves each
    weight once."""

    def slacks(w: float) -> tuple[float, float]:
        if w not in states:
            steady = invariant_distribution(Protocol(alpha, PopulationStrategy.mix(K, w)))
            states[w] = steady.mu, steady.nu
        return _slacks(K, params, *states[w])

    def residual(w: float) -> float:
        return -slacks(w)[1]  # M(K) - c/beta

    # w = 0 is the pure-K protocol, which needs alpha < K to have a steady
    # state; otherwise start the bracket just inside the mixed region.
    w_lo = 0.0 if alpha < K else 1e-9
    f_lo, f_hi = residual(w_lo), residual(1.0)
    if abs(f_lo) <= tol:
        w = w_lo
    elif abs(f_hi) <= tol:
        w = 1.0
    elif f_lo * f_hi > 0.0:
        return None
    else:
        sign = 1.0 if f_lo < 0.0 else -1.0
        w = _bisect_increasing(lambda x: sign * residual(x), w_lo, 1.0, w_tol)
    if slacks(w)[0] < -tol:
        return None
    return w
