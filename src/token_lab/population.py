"""Population model: environment parameters, threshold strategies, protocols,
and the invariant token distribution.

The community is a unit mass of agents who trade one service for one token.
Each period a fraction ``rho`` of agents is matched as clients with an equal
fraction of servers.  A server holding n tokens serves iff n is below its
threshold; a client buys iff it holds at least one token and meets a willing
server.  The designer publishes a protocol: a per-capita token supply
``alpha`` together with a population strategy (a pure threshold K, or a mix
over two adjacent thresholds).

Under a protocol the token-holding distribution follows a birth-death update
whose unique fixed point is geometric-like:

    eta(k)  proportional to  y^k * prod_{j<k} sigma(j)

where sigma(j) is the population service probability at holding j and the
tilt y equals (1 - mu)/(1 - nu) with mu = eta(0) (fraction unable to buy) and
nu = sum_k eta(k)(1 - sigma(k)) (fraction unwilling to serve).  The tilt
identity holds for every y by telescoping the balance equations, so the mean
condition sum_k k*eta(k) = alpha alone pins y down.  As a function of the
log-tilt t = log y the mean is strictly increasing, with derivative
Var_eta(k), so safeguarded Newton steps in t find it in a few evaluations.
The matching rate rho cancels from the fixed-point condition, so the
invariant distribution never depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import InvalidSupply, NoConvergence
from .serialize import csv_lines

# Tolerance on the mean condition, relative to min(1, alpha, top - alpha), and
# the cap on tilt evaluations per solve.
MEAN_TOL = 1e-13
MAX_TILT_STEPS = 200


@dataclass(frozen=True)
class PopulationParams:
    """Environment constants: matching rate, discount factor, benefit, cost.

    Only the benefit/cost ratio r = b/c matters for incentives; the CLI
    normalizes c = 1, b = r, but the library accepts any b > c > 0.
    """

    rho: float
    beta: float
    b: float
    c: float

    def __post_init__(self):
        if not (0.0 < self.rho <= 0.5):
            raise ValueError(f"rho must be in (0, 1/2], got {self.rho}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not (self.b > self.c > 0.0):
            raise ValueError(f"need b > c > 0, got b={self.b}, c={self.c}")

    @property
    def r(self) -> float:
        """Benefit/cost ratio, > 1 by construction."""
        return self.b / self.c

    @classmethod
    def from_ratio(cls, rho: float, beta: float, r: float) -> "PopulationParams":
        """Normalized parameters with c = 1 and b = r."""
        return cls(rho=rho, beta=beta, b=r, c=1.0)

    def with_beta(self, beta: float) -> "PopulationParams":
        return PopulationParams(rho=self.rho, beta=beta, b=self.b, c=self.c)


@dataclass(frozen=True)
class PopulationStrategy:
    """Population mix over threshold strategies.

    Supported on at most two *adjacent* thresholds {K, K+1}; anything wider
    cannot be played by a rational population.  ``weights`` maps threshold ->
    fraction of the population using it.
    """

    weights: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if any(k < 0 or not float(k).is_integer() for k, _ in self.weights):
            raise ValueError(f"thresholds must be non-negative integers, got {self.weights}")
        entries = tuple(sorted((int(k), float(w)) for k, w in self.weights if w != 0.0))
        if not entries:
            raise ValueError("strategy needs at least one threshold with weight > 0")
        ks = [k for k, _ in entries]
        ws = [w for _, w in entries]
        if len(ks) != len(set(ks)):
            raise ValueError("duplicate thresholds in strategy weights")
        if any(not (0.0 < w <= 1.0) for w in ws):
            raise ValueError("weights must lie in (0, 1]")
        if abs(sum(ws) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(ws)}")
        if len(ks) > 2 or (len(ks) == 2 and ks[1] - ks[0] != 1):
            raise ValueError("support must be at most two adjacent thresholds")
        object.__setattr__(self, "weights", entries)

    @classmethod
    def pure(cls, K: int) -> "PopulationStrategy":
        return cls(((K, 1.0),))

    @classmethod
    def mix(cls, K: int, weight_high: float) -> "PopulationStrategy":
        """Fraction ``weight_high`` plays threshold K+1, the rest plays K."""
        if weight_high == 0.0:
            return cls.pure(K)
        if weight_high == 1.0:
            return cls.pure(K + 1)
        return cls(((K, 1.0 - weight_high), (K + 1, weight_high)))

    @property
    def is_pure(self) -> bool:
        return len(self.weights) == 1

    @property
    def pure_threshold(self) -> int:
        if not self.is_pure:
            raise ValueError("strategy is a proper mix, no single threshold")
        return self.weights[0][0]

    @property
    def max_support(self) -> int:
        return self.weights[-1][0]

    def as_dict(self) -> dict[int, float]:
        return dict(self.weights)

    def sigma_vector(self, length: int) -> np.ndarray:
        """sigma(0), ..., sigma(length-1) as an array."""
        n = np.arange(length)
        out = np.zeros(length)
        for k, w in self.weights:
            out += w * (n < k)
        return out


@dataclass(frozen=True)
class Protocol:
    """Designer's choice: per-capita token supply plus a population strategy.

    Requires 0 < alpha < top threshold; at or above the top threshold the
    holding distribution has no bounded-support fixed point (nobody at the top
    serves, so tokens pile up without bound).
    """

    alpha: float
    strategy: PopulationStrategy

    def __post_init__(self):
        if not (0.0 < self.alpha < self.strategy.max_support):
            raise InvalidSupply(
                f"alpha must lie in (0, {self.strategy.max_support}) for this "
                f"strategy, got {self.alpha}"
            )

    @classmethod
    def pi_k(cls, K: int) -> "Protocol":
        """The canonical threshold-K protocol supplying K/2 tokens per capita."""
        return cls(alpha=K / 2.0, strategy=PopulationStrategy.pure(K))


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Invariant token distribution with its summary fractions.

    mu = eta(0) is the fraction of agents who cannot pay for service;
    nu = sum_k eta(k)(1 - sigma(k)) is the fraction who will not provide it.
    """

    eta: np.ndarray
    mu: float
    nu: float
    alpha: float
    strategy: PopulationStrategy = field(repr=False)
    iterations: int = 0  # tilt evaluations; 0 on the canonical uniform shortcut
    residual: float = 0.0  # |mean - alpha| where the solve stopped

    def __post_init__(self):
        self.eta.setflags(write=False)

    @property
    def support(self) -> int:
        """Largest holding with positive probability."""
        return len(self.eta) - 1

    def to_csv(self) -> str:
        return csv_lines(("k", "eta"), ((k, v) for k, v in enumerate(self.eta)))

    def sidecar(self) -> dict:
        """JSON companion to the eta CSV."""
        return {
            "alpha": self.alpha,
            "thresholds": [k for k, _ in self.strategy.weights],
            "weights": [w for _, w in self.strategy.weights],
            "mu": self.mu,
            "nu": self.nu,
        }


def _tilted_eta(log_prefix: np.ndarray, ks: np.ndarray, log_y) -> np.ndarray:
    # log-space keeps y^k finite over the bracket; a column of tilts, one eta each
    lw = log_prefix + ks * log_y
    w = np.exp(lw - lw.max(-1, keepdims=lw.ndim > 1))
    return w / w.sum(-1, keepdims=w.ndim > 1)


def _tilt_bracket(log_prefix: np.ndarray, a):
    """Log-tilts (lo, hi) with mean(eta_lo) < a < mean(eta_hi), for supplies
    0 < a < n = len(log_prefix) - 1 (elementwise for an array of supplies).

    With p = log_prefix (p(0) = 0) and t <= 0, mean(eta_t) <= e^(t + max p)
    n(n+1)/2; with t >= 0, n - mean(eta_t) <= e^(-t + max p - p(n)) n(n+1)/2.
    Each end keeps a factor 2 of margin, so no evaluation or expansion is
    needed to trust the signs.
    """
    n = len(log_prefix) - 1
    log_scale, spread = np.log(n * (n + 1.0)), log_prefix.max()
    return (
        np.log(a) - log_scale - spread,
        log_scale - np.log(n - a) + spread - log_prefix[-1],
    )


def invariant_distribution(
    protocol: Protocol,
    rho: float | None = None,
) -> SteadyState:
    """Unique invariant token distribution of a protocol.

    ``rho`` is accepted for interface symmetry with the transition dynamics
    but cancels from the fixed-point condition and never affects the result.

    The log-tilt t = log y starts at 0 and takes Newton steps on
    log(mean(eta_t)) = log(alpha), whose derivative is Var/mean (so a mean
    that decays like e^t, as for tiny supplies, is met in one step), inside a
    sign bracket derived from alpha (``_tilt_bracket``); a step that leaves
    the bracket is replaced by its midpoint.  A supply above top/2 is solved
    on the mirrored distribution (holdings top - k, supply top - alpha, tilt
    -t), so with a = min(alpha, top - alpha) the stop test
    |mean - a| <= MEAN_TOL * min(1, a) meets supplies near 0 and near the top
    in relative terms.  The solve also stops when no float is left inside the
    bracket (t exact to the last bit, as for large thresholds whose mean
    carries more rounding than the tolerance).  ``iterations`` counts the
    evaluations and ``residual`` is the final |mean - a|; more than
    MAX_TILT_STEPS evaluations raise ``NoConvergence``.  A pure threshold K
    with alpha = K/2 short-circuits to the exact uniform distribution (y = 1,
    no iteration).
    """
    if rho is not None and not (0.0 < rho <= 0.5):
        raise ValueError(f"rho must be in (0, 1/2], got {rho}")
    strategy = protocol.strategy
    top = strategy.max_support

    if strategy.is_pure and protocol.alpha == top / 2.0:
        eta = np.full(top + 1, 1.0 / (top + 1))
        return SteadyState(
            eta=eta,
            mu=float(eta[0]),
            nu=float(eta[-1]),
            alpha=protocol.alpha,
            strategy=strategy,
        )

    sig = strategy.sigma_vector(top)  # sigma(0..top-1); all > 0 inside support
    log_prefix = np.concatenate(([0.0], np.cumsum(np.log(sig))))
    ks = np.arange(top + 1, dtype=float)
    mirror = protocol.alpha > top / 2.0
    if mirror:  # eta(top - k) at tilt -t has the mirrored prefix and supply
        log_prefix = log_prefix[::-1] - log_prefix[-1]
    a = top - protocol.alpha if mirror else protocol.alpha
    lo, hi = (float(x) for x in _tilt_bracket(log_prefix, a))
    tol = MEAN_TOL * min(1.0, a)

    t, log_a = 0.0, np.log(a)
    for step in range(1, MAX_TILT_STEPS + 1):
        eta = _tilted_eta(log_prefix, ks, t)
        mean = float(ks @ eta)
        gap = mean - a
        if abs(gap) <= tol:
            break
        if gap < 0.0:
            lo = t
        else:
            hi = t
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # no float left inside the bracket: t is exact to the last bit
        dev = ks - mean
        var = float((dev * dev) @ eta)
        newton = t - (np.log(mean) - log_a) * mean / var if var > 0.0 else hi
        t = newton if lo < newton < hi else mid
    else:
        raise NoConvergence(
            f"tilt solve for alpha={protocol.alpha} left |mean - alpha| = "
            f"{abs(gap):.3g} after {MAX_TILT_STEPS} steps"
        )

    if mirror:
        eta = eta[::-1]
    sig_full = strategy.sigma_vector(top + 1)
    nu = float(eta @ (1.0 - sig_full))
    return SteadyState(
        eta=eta, mu=float(eta[0]), nu=nu, alpha=protocol.alpha, strategy=strategy,
        iterations=step, residual=abs(gap),
    )


def _pure_row(K: int, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, nu) of the pure threshold-K protocols at every supply in ``alphas``:
    the Newton iteration of ``invariant_distribution`` run in lockstep across
    the row, so each cell stops at the same tilt as its scalar solve."""
    log_prefix = np.zeros(K + 1)  # sigma = 1 below K, so the mirrored prefix is the same
    ks = np.arange(K + 1, dtype=float)
    mirror = alphas > K / 2.0
    a = np.where(mirror, K - alphas, alphas)
    lo, hi = _tilt_bracket(log_prefix, a)
    tol = MEAN_TOL * np.minimum(1.0, a)
    t, log_a = np.zeros(len(alphas)), np.log(a)
    idx = np.flatnonzero(alphas != K / 2.0)  # the canonical supply is uniform, y = 1
    for _ in range(MAX_TILT_STEPS):
        if idx.size == 0:
            break
        eta = _tilted_eta(log_prefix, ks, t[idx, None])
        # per-row dot products sum as the scalar solve does (eta @ ks does not)
        mean = (eta[:, None, :] @ ks[:, None])[:, 0, 0]
        gap = mean - a[idx]
        lo[idx] = np.where(gap < 0.0, t[idx], lo[idx])
        hi[idx] = np.where(gap < 0.0, hi[idx], t[idx])
        mid = 0.5 * (lo[idx] + hi[idx])
        live = (np.abs(gap) > tol[idx]) & (lo[idx] < mid) & (mid < hi[idx])
        # a finished cell leaves idx, so its tilt never moves again
        idx, mean, eta, mid = (x[live] for x in (idx, mean, eta, mid))
        dev = ks - mean[:, None]
        dev *= dev
        var = (eta[:, None, :] @ dev[:, :, None])[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(
                var > 0.0, t[idx] - (np.log(mean) - log_a[idx]) * mean / var, hi[idx]
            )
        t[idx] = np.where((lo[idx] < newton) & (newton < hi[idx]), newton, mid)
    if idx.size:
        raise NoConvergence(
            f"tilt solve for alpha={alphas[idx[0]]} did not converge in "
            f"{MAX_TILT_STEPS} steps"
        )
    eta = _tilted_eta(log_prefix, ks, t[:, None])
    eta[alphas == K / 2.0] = 1.0 / (K + 1)
    mu, nu = np.where(mirror, eta[:, K], eta[:, 0]), np.where(mirror, eta[:, 0], eta[:, K])
    return mu, nu  # fresh arrays: views would keep eta alive


def one_step_update(eta, strategy: PopulationStrategy, rho: float) -> np.ndarray:
    """One period of the token-holding dynamics at population level.

    An agent holding k gains a token with probability rho*(1-mu)*sigma(k)
    (server meeting a paying client) and, for k >= 1, spends one with
    probability rho*(1-nu) (client meeting a willing server); mu and nu are
    recomputed from the current distribution.  Conserves total mass and the
    mean holding exactly.
    """
    if not (0.0 < rho <= 0.5):
        raise ValueError(f"rho must be in (0, 1/2], got {rho}")
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or len(eta) == 0 or np.any(eta < 0) or abs(eta.sum() - 1.0) > 1e-9:
        raise ValueError("eta must be a probability vector over holdings 0..n")
    n = len(eta)
    sig = strategy.sigma_vector(n)
    mu = float(eta[0])
    nu = float(eta @ (1.0 - sig))

    up = rho * (1.0 - mu) * sig
    down = np.full(n, rho * (1.0 - nu))
    down[0] = 0.0  # a client without tokens cannot buy

    out = np.zeros(n + 1)
    out[:n] = eta * (1.0 - up - down)
    out[1 : n + 1] += eta * up
    out[:-2] += (eta * down)[1:]
    if out[-1] == 0.0:
        out = out[:n]
    return out
