"""Values and marginal utilities of an individual playing against a steady
state.

Fix the population aggregates (mu, nu) and a server strategy for one agent.
The discounted value V(k) of holding k tokens satisfies a linear recursion:
on a client turn the agent pays one token for benefit b when it can; on a
server turn it earns one token at cost c when it serves.  The marginal
utility of a token is M(k) = V(k+1) - V(k).

For a pure threshold K the marginals below the threshold solve a K x K
tridiagonal system

    [phi_c phi_r          ] [M(0)  ]   [(1-nu)*rho*b]
    [phi_l phi_c phi_r    ] [ ...  ] = [     0      ]
    [      ...            ] [ ...  ]   [     0      ]
    [         phi_l phi_c ] [M(K-1)]   [(1-mu)*rho*c]

with phi_l = -(1-nu)*rho*beta, phi_c = 1-beta+((1-nu)+(1-mu))*rho*beta,
phi_r = -(1-mu)*rho*beta.  The sign relations phi_l, phi_r < 0 < phi_c and
phi_c > -phi_l - phi_r make the matrix strictly diagonally dominant, hence
invertible.  Above the threshold the marginals decay geometrically:
M(K+j) = q^j * M(K) with q = -phi_l/(phi_c+phi_r) in (0, 1).

The ghost values M(-1) = b/beta and M(K) = c/beta turn the first and last
rows into the interior recursion phi_l M(k-1) + phi_c M(k) + phi_r M(k+1) = 0.
Its characteristic polynomial phi_r x^2 + phi_c x + phi_l is negative at 0
and equals 1-beta > 0 at 1, so its roots satisfy 0 < s < 1 < L, and the
solution that meets both ghost values is, for 0 <= k < K,

    M(k) = [b s^(k+1) expm1((K-k) l) + c L^(k-K) expm1((k+1) l)]
           / (beta expm1((K+1) l)),

with s = 2 phi_l / (-phi_c - sqrt(phi_c^2 - 4 phi_l phi_r)), L = phi_l /
(phi_r s) and l = log(s/L) = 2 log s - log(phi_l/phi_r) < 0.  Each term of
the numerator has the sign of the denominator, so nothing cancels, not even
as beta -> 1 where s and L both tend to 1; and no power is positive, so
nothing overflows.  It is evaluated with NumPy ufuncs only (np.power, np.log,
np.expm1, np.sqrt), never ``**`` on NumPy scalars: a scalar ``**`` and the
array loop of np.power may round differently, and a batch of cells must give
the slacks of the one-cell call bit for bit.

Three independent routes are provided and cross-check each other in the test
suite: the closed form for M, a direct linear solve for V, and a fixed-point
iteration of the value recursion (contraction modulus beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateState
from .population import PopulationParams, SteadyState
from .serialize import csv_lines


@dataclass(frozen=True)
class CoefficientTriple:
    """Auxiliary coefficients of the marginal-utility system."""

    phi_l: float
    phi_c: float
    phi_r: float

    @property
    def decay(self) -> float:
        """Above-threshold ratio q = -phi_l / (phi_c + phi_r), in (0, 1)."""
        return -self.phi_l / (self.phi_c + self.phi_r)


def coefficients(params: PopulationParams, steady: SteadyState) -> CoefficientTriple:
    """Tridiagonal coefficients for the given environment and steady state."""
    return _coefficients(params, steady.mu, steady.nu)


def _coefficients(params: PopulationParams, mu, nu) -> CoefficientTriple:
    """Coefficients for scalar (mu, nu), or one per cell for arrays."""
    if (np.maximum(mu, nu) >= 1.0).any():  # np.any is slow on floats
        raise DegenerateState(f"mu={mu}, nu={nu}: no trade ever happens")
    rb = params.rho * params.beta
    return CoefficientTriple(
        phi_l=-(1.0 - nu) * rb,
        phi_c=1.0 - params.beta + ((1.0 - nu) + (1.0 - mu)) * rb,
        phi_r=-(1.0 - mu) * rb,
    )


@dataclass(frozen=True, eq=False)
class MarginalProfile:
    """Marginals M(0..Kmax) and/or values V(0..Kmax+1) for one strategy.

    Whichever route produced the profile fills its own vector; the CLI merges
    both.  The consistency M(k) = V(k+1) - V(k) is a cross-check between
    routes, not an identity of a single solve.
    """

    K: int
    M: np.ndarray | None
    V: np.ndarray | None
    params: PopulationParams = field(repr=False)
    steady: SteadyState = field(repr=False)

    def __post_init__(self):
        for vec in (self.M, self.V):
            if vec is not None:
                vec.setflags(write=False)

    def to_csv(self) -> str:
        m = self.M if self.M is not None else []
        v = self.V if self.V is not None else []
        n = max(len(m), len(v))
        rows = (
            (k, m[k] if k < len(m) else math.nan, v[k] if k < len(v) else math.nan)
            for k in range(n)
        )
        return csv_lines(("k", "M", "V"), rows)


def solve_marginals(
    K: int,
    params: PopulationParams,
    steady: SteadyState,
    extra_above: int = 0,
) -> MarginalProfile:
    """Marginal utilities M(0..K) of a pure threshold-K server.

    M(0..K-1) is the closed-form solution of the tridiagonal system; M(K) and
    the optional ``extra_above`` diagnostics follow the geometric decay
    M(K+j) = q^j M(K).
    """
    if K < 1:
        raise ValueError(
            "the marginal system starts at K >= 1; a never-serving agent has "
            "no below-threshold marginals"
        )
    phi = coefficients(params, steady)
    m = np.empty(K + 1 + extra_above)
    m[:K] = _marginal(np.arange(K), K, phi, params.beta, params.b, params.c)
    m[K:] = m[K - 1] * phi.decay ** np.arange(1, extra_above + 2)
    return MarginalProfile(K=K, M=m, V=None, params=params, steady=steady)


def _marginal(k, K: int, phi: CoefficientTriple, beta: float, b: float, c: float):
    """M(k) for 0 <= k < K and an arbitrary (b, c), from the two-root form in
    the module docstring.  ``k`` may be an array (with scalar coefficients),
    or ``phi`` may hold one coefficient per cell (with one k)."""
    phi_l, phi_c, phi_r = phi.phi_l, phi.phi_c, phi.phi_r
    s = 2.0 * phi_l / (-phi_c - np.sqrt(phi_c * phi_c - 4.0 * phi_l * phi_r))
    ell = 2.0 * np.log(s) - np.log(phi_l / phi_r)
    L = phi_l / (phi_r * s)
    low = b * np.power(s, k + 1) * np.expm1((K - k) * ell)
    high = c * np.power(L, k - K) * np.expm1((k + 1) * ell)
    return (low + high) / (beta * np.expm1((K + 1) * ell))


def _sigma_profile(K: int, n: int, sigma=None) -> np.ndarray:
    if sigma is not None:
        out = np.zeros(n)
        s = np.asarray(sigma, dtype=float)
        out[: len(s)] = np.clip(s, 0.0, 1.0)
        return out
    return (np.arange(n) < K).astype(float)


def _value_system(
    K: int, params: PopulationParams, steady: SteadyState, sigma=None
) -> tuple[np.ndarray, np.ndarray]:
    """Dense linear system for V(0..K+1) under per-holding service
    probabilities (sigma defaults to the pure threshold-K profile)."""
    mu, nu = steady.mu, steady.nu
    if mu >= 1.0 or nu >= 1.0:
        raise DegenerateState(f"mu={mu}, nu={nu}: no trade ever happens")
    rho, beta = params.rho, params.beta
    serve = rho * _sigma_profile(K, K + 2, sigma) * (1.0 - mu)  # serve and get paid
    buy = np.full(K + 2, rho * (1.0 - nu))  # buy when a token is held
    buy[0] = 0.0
    A = (
        np.diag(1.0 - beta * (1.0 - serve - buy))
        + np.diag(-beta * buy[1:], -1)
        + np.diag(-beta * serve[:-1], 1)
    )
    return A, buy * params.b - serve * params.c


def solve_values(
    K: int,
    params: PopulationParams,
    steady: SteadyState,
    sigma=None,
) -> MarginalProfile:
    """Values V(0..K+1) from a direct linear solve of the recursion.

    ``sigma`` optionally replaces the pure profile with per-holding service
    probabilities in [0, 1] (positions K and above default to 0).  K = 0 is
    the never-serve strategy, whose system is lower triangular.
    """
    if K < 0:
        raise ValueError("threshold must be non-negative")
    A, rhs = _value_system(K, params, steady, sigma)
    v = np.linalg.solve(A, rhs)
    return MarginalProfile(K=K, M=None, V=v, params=params, steady=steady)


def default_sweeps(params: PopulationParams, tol: float = 1e-10) -> int:
    """Iteration count making the fixed-point tail provably below ``tol``
    relative to the value bound b/(1-beta)."""
    beta, b = params.beta, params.b
    target = tol * (1.0 - beta) / max(b, 1.0)
    return max(1, math.ceil(math.log(target) / math.log(beta)))


def value_iteration_oracle(
    K: int,
    params: PopulationParams,
    steady: SteadyState,
    sweeps: int | None = None,
    sigma=None,
) -> MarginalProfile:
    """Fixed-point iteration of the value recursion from V = 0.

    Independent of the linear-solve route; each sweep contracts the sup-norm
    error by beta.  With the default sweep count the distance to
    ``solve_values`` is below 1e-8.
    """
    if K < 0:
        raise ValueError("threshold must be non-negative")
    mu, nu = steady.mu, steady.nu
    if mu >= 1.0 or nu >= 1.0:
        raise DegenerateState(f"mu={mu}, nu={nu}: no trade ever happens")
    if sweeps is None:
        sweeps = default_sweeps(params, tol=1e-9)
    rho, beta, b, c = params.rho, params.beta, params.b, params.c
    n = K + 2
    sig = _sigma_profile(K, n, sigma)
    serve = rho * sig * (1.0 - mu)
    buy = np.full(n, rho * (1.0 - nu))
    buy[0] = 0.0
    stay = 1.0 - serve - buy
    gain = buy * b - serve * c

    v = np.zeros(n)
    up = np.zeros(n)
    down = np.zeros(n)
    for _ in range(sweeps):
        up[: n - 1] = v[1:]  # value after earning a token (top never serves)
        down[1:] = v[: n - 1]  # value after spending a token
        v = gain + beta * (serve * up + buy * down + stay * v)
    return MarginalProfile(K=K, M=None, V=v, params=params, steady=steady)
