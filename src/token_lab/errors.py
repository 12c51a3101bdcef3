"""Exception hierarchy shared across the library.

Every failure a caller can reasonably act on is a named subclass of
``TokenLabError``; the CLI maps them to exit code 1 with the class name in a
JSON diagnostic on stderr.
"""


class TokenLabError(Exception):
    """Base class for all library-level failures."""

    @property
    def name(self) -> str:
        return type(self).__name__


class InvalidSupply(TokenLabError):
    """Token supply incompatible with the strategy: no bounded-support
    invariant distribution exists (alpha <= 0 or alpha >= top threshold)."""


class DegenerateState(TokenLabError):
    """Steady state with mu = 1 (nobody can buy) or nu = 1 (nobody serves);
    marginal-utility analysis is undefined there."""


class NoConvergence(TokenLabError):
    """The steady-state tilt y leaves the fixed search range
    ``population.TILT_BRACKET``.

    Validated supplies can still raise it when alpha lies extremely close to 0
    or to the top threshold (e.g. alpha = 1e-13 or 1 - 1e-13 with K = 1),
    where the tilt needed to meet the mean condition is beyond the bracket.
    """


class NoRoot(TokenLabError):
    """An indifference-gap function has no zero inside the search bracket."""


class NoEquilibriumFound(TokenLabError):
    """The designer search exhausted its threshold range without finding an
    equilibrium protocol."""


class InfeasibleAllocation(TokenLabError):
    """Simulation token endowment cannot be allocated to the agents."""
