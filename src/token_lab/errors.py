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
    """The steady-state tilt solve used up ``population.MAX_TILT_STEPS``
    evaluations without meeting its stop test.

    The search bracket is derived from alpha, so it always contains the tilt,
    and the safeguarded Newton steps stop in under 20 evaluations across
    supplies from 1e-300 to the top threshold; the error marks a solve that
    would otherwise return an unchecked tilt.
    """


class NoRoot(TokenLabError):
    """An indifference-gap function has no zero inside the search bracket."""


class NoEquilibriumFound(TokenLabError):
    """The designer search exhausted its threshold range without finding an
    equilibrium protocol."""


class InfeasibleAllocation(TokenLabError):
    """Simulation token endowment cannot be allocated to the agents."""
