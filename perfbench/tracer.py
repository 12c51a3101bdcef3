"""Outside-in tracer: per-layer counts and self time without touching src/.

The tracer wraps each public function named in ``TARGETS`` in *every*
``token_lab`` module namespace that binds it.  ``design``, ``equilibrium``,
``simulate`` and ``cli`` import these names with ``from ... import``, so
patching only the defining module would miss most calls.  Each wrapper pushes
a frame on a span stack; a span's self time is its duration minus the time
its traced children cover, and every call is counted under its nearest
traced parent.  Spans are aggregated in memory and handed out once, after the
run.  A target that a later version of the library no longer defines is
reported as absent and its metrics read 0.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

TARGETS = {
    "population": ("invariant_distribution",),
    "values": ("solve_marginals", "solve_values", "coefficients"),
    "equilibrium": ("check_equilibrium", "beta_interval", "r_interval",
                    "mixed_equilibrium_weight"),
    "design": ("optimal_protocol_search", "bisection_design", "classification_sweep",
               "optimal_efficiency_sweep", "fixed_threshold_sweep"),
    "simulate": ("run_simulation", "deviation_payoff_estimate", "compliance_value"),
    "cli": ("dispatch",),
    "serialize": ("csv_lines", "json_text"),
}

ROOT = "op"  # parent name of calls made directly by a benchmark op


def _calls_and_self(span: str, moves: str) -> list[tuple]:
    return [
        (f"{span}.calls", "count", "lower", moves),
        (f"{span}.self_s", "s", "lower", moves),
    ]


_SWEEPS = "ops_per_s and op_p50_ms on design-sweeps"
_QUERIES_P50 = "op_p50_ms on protocol-queries"
_QUERIES_TAIL = "op_tail_ms on protocol-queries"
_DESIGN = "ops_per_s on design-sweeps; op_tail_ms on protocol-queries"
_SIM = "ops_per_s and peak_rss_mb on population-sim; op_tail_ms on protocol-queries"
_CLI = "op_p50_ms on design-sweeps and population-sim"

# (metric, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = (
    *_calls_and_self("population.invariant_distribution", _SWEEPS),
    ("population.invariant_distribution.unique_ratio", "1", "higher", _SWEEPS),
    ("population.invariant_distribution.shortcut_ratio", "1", "higher", _SWEEPS),
    *_calls_and_self("values.solve_marginals", _QUERIES_P50),
    ("values.solve_marginals.mean_K", "count", "lower", _QUERIES_P50),
    *_calls_and_self("values.solve_values", _QUERIES_P50),
    ("values.coefficients.calls", "count", "lower", _QUERIES_P50),
    *_calls_and_self("equilibrium.check_equilibrium", _QUERIES_TAIL),
    *_calls_and_self("equilibrium.beta_interval", _QUERIES_TAIL),
    ("equilibrium.beta_interval.marginal_solves_per_call", "count", "lower", _QUERIES_TAIL),
    *_calls_and_self("equilibrium.r_interval", _QUERIES_TAIL),
    *_calls_and_self("equilibrium.mixed_equilibrium_weight", _QUERIES_TAIL),
    ("equilibrium.mixed_equilibrium_weight.steady_solves_per_call", "count", "lower",
     _QUERIES_TAIL),
    ("equilibrium.mixed_equilibrium_weight.found_ratio", "1", "higher", _QUERIES_TAIL),
    *_calls_and_self("design.optimal_protocol_search", _DESIGN),
    ("design.optimal_protocol_search.steady_solves_per_call", "count", "lower", _DESIGN),
    *_calls_and_self("design.bisection_design", _DESIGN),
    ("design.bisection_design.mean_iterations", "count", "lower", _DESIGN),
    *_calls_and_self("design.classification_sweep", _DESIGN),
    *_calls_and_self("design.optimal_efficiency_sweep", _DESIGN),
    *_calls_and_self("design.fixed_threshold_sweep", _DESIGN),
    *_calls_and_self("simulate.run_simulation", _SIM),
    ("simulate.run_simulation.ns_per_agent_step", "ns", "lower", _SIM),
    ("simulate.run_simulation.trade_ratio", "1", "higher", _SIM),
    *_calls_and_self("simulate.deviation_payoff_estimate", _SIM),
    *_calls_and_self("simulate.compliance_value", _SIM),
    *_calls_and_self("cli.dispatch", _CLI),
    *_calls_and_self("serialize.csv_lines", _CLI),
    *_calls_and_self("serialize.json_text", _CLI),
    ("trace.overhead_ratio", "1", "lower", "none; shows what the tracer costs"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Install with ``install()``; read with ``snapshot()``; undo with
    ``uninstall()``.  One tracer per process, single-threaded."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [span name, child seconds]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.by_parent: Counter = Counter()  # (parent span, child span) -> calls
        self.absent: list[str] = []
        self.bindings: list[tuple] = []  # (module, attribute, original)
        self.patched = 0
        # argument and result probes
        self.steady_seen: set = set()
        self.steady_new = 0
        self.steady_shortcut = 0
        self.marginal_K = 0
        self.design_iterations = 0
        self.design_ok = 0
        self.mixed_found = 0
        self.sim_agent_steps = 0
        self.sim_pair_steps = 0
        self.sim_trades = 0
        self.sim_seconds = 0.0

    # ------------------------------------------------------------------
    def install(self) -> int:
        """Wrap every binding of every target; returns the bindings patched."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "token_lab" or n.startswith("token_lab."))]
        for mod_name, names in TARGETS.items():
            home = sys.modules.get(f"token_lab.{mod_name}")
            for name in names:
                span = f"{mod_name}.{name}"
                original = getattr(home, name, None) if home is not None else None
                if not callable(original):
                    self.absent.append(span)
                    continue
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.bindings.append((mod, attr, original))
        self.patched = len(self.bindings)
        return self.patched

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.bindings):
            setattr(mod, attr, original)
        self.bindings.clear()

    def _wrap(self, span, fn):
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        stack = self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [span, 0.0]
            parent = stack[-1][0] if stack else ROOT
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[span] += 1
                self.total_s[span] += dt
                self.self_s[span] += dt - frame[1]
                self.by_parent[(parent, span)] += 1
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------------
    # probes; a signature a later version changes only loses the statistic

    def _before_population_invariant_distribution(self, args, kwargs):
        try:
            protocol = _arg(args, kwargs, 0, "protocol")
            weights = protocol.strategy.weights
            key = (protocol.alpha, weights)
        except (AttributeError, IndexError, KeyError):
            return
        if key not in self.steady_seen:
            self.steady_seen.add(key)
            self.steady_new += 1
        if len(weights) == 1 and protocol.alpha == weights[0][0] / 2.0:
            self.steady_shortcut += 1

    def _before_values_solve_marginals(self, args, kwargs):
        try:
            self.marginal_K += int(_arg(args, kwargs, 0, "K"))
        except (IndexError, KeyError, TypeError, ValueError):
            pass

    def _after_design_bisection_design(self, args, kwargs, result, dt):
        iterations = getattr(result, "iterations", None)
        if iterations is not None:
            self.design_iterations += iterations
            self.design_ok += 1

    def _after_equilibrium_mixed_equilibrium_weight(self, args, kwargs, result, dt):
        if result is not None:
            self.mixed_found += 1

    def _after_simulate_run_simulation(self, args, kwargs, result, dt):
        try:
            config = _arg(args, kwargs, 0, "config")
            pairs = math.floor(config.rho * config.n_agents + 1e-9)
            self.sim_agent_steps += config.n_agents * config.steps
            self.sim_pair_steps += pairs * config.steps
            self.sim_trades += int(result.trades)
            self.sim_seconds += dt
        except (AttributeError, IndexError, KeyError, TypeError):
            pass

    # ------------------------------------------------------------------
    def _per_call(self, span: str, child: str) -> float:
        n = self.calls[span]
        return self.by_parent[(span, child)] / n if n else 0.0

    def snapshot(self) -> dict:
        """The LAYER_METRICS values, except trace.overhead_ratio (which
        needs the untraced run too)."""
        out: dict[str, float] = {}
        for mod_name, names in TARGETS.items():
            for name in names:
                span = f"{mod_name}.{name}"
                out[f"{span}.calls"] = self.calls[span]
                out[f"{span}.self_s"] = self.self_s[span]
        steady = self.calls["population.invariant_distribution"]
        marg = self.calls["values.solve_marginals"]
        mixed = self.calls["equilibrium.mixed_equilibrium_weight"]
        out.update({
            "population.invariant_distribution.unique_ratio":
                self.steady_new / steady if steady else 0.0,
            "population.invariant_distribution.shortcut_ratio":
                self.steady_shortcut / steady if steady else 0.0,
            "values.solve_marginals.mean_K": self.marginal_K / marg if marg else 0.0,
            "equilibrium.beta_interval.marginal_solves_per_call":
                self._per_call("equilibrium.beta_interval", "values.solve_marginals"),
            "equilibrium.mixed_equilibrium_weight.steady_solves_per_call":
                self._per_call("equilibrium.mixed_equilibrium_weight",
                               "population.invariant_distribution"),
            "equilibrium.mixed_equilibrium_weight.found_ratio":
                self.mixed_found / mixed if mixed else 0.0,
            "design.optimal_protocol_search.steady_solves_per_call":
                self._per_call("design.optimal_protocol_search",
                               "population.invariant_distribution"),
            "design.bisection_design.mean_iterations":
                self.design_iterations / self.design_ok if self.design_ok else 0.0,
            "simulate.run_simulation.ns_per_agent_step":
                1e9 * self.sim_seconds / self.sim_agent_steps if self.sim_agent_steps else 0.0,
            "simulate.run_simulation.trade_ratio":
                self.sim_trades / self.sim_pair_steps if self.sim_pair_steps else 0.0,
        })
        return {name: out[name] for name, *_ in LAYER_METRICS if name in out}

    def spans(self) -> dict:
        """The aggregated span table, for the trace file."""
        return {
            "absent": list(self.absent),
            "bindings_patched": self.patched,
            "spans": {
                span: {"calls": self.calls[span], "total_s": self.total_s[span],
                       "self_s": self.self_s[span]}
                for span in sorted(self.calls)
            },
            "calls_by_parent": [
                {"parent": p, "child": c, "calls": n}
                for (p, c), n in sorted(self.by_parent.items())
            ],
        }
