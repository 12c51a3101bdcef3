"""Command-line surface: every analysis as a subcommand with CSV/JSON output.

The CLI normalizes units to c = 1 and b = r.  Vector and sweep results go to
CSV, scalars and structs to JSON; ``--output`` redirects the main artifact to
a file (the steady-state command then also writes a ``.json`` sidecar next to
it).  Exit codes: 0 ok, 1 solver error (named error as JSON on stderr),
2 flag validation failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .design import (
    DEFAULT_ALPHA_STEPS,
    bisection_design,
    classification_sweep,
    fixed_threshold_sweep,
    optimal_efficiency_sweep,
    optimal_protocol_search,
    threshold_bounds,
)
from .equilibrium import (
    CLASS_TOL,
    ROOT_TOL,
    beta_interval,
    check_equilibrium,
    r_interval,
)
from .errors import TokenLabError
from .population import (
    PopulationParams,
    PopulationStrategy,
    Protocol,
    invariant_distribution,
)
from .serialize import csv_lines, json_text
from .simulate import SimConfig, run_simulation
from .values import solve_marginals, solve_values


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", type=Path, default=None, help="write to file instead of stdout")


def _add_tol_class(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-class", type=float, default=CLASS_TOL,
                   help="slack tolerance for equilibrium classification")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="token-lab",
        description="token-exchange protocol analysis and simulation",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("steady", help="invariant token distribution as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mix-weight", type=float, default=0.0,
                   help="population weight on threshold K+1")
    p.add_argument("--rho", type=float, default=None,
                   help="accepted for symmetry; the result never depends on it")
    _add_common(p)

    for name in ("marginals", "values"):
        p = sub.add_parser(name, help="marginal utilities and values as CSV k,M,V")
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--rho", type=float, required=True)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--r", type=float, required=True)
        _add_common(p)

    p = sub.add_parser("check", help="equilibrium classification as JSON")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    _add_tol_class(p)
    _add_common(p)

    p = sub.add_parser("beta-interval", help="discount-factor equilibrium interval")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--tol-root", type=float, default=ROOT_TOL,
                   help="bisection tolerance for interval endpoints")
    _add_common(p)

    p = sub.add_parser("r-interval", help="benefit/cost-ratio equilibrium interval")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("bounds", help="threshold bracket [K_L, K_H] as JSON")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("design", help="bisection search for an equilibrium threshold")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    _add_tol_class(p)
    _add_common(p)

    p = sub.add_parser("optimize", help="grid search for the best robust protocol")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--alpha-steps", type=int, default=DEFAULT_ALPHA_STEPS)
    _add_tol_class(p)
    _add_common(p)

    p = sub.add_parser("sweep", help="classification sweep CSV beta,K,class,mix_weight")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--beta-steps", type=int, required=True)
    p.add_argument("--k-max", type=int, default=10)
    _add_tol_class(p)
    _add_common(p)

    p = sub.add_parser("fig3", help="optimal vs canonical efficiency sweep CSV")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--beta-steps", type=int, required=True)
    p.add_argument("--alpha-steps", type=int, default=DEFAULT_ALPHA_STEPS)
    _add_common(p)

    p = sub.add_parser("fig4", help="optimal vs fixed-threshold efficiency sweep CSV")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--beta-steps", type=int, required=True)
    p.add_argument("--fixed-k", type=int, default=3)
    p.add_argument("--alpha-steps", type=int, default=DEFAULT_ALPHA_STEPS)
    _add_common(p)

    p = sub.add_parser("simulate", help="finite-population run, SimReport as JSON")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--init", choices=["near-uniform-integer-spread", "sample-from-invariant"],
                   default="near-uniform-integer-spread")
    p.add_argument("--mix-weight", type=float, default=0.0)
    p.add_argument("--stream-csv", type=Path, default=None,
                   help="write per-step trade counts to this CSV file")
    _add_common(p)

    return ap


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)


def _strategy(k: int, mix_weight: float) -> PopulationStrategy:
    if not (0.0 <= mix_weight <= 1.0):
        raise ValueError(f"mix weight must lie in [0, 1], got {mix_weight}")
    return PopulationStrategy.mix(k, mix_weight)


def _betas(args) -> np.ndarray:
    if args.beta_steps < 1:
        raise ValueError("beta-steps must be at least 1")
    return np.linspace(args.beta_min, args.beta_max, args.beta_steps)


def _run(args) -> None:
    cmd = args.subcommand
    if cmd == "steady":
        protocol = Protocol(args.alpha, _strategy(args.k, args.mix_weight))
        steady = invariant_distribution(protocol, rho=args.rho)
        _emit(steady.to_csv(), args.output)
        if args.output is not None:
            sidecar = args.output.with_suffix(".json")
            sidecar.write_text(json_text(steady.sidecar()))
    elif cmd in ("marginals", "values"):
        params = PopulationParams.from_ratio(args.rho, args.beta, args.r)
        protocol = Protocol(args.alpha, PopulationStrategy.pure(args.k))
        steady = invariant_distribution(protocol)
        m = solve_marginals(args.k, params, steady, extra_above=1).M
        v = solve_values(args.k, params, steady).V
        rows = ((k, m[k], v[k]) for k in range(len(v)))
        _emit(csv_lines(("k", "M", "V"), rows), args.output)
    elif cmd == "check":
        params = PopulationParams.from_ratio(args.rho, args.beta, args.r)
        protocol = Protocol(args.alpha, PopulationStrategy.pure(args.k))
        report = check_equilibrium(protocol, params, tol=args.tol_class)
        _emit(json_text(report.as_dict()), args.output)
    elif cmd == "beta-interval":
        protocol = Protocol(args.alpha, PopulationStrategy.pure(args.k))
        iv = beta_interval(protocol, args.rho, args.r, tol=args.tol_root)
        _emit(json_text({"kind": iv.kind, "lo": iv.lo, "hi": iv.hi}), args.output)
    elif cmd == "r-interval":
        protocol = Protocol(args.alpha, PopulationStrategy.pure(args.k))
        iv = r_interval(protocol, args.rho, args.beta)
        _emit(json_text({"kind": iv.kind, "lo": iv.lo, "hi": iv.hi}), args.output)
    elif cmd == "bounds":
        params = PopulationParams.from_ratio(args.rho, args.beta, args.r)
        _emit(json_text(threshold_bounds(params).as_dict()), args.output)
    elif cmd == "design":
        params = PopulationParams.from_ratio(args.rho, args.beta, args.r)
        result = bisection_design(params, tol=args.tol_class)
        _emit(json_text(result.as_dict()), args.output)
    elif cmd == "optimize":
        params = PopulationParams.from_ratio(args.rho, args.beta, args.r)
        result = optimal_protocol_search(params, args.alpha_steps, tol=args.tol_class)
        _emit(json_text(result.as_dict()), args.output)
    elif cmd == "sweep":
        rows = classification_sweep(
            args.alpha, args.rho, args.r, _betas(args), args.k_max, tol=args.tol_class
        )
        _emit(csv_lines(("beta", "K", "class", "mix_weight"), rows), args.output)
    elif cmd == "fig3":
        rows = optimal_efficiency_sweep(
            args.rho, args.r, _betas(args), args.alpha_steps
        )
        header = ("beta", "K_star", "alpha_star", "eff_opt", "eff_piK")
        _emit(csv_lines(header, rows), args.output)
    elif cmd == "fig4":
        rows = fixed_threshold_sweep(
            args.rho, args.r, _betas(args), args.fixed_k, args.alpha_steps
        )
        _emit(csv_lines(("beta", "eff_opt", "eff_fixedK"), rows), args.output)
    elif cmd == "simulate":
        config = SimConfig(
            n_agents=args.agents,
            steps=args.steps,
            seed=args.seed,
            alpha=args.alpha,
            strategy=_strategy(args.k, args.mix_weight),
            rho=args.rho,
            burn_in=args.burn_in,
            init_mode=args.init,
        )
        if args.stream_csv is not None:
            with open(args.stream_csv, "w") as fh:
                report = run_simulation(config, stream=fh)
        else:
            report = run_simulation(config)
        _emit(json_text(report.as_dict()), args.output)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown subcommand {cmd!r}")


def dispatch(argv=None) -> int:
    """Parse flags, run one subcommand, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        _run(args)
    except TokenLabError as exc:
        sys.stderr.write(json_text({"error": exc.name, "message": str(exc)}))
        return 1
    except ValueError as exc:
        sys.stderr.write(f"token-lab: {exc}\n")
        return 2
    return 0


def main() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(dispatch())


if __name__ == "__main__":  # pragma: no cover
    main()
