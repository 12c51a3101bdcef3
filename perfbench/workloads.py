"""Seeded, stratified input generators for the three benchmark workloads.

A workload is an endless series of *rounds*.  Each round sends one op from
every stratum of the workload, in a fixed order, and one op is one call a
designer's script makes and waits for.  Inside a stratum the parameters
follow a shifted Kronecker (Roberts R_d) sequence: the seed only moves the
starting point, so any prefix of rounds covers each parameter range evenly
and the cost of a run changes little from seed to seed, while the ops
themselves never repeat.

Ops are plain data (``{"kind": ..., ...}``) so they can be recorded next to
their reference answers; ``worker.prepare`` turns them into calls.  Only API
that the project roadmap keeps is used here.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 1

# Rounds per second of the program at the commit that defined the benchmark,
# in calibrated time (2-core x86 virtual machine, Python 3.11, numpy 2.4).  A
# timed run builds one second of rounds before it starts.  The traced run
# replays round(seconds * NOMINAL_ROUNDS_PER_S / 2) rounds, so its per-layer
# counts depend only on the seed and --seconds, never on the program's speed.
NOMINAL_ROUNDS_PER_S = {
    "design-sweeps": 1.3,
    "protocol-queries": 160.0,
    "population-sim": 2.4,
}


def _r_sequence_step(dim: int) -> list[float]:
    """Additive steps of Roberts' R_d low-discrepancy sequence."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return [(1.0 / phi ** (d + 1)) % 1.0 for d in range(dim)]


class Stratum:
    """Well-spread points in [0, 1)^dim for one stratum of one workload."""

    def __init__(self, seed: int, workload: str, name: str, dim: int):
        rng = random.Random(f"{seed}:{workload}:{name}")
        self.offset = [rng.random() for _ in range(dim)]
        self.step = _r_sequence_step(dim)
        self.rng = rng  # for integer seeds of the simulator

    def point(self, i: int) -> list[float]:
        return [(o + (i + 1) * s) % 1.0 for o, s in zip(self.offset, self.step)]


def _lerp(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _pick(u: float, choices):
    return choices[min(int(u * len(choices)), len(choices) - 1)]


def _num(x: float) -> str:
    """CLI flag text for a float; repr round-trips exactly."""
    return repr(float(x))


# --------------------------------------------------------------------------
# design-sweeps: README grid commands through cli.dispatch


def _fig3(u, beta_lo, beta_hi, steps, alpha_steps):
    rho, r, b = _lerp(u[0], 0.3, 0.5), _lerp(u[1], 1.5, 3.0), _lerp(u[2], beta_lo, beta_hi)
    return ["fig3", "--rho", _num(rho), "--r", _num(r), "--beta-min", _num(b),
            "--beta-max", _num(b + 0.02), "--beta-steps", str(steps),
            "--alpha-steps", str(alpha_steps)]


def _fig4(u, beta_lo, beta_hi, steps, alpha_steps):
    rho, r, b = _lerp(u[0], 0.3, 0.5), _lerp(u[1], 1.5, 3.0), _lerp(u[2], beta_lo, beta_hi)
    return ["fig4", "--rho", _num(rho), "--r", _num(r), "--beta-min", _num(b),
            "--beta-max", _num(b + 0.02), "--beta-steps", str(steps),
            "--fixed-k", str(_pick(u[3], (2, 3, 4))), "--alpha-steps", str(alpha_steps)]


def _sweep(u):
    rho, r, b = _lerp(u[0], 0.3, 0.5), _lerp(u[1], 1.5, 3.0), _lerp(u[2], 0.75, 0.92)
    alpha = _lerp(u[3], 0.25, 2.5)
    return ["sweep", "--alpha", _num(alpha), "--rho", _num(rho), "--r", _num(r),
            "--beta-min", _num(b), "--beta-max", _num(b + 0.03), "--beta-steps", "4",
            "--k-max", "8"]


def _optimize(u, beta_lo, beta_hi, alpha_steps):
    rho, r, b = _lerp(u[0], 0.3, 0.5), _lerp(u[1], 1.5, 3.0), _lerp(u[2], beta_lo, beta_hi)
    return ["optimize", "--rho", _num(rho), "--r", _num(r), "--beta", _num(b),
            "--alpha-steps", str(alpha_steps)]


def _cli(argv_builder):
    return lambda i, u, rng: {"kind": "cli", "argv": argv_builder(u)}


DESIGN_STRATA = (
    # (stratum, dimensions, op builder)
    ("fig3-low", 3, _cli(lambda u: _fig3(u, 0.75, 0.83, 2, 32))),
    ("fig3-mid", 3, _cli(lambda u: _fig3(u, 0.85, 0.92, 2, 24))),
    ("fig4-low", 4, _cli(lambda u: _fig4(u, 0.75, 0.85, 2, 32))),
    ("fig4-mid", 4, _cli(lambda u: _fig4(u, 0.86, 0.93, 2, 16))),
    ("sweep", 4, _cli(_sweep)),
    ("optimize-mid", 3, _cli(lambda u: _optimize(u, 0.85, 0.95, 32))),
    ("optimize-high", 3, _cli(lambda u: _optimize(u, 0.96, 0.98, 16))),
)


# --------------------------------------------------------------------------
# protocol-queries: direct library calls, no input ever repeats


def _env(u0, u1, u2, beta_lo=0.75, beta_hi=0.98):
    return {"rho": _lerp(u0, 0.3, 0.5), "beta": _lerp(u1, beta_lo, beta_hi),
            "r": _lerp(u2, 1.5, 3.0)}


def _protocol(i: int, uk: float, ua: float) -> dict:
    """Threshold K in 1..30; every third supply is canonical (alpha = K/2)."""
    K = 1 + min(int(uk * 30), 29)
    alpha = K / 2.0 if i % 3 == 0 else K * _lerp(ua, 0.1, 0.9)
    return {"K": K, "alpha": alpha}


def _q_protocol_env(kind):
    def build(i, u, rng):
        return {"kind": kind, **_protocol(i, u[0], u[1]), **_env(u[2], u[3], u[4])}
    return build


def _q_design(i, u, rng):
    return {"kind": "bisection_design", **_env(u[0], u[1], u[2])}


def _q_mixed(i, u, rng):
    K = 1 + min(int(u[0] * 12), 11)
    return {"kind": "mixed_equilibrium_weight", "K": K,
            "alpha": (K + 1) * _lerp(u[1], 0.1, 0.9), **_env(u[2], u[3], u[4])}


def _sim_protocol(uk, ua, mix_weight):
    K = 2 + min(int(uk * 7), 6)
    top = K + 1 if mix_weight > 0.0 else K
    return {"K": K, "mix_weight": mix_weight, "alpha": top * _lerp(ua, 0.15, 0.85)}


def _q_simulate(i, u, rng):
    w = 0.0 if u[2] < 0.5 else _lerp(u[2], 0.1, 0.9)  # half of them mixed
    return {"kind": "run_simulation", **_sim_protocol(u[0], u[1], w),
            "agents": int(_lerp(u[3], 200, 1000)), "steps": 40, "burn_in": 10,
            "rho": _lerp(u[4], 0.3, 0.5), "seed": rng.randrange(2**31),
            "init": "sample-from-invariant" if i % 2 else "near-uniform-integer-spread"}


def _deviation(u, rng, replications, horizon):
    K = 2 + min(int(u[0] * 7), 6)
    env = _env(u[2], u[3], u[4], 0.8, 0.97)
    return {"kind": "deviation_payoff_estimate", "K": K,
            "alpha": K * _lerp(u[1], 0.2, 0.8), **env,
            "deviant": K - 1 + min(int(u[5] * 3), 2),
            "horizon": horizon, "replications": replications,
            "seed": rng.randrange(2**31)}


QUERY_STRATA = (
    ("steady", 2, lambda i, u, rng: {"kind": "invariant_distribution", **_protocol(i, u[0], u[1])}),
    ("marginals", 5, _q_protocol_env("solve_marginals")),
    ("check", 5, _q_protocol_env("check_equilibrium")),
    ("beta-interval", 5, _q_protocol_env("beta_interval")),
    ("r-interval", 5, _q_protocol_env("r_interval")),
    ("design", 3, _q_design),
    ("mixed", 5, _q_mixed),
    ("simulate", 5, _q_simulate),
    ("deviation", 6, lambda i, u, rng: _deviation(u, rng, 500, 30)),
)


# --------------------------------------------------------------------------
# population-sim: large finite populations


def _p_simulate(agents, steps, burn_in, mixed, init):
    # a fixed population per stratum: the cost is agents x steps
    def build(i, u, rng):
        p = _sim_protocol(u[0], u[1], _lerp(u[2], 0.1, 0.9) if mixed else 0.0)
        argv = ["simulate", "--agents", str(agents), "--steps", str(steps),
                "--seed", str(rng.randrange(2**31)), "--alpha", _num(p["alpha"]),
                "--k", str(p["K"]), "--rho", _num(_lerp(u[3], 0.3, 0.5)),
                "--burn-in", str(burn_in), "--init", init,
                "--mix-weight", _num(p["mix_weight"])]
        return {"kind": "cli", "argv": argv}
    return build


def _p_compliance(i, u, rng):
    K = 2 + min(int(u[0] * 7), 6)
    return {"kind": "compliance_value", "K": K, "alpha": K * _lerp(u[1], 0.2, 0.8),
            **_env(u[2], u[3], u[4], 0.8, 0.97)}


SPREAD, INVARIANT = "near-uniform-integer-spread", "sample-from-invariant"

SIM_STRATA = (
    ("sim-pure-spread", 4, _p_simulate(150_000, 16, 4, False, SPREAD)),
    ("sim-mixed-spread", 4, _p_simulate(400_000, 5, 2, True, SPREAD)),
    ("sim-pure-invariant", 4, _p_simulate(1_000_000, 4, 1, False, INVARIANT)),
    ("sim-mixed-invariant", 4, _p_simulate(200_000, 10, 2, True, INVARIANT)),
    ("deviation-large", 6, lambda i, u, rng: _deviation(u, rng, 300_000, 24)),
    ("compliance", 5, _p_compliance),
)


STRATA = {
    "design-sweeps": DESIGN_STRATA,
    "protocol-queries": QUERY_STRATA,
    "population-sim": SIM_STRATA,
}
WORKLOADS = tuple(STRATA)


class OpStream:
    """The endless op series of one workload and seed, taken round by round;
    the same seed always yields the same series."""

    def __init__(self, workload: str, seed: int):
        self.strata = [(Stratum(seed, workload, name, dim), build)
                       for name, dim, build in STRATA[workload]]
        self.rounds = 0

    def take(self, rounds: int) -> list[dict]:
        first, self.rounds = self.rounds, self.rounds + rounds
        return [build(i, s.point(i), s.rng)
                for i in range(first, self.rounds) for s, build in self.strata]


def ops_per_round(workload: str) -> int:
    return len(STRATA[workload])


def generate(workload: str, seed: int, rounds: int) -> list[dict]:
    return OpStream(workload, seed).take(rounds)


def setup_rounds(workload: str) -> int:
    """Rounds built before a timed run starts; it builds more as it goes."""
    return math.ceil(NOMINAL_ROUNDS_PER_S[workload])


def trace_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds * NOMINAL_ROUNDS_PER_S[workload] / 2))
