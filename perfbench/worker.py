"""One benchmark worker: a fresh process that imports token_lab, builds one
workload's inputs, runs its ops in a closed loop on one thread, and reports.

Modes:
  setup   report readiness and the machine's speed, then exit (a set-up
          time sample);
  timed   run whole rounds until --seconds of op time have passed
          (--rounds are built before the first op, more while it runs);
  fixed   run exactly --rounds rounds (the traced run and its untraced twin);
  record  run --rounds rounds, check them, and write reference/<workload>.json
          (commands in README.md).

Messages go to the real stdout as JSON lines: first ``{"ready": ...}`` once
the first op could be sent, then one result object.  The ops' own output is
captured, so it never mixes with these lines.  Outputs are checked stretch by
stretch during the run, outside the timed ops, so the worker's memory does not
grow with the number of ops.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from array import array
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

CALIBRATE_EVERY_S = 0.1
# Median calibration time on the defining machine (a 2-core x86 virtual
# machine) when quiet; scaled times read as wall times there at that speed.
CALIBRATION_REF_S = 0.0022


def _send(obj: dict) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def _import_library(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import token_lab
    import token_lab.cli  # noqa: F401  (binds cli.dispatch for ops and tracer)

    if not Path(token_lab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported token_lab from {token_lab.__file__}, not {src}")
    return token_lab


def _cli_call(tl, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tl.cli.dispatch(argv)
        return code, out.getvalue(), err.getvalue()
    return call


PROTOCOL_KINDS = ("invariant_distribution", "solve_marginals", "check_equilibrium",
                  "beta_interval", "r_interval")


def prepare(tl, op: dict):
    """A zero-argument call for one op.  Library objects are built here, in
    set-up; functions are looked up at call time so the tracer sees them."""
    kind = op["kind"]
    if kind == "cli":
        return _cli_call(tl, op["argv"])
    pure = tl.PopulationStrategy.pure
    K, alpha = op.get("K"), op.get("alpha")
    params = tl.PopulationParams.from_ratio(op["rho"], op["beta"], op["r"]) if "beta" in op else None
    protocol = tl.Protocol(alpha, pure(K)) if kind in PROTOCOL_KINDS else None
    if kind == "invariant_distribution":
        return lambda: tl.invariant_distribution(protocol)
    if kind == "solve_marginals":
        def marginals():
            steady = tl.invariant_distribution(protocol)
            return (steady, tl.solve_marginals(K, params, steady),
                    tl.solve_values(K, params, steady))
        return marginals
    if kind == "check_equilibrium":
        return lambda: tl.check_equilibrium(protocol, params)
    if kind == "beta_interval":
        return lambda: tl.beta_interval(protocol, op["rho"], op["r"])
    if kind == "r_interval":
        return lambda: tl.r_interval(protocol, op["rho"], op["beta"])
    if kind == "bisection_design":
        return lambda: tl.bisection_design(params)
    if kind == "mixed_equilibrium_weight":
        return lambda: tl.mixed_equilibrium_weight(alpha, K, params)
    if kind == "run_simulation":
        config = tl.SimConfig(
            n_agents=op["agents"], steps=op["steps"], seed=op["seed"], alpha=alpha,
            strategy=tl.PopulationStrategy.mix(K, op["mix_weight"]), rho=op["rho"],
            burn_in=op["burn_in"], init_mode=op["init"])
        return lambda: tl.run_simulation(config)
    config = tl.SimConfig(n_agents=2, steps=1, seed=op.get("seed", 0), alpha=alpha,
                          strategy=pure(K), rho=op["rho"])
    if kind == "deviation_payoff_estimate":
        return lambda: tl.deviation_payoff_estimate(
            config, params, op["deviant"], op["horizon"], op["replications"])
    if kind == "compliance_value":
        return lambda: tl.compliance_value(config, params)
    raise ValueError(f"unknown op kind {kind!r}")


def canonical(obj) -> bytes:
    """Exact bytes of a result, for the traced-vs-untraced identity check."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        return f"nd{obj.dtype}{obj.shape}".encode() + obj.tobytes()
    if isinstance(obj, Enum):
        return canonical(obj.value)
    if isinstance(obj, BaseException):
        return f"raise {type(obj).__name__}: {obj}".encode()
    if is_dataclass(obj):
        return type(obj).__name__.encode() + canonical(
            [getattr(obj, f.name) for f in fields(obj)])
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(canonical(x) for x in obj) + b"]"
    if isinstance(obj, float):
        return float.hex(obj).encode()
    return repr(obj).encode()


def _calibration_once() -> float:
    """A fixed mix of interpreter work, small numpy calls and one memory-bound
    shuffle; its time tracks how fast the shared machine runs right now."""
    import numpy as np

    t0 = perf_counter()
    grid, total = np.linspace(0.0, 1.0, 64), 0.0
    for i in range(200):
        total += float(np.exp(grid * (0.001 * i)).sum())
        total += len({j: j * total for j in range(40)})
    np.random.default_rng(0).permutation(100_000)
    return perf_counter() - t0


def calibrate() -> float:
    return sorted(_calibration_once() for _ in range(3))[1]


class Inputs:
    """Ops of one workload with their prepared calls, built ahead of use and
    released once checked; ops are numbered from the start of the run."""

    def __init__(self, tl, workload: str, seed: int, rounds: int):
        import workloads

        self.tl = tl
        self.stream = workloads.OpStream(workload, seed)
        self.per_round = workloads.ops_per_round(workload)
        self.ops, self.calls = [], []
        self.base = 0  # number of the first op still held
        self.extend(rounds)

    @property
    def end(self) -> int:
        return self.base + len(self.ops)

    def extend(self, rounds: int) -> None:
        ops = self.stream.take(rounds)
        self.ops += ops
        self.calls += [prepare(self.tl, op) for op in ops]

    def op(self, i: int) -> dict:
        return self.ops[i - self.base]

    def round_calls(self, first: int) -> list:
        return self.calls[first - self.base:first - self.base + self.per_round]

    def release(self, upto: int) -> None:
        del self.ops[:upto - self.base], self.calls[:upto - self.base]
        self.base = upto


def run_ops(inputs: Inputs, seconds: float | None, keep) -> dict:
    """Closed loop over whole rounds: all built rounds when ``seconds`` is
    None, else until the first round boundary after ``seconds`` of op time.

    Between ops, at most every CALIBRATE_EVERY_S, the loop closes a stretch:
    ``keep(first, results)`` digests and checks the stretch's results, which
    are then dropped, so memory stays flat however many ops run; the
    calibration kernel runs; and a timed run builds more inputs if it needs
    them.  Each stretch's op times are also reported scaled by
    CALIBRATION_REF_S over the mean of the calibrations around it, which
    removes most of the shared machine's own drift in speed."""
    per_round = inputs.per_round
    latencies, scaled, results = array("d"), array("d"), []
    wall = scaled_wall = 0.0
    before = calibrate()

    def close_stretch(stretch_wall: float) -> float:
        nonlocal wall, scaled_wall, before, results
        first = len(latencies) - len(results)
        keep(first, results)
        results = []
        inputs.release(len(latencies))
        after = calibrate()
        factor = CALIBRATION_REF_S / (0.5 * (before + after))
        scaled.extend(x * factor for x in latencies[first:])
        wall += stretch_wall
        scaled_wall += stretch_wall * factor
        before = after
        if seconds is not None and inputs.end - len(latencies) < per_round:
            # keep a quarter of the rounds run so far ready, at least one
            inputs.extend(max(1, len(latencies) // per_round // 4))
        return perf_counter()

    start = perf_counter()
    while len(latencies) + per_round <= inputs.end:
        for call in inputs.round_calls(len(latencies)):
            t0 = perf_counter()
            try:
                results.append(("ok", call()))
            except Exception as exc:  # a failed op is counted, the loop goes on
                results.append(("raise", exc))
            now = perf_counter()
            latencies.append(now - t0)
            if now - start >= CALIBRATE_EVERY_S:
                start = close_stretch(now - start)
        now = perf_counter()
        if seconds is None:
            done = len(latencies) == inputs.end
        else:
            done = wall + now - start >= seconds
        if done or inputs.end - len(latencies) < per_round:
            start = close_stretch(now - start)
        if done:
            break
    return {"wall_s": wall, "scaled_wall_s": scaled_wall, "latencies_s": latencies.tolist(),
            "scaled_latencies_s": scaled.tolist(), "rounds": len(latencies) // per_round}


class Keeper:
    """What the worker keeps of each op: the problems the checks find and,
    when asked, a digest of its exact result or its answer."""

    def __init__(self, tl, inputs: Inputs, check: bool, digest: bool,
                 reference=None, record=False):
        from checks import Checker

        self.inputs, self.reference = inputs, reference
        self.checker = Checker(tl) if check else None
        self.digests = [] if digest else None
        self.answers = [] if record else None
        self.failures = []
        self.compared = 0

    def __call__(self, first: int, results: list) -> None:
        from checks import answer, compare

        for i, (status, value) in enumerate(results, first):
            op = self.inputs.op(i)
            if self.digests is not None:
                self.digests.append(hashlib.sha256(canonical(value)).hexdigest()[:16])
            if self.answers is not None:
                self.answers.append(_round12(answer(op, status, value)))
            if self.checker is None:
                continue
            try:
                problems = self.checker.problems(op, status, value)
                if self.reference is not None and i < len(self.reference):
                    problems += compare(op, answer(op, status, value), self.reference[i])
                    self.compared += 1
            except Exception as exc:  # a check that cannot run fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failures.append({"op": i, "kind": op["kind"], "problems": problems})


def _ops_digest(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def _round12(obj):
    """Answers are stored to 12 significant digits, the CLI's precision."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, list):
        return [_round12(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    return obj


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def load_reference(workload: str, seed: int) -> list | None:
    """Recorded answers for the first rounds of the default seed, or None."""
    import workloads

    path = reference_path(workload)
    if seed != workloads.DEFAULT_SEED or not path.exists():
        return None
    ref = json.loads(path.read_text())
    if _ops_digest(workloads.generate(workload, seed, ref["rounds"])) != ref["ops_sha256"]:
        raise SystemExit(f"{path.name}: the generated inputs differ from the recorded ones")
    return ref["answers"]


def write_reference(workload: str, seed: int, rounds: int, answers: list) -> None:
    import workloads

    ops = workloads.generate(workload, seed, rounds)
    lines = ",\n".join(json.dumps(a) for a in answers)
    reference_path(workload).write_text(
        f'{{"workload": "{workload}", "seed": {seed}, "rounds": {rounds},\n'
        f'"ops_sha256": "{_ops_digest(ops)}",\n"answers": [\n{lines}\n]}}\n')


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed", "record"), required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = perf_counter()
    tl = _import_library(args.root)
    import numpy as np
    t_import = perf_counter() - t0
    inputs = Inputs(tl, args.workload, args.seed, args.rounds)
    _send({"ready": True, "import_s": t_import, "build_s": perf_counter() - t0 - t_import,
           "python": sys.version.split()[0], "numpy": np.__version__})
    if args.mode == "setup":
        _send({"speed_factor": CALIBRATION_REF_S / calibrate()})
        return

    if args.trace:
        from tracer import Tracer

        # the traced twin only digests its results; checks would be traced too
        keep = Keeper(tl, inputs, check=False, digest=True)
        tracer = Tracer()
        tracer.install()
    else:
        tracer = None
        record = args.mode == "record"
        keep = Keeper(tl, inputs, check=True, digest=args.mode == "fixed", record=record,
                      reference=None if record else load_reference(args.workload, args.seed))
    report = run_ops(inputs, args.seconds if args.mode == "timed" else None, keep)
    report.update(peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  digests=keep.digests, failures=keep.failures,
                  reference_checked=keep.compared)
    if tracer is not None:
        tracer.uninstall()
        report.update(layers=tracer.snapshot(), spans=tracer.spans())
    if args.mode == "record" and not keep.failures:
        write_reference(args.workload, args.seed, args.rounds, keep.answers)
    _send(report)


if __name__ == "__main__":
    main()
