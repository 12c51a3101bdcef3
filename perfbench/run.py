"""token-lab benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh worker processes (``worker.py``) that import the
library from ``src/`` of this checkout, one thread, ``TOKEN_LAB_THREADS``
unset.  With ``--trace 0`` the end-to-end metrics are measured with tracing
off; with ``--trace 1`` a fixed number of rounds runs twice, untraced and
traced, for the per-layer metrics, the tracer's overhead and a byte-identity
check of every output.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A summary also goes to
``perfbench/out/``.  Exit code 2 means no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.dont_write_bytecode = True  # write nothing in the checkout but OUT
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 5  # set-up-only worker starts per run; setup_s is their median
WORKER_TIMEOUT_S = 150.0

# The tail is the highest percentile on this ladder with at least ten samples
# beyond it, capped per workload so that a faster program is not reported at a
# higher percentile.  Each cap falls inside the latency band of one stratum
# (see workloads.py), where the percentile moves little from run to run.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_CAP = {"design-sweeps": 75.0, "protocol-queries": 95.0, "population-sim": 75.0}

UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "failed_ratio": "1", "peak_rss_mb": "MB"}
# failed_ratio reads 0 on a correct run; the result line carries it as
# attempted/failed, so the metrics object holds only metrics that are never 0.
REPORTED = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TOKEN_LAB_THREADS"}
    # one thread per worker; no bytecode written into the checkout's src/
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return env


class Worker:
    """One worker process; ``setup_s`` runs from spawn to its ready line."""

    def __init__(self, workload, seed, mode, rounds, seconds=None, trace=0):
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--rounds", str(rounds), "--trace", str(trace)]
        if seconds is not None:
            cmd += ["--seconds", repr(float(seconds))]
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     env=worker_env(), cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - t0
        try:
            self.ready = json.loads(line)
        except ValueError:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError(f"worker sent no ready line (exit code {self.proc.returncode})")

    def finish(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker timed out")
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def tail(latencies: list[float], cap: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) by the nearest-rank rule."""
    xs = sorted(latencies)
    n = len(xs)
    pct = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if p <= cap and n - math.ceil(p / 100.0 * n) >= 10:
            pct = p
    rank = max(1, math.ceil(pct / 100.0 * n))
    return pct, xs[rank - 1], n - rank


def run_timed(workload: str, seed: int, seconds: float) -> dict:
    rounds = workloads.setup_rounds(workload)
    setups, raw_setups = [], []
    for _ in range(SETUP_SAMPLES):
        w = Worker(workload, seed, "setup", rounds)
        setups.append(w.setup_s * w.finish()["speed_factor"])
        raw_setups.append(w.setup_s)
    w = Worker(workload, seed, "timed", rounds, seconds)
    rep = w.finish()
    lat, raw = rep["scaled_latencies_s"], rep["latencies_s"]
    n, failed = len(lat), len(rep["failures"])
    cap = TAIL_CAP[workload]
    pct, tail_s, beyond = tail(lat, cap)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / rep["scaled_wall_s"],
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "failed_ratio": failed / n,
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} worker starts; wall clock "
                   f"{statistics.median(raw_setups):.6g}",
        "ops_per_s": f"{rep['rounds']} rounds; wall clock {n / rep['wall_s']:.6g}",
        "op_p50_ms": f"n={n}; wall clock {1e3 * statistics.median(raw):.6g}",
        "op_tail_ms": f"p{pct:g}, n={n}, {beyond} beyond; wall clock "
                      f"{1e3 * tail(raw, cap)[1]:.6g}",
        "failed_ratio": f"{failed} of {n}; {rep['reference_checked']} compared "
                        "with recorded answers",
    }
    return {"workload": workload, "attempted": n, "failed": failed, "values": values,
            "notes": notes, "failures": rep["failures"][:20], "ready": w.ready,
            "metrics": {m: {"value": values[m], "unit": UNITS[m]} for m in REPORTED}}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    rounds = workloads.trace_rounds(workload, seconds)
    w = Worker(workload, seed, "fixed", rounds)
    plain = w.finish()
    traced = Worker(workload, seed, "fixed", rounds, trace=1).finish()
    pd, td = plain["digests"], traced["digests"]
    differ = {i for i in range(max(len(pd), len(td)))
              if i >= len(pd) or i >= len(td) or pd[i] != td[i]}
    failures = plain["failures"]
    overhead = traced["scaled_wall_s"] / plain["scaled_wall_s"]
    layers = dict(traced["layers"], **{"trace.overhead_ratio": overhead})
    return {"workload": workload, "attempted": len(pd),
            "failed": len({f["op"] for f in failures} | differ),
            "values": layers,
            "notes": {"trace.overhead_ratio":
                      f"{rounds} rounds; {len(differ)} outputs differ when traced; "
                      f"absent: {', '.join(traced['spans']['absent']) or 'none'}"},
            "failures": failures[:20], "spans": traced["spans"], "ready": w.ready,
            "metrics": {name: {"value": layers.get(name, 0), "unit": unit}
                        for name, unit, _, _ in LAYER_METRICS}}


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_start": os.getloadavg(),
    }


def print_summary(res: dict) -> None:
    print(f"{res['workload']}: {res['attempted']} ops, {res['failed']} failed")
    units = dict(UNITS, **{name: unit for name, unit, _, _ in LAYER_METRICS})
    for name, value in res["values"].items():
        note = res["notes"].get(name, "")
        print(f"  {name:<58} {value:>14.6g} {units[name]:<6} {note}")
    for f in res["failures"]:
        print(f"  FAILED op {f['op']} ({f['kind']}): {'; '.join(f['problems'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "token_lab" / "__init__.py").is_file():
        print(f"run.py: no token_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    prov = provenance()
    print("provenance", json.dumps(prov))
    run = run_traced if args.trace else run_timed
    results = []
    try:
        for name in names:
            res = run(name, args.seed, args.seconds)
            print_summary(res)
            results.append(res)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    prov.update(loadavg_end=os.getloadavg(), numpy=results[0]["ready"]["numpy"])
    print("provenance", json.dumps(prov))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    line = {"correct": all(r["failed"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    summary = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary.write_text(json.dumps({"args": vars(args), "provenance": prov,
                                   "results": results, "line": line}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
