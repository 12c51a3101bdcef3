"""Correctness gate behind ``failed_ratio``; runs outside the timed ops.

Every op is checked by an independent route, on any seed:

* a steady state is a probability vector with mean alpha;
* marginals equal the differences of the dense ``solve_values`` route;
* a class matches the slacks recomputed from that dense route;
* each interval endpoint brackets a sign change of its gap (dense route for
  beta; for r, the marginal system solved at r instead of r_interval's
  closed form);
* a design's K* re-classifies as an equilibrium within
  ceil(log2(K_H - K_L)) + 1 iterations, and ``NoEquilibriumFound`` is
  confirmed by classifying every threshold in [K_L, K_H];
* a mixed-equilibrium weight makes the individual indifferent, and "none" is
  confirmed on the documented endpoint-sign rule;
* simulations conserve tokens and trade at most once per matched pair.

On the default seed every op is also compared with the answer recorded in
``reference/<workload>.json``: analytic numbers within a relative 1e-9
(absolute 1e-12), Monte Carlo numbers within six standard errors of their
own sample size, so a simulator that is exact in law but draws differently
still passes.  A named ``TokenLabError`` counts as correct only where the
reference (or, for ``bisection_design``, the threshold scan) expects it.
"""

from __future__ import annotations

import json
import math

import numpy as np

CLASS_TOL = 1e-9  # the library's documented boundary/robust tolerance
REL_TOL = 1e-9
ABS_TOL = 1e-12


# --------------------------------------------------------------------------
# compact answers, recorded for the default seed


def answer(op: dict, status: str, value) -> object:
    """The JSON-able answer of one op, as stored in the reference file."""
    kind = op["kind"]
    if status == "raise":
        return {"error": type(value).__name__}
    if kind == "cli":
        code, out, err = value
        ans = {"code": code, "out": out}
        if code == 1:
            ans["error"] = json.loads(err)["error"]
        return ans
    if kind == "invariant_distribution":
        eta = value.eta
        k = np.arange(len(eta))
        return [len(eta), value.mu, value.nu, float(k * k @ eta), float(eta.max())]
    if kind == "solve_marginals":
        _, m, v = value
        K = op["K"]
        return [m.M[K - 1], m.M[K], v.V[0], v.V[K + 1]]
    if kind == "check_equilibrium":
        return [value.tag.value, value.slack_low, value.slack_high]
    if kind in ("beta_interval", "r_interval"):
        return [value.lo, value.hi]
    if kind == "bisection_design":
        return [value.K_star, value.iterations, value.efficiency]
    if kind == "mixed_equilibrium_weight":
        return [value]
    if kind == "run_simulation":
        return _sim_answer(value.as_dict())
    if kind == "deviation_payoff_estimate":
        return [value.mean, value.std_error]
    if kind == "compliance_value":
        return [value]
    raise ValueError(f"unknown op kind {kind!r}")


def _sim_answer(report: dict) -> dict:
    return {k: report[k] for k in ("empirical_eta", "l1_distance_to_invariant",
                                   "empirical_efficiency", "trades",
                                   "token_conservation_check")}


# --------------------------------------------------------------------------
# comparison with the reference


def _close(a, b, rel=REL_TOL, abs_=ABS_TOL) -> bool:
    if isinstance(a, str) or isinstance(b, str) or a is None or b is None:
        return a == b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def _leaves(text: str) -> list:
    """Scalars of a CLI output, JSON or CSV, in order."""
    try:
        obj = json.loads(text)
    except ValueError:
        return [tok for line in text.splitlines() for tok in line.split(",")]
    out = []

    def walk(x):
        if isinstance(x, dict):
            for key in sorted(x):
                out.append(key)
                walk(x[key])
        elif isinstance(x, list):
            for y in x:
                walk(y)
        else:
            out.append(x)

    walk(obj)
    return out


def _number(tok):
    if isinstance(tok, str):
        try:
            return float(tok)
        except ValueError:
            return tok
    return tok


def _stat_tol(samples: float) -> float:
    """Six standard errors of a proportion estimated from ``samples`` draws,
    plus a floor for the bias of short runs."""
    return 6.0 * 0.5 / math.sqrt(max(samples, 1.0)) + 0.005


def _compare_sim(got: dict, ref: dict, agents: int, steps: int, burn_in: int,
                 rho: float) -> list[str]:
    pairs = math.floor(rho * agents + 1e-9)
    post = steps - burn_in
    problems = []
    if got["token_conservation_check"] != ref["token_conservation_check"]:
        problems.append("token conservation differs from reference")
    tol_eff = _stat_tol(pairs * post)
    if abs(got["empirical_efficiency"] - ref["empirical_efficiency"]) > tol_eff:
        problems.append("empirical_efficiency off reference")
    rate, ref_rate = (got["trades"] / (pairs * steps), ref["trades"] / (pairs * steps))
    if abs(rate - ref_rate) > _stat_tol(pairs * steps):
        problems.append("trades off reference")
    eta, ref_eta = got["empirical_eta"], ref["empirical_eta"]
    width = max(len(eta), len(ref_eta))
    eta = list(eta) + [0.0] * (width - len(eta))
    ref_eta = list(ref_eta) + [0.0] * (width - len(ref_eta))
    tol_eta = _stat_tol(agents)
    if max(abs(a - b) for a, b in zip(eta, ref_eta)) > tol_eta:
        problems.append("empirical_eta off reference")
    l1, ref_l1 = got["l1_distance_to_invariant"], ref["l1_distance_to_invariant"]
    if math.isnan(l1) != math.isnan(ref_l1) or (
        not math.isnan(l1) and abs(l1 - ref_l1) > width * tol_eta
    ):
        problems.append("l1_distance_to_invariant off reference")
    return problems


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def compare(op: dict, got, ref) -> list[str]:
    """Problems of one answer against its recorded reference answer."""
    kind = op["kind"]
    ref_error = ref.get("error") if isinstance(ref, dict) else None
    got_error = got.get("error") if isinstance(got, dict) else None
    if ref_error != got_error:
        return [f"error {got_error!r} where the reference has {ref_error!r}"]
    if kind == "cli":
        if got["code"] != ref["code"]:
            return [f"exit code {got['code']} where the reference has {ref['code']}"]
        if got["code"] != 0:
            return []
        argv = op["argv"]
        if argv[0] == "simulate":
            return _compare_sim(
                _sim_answer(json.loads(got["out"])), _sim_answer(json.loads(ref["out"])),
                int(_flag(argv, "--agents")), int(_flag(argv, "--steps")),
                int(_flag(argv, "--burn-in")), float(_flag(argv, "--rho")))
        a, b = _leaves(got["out"]), _leaves(ref["out"])
        if len(a) != len(b):
            return ["output shape differs from reference"]
        bad = sum(not _close(_number(x), _number(y)) for x, y in zip(a, b))
        return [f"{bad} output fields off reference"] if bad else []
    if got_error is not None:
        return []
    if kind == "run_simulation":
        return _compare_sim(got, ref, op["agents"], op["steps"], op["burn_in"], op["rho"])
    if kind == "deviation_payoff_estimate":
        (mean, se), (ref_mean, ref_se) = got, ref
        problems = []
        if abs(mean - ref_mean) > 6.0 * math.hypot(se, ref_se) + ABS_TOL:
            problems.append("deviation mean off reference")
        if abs(se - ref_se) > 0.2 * ref_se + ABS_TOL:
            problems.append("deviation std_error off reference")
        return problems
    if len(got) != len(ref):
        return ["answer shape differs from reference"]
    bad = sum(not _close(x, y) for x, y in zip(got, ref))
    return [f"{bad} answer fields off reference"] if bad else []


# --------------------------------------------------------------------------
# independent routes, on any seed


def _classify(slack_low: float, slack_high: float, tol: float = CLASS_TOL) -> str:
    if slack_low < -tol or slack_high < -tol:
        return "none"
    if min(slack_low, slack_high) <= tol:
        return "boundary"
    return "robust"


def _near_boundary(slack_low: float, slack_high: float, scale: float) -> bool:
    slop = 1e-7 * scale
    return any(abs(abs(s) - CLASS_TOL) <= slop or abs(s) <= slop + CLASS_TOL
               for s in (slack_low, slack_high))


class Checker:
    """Independent-route checks; ``tl`` is the imported token_lab package."""

    def __init__(self, tl):
        self.tl = tl

    # dense route -----------------------------------------------------------
    def params(self, rho, beta, r):
        return self.tl.PopulationParams.from_ratio(rho, beta, r)

    def steady(self, alpha, K, mix_weight=0.0):
        tl = self.tl
        return tl.invariant_distribution(
            tl.Protocol(alpha, tl.PopulationStrategy.mix(K, mix_weight)))

    def dense_m(self, K, params, steady) -> np.ndarray:
        """M(0..K) as differences of the dense value solve."""
        return np.diff(self.tl.solve_values(K, params, steady).V)

    def dense_slacks(self, K, params, steady) -> tuple[float, float, float]:
        m = self.dense_m(K, params, steady)
        bar = params.c / params.beta
        return m[K - 1] - bar, bar - m[K], max(1.0, float(np.abs(m).max()))

    def is_equilibrium(self, K, params, steady) -> bool | None:
        """Dense-route verdict; None when a slack sits on a class boundary."""
        sl, sh, scale = self.dense_slacks(K, params, steady)
        if _near_boundary(sl, sh, scale):
            return None
        return _classify(sl, sh) != "none"

    def class_problems(self, K, params, steady, tag, what) -> list[str]:
        sl, sh, scale = self.dense_slacks(K, params, steady)
        if _classify(sl, sh) != tag and not _near_boundary(sl, sh, scale):
            return [f"{what}: class {tag} but dense slacks give {_classify(sl, sh)}"]
        return []

    # per kind --------------------------------------------------------------
    def steady_problems(self, steady, alpha, K) -> list[str]:
        eta = np.asarray(steady.eta)
        k = np.arange(len(eta))
        problems = []
        if len(eta) != K + 1 or np.any(eta < 0.0) or abs(eta.sum() - 1.0) > 1e-12 * len(eta):
            problems.append("eta is not a probability vector on 0..K")
        elif abs(float(k @ eta) - alpha) > 1e-9 * max(1.0, alpha):
            problems.append("eta does not have mean alpha")
        elif steady.mu != eta[0]:
            problems.append("mu != eta(0)")
        return problems

    def marginal_problems(self, op, value) -> list[str]:
        steady, m, v = value
        K = op["K"]
        problems = self.steady_problems(steady, op["alpha"], K)
        dense = np.diff(v.V)[: K + 1]
        scale = max(1.0, float(np.abs(dense).max()))
        if np.abs(dense - m.M[: K + 1]).max() > 1e-8 * scale:
            problems.append("M differs from the differences of the dense V")
        return problems

    def check_problems(self, op, report) -> list[str]:
        params = self.params(op["rho"], op["beta"], op["r"])
        steady = self.steady(op["alpha"], op["K"])
        sl, sh, scale = self.dense_slacks(op["K"], params, steady)
        problems = []
        if abs(sl - report.slack_low) > 1e-8 * scale or abs(sh - report.slack_high) > 1e-8 * scale:
            problems.append("slacks differ from the dense route")
        return problems + self.class_problems(
            op["K"], params, steady, report.tag.value, "check_equilibrium")

    def _gap_sign_change(self, gap, x, lo_limit, hi_limit, what) -> list[str]:
        delta = 1e-6 * max(1.0, abs(x))
        problems = []
        if x - delta > lo_limit and gap(x - delta) >= 0.0:
            problems.append(f"{what} gap is not negative just below its endpoint")
        if x + delta < hi_limit and gap(x + delta) <= 0.0:
            problems.append(f"{what} gap is not positive just above its endpoint")
        return problems

    def interval_problems(self, op, iv) -> list[str]:
        """Both gaps rise through zero at their endpoint: M(K-1) - c/beta at
        the lower one, M(K) - c/beta (minus the stopping slack) at the upper."""
        K, rho = op["K"], op["rho"]
        steady = self.steady(op["alpha"], K)
        if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)):
            return [f"{op['kind']} endpoint is not finite"]
        if op["kind"] == "beta_interval":
            r = op["r"]

            def gaps(beta):
                return self.dense_m(K, self.params(rho, beta, r), steady)[K - 1:K + 1] - 1.0 / beta

            limits = (1e-6, 1.0 - 1e-12)
        else:
            # r_interval uses a closed form built from unit solutions; here
            # the marginal system is solved at r itself.  (The dense route
            # cancels away the digits of the tiny slopes that put r_H at 1e8.)
            beta = op["beta"]

            def gaps(r):
                m = self.tl.solve_marginals(K, self.params(rho, beta, r), steady).M
                return m[K - 1:K + 1] - 1.0 / beta

            limits = (1.0, math.inf)
        return (self._gap_sign_change(lambda x: gaps(x)[0], iv.lo, *limits, "lower")
                + self._gap_sign_change(lambda x: gaps(x)[1], iv.hi, *limits, "upper"))

    def design_problems(self, op, status, value) -> list[str]:
        tl = self.tl
        params = self.params(op["rho"], op["beta"], op["r"])
        bounds = tl.threshold_bounds(params)
        ks = range(max(1, math.ceil(bounds.K_L)), math.floor(bounds.K_H) + 1)
        if status == "raise":
            if not isinstance(value, tl.NoEquilibriumFound):
                return [f"raised {type(value).__name__}"]
            found = [K for K in ks if self.is_equilibrium(K, params, self.steady(K / 2.0, K))]
            return [f"NoEquilibriumFound but K={found[0]} is an equilibrium"] if found else []
        K = value.K_star
        problems = []
        if self.is_equilibrium(K, params, self.steady(K / 2.0, K)) is False:
            problems.append("K* does not re-classify as an equilibrium")
        cap = max(1, math.ceil(math.log2(max(bounds.K_H - bounds.K_L, 1.0))) + 1)
        if value.iterations > cap:
            problems.append(f"design took {value.iterations} iterations, cap {cap}")
        if K not in ks:
            problems.append("K* outside [K_L, K_H]")
        return problems

    def mixed_problems(self, alpha, K, params, w) -> list[str]:
        """Checks the weight returned by mixed_equilibrium_weight (None for
        "no mixed equilibrium") on the dense route."""
        bar = params.c / params.beta

        def slacks(weight):
            m = self.dense_m(K, params, self.steady(alpha, K, weight))
            return m[K - 1] - bar, m[K] - bar

        if w is not None:
            if not (0.0 <= w <= 1.0):
                return ["mixed weight outside [0, 1]"]
            low, resid = slacks(w)
            if abs(resid) > 1e-6 or low < -1e-6:
                return ["mixed weight does not make the individual indifferent"]
            return []
        w_lo = 0.0 if alpha < K else 1e-9
        (low_a, ra), (low_b, rb) = slacks(w_lo), slacks(1.0)
        if abs(ra) <= CLASS_TOL:
            return [] if low_a < 1e-6 else ["missed the mixed equilibrium at w_lo"]
        if abs(rb) <= CLASS_TOL:
            return [] if low_b < 1e-6 else ["missed the mixed equilibrium at w=1"]
        if ra * rb > 0.0:
            return []
        a, b = w_lo, 1.0
        while b - a > 1e-9:
            mid = 0.5 * (a + b)
            if (slacks(mid)[1] < 0.0) == (ra < 0.0):
                a = mid
            else:
                b = mid
        low, _ = slacks(0.5 * (a + b))
        return [] if low < 1e-6 else ["missed a mixed equilibrium inside (0, 1)"]

    def sim_problems(self, report: dict, agents, steps, rho) -> list[str]:
        pairs = math.floor(rho * agents + 1e-9)
        eta = np.asarray(report["empirical_eta"])
        problems = []
        if report["token_conservation_check"] is not True:
            problems.append("tokens not conserved")
        if not (0 <= report["trades"] <= pairs * steps):
            problems.append("more trades than matched pairs")
        if np.any(eta < 0.0) or abs(eta.sum() - 1.0) > 1e-9:
            problems.append("empirical eta is not a probability vector")
        if not (0.0 <= report["empirical_efficiency"] <= 1.0):
            problems.append("empirical efficiency outside [0, 1]")
        return problems

    def value_bound(self, params) -> float:
        return max(params.b, params.c) / (1.0 - params.beta)

    # CLI commands ------------------------------------------------------------
    def robust_choice_problems(self, params, alpha, K, eff, what) -> list[str]:
        steady = self.tl.invariant_distribution(
            self.tl.Protocol(alpha, self.tl.PopulationStrategy.pure(K)))
        problems = self.class_problems(K, params, steady, "robust", what)
        if not _close((1.0 - steady.mu) * (1.0 - steady.nu), eff, 1e-10):
            problems.append(f"{what}: efficiency differs from (1-mu)(1-nu)")
        caps = (K / (K + 1.0)) ** 2, 1.0 - 1.0 / (2.0 * math.ceil(alpha) + 1.0)
        if eff > min(caps) + 1e-12:
            problems.append(f"{what}: efficiency above its closed-form cap")
        return problems

    def cli_problems(self, op, code, out, err) -> list[str]:
        argv = op["argv"]
        cmd = argv[0]
        if code != 0:
            return [f"exit code {code}: {err.strip()[:120]}"]
        f = lambda name: float(_flag(argv, name))
        if cmd == "simulate":
            report = json.loads(out)
            problems = self.sim_problems(report, int(f("--agents")), int(f("--steps")), f("--rho"))
            if report["seed"] != int(f("--seed")):
                problems.append("report seed differs from --seed")
            return problems
        if cmd == "optimize":
            params = self.params(f("--rho"), f("--beta"), f("--r"))
            res = json.loads(out)
            best, canon = res["best"], res["best_pi_k"]
            problems = self.robust_choice_problems(
                params, best["alpha"], best["K"], best["efficiency"], "best")
            if canon is not None:
                if canon["alpha"] != canon["K"] / 2.0 or canon["efficiency"] > best["efficiency"]:
                    problems.append("best_pi_k is not canonical or beats best")
            return problems
        rows = [line.split(",") for line in out.splitlines()[1:]]
        betas = np.linspace(f("--beta-min"), f("--beta-max"), int(f("--beta-steps")))
        rho, r = f("--rho"), f("--r")
        if cmd in ("fig3", "fig4"):
            if len(rows) != len(betas) or any(
                    not _close(float(row[0]), b, 1e-11) for row, b in zip(rows, betas)):
                return [f"{cmd} rows do not follow the beta grid"]
        problems = []
        if cmd == "fig3":
            for (_, k, a, eff, eff_pik), beta in zip(rows, betas):
                if int(k) == 0:
                    continue
                problems += self.robust_choice_problems(
                    self.params(rho, beta, r), float(a), int(k), float(eff), "fig3 row")
                if float(eff_pik) > float(eff):
                    problems.append("fig3 row: canonical beats the optimum")
        elif cmd == "fig4":
            fixed_k = int(f("--fixed-k"))
            for _, eff, eff_fixed in rows:
                if not (0.0 <= float(eff_fixed) <= float(eff) <= 1.0) or (
                        float(eff_fixed) > (fixed_k / (fixed_k + 1.0)) ** 2 + 1e-12):
                    problems.append("fig4 row breaks eff_fixedK <= eff_opt <= cap")
        elif cmd == "sweep":
            alpha, k_max = f("--alpha"), int(f("--k-max"))
            ks = [K for K in range(1, k_max + 1) if alpha < K]
            if len(rows) != len(betas) * len(ks):
                return ["sweep has the wrong number of rows"]
            steadies = {K: self.steady(alpha, K) for K in ks}
            for i, (b, k, tag, w) in enumerate(rows):
                beta, K = betas[i // len(ks)], ks[i % len(ks)]
                if int(k) != K or not _close(float(b), beta, 1e-11):
                    return ["sweep rows do not follow the (beta, K) grid"]
                params = self.params(rho, beta, r)
                problems += self.class_problems(K, params, steadies[K], tag, "sweep row")
                weight = None if w == "nan" else float(w)
                problems += self.mixed_problems(alpha, K, params, weight)
        return problems

    # dispatch ----------------------------------------------------------------
    def problems(self, op: dict, status: str, value) -> list[str]:
        kind = op["kind"]
        if kind == "bisection_design":
            return self.design_problems(op, status, value)
        if status == "raise":
            return [f"raised {type(value).__name__}: {value}"]
        if kind == "cli":
            return self.cli_problems(op, *value)
        if kind == "invariant_distribution":
            return self.steady_problems(value, op["alpha"], op["K"])
        if kind == "solve_marginals":
            return self.marginal_problems(op, value)
        if kind == "check_equilibrium":
            return self.check_problems(op, value)
        if kind in ("beta_interval", "r_interval"):
            return self.interval_problems(op, value)
        params = self.params(op["rho"], op["beta"], op["r"]) if "beta" in op else None
        if kind == "mixed_equilibrium_weight":
            return self.mixed_problems(op["alpha"], op["K"], params, value)
        if kind == "run_simulation":
            return self.sim_problems(value.as_dict(), op["agents"], op["steps"], op["rho"])
        if kind == "deviation_payoff_estimate":
            ok = (value.replications == op["replications"] and value.horizon == op["horizon"]
                  and math.isfinite(value.mean) and value.std_error >= 0.0
                  and abs(value.mean) <= self.value_bound(params))
            return [] if ok else ["deviation estimate out of range"]
        if kind == "compliance_value":
            ok = math.isfinite(value) and abs(value) <= self.value_bound(params)
            return [] if ok else ["compliance value out of range"]
        return [f"unknown op kind {kind!r}"]
