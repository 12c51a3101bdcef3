"""Subcommand surface: formats, golden stability, exit codes."""

import json

import pytest

from token_lab.cli import dispatch


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_steady_uniform(capsys):
    code, out, err = run_cli(capsys, "steady", "--alpha", "2", "--k", "4")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "k,eta"
    assert len(lines) == 6
    assert all(line.split(",")[1] == "0.2" for line in lines[1:])


def test_steady_sidecar(tmp_path, capsys):
    out_path = tmp_path / "eta.csv"
    code, _, _ = run_cli(
        capsys, "steady", "--alpha", "0.5", "--k", "1", "--output", str(out_path)
    )
    assert code == 0
    assert out_path.read_text().splitlines()[1] == "0,0.5"
    side = json.loads((tmp_path / "eta.json").read_text())
    assert side["alpha"] == 0.5
    assert side["thresholds"] == [1]
    assert side["mu"] == pytest.approx(0.5)


def test_steady_rho_flag_has_no_effect(capsys):
    _, out_a, _ = run_cli(capsys, "steady", "--alpha", "0.7", "--k", "2")
    _, out_b, _ = run_cli(capsys, "steady", "--alpha", "0.7", "--k", "2", "--rho", "0.1")
    assert out_a == out_b


def test_marginals_and_values_agree(capsys):
    args = ("--alpha", "0.5", "--k", "1", "--rho", "0.5", "--beta", "0.8", "--r", "2")
    code, out_m, _ = run_cli(capsys, "marginals", *args)
    assert code == 0
    code, out_v, _ = run_cli(capsys, "values", *args)
    assert out_m == out_v
    lines = out_m.splitlines()
    assert lines[0] == "k,M,V"
    k0 = lines[1].split(",")
    assert float(k0[1]) == pytest.approx(1.25)
    assert float(k0[2]) == pytest.approx(0.0, abs=1e-12)


def test_check_boundary_case(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--alpha", "0.5", "--k", "1",
        "--rho", "0.5", "--beta", "0.8", "--r", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "boundary"
    assert abs(payload["slack_low"]) < 1e-9


def test_bounds_json(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--rho", "0.5", "--beta", "0.9", "--r", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["K_L"] == pytest.approx(0.2291, abs=1e-4)
    assert payload["K_H"] == pytest.approx(6.9083, abs=1e-4)


def test_beta_interval_json(capsys):
    code, out, _ = run_cli(
        capsys, "beta-interval", "--alpha", "0.5", "--k", "1",
        "--rho", "0.5", "--r", "2",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "beta"
    assert payload["lo"] == pytest.approx(0.8, abs=1e-9)


def test_r_interval_json(capsys):
    code, out, _ = run_cli(
        capsys, "r-interval", "--alpha", "0.5", "--k", "1",
        "--rho", "0.5", "--beta", "0.85",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["lo"] == pytest.approx(1.70588, abs=1e-4)


def test_design_json(capsys):
    code, out, _ = run_cli(
        capsys, "design", "--rho", "0.5", "--beta", "0.85", "--r", "2"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["K_star"] == 1
    assert payload["trail"][-1]["class"] in ("boundary", "robust")


def test_optimize_json(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--rho", "0.5", "--beta", "0.9", "--r", "2",
        "--alpha-steps", "60",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["best"]["efficiency"] >= payload["best_pi_k"]["efficiency"]


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--alpha", "0.25", "--rho", "0.5", "--r", "2",
        "--beta-min", "0.8", "--beta-max", "0.9", "--beta-steps", "5",
        "--k-max", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta,K,class,mix_weight"
    assert len(lines) == 1 + 5 * 3
    classes = {line.split(",")[2] for line in lines[1:]}
    assert classes <= {"none", "boundary", "robust"}


def test_fig3_csv(capsys):
    code, out, _ = run_cli(
        capsys, "fig3", "--rho", "0.5", "--r", "2",
        "--beta-min", "0.85", "--beta-max", "0.93", "--beta-steps", "3",
        "--alpha-steps", "40",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta,K_star,alpha_star,eff_opt,eff_piK"
    assert len(lines) == 4


def test_fig4_csv(capsys):
    code, out, _ = run_cli(
        capsys, "fig4", "--rho", "0.5", "--r", "2",
        "--beta-min", "0.85", "--beta-max", "0.93", "--beta-steps", "3",
        "--fixed-k", "3", "--alpha-steps", "40",
    )
    assert code == 0
    assert out.splitlines()[0] == "beta,eff_opt,eff_fixedK"


def test_simulate_json(tmp_path, capsys):
    stream = tmp_path / "steps.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--agents", "300", "--steps", "50", "--seed", "7",
        "--alpha", "2", "--k", "4", "--rho", "0.5", "--burn-in", "10",
        "--stream-csv", str(stream),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["token_conservation_check"] is True
    assert payload["generator"] == "numpy-pcg64"
    assert stream.read_text().splitlines()[0] == "t,trades,eta0,etaK"


def test_byte_identical_outputs(capsys):
    # every subcommand, fixed flags: two runs, same bytes
    for argv in (
        ("steady", "--alpha", "0.6", "--k", "2"),
        ("marginals", "--alpha", "1", "--k", "3", "--rho", "0.4",
         "--beta", "0.9", "--r", "2"),
        ("values", "--alpha", "1", "--k", "3", "--rho", "0.4",
         "--beta", "0.9", "--r", "2"),
        ("check", "--alpha", "0.5", "--k", "1", "--rho", "0.5",
         "--beta", "0.85", "--r", "2"),
        ("beta-interval", "--alpha", "0.5", "--k", "1", "--rho", "0.5",
         "--r", "2"),
        ("r-interval", "--alpha", "0.5", "--k", "1", "--rho", "0.5",
         "--beta", "0.85"),
        ("bounds", "--rho", "0.5", "--beta", "0.9", "--r", "2"),
        ("design", "--rho", "0.5", "--beta", "0.9", "--r", "2"),
        ("optimize", "--rho", "0.5", "--beta", "0.9", "--r", "2",
         "--alpha-steps", "30"),
        ("sweep", "--alpha", "0.25", "--rho", "0.5", "--r", "2",
         "--beta-min", "0.84", "--beta-max", "0.88", "--beta-steps", "3",
         "--k-max", "2"),
        ("fig3", "--rho", "0.5", "--r", "2", "--beta-min", "0.88",
         "--beta-max", "0.92", "--beta-steps", "2", "--alpha-steps", "30"),
        ("fig4", "--rho", "0.5", "--r", "2", "--beta-min", "0.88",
         "--beta-max", "0.92", "--beta-steps", "2", "--fixed-k", "3",
         "--alpha-steps", "30"),
        ("simulate", "--agents", "200", "--steps", "30", "--seed", "42",
         "--alpha", "1", "--k", "2", "--rho", "0.4"),
    ):
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        _, second, _ = run_cli(capsys, *argv)
        assert first == second, argv


def test_byte_identical_across_processes():
    import subprocess
    import sys

    argv = [sys.executable, "-m", "token_lab.cli", "steady", "--alpha", "0.6",
            "--k", "2"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.decode().splitlines()[1] == "0,0.553972282678"


def test_solver_error_exit_code(capsys):
    # invalid supply: alpha >= K has no bounded steady state
    code, out, err = run_cli(
        capsys, "steady", "--alpha", "3", "--k", "2"
    )
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidSupply"


def test_no_equilibrium_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "design", "--rho", "0.5", "--beta", "0.5", "--r", "1.2"
    )
    assert code == 1
    assert json.loads(err)["error"] == "NoEquilibriumFound"


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "steady", "--alpha", "2")  # missing --k
    assert code == 2
    code, _, err = run_cli(capsys, "bogus-command")
    assert code == 2


def test_flag_validation_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "check", "--alpha", "0.5", "--k", "1", "--rho", "0.7",
        "--beta", "0.85", "--r", "2",
    )
    assert code == 2
    assert "rho" in err


def test_twelve_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "steady", "--alpha", "0.6", "--k", "2")
    eta0 = out.splitlines()[1].split(",")[1]
    assert eta0 == "0.553972282678"
    assert "," in out and "." in eta0


def test_grid_flag_validation_exit_code(capsys):
    # a grid with no interior supply, or a threshold that never serves, is a
    # bad flag rather than a solver failure
    window = ("--rho", "0.5", "--r", "2", "--beta-min", "0.8", "--beta-max", "0.9",
              "--beta-steps", "2")
    for steps in ("0", "1"):
        for argv in (("optimize", "--rho", "0.5", "--beta", "0.9", "--r", "2"),
                     ("fig3", *window), ("fig4", *window)):
            code, out, err = run_cli(capsys, *argv, "--alpha-steps", steps)
            assert (code, out) == (2, "") and "alpha_steps" in err, argv
    code, out, err = run_cli(capsys, "fig4", *window, "--fixed-k", "0")
    assert (code, out) == (2, "") and "thresholds" in err


_ENV = ("--rho", "0.5", "--r", "2")
_PROTOCOL = ("--alpha", "0.5", "--k", "1", "--rho", "0.5")


@pytest.mark.parametrize("argv", [
    ("check", *_PROTOCOL, "--beta", "0.8", "--r", "2", "--tol-root", "1e-8"),
    ("design", *_ENV, "--beta", "0.85", "--tol-root", "1e-8"),
    ("optimize", *_ENV, "--beta", "0.9", "--tol-root", "1e-8"),
    ("sweep", "--alpha", "0.25", *_ENV, "--beta-min", "0.8", "--beta-max", "0.9",
     "--beta-steps", "2", "--tol-root", "1e-8"),
    ("r-interval", *_PROTOCOL, "--beta", "0.85", "--tol-root", "1e-8"),
    ("r-interval", *_PROTOCOL, "--beta", "0.85", "--tol-class", "1e-8"),
    ("beta-interval", *_PROTOCOL, "--r", "2", "--tol-class", "1e-8"),
])
def test_unread_tolerance_flags_are_rejected(capsys, argv):
    # each subcommand registers only the tolerance it reads
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "unrecognized arguments" in err
