"""Golden CLI outputs: every subcommand against the outputs recorded in
``tests/golden/cli.json``.

CSV stdout must match byte for byte.  JSON stdout is compared after every
float is formatted with ``.12g`` (the printed precision of the CSV writer),
so last-ulp differences between CPUs in JSON floats do not fail the test.

Regenerate with ``PYTHONPATH=src python tests/test_cli_golden.py`` only when a
printed digit is meant to change, and say why in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from token_lab.cli import dispatch

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

ARGVS = (
    ("steady", "--alpha", "0.6", "--k", "2"),
    ("steady", "--alpha", "1.3", "--k", "3", "--mix-weight", "0.4"),
    ("marginals", "--alpha", "1", "--k", "3", "--rho", "0.4",
     "--beta", "0.9", "--r", "2"),
    ("values", "--alpha", "1", "--k", "3", "--rho", "0.4",
     "--beta", "0.9", "--r", "2"),
    ("check", "--alpha", "0.5", "--k", "1", "--rho", "0.5",
     "--beta", "0.85", "--r", "2"),
    ("beta-interval", "--alpha", "0.5", "--k", "1", "--rho", "0.5",
     "--r", "2"),
    ("beta-interval", "--alpha", "1.7", "--k", "5", "--rho", "0.35",
     "--r", "2.7"),
    ("r-interval", "--alpha", "0.5", "--k", "1", "--rho", "0.5",
     "--beta", "0.85"),
    ("r-interval", "--alpha", "2.2", "--k", "6", "--rho", "0.4",
     "--beta", "0.95"),
    ("bounds", "--rho", "0.5", "--beta", "0.9", "--r", "2"),
    ("design", "--rho", "0.5", "--beta", "0.9", "--r", "2"),
    ("optimize", "--rho", "0.5", "--beta", "0.9", "--r", "2",
     "--alpha-steps", "30"),
    ("sweep", "--alpha", "0.25", "--rho", "0.5", "--r", "2",
     "--beta-min", "0.84", "--beta-max", "0.88", "--beta-steps", "3",
     "--k-max", "2"),
    ("sweep", "--alpha", "1.5", "--rho", "0.4", "--r", "2.5",
     "--beta-min", "0.8", "--beta-max", "0.97", "--beta-steps", "6",
     "--k-max", "6"),
    ("fig3", "--rho", "0.5", "--r", "2", "--beta-min", "0.88",
     "--beta-max", "0.92", "--beta-steps", "2", "--alpha-steps", "30"),
    ("fig4", "--rho", "0.5", "--r", "2", "--beta-min", "0.88",
     "--beta-max", "0.92", "--beta-steps", "2", "--fixed-k", "3",
     "--alpha-steps", "30"),
    # fixed threshold above K_H: no robust protocol at that threshold
    ("fig4", "--rho", "0.5", "--r", "2", "--beta-min", "0.88",
     "--beta-max", "0.92", "--beta-steps", "2", "--fixed-k", "9",
     "--alpha-steps", "30"),
    # the K range runs to floor(K_H), which grows with beta across the window
    ("fig3", "--rho", "0.4", "--r", "2.5", "--beta-min", "0.8",
     "--beta-max", "0.97", "--beta-steps", "6", "--alpha-steps", "16"),
    ("fig4", "--rho", "0.4", "--r", "2.5", "--beta-min", "0.8",
     "--beta-max", "0.97", "--beta-steps", "6", "--fixed-k", "12",
     "--alpha-steps", "16"),
    ("simulate", "--agents", "200", "--steps", "30", "--seed", "42",
     "--alpha", "1", "--k", "2", "--rho", "0.4"),
)


def _round_floats(obj):
    if isinstance(obj, float):
        return format(obj, ".12g")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def capture(argv) -> dict:
    """Exit code plus stdout: raw CSV text, or JSON with floats at .12g."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(list(argv))
    text = out.getvalue()
    if text.startswith("{"):
        return {"argv": list(argv), "code": code, "json": _round_floats(json.loads(text))}
    return {"argv": list(argv), "code": code, "csv": text}


def _golden() -> dict:
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_argv():
    assert set(_golden()) == set(ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a))
def test_cli_matches_golden(argv):
    assert capture(argv) == _golden()[argv]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([capture(a) for a in ARGVS], indent=1) + "\n")
