"""Byte goldens for the command line outputs, and a sweep oracle.

The files under tests/goldens/ are the exact stdout of `analyze` on the
canonical labor config at c_mis 1/2 and 1, of `matrices --format md`, and of
`reproduce-paper`. The sweep oracle recomputes every cell's violation the
long way, from the full separating and truthfulness reports, and compares it
with the row the sweep prints."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from revaudit.cli import main
from revaudit.core import GameModelError, rational_str
from revaudit.labor import (
    LaborParams,
    build_scenario,
    check_separating_equilibrium,
    check_truthful_reporting,
)

GOLDENS = Path(__file__).parent / "goldens"

CANONICAL = {"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "3/2"}


def write_json(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "argv, config, golden, code",
    [
        (["analyze"], {**CANONICAL, "c_mis": "1/2"}, "analyze_labor_cmis_1_2.json", 2),
        (["analyze"], {**CANONICAL, "c_mis": 1}, "analyze_labor_cmis_1.json", 0),
        (["matrices", "--format", "md"], {**CANONICAL, "c_mis": "1/2"}, "matrices_labor.md", 0),
        (["reproduce-paper"], None, "reproduce_paper.json", 0),
    ],
)
def test_output_matches_golden_bytes(tmp_path, capsys, argv, config, golden, code):
    if config is not None:
        argv = [argv[0], write_json(tmp_path, config), *argv[1:]]
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDENS / golden).read_text(encoding="utf-8")


def oracle_row(w, c_mis, fixed):
    """The sweep row derived from the two full reports, violation inline."""
    row = {"w": rational_str(w), "c_mis": rational_str(c_mis), "in_window": "",
           "separating_is_bne": "", "truthful_is_bne": "", "violation": "", "error": ""}
    try:
        params = LaborParams(w=w, c_mis=c_mis, **fixed)
    except GameModelError as exc:
        row["error"] = str(exc)
        return row
    scenario = build_scenario(params)
    separating = check_separating_equilibrium(scenario)
    truthful = check_truthful_reporting(scenario)
    violation = (
        separating.separating_is_bne
        and separating.implements_rule
        and not truthful.truthful_is_bne
    )
    cells = {
        "in_window": separating.in_window,
        "separating_is_bne": separating.separating_is_bne,
        "truthful_is_bne": truthful.truthful_is_bne,
        "violation": violation,
    }
    row.update({k: "true" if v else "false" for k, v in cells.items()})
    return row


# Window (1, 2) at theta 1, 2 and e_H 1: both edges, points just inside and
# outside, wages on either side, c_mis at and around w/2, and invalid wages.
SWEEP_W = ["-1", "0", "1/2", "1", "101/100", "3/2", "199/100", "2", "5/2"]
SWEEP_C = ["0", "1/4", "1/2", "3/4", "1", "5/4"]


@pytest.mark.parametrize("prior_high", [None, "1/10", "9/10"])
def test_sweep_matches_inline_violation_oracle(tmp_path, capsys, prior_high):
    grid = {
        "kind": "sweep",
        "w_values": SWEEP_W + ["3"],
        "c_mis_values": SWEEP_C + ["3/2"],
        "fixed": {"theta_L": 1, "theta_H": 2, "e_H": 1},
    }
    argv = ["sweep", write_json(tmp_path, grid), "--format", "json"]
    fixed = {"theta_L": Fraction(1), "theta_H": Fraction(2), "e_H": Fraction(1)}
    if prior_high is not None:
        argv += ["--prior-high", prior_high]
        fixed["prior_high"] = Fraction(prior_high)
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    expected = [
        oracle_row(Fraction(w), Fraction(c), fixed)
        for w in grid["w_values"]
        for c in grid["c_mis_values"]
    ]
    assert rows == expected
    # The grid reaches every verdict the columns can take.
    assert {r["violation"] for r in rows} == {"true", "false", ""}
    assert {r["in_window"] for r in rows} == {"true", "false", ""}
    assert {r["truthful_is_bne"] for r in rows} == {"true", "false", ""}
