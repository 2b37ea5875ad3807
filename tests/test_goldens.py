"""Byte goldens for the command line outputs, and a sweep oracle.

The files under tests/goldens/ are the exact stdout of `analyze` on the
canonical labor config at c_mis 1/2 and 1, of `matrices` in both formats, of
`reproduce-paper`, of `sweep --format json` on a grid around the wage
window, and of `analyze` on generic configs: the one-agent signal game with
its declared profile and without one (so the equilibrium search picks it),
the two-agent config, the same game with its rule swapped (the first
equilibrium, which plays no rule) and matching pennies (no equilibrium, so
the first enumerated profile): one golden for each source of the profile.
The sweep oracle recomputes every cell's violation the long way, from the
reference engine's verdicts on that cell's own bid and direct games, whose
tables it writes from the paper, and from the window's closed form, where
the sweep shares one scenario and judgement across a wage's costs, and
compares it with the row the sweep prints. A
second oracle reads each cell's own scenario with Fraction comparisons only
(`in_wage_window` and `c_mis >= break_even`), where the sweep compares ints
and takes the window once per grid."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
import reference_engine as ref

from revaudit.cli import main
from revaudit.core import GameModelError
from revaudit.equilibrium import StrategyProfile
from revaudit.labor import (
    HIRING_RULE,
    SEPARATING_PROFILE,
    TYPES,
    LaborParams,
    build_scenario,
    in_wage_window,
)
from test_cli import pennies_cfg, signal_config, swapped_rule_cfg, two_agent_cfg

GOLDENS = Path(__file__).parent / "goldens"
FRESH_PROCESSES = 4

CANONICAL = {"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "3/2"}


def write_json(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# Window (1, 2) at theta 1, 2 and e_H 1: both edges, points just inside and
# outside, wages on either side, c_mis at and around w/2, and invalid wages.
SWEEP_W = ["-1", "0", "1/2", "1", "101/100", "3/2", "199/100", "2", "5/2"]
SWEEP_C = ["0", "1/4", "1/2", "3/4", "1", "5/4"]
SWEEP_GRID = {
    "kind": "sweep",
    "w_values": SWEEP_W,
    "c_mis_values": SWEEP_C,
    "fixed": {"theta_L": 1, "theta_H": 2, "e_H": 1},
}

GOLDEN_RUNS = [
    (["analyze"], {**CANONICAL, "c_mis": "1/2"}, "analyze_labor_cmis_1_2.json", 2),
    (["analyze"], {**CANONICAL, "c_mis": 1}, "analyze_labor_cmis_1.json", 0),
    (["matrices", "--format", "md"], {**CANONICAL, "c_mis": "1/2"}, "matrices_labor.md", 0),
    (["reproduce-paper"], None, "reproduce_paper.json", 0),
    (["analyze"], signal_config(), "analyze_generic_signal_declared.json", 2),
    (["analyze"], signal_config(with_profile=False), "analyze_generic_signal_search.json", 2),
    (["analyze"], two_agent_cfg(), "analyze_generic_two_agent.json", 0),
    (["matrices", "--format", "json"], {**CANONICAL, "c_mis": "1/2"}, "matrices_labor.json", 0),
    (["sweep", "--format", "json"], SWEEP_GRID, "sweep_labor.json", 0),
    (["analyze"], swapped_rule_cfg(), "analyze_generic_swapped_rule.json", 0),
    (["analyze"], pennies_cfg(), "analyze_generic_pennies.json", 0),
    # The report labels the declared plan itself, whatever order the config's map is in.
    (["analyze"], {**signal_config(), "profile": [{"hi": "e", "lo": "0"}]},
     "analyze_generic_signal_declared.json", 2),
]


def golden_argv(tmp_path, argv, config, name):
    if config is None:
        return argv
    return [argv[0], write_json(tmp_path, config, f"{name}.cfg.json"), *argv[1:]]


@pytest.mark.parametrize("argv, config, golden, code", GOLDEN_RUNS)
def test_output_matches_golden_bytes(tmp_path, capsys, argv, config, golden, code):
    assert main(golden_argv(tmp_path, argv, config, golden)) == code
    assert capsys.readouterr().out == (GOLDENS / golden).read_text(encoding="utf-8")


def test_one_process_answers_like_fresh_processes(tmp_path, capsys, monkeypatch):
    """main reuses one parser per process. Each run of a sequence that mixes
    usage errors, --help, a non-default option and the goldens must exit and
    print exactly as the same run in a fresh `python -m revaudit`."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    labor = write_json(tmp_path, {**CANONICAL, "c_mis": "1/2"})
    search = write_json(tmp_path, signal_config(with_profile=False), "search.json")
    runs = [
        ["analyze"],
        ["--help"],
        ["analyze", "--max-profiles", "0"],
        ["analyze", search, "--max-profiles", "1"],
        ["analyze", labor],
        # Two runs share a golden, so each config file is named by its run.
        *(golden_argv(tmp_path, argv, config, f"{k}-{golden}")
          for k, (argv, config, golden, _) in enumerate(GOLDEN_RUNS)),
    ]
    in_process = []
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}

    def fresh(argv):
        return subprocess.run(
            [sys.executable, "-m", "revaudit", *argv], capture_output=True, env=env, check=False
        )

    # The fresh processes are independent: at most FRESH_PROCESSES run at once.
    with ThreadPoolExecutor(FRESH_PROCESSES) as pool:
        for argv, got, run in zip(runs, in_process, pool.map(fresh, runs)):
            assert got == (run.returncode, run.stdout.decode(), run.stderr.decode()), argv


TRUTHFUL_PROFILE = StrategyProfile.from_maps([{t: t for t in TYPES}] * 2)


def reference_verdicts(params, scenario):
    """The cell's verdicts from the reference engine, on the tables of its
    bid and direct games written from the paper at its parameters (the
    scenario is not read), violation inline, and its window from the
    closed form."""
    g = ref.labor_game(params)
    separating = ref.is_bayesian_nash(g, SEPARATING_PROFILE).is_equilibrium
    implements = ref.induced_scf(g, SEPARATING_PROFILE) == HIRING_RULE
    truthful = ref.is_bayesian_nash(ref.direct(g, ref.HIRING), TRUTHFUL_PROFILE).is_equilibrium
    lo, hi = 2 * params.e_H / params.theta_H, 2 * params.e_H / params.theta_L
    return {
        "in_window": lo < params.w < hi,
        "separating_is_bne": separating,
        "truthful_is_bne": truthful,
        "violation": separating and implements and not truthful,
    }


def fraction_verdicts(params, scenario):
    """The cell's verdicts read from its own scenario with Fraction
    comparisons: its own window test and its own break-even cost."""
    truthful = scenario.break_even is not None and params.c_mis >= scenario.break_even
    return {
        "in_window": in_wage_window(params),
        "separating_is_bne": scenario.equilibrium,
        "truthful_is_bne": truthful,
        "violation": scenario.implemented and not truthful,
    }


def oracle_row(w, c_mis, fixed, verdicts=reference_verdicts):
    """The sweep row of a cell built on its own, with the `verdicts` of its
    own scenario."""
    row = {"w": str(w), "c_mis": str(c_mis), "in_window": "",
           "separating_is_bne": "", "truthful_is_bne": "", "violation": "", "error": ""}
    try:
        params = LaborParams(w=w, c_mis=c_mis, **fixed)
    except GameModelError as exc:
        row["error"] = exc.problem  # the row names the cell's w and c_mis itself
        return row
    cells = verdicts(params, build_scenario(params))
    row.update({k: "true" if v else "false" for k, v in cells.items()})
    return row


# The golden grid, widened, at three priors; and a grid whose first wage (0)
# and first cost (negative) are invalid, at a skewed prior, so the first cell
# that builds a scenario is the second wage's second cost, and a window or a
# wage's texts taken from any other cell shows in a row.
ORACLE_W, ORACLE_C = SWEEP_W + ["3"], SWEEP_C + ["3/2"]
LATE_W = ["0", "3/2", "-1", "1", "5/2", "19/10", "101/100", "2"]
LATE_C = ["-1/2", "3/4", "0", "1/2", "1", "-1", "5/4"]


@pytest.mark.parametrize(
    "w_values, c_mis_values, prior_high",
    [(ORACLE_W, ORACLE_C, None), (ORACLE_W, ORACLE_C, "1/10"), (ORACLE_W, ORACLE_C, "9/10"),
     (LATE_W, LATE_C, "1/3")],
    ids=["None", "1/10", "9/10", "first-cell-builds-late"],
)
def test_sweep_matches_inline_violation_oracle(tmp_path, capsys, w_values, c_mis_values, prior_high):
    grid = {
        "kind": "sweep",
        "w_values": w_values,
        "c_mis_values": c_mis_values,
        "fixed": {"theta_L": 1, "theta_H": 2, "e_H": 1},
    }
    fixed = {"theta_L": Fraction(1), "theta_H": Fraction(2), "e_H": Fraction(1)}
    if prior_high is not None:
        grid["fixed"]["prior_high"] = prior_high
        fixed["prior_high"] = Fraction(prior_high)
    assert main(["sweep", write_json(tmp_path, grid), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    cells = [(Fraction(w), Fraction(c)) for w in grid["w_values"] for c in grid["c_mis_values"]]
    assert rows == [oracle_row(w, c, fixed) for w, c in cells]
    assert rows == [oracle_row(w, c, fixed, fraction_verdicts) for w, c in cells]
    # The grid reaches every verdict the columns can take.
    assert {r["violation"] for r in rows} == {"true", "false", ""}
    assert {r["in_window"] for r in rows} == {"true", "false", ""}
    assert {r["truthful_is_bne"] for r in rows} == {"true", "false", ""}
