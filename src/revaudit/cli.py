"""Command line harness.

Subcommands: analyze a scenario config, sweep a labor parameter grid,
render the ex-post report matrices, and rerun the bundled reference checks.
Exit codes: 0 means no revelation violation (or a clean survey), 2 means
a violation was found, 1 means the input or config was invalid.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import os
import sys
from fractions import Fraction

from .auditor import BreakPoint, Scenario, zero_cost_regression
from .core import _UNDERSCORE_OR_SPACE, GameModelError, _checked
from .equilibrium import DEFAULT_PROFILE_CAP, _equilibrium_plans
from .labor import (
    DEFAULT_PRIOR_HIGH,
    LaborParams,
    LaborScenario,
    build_scenario,
    case_matrices,
    check_cell,
    check_separating_equilibrium,
    check_truthful_reporting,
    wage_window,
)
from .serialize import (
    SWEEP_COLUMNS,
    SWEEP_FIXED,
    ConfigError,
    json_dump,
    json_dumps,
    load_config,
    parse_generic_scenario,
    parse_labor_params,
    parse_sweep_grid,
    render_matrices_markdown,
    truthfulness_report_to_jsonable,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _profile_cap_arg(text: str) -> int:
    # int() reads "1_000", " 5 " and any Unicode digit; a config literal
    # must be ASCII, with no underscore and no whitespace, and so must this.
    try:
        if not text.isascii() or _UNDERSCORE_OR_SPACE.search(text):
            raise ValueError
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser. It depends on no input, so one is built per
    process and shared; callers parse with it and never modify it. Each
    parse_args call returns a fresh namespace."""
    parser = _Parser(
        prog="revaudit",
        description="Exact revelation-principle auditing for finite Bayesian mechanisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="audit one scenario config")
    analyze.add_argument("config", help="path to a labor or generic scenario JSON config")
    analyze.add_argument("--max-profiles", type=_profile_cap_arg, default=DEFAULT_PROFILE_CAP,
                         help="cap on enumerated strategy profiles")
    analyze.set_defaults(func=cmd_analyze)

    sweep = sub.add_parser("sweep", help="scan a labor (w, c_mis) grid")
    sweep.add_argument("config", help="path to a sweep grid JSON config")
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.set_defaults(func=cmd_sweep)

    matrices = sub.add_parser("matrices", help="render the ex-post report matrices")
    matrices.add_argument("config", help="path to a labor scenario JSON config")
    matrices.add_argument("--format", choices=["md", "json"], default="md")
    matrices.set_defaults(func=cmd_matrices)

    reproduce = sub.add_parser(
        "reproduce-paper", help="rerun the bundled reference scenario checks"
    )
    reproduce.set_defaults(func=cmd_reproduce)
    return parser


def _select_profile(scenario: Scenario, cap: int) -> tuple[Scenario, str]:
    """The scenario with its plan to audit, and the plan's source: the
    declared plan, else one record per equilibrium in enumeration order, the
    first that plays the rule or else the first, else the first profile."""
    if scenario.plan is not None:
        return scenario, "declared"
    game = scenario.game
    records = [dataclasses.replace(scenario, plan=plan) for plan in _equilibrium_plans(game, cap)]
    for record in records:
        if record.plays_rule:
            return record, "first equilibrium implementing the rule"
    if records:
        return records[0], "first equilibrium"
    first = [[0] * len(types) for types in game.type_space.types_of]
    return dataclasses.replace(scenario, plan=first), "first enumerated profile"


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    kind = cfg.get("kind", "labor")
    if kind == "labor":
        params = parse_labor_params(cfg)
        scenario = build_scenario(params)
        payload = {
            "kind": "labor",
            "params": params,
            "separating": check_separating_equilibrium(scenario),
            "truthful": truthfulness_report_to_jsonable(
                check_truthful_reporting(scenario), case_matrices(scenario)
            ),
        }
    elif kind == "generic":
        scenario, source = _select_profile(parse_generic_scenario(cfg), args.max_profiles)
        payload = {"kind": "generic", "profile_source": source}
    else:
        problem = f"unknown config kind {kind!r}; expected 'labor' or 'generic'"
        raise ConfigError(f"config.kind: {problem}")
    audit = scenario.audit
    payload["audit"] = audit
    sys.stdout.write(json_dumps(payload))
    return EXIT_VIOLATION if audit.violation else EXIT_OK


def _bool_cell(value: bool) -> str:
    return "true" if value else "false"


def _sweep_rows(w_values, c_mis_values, fixed):
    """Each (w, c_mis) cell's row, in grid order, built once with its values
    in `SWEEP_COLUMNS` order. A cell checks only its wage and cost
    (`check_cell`, two int tests); the grid's `fixed` parameters were
    checked once, by `parse_sweep_grid`. Every wage builds its scenario at
    its first valid cost, and `check_cell` refuses a bad wage before its
    cost, so every valid wage builds at the same cost. The first valid wage
    builds the grid's market, `build_scenario` of its `LaborParams`, made
    from checked parts, and takes the wage window, which depends on the
    fixed parameters alone. Every later wage is built from that market
    (`LaborScenario.at_wage`), sharing its type space, costs and report
    prices. A wage writes its `in_window` and `separating_is_bne` texts
    once, at its first valid cost; from then on each cost is checked and
    priced by `LaborScenario.truthful_at`, one int comparison. No row prints
    the audit's other families, so none is audited. Each wage and each cost
    is written as text once."""
    theta_L, theta_H, e_H, prior_high = (fixed.get(f.name, f.default) for f in SWEEP_FIXED)
    costs = [(c_mis, str(c_mis)) for c_mis in c_mis_values]
    market = None
    for w in w_values:
        blank, scenario = dict.fromkeys(SWEEP_COLUMNS, ""), None
        blank["w"] = str(w)
        for c_mis, c_text in costs:
            # A bad cell (say w <= 0) records its error and the scan moves on.
            try:
                if scenario is None:
                    check_cell(w, c_mis)
                    if market is None:
                        params = _checked(LaborParams, theta_L, theta_H, e_H, w, c_mis, prior_high)
                        lo, hi = wage_window(params)
                    scenario = market.at_wage(w) if market else (market := build_scenario(params))
                    judged = dict(blank, in_window=_bool_cell(lo < w < hi))
                    judged["separating_is_bne"] = _bool_cell(scenario.equilibrium)
                truthful = scenario.truthful_at(c_mis)
                violation = scenario.implemented and not truthful
                row = dict(judged, c_mis=c_text, truthful_is_bne=_bool_cell(truthful),
                           violation=_bool_cell(violation))
            except GameModelError as exc:
                row = dict(blank, c_mis=c_text, error=exc.problem)
            yield row


def cmd_sweep(args) -> int:
    """One row per (w, c_mis) cell, written as its cell finishes in either
    format, so no row is kept. A grid fault exits before any row. Each row
    is built with its keys in `SWEEP_COLUMNS` order, so a CSV row is its
    values as they stand, under a header of those columns."""
    rows = _sweep_rows(*parse_sweep_grid(load_config(args.config)))
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(map(dict.values, rows))
    else:
        json_dump(rows, sys.stdout)
    return EXIT_OK


def cmd_matrices(args) -> int:
    cfg = load_config(args.config)
    if cfg.get("kind", "labor") != "labor":
        raise ConfigError("config.kind: matrices requires a labor config (kind 'labor')")
    params = parse_labor_params(cfg)
    scenario = build_scenario(params)
    matrices = case_matrices(scenario)
    if args.format == "md":
        sys.stdout.write(render_matrices_markdown(params, matrices))
    else:
        truthful = check_truthful_reporting(scenario)
        sys.stdout.write(json_dumps(truthfulness_report_to_jsonable(truthful, matrices)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Reference checks: the bundled counterexample at its canonical parameters.
# Every expected number below is hand-substituted, not recomputed.
# ---------------------------------------------------------------------------

CANONICAL_FIXED = {"theta_L": Fraction(1), "theta_H": Fraction(2), "e_H": Fraction(1)}
CANONICAL_WAGE = Fraction(3, 2)
WINDOW_WAGES = (Fraction(11, 10), Fraction(3, 2), Fraction(19, 10))
FAILING_COSTS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(7, 10))
RESTORING_COSTS = (Fraction(3, 4) + Fraction(1, 100), Fraction(1))

_F = Fraction
EXPECTED_MATRICES = {
    1: {
        ("theta_L", "theta_L"): (_F(3, 4), _F(3, 4)),
        ("theta_L", "theta_H"): (_F(0), _F(3, 2)),
        ("theta_H", "theta_L"): (_F(3, 2), _F(0)),
        ("theta_H", "theta_H"): (_F(3, 4), _F(3, 4)),
    },
    2: {
        ("theta_L", "theta_L"): (_F(3, 4), _F(3, 4)),
        ("theta_L", "theta_H"): (_F(0), _F(3, 2)),
        ("theta_H", "theta_L"): (_F(1), _F(0)),
        ("theta_H", "theta_H"): (_F(1, 4), _F(3, 4)),
    },
    3: {
        ("theta_L", "theta_L"): (_F(3, 4), _F(3, 4)),
        ("theta_L", "theta_H"): (_F(0), _F(1)),
        ("theta_H", "theta_L"): (_F(3, 2), _F(0)),
        ("theta_H", "theta_H"): (_F(3, 4), _F(1, 4)),
    },
    4: {
        ("theta_L", "theta_L"): (_F(3, 4), _F(3, 4)),
        ("theta_L", "theta_H"): (_F(0), _F(1)),
        ("theta_H", "theta_L"): (_F(1), _F(0)),
        ("theta_H", "theta_H"): (_F(1, 4), _F(1, 4)),
    },
}


def _labor_checks(scenario, prior_high: Fraction) -> list[tuple[bool, dict]]:
    """The four labor checks at one prior, each as (passed, details): the
    separating window, the unique all-report-high equilibrium below half the
    wage, its zero-cost cell, and the restoring threshold. `scenario(w,
    c_mis, prior_high)` gives each canonical market. The zero-cost check
    reads the uniqueness check's first cell, since `FAILING_COSTS` starts at
    0, and solves nothing again."""
    wages = []
    for w in WINDOW_WAGES:
        report = check_separating_equilibrium(scenario(w, Fraction(0), prior_high))
        wages.append({
            "w": w,
            "in_window": report.in_window,
            "separating_is_bne": report.separating_is_bne,
            "implements_rule": report.implements_rule,
            "ir_satisfied": report.ir_satisfied,
        })
    failing = []
    for c_mis in FAILING_COSTS:
        report = check_truthful_reporting(scenario(CANONICAL_WAGE, c_mis, prior_high))
        failing.append({
            "c_mis": c_mis,
            "cmis_below_half_w": report.cmis_below_half_w,
            "truthful_is_bne": report.truthful_is_bne,
            "unique_bne_all_report_high": report.unique_bne_all_report_high,
            "equilibria_found": len(report.equilibria),
        })
    restoring = []
    for c_mis in RESTORING_COSTS:
        report = check_truthful_reporting(scenario(CANONICAL_WAGE, c_mis, prior_high))
        restoring.append({
            "c_mis": c_mis,
            "truthful_is_bne": report.truthful_is_bne,
            "all_report_high_is_bne": report.all_report_high_is_bne,
        })
    unique = [e["cmis_below_half_w"] and not e["truthful_is_bne"] and e["unique_bne_all_report_high"]
              for e in failing]
    return [
        (all(v for entry in wages for k, v in entry.items() if k != "w"), {"wages": wages}),
        (all(unique), {"cells": failing}),
        (unique[0], {"cells": failing[:1]}),
        (all(e["truthful_is_bne"] for e in restoring), {"cells": restoring}),
    ]


def _crit_matrices(scenario: LaborScenario):
    mismatches = []
    for matrix in case_matrices(scenario):
        expected = EXPECTED_MATRICES[matrix.case]
        for profile, values in expected.items():
            got = matrix.game.payoff(profile)
            if got != values:
                mismatches.append({
                    "case": matrix.case,
                    "reports": list(profile),
                    "expected": values,
                    "got": got,
                })
    return not mismatches, {"entries_checked": 16, "mismatches": mismatches}


def _crit_chain(scenario: LaborScenario):
    chain = scenario.audit.chain
    ok = (
        chain.equilibrium_inequalities_hold
        and chain.mimicry_inequalities_hold
        and not chain.costfree_truthful_inequalities_hold
        and chain.break_point == BreakPoint(0, "theta_L", "theta_H", Fraction(3, 4))
    )
    details = dict(vars(chain))
    del details["vacuous"]
    return ok, details


def _crit_regression():
    summary = zero_cost_regression()
    ok = summary.passed and summary.equilibria_checked > 0
    return ok, {
        "instances": summary.instances,
        "equilibria_checked": summary.equilibria_checked,
        "failures": list(summary.failures),
    }


# The eight reference checks, in their fixed order; the first four are the
# labor checks, which prior independence reruns at skewed priors.
CRITERIA = (
    ("separating-equilibrium-window",
     "Separating bids form a profit-based equilibrium implementing the "
     "hiring rule with strict participation at every window wage."),
    ("direct-game-unique-high-report",
     "With misreporting costs below half the wage, the direct game's "
     "unique pure equilibrium is both workers always reporting high."),
    ("zero-misreport-cost-failure",
     "Truth-telling fails in the direct game even when misreporting is free."),
    ("truthfulness-threshold",
     "Misreporting costs at or above half the wage restore truth-telling."),
    ("case-matrices-exact",
     "The four ex-post report matrices match the hand-substituted tables entry for entry."),
    ("proof-chain-break-point",
     "The revelation argument breaks exactly at the cost-free step, "
     "witnessed by the low type reporting high."),
    ("zero-cost-regression",
     "Across random zero-cost games, every equilibrium's induced rule is truthfully implementable."),
    ("prior-independence",
     "All window and direct-game verdicts are unchanged at skewed priors."),
)


def reference_criteria() -> list[dict]:
    """Run every bundled check at the canonical parameters, in a fixed order.
    Each distinct canonical market, keyed by (w, c_mis, prior_high), is built
    once per call and read by every check that asks for it."""
    built = {}

    def scenario(w, c_mis, prior_high=DEFAULT_PRIOR_HIGH):
        if (key := (w, c_mis, prior_high)) not in built:
            params = LaborParams(w=w, c_mis=c_mis, prior_high=prior_high, **CANONICAL_FIXED)
            built[key] = build_scenario(params)
        return built[key]

    results = [
        *_labor_checks(scenario, DEFAULT_PRIOR_HIGH),
        _crit_matrices(scenario(CANONICAL_WAGE, Fraction(1, 2))),
        _crit_chain(scenario(CANONICAL_WAGE, Fraction(0))),
        _crit_regression(),
    ]
    names = ("separating", "unique_high", "zero_cost_failure", "threshold")
    skewed = {
        str(prior_high): dict(zip(names, (ok for ok, _ in _labor_checks(scenario, prior_high))))
        for prior_high in (Fraction(1, 10), Fraction(9, 10))
    }
    results.append((all(all(block.values()) for block in skewed.values()), skewed))
    return [
        {"id": cid, "description": description, "passed": passed, "details": details}
        for (cid, description), (passed, details) in zip(CRITERIA, results)
    ]


def cmd_reproduce(args) -> int:
    criteria = reference_criteria()
    all_passed = all(c["passed"] for c in criteria)
    payload = {
        "parameters": {**CANONICAL_FIXED, "w": CANONICAL_WAGE},
        "criteria": criteria,
        "all_passed": all_passed,
    }
    sys.stdout.write(json_dumps(payload))
    for c in criteria:
        if not c["passed"]:
            print(f"failed: {c['id']}", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, not at exit, so a reader that left is caught below
        return code
    except GameModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # The reader closed stdout (say `revaudit sweep grid.json | head`).
        # Pointing stdout at devnull keeps the flush at exit from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
