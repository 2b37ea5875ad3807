"""Acceptance checks for the bundled labor-market counterexample.

Each criterion prints one `criterion N PASS/FAIL: label` line and then
asserts. Every expected number is either hand-substituted into the test or
recomputed here from closed-form formulas independent of the package code;
criterion 2 rebuilds the whole direct game from scratch as an oracle. All
arithmetic is exact."""

import itertools
import json
import subprocess
import sys
from fractions import Fraction

from payoff_probe import compiled_payoff

from revaudit.auditor import zero_cost_regression
from revaudit.labor import (
    SEPARATING_PROFILE,
    TYPE_HIGH,
    TYPE_LOW,
    LaborParams,
    build_scenario,
    case_matrices,
    check_separating_equilibrium,
    check_truthful_reporting,
)

HALF = Fraction(1, 2)
CANONICAL_WAGE = Fraction(3, 2)
WINDOW_WAGES = (Fraction(11, 10), Fraction(3, 2), Fraction(19, 10))
FAILING_COSTS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(7, 10))
RESTORING_COSTS = (Fraction(19, 25), Fraction(1))
SKEWED_PRIORS = (Fraction(1, 10), Fraction(9, 10))


def params(w, c_mis=Fraction(0), prior_high=HALF):
    return LaborParams(theta_L=1, theta_H=2, e_H=1, w=w, c_mis=c_mis, prior_high=prior_high)


def finish(number, label, problems):
    status = "FAIL" if problems else "PASS"
    print(f"criterion {number} {status}: {label}")
    assert not problems, "\n".join(problems)


# -- independent closed forms --------------------------------------------------------


def closed_form_interim(w, prior_high, own_type):
    """Separating-profile interim payoffs, derived by hand: the high type
    outbids a low opponent and splits with a high one, paying e_H/theta_H
    either way; the low type bids nothing and shares only against a low
    opponent. Here theta_H = 2 and e_H = 1."""
    p_hi, p_lo = prior_high, 1 - prior_high
    if own_type == TYPE_HIGH:
        return p_lo * (w - HALF) + p_hi * (w / 2 - HALF)
    return p_lo * (w / 2)


def oracle_direct_equilibria(w, c_mis, prior_high):
    """All pure equilibria of the direct report game, built from scratch:
    the higher report is hired at wage w, equal reports split the job, and
    a low type pays c_mis for reporting high. Returns canonical tuples
    ((type, report), ...) per agent."""
    types = (TYPE_LOW, TYPE_HIGH)
    prior = {TYPE_LOW: 1 - prior_high, TYPE_HIGH: prior_high}
    rank = {TYPE_LOW: 0, TYPE_HIGH: 1}

    def share(mine, theirs):
        if rank[mine] > rank[theirs]:
            return Fraction(1)
        if rank[mine] < rank[theirs]:
            return Fraction(0)
        return HALF

    def fee(true, report):
        return c_mis if (true == TYPE_LOW and report == TYPE_HIGH) else Fraction(0)

    def interim(true, report, other_map):
        gross = sum(prior[s] * share(report, other_map[s]) * w for s in types)
        return gross - fee(true, report)

    strategies = [dict(zip(types, combo)) for combo in itertools.product(types, repeat=2)]
    equilibria = set()
    for s0, s1 in itertools.product(strategies, repeat=2):
        maps = (s0, s1)
        stable = True
        for me, other in ((0, 1), (1, 0)):
            for t in types:
                current = interim(t, maps[me][t], maps[other])
                if any(interim(t, r, maps[other]) > current for r in types):
                    stable = False
        if stable:
            equilibria.add((tuple(sorted(s0.items())), tuple(sorted(s1.items()))))
    return equilibria


def engine_direct_equilibria(report):
    return {tuple(s.choice for s in p.strategies) for p in report.equilibria}


ALL_HIGH = (
    ((TYPE_HIGH, TYPE_HIGH), (TYPE_LOW, TYPE_HIGH)),
    ((TYPE_HIGH, TYPE_HIGH), (TYPE_LOW, TYPE_HIGH)),
)


# -- criteria -------------------------------------------------------------------------


def test_criterion_1_separating_equilibrium_across_the_window():
    problems = []
    for w in WINDOW_WAGES:
        report = check_separating_equilibrium(build_scenario(params(w)))
        if not report.in_window:
            problems.append(f"w={w}: not recognized as inside the window")
        if not report.separating_is_bne or report.bne_witness is not None:
            problems.append(f"w={w}: separating profile not an equilibrium")
        if not report.implements_rule:
            problems.append(f"w={w}: separating profile misses the hiring rule")
        if not (report.ir_satisfied and report.ir_margin == w / 2 - HALF):
            problems.append(f"w={w}: participation margin wrong: {report.ir_margin}")
        for case in report.best_response_cases:
            if case.optimal_bid is None:
                problems.append(f"w={w}: unexpected tie in case {case.case}")
    # Closed-form interim cross-check (the engine path goes through the
    # mechanism; this one never does).
    for w in WINDOW_WAGES:
        game = build_scenario(params(w)).game
        for own in (TYPE_LOW, TYPE_HIGH):
            got = compiled_payoff(game, SEPARATING_PROFILE, 0, own)
            want = closed_form_interim(w, HALF, own)
            if got != want:
                problems.append(f"w={w}, {own}: interim {got} != closed form {want}")
    game = build_scenario(params(CANONICAL_WAGE)).game
    if compiled_payoff(game, SEPARATING_PROFILE, 0, TYPE_HIGH) != Fraction(5, 8):
        problems.append("canonical high-type interim is not 5/8")
    if compiled_payoff(game, SEPARATING_PROFILE, 0, TYPE_LOW) != Fraction(3, 8):
        problems.append("canonical low-type interim is not 3/8")
    finish(1, "separating bids implement the hiring rule at window wages", problems)


def test_criterion_2_direct_game_equilibria_match_oracle():
    problems = []
    for c_mis in FAILING_COSTS + RESTORING_COSTS:
        report = check_truthful_reporting(build_scenario(params(CANONICAL_WAGE, c_mis)))
        got = engine_direct_equilibria(report)
        want = oracle_direct_equilibria(CANONICAL_WAGE, c_mis, HALF)
        if got != want:
            problems.append(f"c_mis={c_mis}: engine {got} != oracle {want}")
    for c_mis in FAILING_COSTS:
        report = check_truthful_reporting(build_scenario(params(CANONICAL_WAGE, c_mis)))
        if not report.unique_bne_all_report_high:
            problems.append(f"c_mis={c_mis}: all-report-high not the unique equilibrium")
        if engine_direct_equilibria(report) != {ALL_HIGH}:
            problems.append(f"c_mis={c_mis}: equilibrium set is not exactly all-report-high")
        if report.truthful_is_bne:
            problems.append(f"c_mis={c_mis}: truth-telling should fail below half the wage")
    finish(2, "below half the wage the unique direct equilibrium is all-report-high", problems)


def test_criterion_3_truth_fails_even_with_free_misreporting():
    problems = []
    report = check_truthful_reporting(build_scenario(params(CANONICAL_WAGE, Fraction(0))))
    if report.truthful_is_bne:
        problems.append("truth-telling survived with free misreporting")
    wit = report.truthful_witness
    if wit is None or (wit.agent, wit.type_label, wit.action) != (0, TYPE_LOW, TYPE_HIGH):
        problems.append(f"wrong witness: {wit}")
    elif wit.gain != Fraction(3, 4):
        problems.append(f"witness gain {wit.gain} != 3/4 (= w/2)")
    finish(3, "truth-telling fails at zero misreporting cost", problems)


def test_criterion_4_truthfulness_restored_at_high_cost():
    problems = []
    for c_mis in RESTORING_COSTS:
        report = check_truthful_reporting(build_scenario(params(CANONICAL_WAGE, c_mis)))
        if report.cmis_below_half_w:
            problems.append(f"c_mis={c_mis}: misclassified as below half the wage")
        if not report.truthful_is_bne or report.truthful_witness is not None:
            problems.append(f"c_mis={c_mis}: truth-telling should hold")
    finish(4, "misreporting costs above half the wage restore truth-telling", problems)


def test_criterion_5_expost_report_matrices_are_exact():
    # Hand-substituted matrices at w = 3/2, c_mis = 1/2: entry (a, b) is the
    # payoff pair when agent i reports a and agent j reports b.
    F = Fraction
    expected = {
        (TYPE_HIGH, TYPE_HIGH): {
            (TYPE_LOW, TYPE_LOW): (F(3, 4), F(3, 4)),
            (TYPE_LOW, TYPE_HIGH): (F(0), F(3, 2)),
            (TYPE_HIGH, TYPE_LOW): (F(3, 2), F(0)),
            (TYPE_HIGH, TYPE_HIGH): (F(3, 4), F(3, 4)),
        },
        (TYPE_LOW, TYPE_HIGH): {
            (TYPE_LOW, TYPE_LOW): (F(3, 4), F(3, 4)),
            (TYPE_LOW, TYPE_HIGH): (F(0), F(3, 2)),
            (TYPE_HIGH, TYPE_LOW): (F(1), F(0)),
            (TYPE_HIGH, TYPE_HIGH): (F(1, 4), F(3, 4)),
        },
        (TYPE_HIGH, TYPE_LOW): {
            (TYPE_LOW, TYPE_LOW): (F(3, 4), F(3, 4)),
            (TYPE_LOW, TYPE_HIGH): (F(0), F(1)),
            (TYPE_HIGH, TYPE_LOW): (F(3, 2), F(0)),
            (TYPE_HIGH, TYPE_HIGH): (F(3, 4), F(1, 4)),
        },
        (TYPE_LOW, TYPE_LOW): {
            (TYPE_LOW, TYPE_LOW): (F(3, 4), F(3, 4)),
            (TYPE_LOW, TYPE_HIGH): (F(0), F(1)),
            (TYPE_HIGH, TYPE_LOW): (F(1), F(0)),
            (TYPE_HIGH, TYPE_HIGH): (F(1, 4), F(1, 4)),
        },
    }
    problems = []
    matrices = case_matrices(build_scenario(params(CANONICAL_WAGE, HALF)))
    if [m.true_types for m in matrices] != [
        (TYPE_HIGH, TYPE_HIGH),
        (TYPE_LOW, TYPE_HIGH),
        (TYPE_HIGH, TYPE_LOW),
        (TYPE_LOW, TYPE_LOW),
    ]:
        problems.append("case ordering is wrong")
    checked = 0
    for matrix in matrices:
        table = expected[matrix.true_types]
        for reports, values in table.items():
            checked += 1
            got = matrix.game.payoff(reports)
            if got != values:
                problems.append(
                    f"true types {matrix.true_types}, reports {reports}: {got} != {values}"
                )
        for d in matrix.dominant:
            if d is None or d.action != TYPE_HIGH or d.kind != "strict":
                problems.append(f"true types {matrix.true_types}: reporting high not strictly dominant")
        if matrix.pure_nash != ((TYPE_HIGH, TYPE_HIGH),):
            problems.append(f"true types {matrix.true_types}: wrong pure Nash set")
    if checked != 16:
        problems.append(f"checked {checked} entries, expected 16")
    finish(5, "all four ex-post report matrices match entry for entry", problems)


def test_criterion_6_proof_chain_breaks_at_the_costfree_step():
    problems = []
    for c_mis in (Fraction(0), HALF):
        chain = build_scenario(params(CANONICAL_WAGE, c_mis)).audit.chain
        if chain.vacuous or not chain.equilibrium_inequalities_hold:
            problems.append(f"c_mis={c_mis}: equilibrium step should hold")
        if not chain.mimicry_inequalities_hold:
            problems.append(f"c_mis={c_mis}: mimicry step should hold")
        if chain.costfree_truthful_inequalities_hold:
            problems.append(f"c_mis={c_mis}: cost-free step should fail")
        bp = chain.break_point
        if bp is None:
            problems.append(f"c_mis={c_mis}: missing break point")
        elif (bp.agent, bp.type_label, bp.mimicked_type, bp.costfree_gain) != (
            0,
            TYPE_LOW,
            TYPE_HIGH,
            Fraction(3, 4),
        ):
            problems.append(f"c_mis={c_mis}: wrong break point {bp}")
    finish(6, "the revelation argument snaps exactly at the cost-free step", problems)


def test_criterion_7_zero_cost_regression():
    problems = []
    summary = zero_cost_regression(instances=200)
    if summary.instances != 200:
        problems.append(f"ran {summary.instances} instances, expected 200")
    if summary.equilibria_checked <= 0:
        problems.append("no equilibria were checked")
    if not summary.passed:
        problems.extend(summary.failures[:5])
    finish(7, "no violation on 200 random games with costless actions", problems)


def test_criterion_8_conclusions_are_prior_independent():
    problems = []
    for prior_high in SKEWED_PRIORS:
        for w in WINDOW_WAGES:
            sep = check_separating_equilibrium(build_scenario(params(w, prior_high=prior_high)))
            if not (sep.separating_is_bne and sep.implements_rule and sep.ir_satisfied):
                problems.append(f"prior {prior_high}, w={w}: separating side broke")
        for c_mis in FAILING_COSTS:
            p = params(CANONICAL_WAGE, c_mis, prior_high)
            truth = check_truthful_reporting(build_scenario(p))
            if truth.truthful_is_bne or not truth.unique_bne_all_report_high:
                problems.append(f"prior {prior_high}, c_mis={c_mis}: direct side broke")
            oracle = oracle_direct_equilibria(CANONICAL_WAGE, c_mis, prior_high)
            if engine_direct_equilibria(truth) != oracle:
                problems.append(f"prior {prior_high}, c_mis={c_mis}: oracle disagrees")
        zero_cost = build_scenario(params(CANONICAL_WAGE, Fraction(0), prior_high))
        zero = check_truthful_reporting(zero_cost)
        if zero.truthful_witness is None or zero.truthful_witness.gain != Fraction(3, 4):
            problems.append(f"prior {prior_high}: zero-cost witness gain moved")
        for c_mis in RESTORING_COSTS:
            restored = build_scenario(params(CANONICAL_WAGE, c_mis, prior_high))
            if not check_truthful_reporting(restored).truthful_is_bne:
                problems.append(f"prior {prior_high}, c_mis={c_mis}: threshold moved")
    finish(8, "every verdict is unchanged at skewed type priors", problems)


def test_criterion_9_reference_run_is_deterministic():
    problems = []
    runs = [
        subprocess.run(
            [sys.executable, "-m", "revaudit.cli", "reproduce-paper"],
            capture_output=True,
            timeout=300,
        )
        for _ in range(2)
    ]
    for k, run in enumerate(runs):
        if run.returncode != 0:
            problems.append(f"run {k}: exit code {run.returncode}, stderr: {run.stderr!r}")
    if runs[0].stdout != runs[1].stdout:
        problems.append("two runs produced different bytes")
    payload = json.loads(runs[0].stdout)
    if payload.get("all_passed") is not True:
        problems.append("reference run reports a failing check")
    if len(payload.get("criteria", [])) != 8:
        problems.append("reference run did not cover all bundled checks")
    finish(9, "the bundled reference run passes and is byte-identical across runs", problems)
