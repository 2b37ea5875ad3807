"""The bundled labor-market scenario: wage windows, separating equilibrium,
direct-game truthfulness, ex-post report matrices, and the full audit.

Closed-form payoff formulas are recomputed inside the tests so the scenario
code is checked against an independent derivation, not against itself."""

import collections.abc
import dataclasses
import random
from fractions import Fraction

import pytest
from payoff_probe import compiled_payoff
from test_auditor import same_parts

from revaudit.auditor import direct_game
from revaudit.core import ConstructionError, CostModel, Mechanism, TypeSpace, UtilityTable, as_rational
from revaudit.equilibrium import BayesianGame, Deviation, StrategyProfile, _implements
from revaudit.labor import (
    ALL_REPORT_HIGH_PROFILE,
    BID_HIGH,
    BID_ZERO,
    HIRE_FIRST,
    HIRE_SECOND,
    HIRING_RULE,
    SEPARATING_PROFILE,
    SPLIT,
    TYPE_HIGH,
    TYPE_LOW,
    TYPES,
    LaborParams,
    build_scenario,
    case_matrices,
    check_separating_equilibrium,
    check_truthful_reporting,
    in_wage_window,
    wage_window,
)


# Every type of both workers reports itself in the direct game.
TRUTHFUL = StrategyProfile.from_maps([{TYPE_LOW: TYPE_LOW, TYPE_HIGH: TYPE_HIGH}] * 2)


def params(w="3/2", c_mis="0", prior_high="1/2", theta_L=1, theta_H=2, e_H=1):
    return LaborParams(
        theta_L=theta_L, theta_H=theta_H, e_H=e_H, w=w, c_mis=c_mis, prior_high=prior_high
    )


# -- parameters -------------------------------------------------------------------


def test_params_coerce_to_exact_rationals():
    p = params(w="3/2", c_mis="1/4")
    assert p.w == Fraction(3, 2) and isinstance(p.w, Fraction)
    assert p.c_mis == Fraction(1, 4)
    assert LaborParams(1, 2, 1, 1).c_mis == 0
    assert LaborParams(1, 2, 1, 1).prior_high == Fraction(1, 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(theta_L=0, theta_H=2, e_H=1, w=1),
        dict(theta_L=2, theta_H=2, e_H=1, w=1),
        dict(theta_L=3, theta_H=2, e_H=1, w=1),
        dict(theta_L=1, theta_H=2, e_H=0, w=1),
        dict(theta_L=1, theta_H=2, e_H=1, w=0),
        dict(theta_L=1, theta_H=2, e_H=1, w=1, c_mis=-1),
        dict(theta_L=1, theta_H=2, e_H=1, w=1, prior_high=0),
        dict(theta_L=1, theta_H=2, e_H=1, w=1, prior_high=1),
        # The scenario's type space is built from checked parts, so the prior's
        # denominator is bounded here, as a TypeSpace bounds it.
        dict(theta_L=1, theta_H=2, e_H=1, w=1, prior_high=Fraction(1, 2**2048)),
        dict(theta_L=1, theta_H=2, e_H=1, w=1.5),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ConstructionError):
        LaborParams(**kwargs)


# -- wage window ------------------------------------------------------------------


def test_wage_window_formula():
    assert wage_window(params()) == (Fraction(1), Fraction(2))
    assert wage_window(params(theta_L=1, theta_H=3, e_H="3/2", w=2)) == (
        Fraction(1),
        Fraction(3),
    )


def test_wage_window_is_open():
    assert in_wage_window(params(w="3/2"))
    assert not in_wage_window(params(w=1))
    assert not in_wage_window(params(w=2))
    assert not in_wage_window(params(w="5/2"))


# -- scenario wiring ---------------------------------------------------------------


@pytest.mark.parametrize("prior_high", ["1/10", "1/2", "9/10", "0." + "37" * 49])
def test_the_scenario_type_space_is_the_one_type_space_checks(prior_high):
    # build_scenario builds its type space from checked parts; it equals the
    # type space that TypeSpace checks, prior weights included, at a literal
    # of the full 100 characters too, and the direct game shares it.
    scenario = build_scenario(params(prior_high=prior_high))
    p = as_rational(prior_high)
    prior = {TYPE_LOW: 1 - p, TYPE_HIGH: p}
    checked = TypeSpace((TYPES, TYPES), (prior, prior))
    assert scenario.game.type_space == checked
    assert scenario.game.type_space.weights == checked.weights
    assert scenario.direct.type_space is scenario.game.type_space


def random_params(rng):
    """A random labor market: small positive rationals with denominators up
    to 12, theta_H above theta_L, and a prior strictly inside (0, 1)."""
    def positive():
        return Fraction(rng.randint(1, 36), rng.randint(1, 12))

    theta_L = positive()
    d = rng.randint(2, 12)
    return LaborParams(
        theta_L=theta_L, theta_H=theta_L + positive(), e_H=positive(), w=positive(),
        c_mis=Fraction(rng.randint(0, 36), rng.randint(1, 12)),
        prior_high=Fraction(rng.randint(1, d - 1), d),
    )


def check_built_parts(p):
    """build_scenario builds its parts without their constructors' checks;
    the checking constructors must accept the same fields and build equal
    games, and an equal direct game of the hiring rule. Whether the
    separating plan plays that rule is a class constant, found once, when
    the module loads; the market's own play-out must agree with it.
    `truthful_at` compares ints; the Fraction comparison with `break_even`
    is its oracle, at that cost, just below it and at 0. The market's
    scenario at a second wage, drawn from its parameters, is built from its
    type space and cost models (`at_wage`), which it holds as the same
    objects, and must equal build_scenario at that wage."""
    scenario = build_scenario(p)
    rng = random.Random(repr(p))
    check_shared_wage(scenario, Fraction(rng.randint(1, 36), rng.randint(1, 12)))
    game = scenario.game
    ts, mech, costs = game.type_space, game.mechanism, game.costs
    checked = BayesianGame(
        Mechanism(mech.actions_of, mech.outcome_of),
        TypeSpace(ts.types_of, ts.prior_of),
        UtilityTable(game.utilities.table),
        CostModel(costs.strategic, costs.misreport),
    )
    assert same_parts(game, checked), p
    assert same_parts(scenario.direct, direct_game(checked, HIRING_RULE)), p
    assert _implements(game, scenario.plan, scenario.direct.mechanism) is scenario.plays_rule, p
    least = scenario.break_even  # no free misreport gains in a labor market
    for c_mis in (least, least * Fraction(999_999, 1_000_000), Fraction(0)):
        assert scenario.truthful_at(c_mis) is (c_mis >= least), (p, c_mis)


def check_shared_wage(scenario, w):
    """The scenario at wage w built from `scenario`'s shared parts equals the
    one build_scenario builds at that wage, in its games, its judgement of
    the separating plan and its break-even cost, and holds the first
    scenario's type space and both cost models as they are."""
    shared = scenario.at_wage(w)
    built = build_scenario(dataclasses.replace(scenario.params, w=w))
    assert shared.params == built.params, w
    assert same_parts(shared.game, built.game), w
    assert same_parts(shared.direct, built.direct), w
    for game in (shared.game, shared.direct):
        assert game.type_space is scenario.game.type_space, w
    assert shared.game.costs is scenario.game.costs, w
    assert shared.direct.costs is scenario.direct.costs, w
    assert shared.rows_of == built.rows_of, w
    assert shared.equilibrium is built.equilibrium, w
    least = built.break_even
    assert shared.break_even == least, w
    for c_mis in (least, least * Fraction(999_999, 1_000_000), Fraction(0), scenario.params.c_mis):
        assert shared.truthful_at(c_mis) is built.truthful_at(c_mis), (w, c_mis)


@pytest.mark.parametrize("w", [0, "-1/2", "x", 1.5])
def test_a_wage_labor_params_refuses_is_refused_from_shared_parts_alike(w):
    with pytest.raises(ConstructionError) as shared:
        build_scenario(params()).at_wage(w)
    with pytest.raises(ConstructionError) as built:
        params(w=w)
    assert (shared.value.problem, shared.value.at) == (built.value.problem, built.value.at)


# The canonical market, skewed priors, both edges of the wage window (1, 2).
LABOR_PARAMS_CASES = [
    params(w="3/2", c_mis="1/2"),
    params(w="3/2", prior_high="1/10"),
    params(w="3/2", c_mis=1, prior_high="9/10"),
    params(w=1),
    params(w=2, c_mis="3/4"),
    *(random_params(random.Random(seed)) for seed in range(20)),
]


@pytest.mark.parametrize("p", LABOR_PARAMS_CASES)
def test_scenario_parts_equal_the_checking_constructors_parts(p):
    check_built_parts(p)


@pytest.mark.parametrize(
    "field, bits, table",
    [("w", 4102, "utilities"), ("c_mis", 2051, "misreport_costs"), ("e_H", 4101, "strategic_costs")],
)
def test_a_scenario_bounds_each_tables_denominators(field, bits, table):
    # Each table's distinct denominators are bounded as its constructor bounds
    # them: w over 2**2049 gives utilities w, w/2 and 0 (2,050 + 2,051 + 1
    # bits), e_H over 2**2049 costs e_H and e_H/2, and c_mis costs c_mis or 0.
    p = dataclasses.replace(LaborParams(1, 2, 1, 1), **{field: Fraction(1, 2**2049)})
    with pytest.raises(ConstructionError) as err:
        build_scenario(p)
    assert str(err.value) == (
        f"{table}: distinct denominators of {bits} bits in all exceed the limit of 2048"
    )


def test_scenario_tables():
    sc = build_scenario(params(prior_high="1/3"))
    ts = sc.game.type_space
    assert ts.types_of == ((TYPE_LOW, TYPE_HIGH),) * 2
    assert ts.prior_of[0][TYPE_HIGH] == Fraction(1, 3)
    assert ts.prior_of[1][TYPE_LOW] == Fraction(2, 3)

    mech = sc.game.mechanism
    assert mech.outcome_of[BID_HIGH, BID_ZERO] == HIRE_FIRST
    assert mech.outcome_of[BID_ZERO, BID_HIGH] == HIRE_SECOND
    assert mech.outcome_of[BID_ZERO, BID_ZERO] == SPLIT
    assert mech.outcome_of[BID_HIGH, BID_HIGH] == SPLIT

    rule = sc.direct.mechanism
    assert rule.outcome_of[TYPE_HIGH, TYPE_LOW] == HIRE_FIRST
    assert rule.outcome_of[TYPE_LOW, TYPE_HIGH] == HIRE_SECOND
    assert rule.outcome_of[TYPE_LOW, TYPE_LOW] == SPLIT

    u = sc.game.utilities
    w = sc.params.w
    for t in (TYPE_LOW, TYPE_HIGH):
        assert u.table[0, HIRE_FIRST.label, t] == w
        assert u.table[1, HIRE_FIRST.label, t] == 0
        assert u.table[0, SPLIT.label, t] == w / 2

    c = sc.game.costs
    assert c.strategic[0, BID_HIGH, TYPE_LOW] == Fraction(1)
    assert c.strategic[0, BID_HIGH, TYPE_HIGH] == Fraction(1, 2)
    assert (0, BID_ZERO, TYPE_LOW) not in c.strategic


# -- separating side ---------------------------------------------------------------


def closed_form_bid_payoffs(p, own, opp):
    """Ex-post bid values against a separating opponent, derived from scratch:
    winner takes w, ties split it, and a bid of e_H costs e_H over one's
    productivity."""
    theta = {TYPE_LOW: p.theta_L, TYPE_HIGH: p.theta_H}
    cost = p.e_H / theta[own]
    if opp == TYPE_HIGH:
        return p.w / 2 - cost, Fraction(0)
    return p.w - cost, p.w / 2


CASE_PAIRS = {1: (TYPE_LOW, TYPE_LOW), 2: (TYPE_LOW, TYPE_HIGH), 3: (TYPE_HIGH, TYPE_LOW), 4: (TYPE_HIGH, TYPE_HIGH)}


@pytest.mark.parametrize(
    "p",
    [
        params(w="3/2"),
        params(w="11/10"),
        params(w="19/10"),
        params(theta_L=1, theta_H=3, e_H="3/2", w=2),
    ],
)
def test_best_response_cases_match_closed_form(p):
    report = check_separating_equilibrium(build_scenario(p))
    assert [c.case for c in report.best_response_cases] == [1, 2, 3, 4]
    for case in report.best_response_cases:
        assert (case.own_type, case.opponent_type) == CASE_PAIRS[case.case]
        high, zero = closed_form_bid_payoffs(p, case.own_type, case.opponent_type)
        assert case.payoff_bid_high == high
        assert case.payoff_bid_zero == zero
        if high == zero:
            assert case.optimal_bid is None
        else:
            assert case.optimal_bid == (BID_HIGH if high > zero else BID_ZERO)


def test_canonical_case_values_are_frozen():
    report = check_separating_equilibrium(build_scenario(params(w="3/2")))
    got = [
        (c.payoff_bid_high, c.payoff_bid_zero, c.optimal_bid)
        for c in report.best_response_cases
    ]
    assert got == [
        (Fraction(1, 2), Fraction(3, 4), BID_ZERO),
        (Fraction(-1, 4), Fraction(0), BID_ZERO),
        (Fraction(1), Fraction(3, 4), BID_HIGH),
        (Fraction(1, 4), Fraction(0), BID_HIGH),
    ]


def test_separating_report_inside_window():
    report = check_separating_equilibrium(build_scenario(params(w="3/2")))
    assert report.window_low == 1 and report.window_high == 2
    assert report.in_window
    assert report.separating_is_bne and report.bne_witness is None
    assert report.implements_rule
    assert report.ir_margin == Fraction(1, 4)
    assert report.ir_satisfied


def test_high_wage_tempts_the_low_type():
    report = check_separating_equilibrium(build_scenario(params(w="5/2")))
    assert not report.in_window
    assert not report.separating_is_bne
    assert report.bne_witness == Deviation(0, TYPE_LOW, BID_HIGH, Fraction(1, 4))
    assert report.implements_rule  # the map is right, the incentives are not


def test_low_wage_deters_the_high_type():
    report = check_separating_equilibrium(build_scenario(params(w="1/2")))
    assert not report.separating_is_bne
    assert report.bne_witness == Deviation(0, TYPE_HIGH, BID_ZERO, Fraction(1, 4))


def test_boundary_wages_tie():
    low = check_separating_equilibrium(build_scenario(params(w=1)))
    assert not low.in_window
    assert low.separating_is_bne  # weak inequalities keep the tie
    # Both high-type cases tie: w = 2 e_H / theta_H makes the high bid free in
    # expectation for the high type whatever the opponent is.
    tied = [c.case for c in low.best_response_cases if c.optimal_bid is None]
    assert tied == [3, 4]
    assert "case 3: both bids tie at w=1" in low.notes
    assert low.ir_margin == 0 and not low.ir_satisfied

    high = check_separating_equilibrium(build_scenario(params(w=2)))
    assert not high.in_window
    assert high.separating_is_bne
    # And at the top of the window the low type is the indifferent one.
    assert [c.case for c in high.best_response_cases if c.optimal_bid is None] == [1, 2]


# -- truthful side -----------------------------------------------------------------


def test_truthfulness_report_at_cheap_misreporting():
    report = check_truthful_reporting(build_scenario(params(w="3/2", c_mis="1/2")))
    assert report.cmis_below_half_w
    assert not report.truthful_is_bne
    assert report.truthful_witness == Deviation(0, TYPE_LOW, TYPE_HIGH, Fraction(1, 4))
    assert report.all_report_high_is_bne
    assert report.unique_bne_all_report_high
    assert report.equilibria == (ALL_REPORT_HIGH_PROFILE,)


def test_truthfulness_restored_by_dear_misreporting():
    report = check_truthful_reporting(build_scenario(params(w="3/2", c_mis=1)))
    assert not report.cmis_below_half_w
    assert report.truthful_is_bne and report.truthful_witness is None
    assert not report.all_report_high_is_bne
    assert TRUTHFUL in report.equilibria


def test_free_misreporting_still_unique_all_high():
    report = check_truthful_reporting(build_scenario(params(w="3/2", c_mis=0)))
    assert not report.truthful_is_bne
    assert report.truthful_witness == Deviation(0, TYPE_LOW, TYPE_HIGH, Fraction(3, 4))
    assert report.unique_bne_all_report_high


def test_truthful_at_takes_exact_costs_only():
    scenario = build_scenario(params(w="3/2"))
    # A low type gains w/2 = 3/4 by reporting high: truth holds weakly at that price.
    assert scenario.break_even == Fraction(3, 4)
    assert scenario.truthful_at("3/4") is scenario.truthful_at(Fraction(3, 4)) is True
    assert scenario.truthful_at("1/2") is scenario.truthful_at(Fraction(1, 2)) is False
    with pytest.raises(ConstructionError) as err:
        scenario.truthful_at(0.75)
    assert err.value.at == ("c_mis",)


def test_truthful_at_refuses_a_cost_labor_params_refuses():
    scenario = build_scenario(LaborParams(1, 2, 1, "3/2", "1/2"))
    with pytest.raises(ConstructionError) as got:
        scenario.truthful_at(Fraction(-1))
    with pytest.raises(ConstructionError) as want:
        LaborParams(1, 2, 1, "3/2", -1)
    assert (str(got.value), got.value.at) == (str(want.value), want.value.at) == (
        "c_mis: misreporting cost must be non-negative, got -1", ("c_mis",)
    )


def test_case_matrix_entries_and_dominance():
    matrices = case_matrices(build_scenario(params(w="3/2", c_mis="1/2")))
    assert [m.true_types for m in matrices] == [
        (TYPE_HIGH, TYPE_HIGH),
        (TYPE_LOW, TYPE_HIGH),
        (TYPE_HIGH, TYPE_LOW),
        (TYPE_LOW, TYPE_LOW),
    ]
    by_case = {m.case: m for m in matrices}

    both_high = by_case[1].game
    assert both_high.payoff((TYPE_LOW, TYPE_LOW)) == (Fraction(3, 4), Fraction(3, 4))
    assert both_high.payoff((TYPE_LOW, TYPE_HIGH)) == (Fraction(0), Fraction(3, 2))
    assert both_high.payoff((TYPE_HIGH, TYPE_HIGH)) == (Fraction(3, 4), Fraction(3, 4))

    both_low = by_case[4].game
    assert both_low.payoff((TYPE_HIGH, TYPE_LOW)) == (Fraction(1), Fraction(0))
    assert both_low.payoff((TYPE_HIGH, TYPE_HIGH)) == (Fraction(1, 4), Fraction(1, 4))

    for m in matrices:
        for d in m.dominant:
            assert d is not None and d.action == TYPE_HIGH and d.kind == "strict"
        assert m.pure_nash == ((TYPE_HIGH, TYPE_HIGH),)


def test_mixed_case_matrices_are_transposes():
    matrices = case_matrices(build_scenario(params(w="3/2", c_mis="1/2")))
    by_case = {m.case: m for m in matrices}
    low_high, high_low = by_case[2].game, by_case[3].game
    for a in (TYPE_LOW, TYPE_HIGH):
        for b in (TYPE_LOW, TYPE_HIGH):
            assert low_high.payoff((a, b))[0] == high_low.payoff((b, a))[1]
            assert low_high.payoff((a, b))[1] == high_low.payoff((b, a))[0]


def test_case_matrices_are_not_hashable():
    # A matrix holds its payoffs in a dict, so neither record can be hashed.
    matrix = case_matrices(build_scenario(params(w="3/2", c_mis="1/2")))[0]
    for record in (matrix, matrix.game):
        assert not isinstance(record, collections.abc.Hashable)
        with pytest.raises(TypeError, match=f"unhashable type: '{type(record).__name__}'"):
            hash(record)


def test_interim_is_the_prior_mixture_of_expost_rows():
    p = params(w="3/2", c_mis="1/2", prior_high="1/3")
    sc = build_scenario(p)
    game = direct_game(sc.game, sc.direct.mechanism)
    case_of = {(TYPE_HIGH, TYPE_HIGH): 1, (TYPE_LOW, TYPE_HIGH): 2,
               (TYPE_HIGH, TYPE_LOW): 3, (TYPE_LOW, TYPE_LOW): 4}
    by_case = {m.case: m for m in case_matrices(sc)}
    prior = {TYPE_HIGH: p.prior_high, TYPE_LOW: 1 - p.prior_high}
    for own in (TYPE_LOW, TYPE_HIGH):
        mixture = sum(
            prior[opp] * by_case[case_of[(own, opp)]].game.payoff((own, opp))[0]
            for opp in (TYPE_LOW, TYPE_HIGH)
        )
        assert compiled_payoff(game, TRUTHFUL, 0, own) == mixture


# -- the full audit ---------------------------------------------------------------


@pytest.mark.parametrize("prior_high", ["1/10", "1/2", "9/10"])
def test_conclusions_do_not_depend_on_the_prior(prior_high):
    p = params(w="3/2", c_mis="1/2", prior_high=prior_high)
    sep = check_separating_equilibrium(build_scenario(p))
    assert sep.separating_is_bne and sep.implements_rule
    truth = check_truthful_reporting(build_scenario(p))
    assert not truth.truthful_is_bne
    assert truth.truthful_witness == Deviation(0, TYPE_LOW, TYPE_HIGH, Fraction(1, 4))
    report = build_scenario(p).audit
    assert report.violation
    assert report.chain.break_point.costfree_gain == Fraction(3, 4)


def test_audit_scenario_outcomes():
    assert build_scenario(params(w="3/2", c_mis="1/2")).audit.violation
    cleared = build_scenario(params(w="3/2", c_mis=1)).audit
    assert cleared.implemented and cleared.truthful_is_bne and not cleared.violation
    outside = build_scenario(params(w="5/2", c_mis="1/2")).audit
    assert not outside.implemented and not outside.violation


def test_interim_values_from_bid_game():
    sc = build_scenario(params(w="3/2"))
    sep = SEPARATING_PROFILE
    assert compiled_payoff(sc.game, sep, 0, TYPE_HIGH) == Fraction(5, 8)
    assert compiled_payoff(sc.game, sep, 1, TYPE_LOW) == Fraction(3, 8)
