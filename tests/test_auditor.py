"""Audits of the revelation argument: direct mechanisms, truthful
implementability, the inequality-family decomposition, and the zero-cost
regression harness."""

import itertools
import random
from fractions import Fraction

import pytest
import reference_engine as ref

import revaudit.auditor as auditor
from revaudit.auditor import (
    DEFAULT_REGRESSION_SEED,
    BreakPoint,
    ProofChainRecord,
    RegressionSummary,
    audit_revelation_principle,
    direct_game,
    is_truthfully_implementable,
    random_zero_cost_game,
    zero_cost_regression,
)
from revaudit.core import (
    ConstructionError,
    CostModel,
    DomainError,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
)
from revaudit.equilibrium import (
    BayesianGame,
    Deviation,
    EquilibriumVerdict,
    StrategyProfile,
    _equilibrium_plans,
    _plan,
    _profile,
    _rule,
    find_all_pure_bne,
)
from revaudit.labor import (
    BID_HIGH,
    BID_ZERO,
    HIRING_RULE,
    SEPARATING_PROFILE,
    SPLIT,
    TYPE_HIGH,
    TYPE_LOW,
    LaborParams,
    build_scenario,
)


def scenario(w="3/2", c_mis="1/2", prior_high="1/2"):
    return build_scenario(
        LaborParams(theta_L=1, theta_H=2, e_H=1, w=w, c_mis=c_mis, prior_high=prior_high)
    )


def direct_of(sc):
    return direct_game(sc.game, sc.direct.mechanism)


# -- direct mechanism construction ------------------------------------------------


def test_direct_mechanism_reports_are_type_labels():
    sc = scenario()
    direct = direct_of(sc)
    assert direct.type_space == sc.game.type_space
    assert direct.mechanism.actions_of == sc.game.type_space.types_of
    for profile in sc.game.type_space.profiles():
        assert direct.mechanism.outcome_of[profile] == HIRING_RULE.outcome_of[profile]


def test_direct_game_plays_the_rule_as_it_is():
    sc = scenario()
    assert sc.direct.mechanism is HIRING_RULE


@pytest.mark.parametrize(
    "types_of",
    [
        ((TYPE_HIGH, TYPE_LOW), (TYPE_LOW, TYPE_HIGH)),
        ((TYPE_LOW, TYPE_HIGH, "theta_M"),) * 2,
        (("lo", "hi"),) * 2,
    ],
    ids=["reordered", "extra-type", "other-labels"],
)
def test_a_rule_must_report_the_game_types(types_of):
    sc = scenario()
    rule = SocialChoiceFunction(types_of, {p: SPLIT for p in itertools.product(*types_of)})
    with pytest.raises(ConstructionError) as info:
        direct_game(sc.game, rule)
    assert info.value.at == ("rule",)
    assert str(info.value) == (
        f"rule: reports {types_of} are not the game's types {sc.game.type_space.types_of}"
    )


def test_direct_mechanism_drops_strategic_costs():
    sc = scenario(c_mis="1/2")
    assert sc.game.costs.strategic  # the bid game does charge for effort
    expected = {}
    for i in (0, 1):
        expected[(i, TYPE_LOW, TYPE_HIGH)] = Fraction(1, 2)
        expected[(i, TYPE_HIGH, TYPE_LOW)] = Fraction(0)  # underreporting is free
    assert sc.game.costs.misreport == expected
    costs = direct_of(sc).costs
    # Reports are priced by transposing the misreport schedule, stored once.
    assert costs.strategic == {
        (agent, reported, true): v for (agent, true, reported), v in expected.items()
    }
    assert costs.misreport == {}


# -- truthful implementability ------------------------------------------------------


def test_truth_fails_under_cheap_misreporting():
    sc = scenario(c_mis="1/2")
    verdict = is_truthfully_implementable(direct_of(sc))
    assert not verdict.is_equilibrium
    assert verdict.witness == Deviation(0, TYPE_LOW, TYPE_HIGH, Fraction(1, 4))


def test_truth_fails_hardest_with_free_misreporting():
    sc = scenario(c_mis=0)
    verdict = is_truthfully_implementable(direct_of(sc))
    assert verdict.witness == Deviation(0, TYPE_LOW, TYPE_HIGH, Fraction(3, 4))


def test_truth_holds_once_misreporting_is_dear():
    sc = scenario(c_mis=1)
    verdict = is_truthfully_implementable(direct_of(sc))
    assert verdict.is_equilibrium and verdict.witness is None


def test_truth_holds_weakly_at_the_threshold():
    # Gain from overreporting is w/2 - c_mis; at c_mis = w/2 the deviation ties
    # and the weak inequality keeps truth-telling alive.
    sc = scenario(c_mis="3/4")
    assert is_truthfully_implementable(direct_of(sc)).is_equilibrium


def test_misreport_cost_threshold_is_monotone():
    grid = [Fraction(k, 8) for k in range(0, 9)]
    verdicts = []
    for c in grid:
        sc = scenario(c_mis=c)
        verdicts.append(is_truthfully_implementable(direct_of(sc)).is_equilibrium)
    assert verdicts == [c >= Fraction(3, 4) for c in grid]


# -- proof chain ----------------------------------------------------------------


def test_chain_breaks_at_costfree_step():
    sc = scenario(c_mis="1/2")
    chain = audit_revelation_principle(sc.game, SEPARATING_PROFILE, direct_of(sc)).chain
    assert not chain.vacuous
    assert chain.equilibrium_inequalities_hold
    assert chain.mimicry_inequalities_hold
    assert not chain.costfree_truthful_inequalities_hold
    assert chain.break_point == BreakPoint(0, TYPE_LOW, TYPE_HIGH, Fraction(3, 4))


def test_costfree_step_ignores_misreport_fees():
    # The cost-free family erases all costs, so it fails even when the fee is
    # high enough to restore truth-telling.
    sc = scenario(c_mis=1)
    chain = audit_revelation_principle(sc.game, SEPARATING_PROFILE, direct_of(sc)).chain
    assert not chain.costfree_truthful_inequalities_hold
    assert chain.break_point == BreakPoint(0, TYPE_LOW, TYPE_HIGH, Fraction(3, 4))


def test_chain_vacuous_off_equilibrium():
    sc = scenario(w="3/2")
    both_zero = StrategyProfile.from_maps(
        [{TYPE_LOW: BID_ZERO, TYPE_HIGH: BID_ZERO}] * 2
    )
    chain = audit_revelation_principle(sc.game, both_zero, direct_of(sc)).chain
    assert chain.vacuous
    assert not chain.equilibrium_inequalities_hold


def test_chain_intact_on_zero_cost_instances():
    rng = random.Random(3)
    seen = 0
    for _ in range(20):
        game = random_zero_cost_game(rng)
        for profile in find_all_pure_bne(game):
            seen += 1
            direct = direct_game(game, ref.induced_scf(game, profile))
            chain = audit_revelation_principle(game, profile, direct).chain
            assert not chain.vacuous
            assert chain.equilibrium_inequalities_hold
            assert chain.mimicry_inequalities_hold
            assert chain.costfree_truthful_inequalities_hold
            assert chain.break_point is None
    assert seen > 0


def costfree_report_value(ts, scf, utilities, agent, type_label, report):
    """Reference: expected rule utility for an agent of `type_label` reporting
    `report`, everyone else truthful, no costs of any kind."""
    total = Fraction(0)
    for opp in ref.opponent_profiles(ts, agent):
        theta = opp[:agent] + (report,) + opp[agent:]
        w = ts.conditional_weight(agent, opp)
        total += w * utilities.table[agent, scf.outcome_of[theta].label, type_label]
    return total


def reference_chain(game, profile, scf):
    """The proof chain recomputed with the reference engine and the cost-free
    reference, one inequality at a time."""
    ts = game.type_space
    holds = ref.is_bayesian_nash(game, profile).is_equilibrium
    mimicry_ok = costfree_ok = True
    best = None
    for agent in range(ts.agent_count):
        weighted = ref.weighted_opponents(ts, agent)
        for t in ts.types_of[agent]:
            own = ref.interim(game, profile, agent, t, profile.strategies[agent].action(t), weighted)
            truthful_value = costfree_report_value(ts, scf, game.utilities, agent, t, t)
            for mimicked in ts.types_of[agent]:
                if mimicked == t:
                    continue
                action = profile.strategies[agent].action(mimicked)
                holds_here = ref.interim(game, profile, agent, t, action, weighted) <= own
                mimicry_ok = mimicry_ok and holds_here
                value = costfree_report_value(ts, scf, game.utilities, agent, t, mimicked)
                gain = value - truthful_value
                if gain > 0:
                    costfree_ok = False
                    if holds_here and (best is None or gain > best.costfree_gain):
                        best = BreakPoint(agent, t, mimicked, gain)
    return ProofChainRecord(not holds, holds, mimicry_ok, costfree_ok, best)


def with_random_costs(game, rng):
    """The same game with random non-negative strategic and misreport costs."""
    ts, mech = game.type_space, game.mechanism
    strategic = {
        (i, a, t): Fraction(rng.randint(0, 6), 12)
        for i in range(ts.agent_count) for a in mech.actions_of[i] for t in ts.types_of[i]
    }
    misreport = {
        (i, t, r): Fraction(rng.randint(0, 6), 12)
        for i in range(ts.agent_count) for t in ts.types_of[i] for r in ts.types_of[i] if r != t
    }
    return BayesianGame(mech, ts, game.utilities, CostModel(strategic, misreport))


def test_chain_matches_reference_on_every_profile_of_costly_games():
    rng = random.Random(11)
    records = []
    for _ in range(30):
        game = with_random_costs(random_zero_cost_game(rng), rng)
        for profile in ref.profiles(game):
            scf = ref.induced_scf(game, profile)
            chain = audit_revelation_principle(game, profile, direct_game(game, scf)).chain
            assert chain == reference_chain(game, profile, scf)
            records.append(chain)
    # Every branch of the chain was exercised.
    assert {r.vacuous for r in records} == {True, False}
    assert {r.mimicry_inequalities_hold for r in records} == {True, False}
    assert {r.costfree_truthful_inequalities_hold for r in records} == {True, False}
    assert any(r.break_point is not None for r in records)


# -- full audit -------------------------------------------------------------------


def test_audit_flags_violation():
    sc = scenario(c_mis="1/2")
    report = audit_revelation_principle(sc.game, SEPARATING_PROFILE, sc.direct)
    assert report.implemented
    assert not report.truthful_is_bne
    assert report.violation
    assert report.truthful_witness == Deviation(0, TYPE_LOW, TYPE_HIGH, Fraction(1, 4))
    assert report.chain.break_point == BreakPoint(0, TYPE_LOW, TYPE_HIGH, Fraction(3, 4))


def test_audit_clears_when_fee_restores_truth():
    sc = scenario(c_mis=1)
    report = audit_revelation_principle(sc.game, SEPARATING_PROFILE, sc.direct)
    assert report.implemented and report.truthful_is_bne and not report.violation


def test_audit_not_implemented_off_equilibrium():
    sc = scenario(w="5/2")  # outside the separating wage window
    report = audit_revelation_principle(sc.game, SEPARATING_PROFILE, sc.direct)
    assert not report.implemented and not report.violation


def mismatch(part):
    return DomainError, f"the direct game does not match the game in its {part}"


@pytest.mark.parametrize(
    "foreign, error",
    [
        (lambda sc: scenario(prior_high="1/3").direct, mismatch("type space")),
        # The w=5 direct game's cost-free gain of 5/2 would be the break point.
        (lambda sc: scenario(w="5").direct, mismatch("utilities")),
        # Bids, not types: refused as `direct_game` refuses such a rule.
        (lambda sc: sc.game, (ConstructionError, (
            f"rule: reports {((BID_ZERO, BID_HIGH),) * 2} are not the game's types "
            f"{((TYPE_LOW, TYPE_HIGH),) * 2}"
        ))),
        # The c_mis=1 direct game would clear the violation.
        (lambda sc: scenario(c_mis="1").direct, mismatch("report prices")),
    ],
    ids=["type-space", "utilities", "reports", "prices"],
)
def test_an_audit_refuses_a_direct_game_of_another_game(foreign, error):
    sc = scenario()
    cls, message = error
    with pytest.raises(cls) as err:
        audit_revelation_principle(sc.game, SEPARATING_PROFILE, foreign(sc))
    assert str(err.value) == message


def test_an_audit_takes_an_equal_direct_game_built_apart():
    sc, twin = scenario(), scenario()
    report = audit_revelation_principle(sc.game, SEPARATING_PROFILE, twin.direct)
    assert report == sc.audit


def test_an_audit_refuses_a_direct_game_whose_rule_the_game_cannot_value():
    # A foreign direct game that values an outcome the bid game never
    # reaches: fitting its rule to the bid game finds the missing utility
    # before the two games' utilities are compared.
    sc = scenario()
    ts = sc.game.type_space
    rule = SocialChoiceFunction(ts.types_of, dict.fromkeys(ts.profiles(), Outcome("bonus")))
    bonus = {(i, "bonus", t): Fraction(1) for i in (0, 1) for t in (TYPE_LOW, TYPE_HIGH)}
    utilities = UtilityTable({**sc.game.utilities.table, **bonus})
    foreign = BayesianGame(rule, ts, utilities, sc.direct.costs)
    with pytest.raises(DomainError) as err:
        audit_revelation_principle(sc.game, SEPARATING_PROFILE, foreign)
    assert str(err.value) == "utilities: no row for (agent, outcome, type) (0, 'bonus', 'theta_L')"


def test_scaling_leaves_the_audit_unchanged():
    base = scenario(w="3/2", c_mis="1/2")
    k = 5
    scaled = build_scenario(
        LaborParams(theta_L=1, theta_H=2, e_H=k, w=Fraction(3 * k, 2), c_mis=Fraction(k, 2))
    )
    r1 = audit_revelation_principle(base.game, SEPARATING_PROFILE, base.direct)
    r2 = audit_revelation_principle(scaled.game, SEPARATING_PROFILE, scaled.direct)
    assert (r1.implemented, r1.truthful_is_bne, r1.violation) == (
        r2.implemented,
        r2.truthful_is_bne,
        r2.violation,
    )
    assert r2.truthful_witness.gain == k * r1.truthful_witness.gain
    assert r2.chain.break_point.costfree_gain == k * r1.chain.break_point.costfree_gain


# -- induced rules and the zero-cost regression -------------------------------------


def test_induced_scf_of_separating_profile_is_the_rule():
    # The oracle reads the rule label by label; the engine, as the
    # regression does, from outcome positions.
    game = scenario().game
    assert ref.induced_scf(game, SEPARATING_PROFILE) == HIRING_RULE
    assert auditor._rule_scf(game, _rule(game, _plan(game, SEPARATING_PROFILE))) == HIRING_RULE


def test_zero_cost_regression_passes():
    summary = zero_cost_regression(instances=25, seed=123)
    assert summary.passed
    assert summary.instances == 25
    assert summary.equilibria_checked > 0
    assert summary.failures == ()


def game_parts(game):
    """What a game is made of: types, priors, actions, the outcome table
    (labels and payloads), utilities and costs."""
    ts, mech, costs = game.type_space, game.mechanism, game.costs
    parts = (ts.types_of, ts.prior_of, mech.actions_of, mech.outcome_of, game.utilities.table)
    return (*parts, costs.strategic, costs.misreport)


@pytest.mark.parametrize("seed", [DEFAULT_REGRESSION_SEED, 1, 2])
def test_random_zero_cost_games_are_the_reference_generators_games(seed):
    # The generator picks shared parts with `rng.choice`, the reference
    # draws with `randint`: both take one `_randbelow(n)` per draw, so the
    # games agree, and so does the stream after them.
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(300):
        game = random_zero_cost_game(rng)
        assert game_parts(game) == game_parts(ref.random_zero_cost_game(reference))
    assert rng.random() == reference.random()


def test_zero_cost_regression_is_deterministic():
    a = zero_cost_regression(instances=10, seed=99)
    b = zero_cost_regression(instances=10, seed=99)
    assert a == b


def regression_games(instances, seed):
    """Each game zero_cost_regression draws, with its index and equilibria."""
    rng = random.Random(seed)
    for k in range(instances):
        game = random_zero_cost_game(rng)
        yield k, game, find_all_pure_bne(game)


def same_parts(built, checked):
    # A repr also tells an int from an equal Fraction, and one order of a dict from another.
    return built == checked and repr(built) == repr(checked)


@pytest.mark.parametrize("seed", [DEFAULT_REGRESSION_SEED, 2])
def test_regression_parts_equal_the_checking_constructors_parts(seed):
    # The regression builds its games and rules without their checks; every
    # checking constructor must accept the same parts and build equal ones.
    rng, equilibria = random.Random(seed), 0
    for _ in range(200):
        game = random_zero_cost_game(rng)
        ts, mech = game.type_space, game.mechanism
        rebuilt = BayesianGame(
            Mechanism(mech.actions_of, mech.outcome_of),
            TypeSpace(ts.types_of, ts.prior_of),
            UtilityTable(game.utilities.table),
            CostModel(),
        )
        assert same_parts(rebuilt, game)
        for plan in _equilibrium_plans(game):
            scf = auditor._rule_scf(game, _rule(game, plan))
            assert same_parts(ref.induced_scf(game, _profile(game, plan)), scf)
            equilibria += 1
        # The search compiled the game; a game without costs reads no positions.
        assert "positions" not in vars(ts) and "positions" not in vars(mech)
    assert equilibria == zero_cost_regression(200, seed).equilibria_checked


def failure_line(k, profile):
    return f"instance {k}: induced rule not truthfully implementable at {profile}"


def regression_one_game_per_equilibrium(instances, seed):
    """The regression without shared verdicts: one direct game per equilibrium."""
    checked, failures = 0, []
    for k, game, equilibria in regression_games(instances, seed):
        for profile in equilibria:
            checked += 1
            direct = direct_game(game, ref.induced_scf(game, profile))
            if not auditor.is_truthfully_implementable(direct).is_equilibrium:
                failures.append(failure_line(k, profile))
    return RegressionSummary(instances, checked, tuple(failures))


FAILED = EquilibriumVerdict(Deviation(0, "t0", "t0", Fraction(1)))


def failing_where(fails):
    """A truthfulness verdict that fails the direct games `fails` picks."""
    real = auditor.is_truthfully_implementable
    return lambda direct: FAILED if fails(direct) else real(direct)


def first_outcome_pleases_agent_0(direct):
    # Depends on the game's utilities as well as on the rule, so rules with
    # one outcome table can get different verdicts in different games.
    theta = direct.type_space.profiles()[0]
    x = direct.mechanism.outcome_of[theta]
    return direct.utilities.table[(0, x.label, theta[0])] > Fraction(1, 2)


@pytest.mark.parametrize("fails", [None, first_outcome_pleases_agent_0])
@pytest.mark.parametrize("instances, seed", [(25, 123), (60, 7), (200, DEFAULT_REGRESSION_SEED)])
def test_shared_verdicts_change_no_summary(monkeypatch, fails, instances, seed):
    if fails is not None:
        monkeypatch.setattr(auditor, "is_truthfully_implementable", failing_where(fails))
    expected = regression_one_game_per_equilibrium(instances, seed)
    assert zero_cost_regression(instances, seed) == expected
    assert (fails is None) == (expected.failures == ())


def test_each_distinct_rule_of_a_game_is_checked_once(monkeypatch):
    calls = []
    real = auditor.is_truthfully_implementable
    monkeypatch.setattr(
        auditor, "is_truthfully_implementable", lambda direct: calls.append(direct) or real(direct)
    )
    summary = zero_cost_regression()
    rules = sum(
        len({tuple(ref.induced_scf(game, p).outcome_of.items()) for p in equilibria})
        for _, game, equilibria in regression_games(200, DEFAULT_REGRESSION_SEED)
    )
    assert len(calls) == rules == 239
    assert summary.equilibria_checked == 1132
    assert summary.passed


def test_a_failing_rule_fails_each_equilibrium_that_plays_it(monkeypatch):
    games = list(regression_games(40, DEFAULT_REGRESSION_SEED))
    _, chosen_game, equilibria = games[26]
    rule = ref.induced_scf(chosen_game, equilibria[0])
    plays = [k for k, game, eqs in games for p in eqs if ref.induced_scf(game, p) == rule]
    # Its 5 equilibria interleave with another rule's, and game 31 plays the
    # same outcome table, which must keep its own verdict.
    assert plays == [26] * 5 + [31]
    assert [ref.induced_scf(chosen_game, p) == rule for p in equilibria] == [
        True, True, False, True, True, False, True,
    ]

    def fails(direct):
        return direct.mechanism == rule and direct.utilities == chosen_game.utilities

    monkeypatch.setattr(auditor, "is_truthfully_implementable", failing_where(fails))
    summary = zero_cost_regression(40, DEFAULT_REGRESSION_SEED)
    assert summary.failures == tuple(
        failure_line(26, p) for p in equilibria if ref.induced_scf(chosen_game, p) == rule
    )
    assert summary.equilibria_checked == sum(len(eqs) for _, _, eqs in games)
