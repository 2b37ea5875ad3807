"""Properties of the exact engine and the auditor on random games.

Verdicts compare payoffs of one agent, so they must not move when every
utility and strategic cost is scaled by one positive rational, or when a
constant is added to an agent's utilities at one type. Renaming types,
actions and outcomes renames every equilibrium and audit report the same
way and moves no verdict, and renumbering the agents renumbers every
equilibrium. With every cost zero, the classical revelation
principle holds. The audit judges truth-telling as the engines do, and an
audit report reads back from its JSON exactly. The
games are drawn with large, pairwise coprime denominators so that the
engine's integer tables are built over large LCMs."""

import itertools
import json
from dataclasses import replace
from fractions import Fraction

import reference_engine as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from revaudit.auditor import (
    audit_revelation_principle,
    direct_game,
    induced_scf,
    is_truthfully_implementable,
)
from revaudit.core import (
    CostModel,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
)
from revaudit.equilibrium import (
    BayesianGame,
    Deviation,
    EquilibriumMode,
    EquilibriumVerdict,
    StrategyProfile,
    enumerate_profiles,
    find_all_pure_bne,
    interim_expected_payoff,
    is_bayesian_nash,
)
from revaudit.serialize import audit_report_from_jsonable, audit_report_to_jsonable, json_dumps

MODES = (EquilibriumMode.UTILITY_BASED, EquilibriumMode.PROFIT_BASED)
PRIMES = (7919, 104723, 999983, 1000003, 2147483647)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def rationals(low=-(10**6)):
    return st.builds(Fraction, st.integers(low, 10**6), st.sampled_from(PRIMES))


@st.composite
def games(draw):
    agents = draw(st.integers(1, 3))
    types_of = tuple(tuple(f"t{k}" for k in range(draw(st.integers(1, 2)))) for _ in range(agents))
    actions_of = tuple(
        tuple(f"a{k}" for k in range(draw(st.integers(1, 3 if agents < 3 else 2))))
        for _ in range(agents)
    )
    priors = []
    for ts in types_of:
        weights = [draw(st.integers(1, 10**4)) for _ in ts]
        priors.append({t: Fraction(w, sum(weights)) for t, w in zip(ts, weights)})
    outcomes = [Outcome(f"x{k}") for k in range(draw(st.integers(1, 3)))]
    outcome_of = {
        p: outcomes[draw(st.integers(0, len(outcomes) - 1))]
        for p in itertools.product(*actions_of)
    }
    utility = {
        (i, x.label, t): draw(rationals())
        for i in range(agents) for x in outcomes for t in types_of[i]
    }
    strategic = {
        (i, a, t): draw(rationals(low=0))
        for i in range(agents) for a in actions_of[i] for t in types_of[i]
    }
    return BayesianGame(
        Mechanism(actions_of, outcome_of),
        TypeSpace(types_of, tuple(priors)),
        UtilityTable(utility),
        CostModel(strategic=strategic),
    )


def rescaled(game, k):
    return BayesianGame(
        game.mechanism,
        game.type_space,
        UtilityTable({key: k * v for key, v in game.utilities.table.items()}),
        CostModel(strategic={key: k * v for key, v in game.costs.strategic.items()}),
    )


def shifted(game, shift):
    utility = {(i, x, t): v + shift[(i, t)] for (i, x, t), v in game.utilities.table.items()}
    return BayesianGame(game.mechanism, game.type_space, UtilityTable(utility), game.costs)


def scaled_verdict(verdict, k):
    if verdict.witness is None:
        return verdict
    w = verdict.witness
    return EquilibriumVerdict(False, Deviation(w.agent, w.type_label, w.action, k * w.gain))


@SETTINGS
@given(games(), rationals(low=1))
def test_scaling_utilities_and_costs_scales_only_the_gains(game, k):
    other = rescaled(game, k)
    profiles = enumerate_profiles(game.mechanism, game.type_space)
    for mode in MODES:
        assert find_all_pure_bne(other, mode) == find_all_pure_bne(game, mode)
        for profile in profiles:
            verdict = is_bayesian_nash(game, profile, mode)
            assert is_bayesian_nash(other, profile, mode) == scaled_verdict(verdict, k)
            for agent, types in enumerate(game.type_space.types_of):
                for t in types:
                    assert interim_expected_payoff(other, profile, agent, t, mode=mode) == (
                        k * interim_expected_payoff(game, profile, agent, t, mode=mode)
                    )


@SETTINGS
@given(games(), st.data())
def test_a_constant_per_agent_and_type_changes_no_verdict(game, data):
    shift = {
        (i, t): data.draw(rationals())
        for i, types in enumerate(game.type_space.types_of) for t in types
    }
    other = shifted(game, shift)
    profiles = enumerate_profiles(game.mechanism, game.type_space)
    for mode in MODES:
        assert find_all_pure_bne(other, mode) == find_all_pure_bne(game, mode)
        for profile in profiles:
            assert is_bayesian_nash(other, profile, mode) == is_bayesian_nash(game, profile, mode)
            for agent, types in enumerate(game.type_space.types_of):
                for t in types:
                    assert interim_expected_payoff(other, profile, agent, t, mode=mode) == (
                        interim_expected_payoff(game, profile, agent, t, mode=mode) + shift[(agent, t)]
                    )


@SETTINGS
@given(games())
def test_with_every_cost_zero_each_equilibrium_rule_is_truthful(game):
    # Myerson (1979): a type reporting another gets what that type's
    # equilibrium action gets, which the equilibrium says is no better.
    free = BayesianGame(game.mechanism, game.type_space, game.utilities, CostModel.zero())
    for profile in find_all_pure_bne(free, EquilibriumMode.PROFIT_BASED):
        direct = direct_game(free, induced_scf(free, profile))
        assert is_truthfully_implementable(direct).is_equilibrium


def with_misreport_costs(game, data):
    """The game with random non-negative misreport costs drawn from `data`."""
    ts = game.type_space
    misreport = {
        (i, t, r): data.draw(rationals(low=0))
        for i, types in enumerate(ts.types_of) for t in types for r in types if r != t
    }
    return BayesianGame(
        game.mechanism, ts, game.utilities, CostModel(game.costs.strategic, misreport)
    )


@SETTINGS
@given(games(), st.data())
def test_the_audit_judges_truth_telling_as_the_engines_do(game, data):
    # The audit reads truth-telling from cost-free utilities minus report
    # prices; the engines compute the direct game's profits themselves.
    game = with_misreport_costs(game, data)
    ts = game.type_space
    outcomes = game.mechanism.outcomes()
    rule = SocialChoiceFunction(
        ts.types_of, {theta: data.draw(st.sampled_from(outcomes)) for theta in ts.profiles()}
    )
    direct = direct_game(game, rule)
    profile = data.draw(st.sampled_from(enumerate_profiles(game.mechanism, ts)))
    report = audit_revelation_principle(game, profile, direct)
    truthful = StrategyProfile.from_maps({t: t for t in types} for types in ts.types_of)
    expected = ref.is_bayesian_nash(direct, truthful, EquilibriumMode.PROFIT_BASED)
    assert is_truthfully_implementable(direct) == expected
    assert EquilibriumVerdict(report.truthful_is_bne, report.truthful_witness) == expected


@SETTINGS
@given(games(), st.data())
def test_an_audit_report_reads_back_from_its_json(game, data):
    profile = data.draw(st.sampled_from(enumerate_profiles(game.mechanism, game.type_space)))
    direct = direct_game(game, induced_scf(game, profile))
    report = audit_revelation_principle(game, profile, direct)
    text = json_dumps(audit_report_to_jsonable(report))
    assert audit_report_from_jsonable(json.loads(text)) == report


class Renaming:
    """A bijection of type labels, one of action labels and one of outcome
    labels, applied to games, rules, profiles and audit reports. Declared
    orders are kept, so enumeration order is too; the new labels, drawn as
    a permutation, may sort in another order than the old ones."""

    def __init__(self, types, actions, outcomes):
        self.types, self.actions, self.outcomes = types, actions, outcomes

    def labels(self, lists, names):
        return tuple(tuple(names[x] for x in labels) for labels in lists)

    def outcome(self, x):
        return Outcome(self.outcomes[x.label], x.payload)

    def game(self, game):
        ts, mech, costs = game.type_space, game.mechanism, game.costs
        ty, ac, ox = self.types, self.actions, self.outcomes
        return BayesianGame(
            Mechanism(
                self.labels(mech.actions_of, ac),
                {tuple(ac[a] for a in p): self.outcome(x) for p, x in mech.outcome_of.items()},
            ),
            TypeSpace(
                self.labels(ts.types_of, ty),
                tuple({ty[t]: v for t, v in prior.items()} for prior in ts.prior_of),
            ),
            UtilityTable({(i, ox[x], ty[t]): v for (i, x, t), v in game.utilities.table.items()}),
            CostModel(
                {(i, ac[a], ty[t]): v for (i, a, t), v in costs.strategic.items()},
                {(i, ty[t], ty[r]): v for (i, t, r), v in costs.misreport.items()},
            ),
        )

    def rule(self, scf):
        ty = self.types
        return SocialChoiceFunction(
            self.labels(scf.actions_of, ty),
            {tuple(ty[t] for t in theta): self.outcome(x) for theta, x in scf.outcome_of.items()},
        )

    def profile(self, profile):
        ty, ac = self.types, self.actions
        return StrategyProfile.from_maps(
            {ty[t]: ac[a] for t, a in s.choice} for s in profile.strategies
        )

    def report(self, report):
        # In the direct game a deviation's action is a reported type.
        ty, w, bp = self.types, report.truthful_witness, report.chain.break_point
        return replace(
            report,
            indirect_equilibrium=self.profile(report.indirect_equilibrium),
            truthful_witness=w and replace(w, type_label=ty[w.type_label], action=ty[w.action]),
            chain=replace(
                report.chain,
                break_point=bp and replace(
                    bp, type_label=ty[bp.type_label], mimicked_type=ty[bp.mimicked_type]
                ),
            ),
        )


def permuted(game, order):
    """The game with old agent `order[j]` renumbered as agent j."""
    new = {old: j for j, old in enumerate(order)}
    mech, ts, costs = game.mechanism, game.type_space, game.costs
    return BayesianGame(
        Mechanism(
            tuple(mech.actions_of[i] for i in order),
            {tuple(p[i] for i in order): x for p, x in mech.outcome_of.items()},
        ),
        TypeSpace(tuple(ts.types_of[i] for i in order), tuple(ts.prior_of[i] for i in order)),
        UtilityTable({(new[i], x, t): v for (i, x, t), v in game.utilities.table.items()}),
        CostModel(
            {(new[i], a, t): v for (i, a, t), v in costs.strategic.items()},
            {(new[i], t, r): v for (i, t, r), v in costs.misreport.items()},
        ),
    )


def permuted_profile(profile, order):
    return StrategyProfile.from_maps(dict(profile.strategies[i].choice) for i in order)


@SETTINGS
@given(games(), st.data())
def test_permuting_agents_permutes_the_equilibria(game, data):
    order = data.draw(st.permutations(range(game.agent_count)))
    other = permuted(game, order)
    for mode in MODES:
        found = find_all_pure_bne(game, mode)
        others = find_all_pure_bne(other, mode)
        # Enumeration order follows agent order, so only the sets match.
        assert len(others) == len(found)
        assert set(others) == {permuted_profile(p, order) for p in found}


def renaming(data, labels, pool):
    return dict(zip(sorted(labels), data.draw(st.permutations(pool))))


@SETTINGS
@given(games(), st.data())
def test_renaming_labels_renames_every_verdict(game, data):
    game = with_misreport_costs(game, data)
    ts = game.type_space
    rename = Renaming(
        renaming(data, {t for types in ts.types_of for t in types}, ["w", "v", "u"]),
        renaming(data, {a for acts in game.mechanism.actions_of for a in acts}, ["s", "r", "q"]),
        renaming(data, {x for _, x, _ in game.utilities.table}, ["p", "o", "n"]),
    )
    other = rename.game(game)
    for mode in MODES:
        assert find_all_pure_bne(other, mode) == [
            rename.profile(p) for p in find_all_pure_bne(game, mode)
        ]
    profiles = enumerate_profiles(game.mechanism, ts)
    scf = induced_scf(game, data.draw(st.sampled_from(profiles)))
    direct, other_direct = direct_game(game, scf), direct_game(other, rename.rule(scf))
    for profile in profiles:
        report = audit_revelation_principle(game, profile, direct)
        assert audit_revelation_principle(other, rename.profile(profile), other_direct) == (
            rename.report(report)
        )
