"""Engine checks: the search cap, interim payoffs, equilibrium scans,
ex-post games, and dominance. Random-instance suites compare the engine
against independently written oracles, among them the reference engine of
`reference_engine.py`."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import reference_engine as ref
from payoff_probe import compiled_payoff
from test_cli import counted

from revaudit import equilibrium
from revaudit.auditor import random_zero_cost_game
from revaudit.core import (
    ConstructionError,
    CostModel,
    DomainError,
    Mechanism,
    Outcome,
    SearchSpaceError,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
)
from revaudit.equilibrium import (
    BayesianGame,
    Deviation,
    DominantAction,
    NormalFormGame,
    PureStrategy,
    StrategyProfile,
    dominant_strategies,
    expost_normal_form,
    find_all_pure_bne,
    find_pure_nash,
    implements_scf,
    is_bayesian_nash,
)
from revaudit.labor import (
    BID_HIGH,
    BID_ZERO,
    SEPARATING_PROFILE,
    TYPE_HIGH,
    TYPE_LOW,
    LaborParams,
    build_scenario,
)


def canonical_game(w="3/2", c_mis="0", prior_high="1/2"):
    params = LaborParams(theta_L=1, theta_H=2, e_H=1, w=w, c_mis=c_mis, prior_high=prior_high)
    return build_scenario(params).game


# -- strategies ----------------------------------------------------------------


def test_pure_strategy_is_canonical_and_total():
    s = PureStrategy(0, (("hi", "x"), ("lo", "y")))
    assert s.choice == (("hi", "x"), ("lo", "y"))
    assert PureStrategy(0, (("lo", "y"), ("hi", "x"))) == s
    assert s.action("lo") == "y"
    with pytest.raises(DomainError):
        s.action("mid")
    with pytest.raises(ConstructionError):
        PureStrategy(0, (("a", "x"), ("a", "y")))
    with pytest.raises(ConstructionError):
        PureStrategy(-1, (("a", "x"),))


def test_profile_agent_order_enforced():
    a = PureStrategy(0, (("t", "x"),))
    b = PureStrategy(1, (("t", "y"),))
    assert [s.action("t") for s in StrategyProfile((a, b)).strategies] == ["x", "y"]
    with pytest.raises(ConstructionError):
        StrategyProfile((b, a))


def test_from_maps_builds_indexed_strategies():
    p = StrategyProfile.from_maps([{"t": "x"}, {"t": "y"}])
    assert p.strategies[1].agent == 1
    assert [s.action("t") for s in p.strategies] == ["x", "y"]


# -- enumeration ----------------------------------------------------------------


def test_enumeration_caps():
    game = canonical_game()
    with pytest.raises(SearchSpaceError, match=r"^16\+ strategy profiles exceed the cap of 15$"):
        find_all_pure_bne(game, cap=15)
    # A game with exactly as many profiles as the cap passes.
    assert find_all_pure_bne(game, cap=16) == find_all_pure_bne(game)


# -- interim payoffs ------------------------------------------------------------


def test_interim_values_at_canonical_wage():
    game = canonical_game()
    sep = SEPARATING_PROFILE
    assert compiled_payoff(game, sep, 0, TYPE_HIGH) == Fraction(5, 8)
    assert compiled_payoff(game, sep, 0, TYPE_LOW) == Fraction(3, 8)
    # Low type forced up to the high bid: 1/2*(3/2) + 1/2*(3/4) - 1 = 1/8.
    assert compiled_payoff(game, sep, 0, TYPE_LOW, BID_HIGH) == Fraction(1, 8)
    # The cost-free game ignores the bid cost.
    assert compiled_payoff(ref.cost_free(game), sep, 0, TYPE_LOW, BID_HIGH) == Fraction(9, 8)


def test_interim_with_single_type_opponent_is_expost():
    win = Outcome("win")
    tie = Outcome("tie")
    ts = TypeSpace.uniform([("hi",), ("lo",)])
    mech = Mechanism(
        (("0", "e"), ("0",)),
        {("0", "0"): tie, ("e", "0"): win},
    )
    u = UtilityTable(
        {
            (0, "win", "hi"): Fraction(3, 2),
            (0, "tie", "hi"): Fraction(3, 4),
            (1, "win", "lo"): Fraction(0),
            (1, "tie", "lo"): Fraction(3, 4),
        }
    )
    c = CostModel(strategic={(0, "e", "hi"): Fraction(1, 2)})
    game = BayesianGame(mech, ts, u, c)
    profile = StrategyProfile.from_maps([{"hi": "e"}, {"lo": "0"}])
    assert compiled_payoff(game, profile, 0, "hi") == Fraction(1)


# -- equilibrium checks -----------------------------------------------------------


def test_separating_profile_is_profit_equilibrium_only():
    game = canonical_game()
    sep = SEPARATING_PROFILE
    assert is_bayesian_nash(game, sep).is_equilibrium
    # Without costs the low type would imitate: bids are free to inflate.
    verdict = is_bayesian_nash(ref.cost_free(game), sep)
    assert not verdict.is_equilibrium
    assert verdict.witness == Deviation(0, TYPE_LOW, BID_HIGH, Fraction(3, 4))


def test_witness_is_maximal_gap_with_agent_tiebreak():
    game = canonical_game()
    both_zero = StrategyProfile.from_maps(
        [{TYPE_LOW: BID_ZERO, TYPE_HIGH: BID_ZERO}] * 2
    )
    verdict = is_bayesian_nash(game, both_zero)
    assert not verdict.is_equilibrium
    # Both agents' high types gain 1/4; the tie goes to agent 0.
    assert verdict.witness == Deviation(0, TYPE_HIGH, BID_HIGH, Fraction(1, 4))


def test_witness_prefers_larger_gain_over_earlier_agent():
    ts = TypeSpace.uniform([("t",), ("t",)])
    x00, x10, x01, x11 = (Outcome(k) for k in ("x00", "x10", "x01", "x11"))
    mech = Mechanism(
        (("s", "d"), ("s", "d")),
        {("s", "s"): x00, ("d", "s"): x10, ("s", "d"): x01, ("d", "d"): x11},
    )
    u = UtilityTable(
        {
            (0, "x00", "t"): Fraction(0),
            (1, "x00", "t"): Fraction(0),
            (0, "x10", "t"): Fraction(1, 4),
            (1, "x10", "t"): Fraction(0),
            (0, "x01", "t"): Fraction(0),
            (1, "x01", "t"): Fraction(1, 2),
            (0, "x11", "t"): Fraction(0),
            (1, "x11", "t"): Fraction(0),
        }
    )
    game = BayesianGame(mech, ts, u, CostModel())
    both_s = StrategyProfile.from_maps([{"t": "s"}, {"t": "s"}])
    verdict = is_bayesian_nash(game, both_s)
    assert verdict.witness == Deviation(1, "t", "d", Fraction(1, 2))


def test_weak_inequality_keeps_indifferent_profiles():
    ts = TypeSpace.uniform([("t",)])
    x = Outcome("x")
    mech = Mechanism((("a", "b"),), {("a",): x, ("b",): x})
    u = UtilityTable({(0, "x", "t"): Fraction(1)})
    game = BayesianGame(mech, ts, u, CostModel())
    assert len(find_all_pure_bne(game)) == 2


def test_find_all_pure_bne_is_deterministic():
    game = canonical_game()
    assert find_all_pure_bne(game) == find_all_pure_bne(game)


def test_implements_scf():
    params = LaborParams(theta_L=1, theta_H=2, e_H=1, w="3/2")
    scenario = build_scenario(params)
    assert implements_scf(scenario.game, SEPARATING_PROFILE, scenario.direct.mechanism)
    both_zero = StrategyProfile.from_maps(
        [{TYPE_LOW: BID_ZERO, TYPE_HIGH: BID_ZERO}] * 2
    )
    assert not implements_scf(scenario.game, both_zero, scenario.direct.mechanism)


@pytest.mark.parametrize(
    "types", [(TYPE_HIGH, TYPE_LOW), ("lo", "hi")], ids=["reordered", "other-labels"]
)
def test_implements_scf_refuses_a_rule_over_other_types(monkeypatch, types):
    scenario = build_scenario(LaborParams(theta_L=1, theta_H=2, e_H=1, w="3/2"))
    rule = SocialChoiceFunction(
        (types, types), dict.fromkeys(itertools.product(types, types), Outcome("split"))
    )
    counts = counted(monkeypatch, [equilibrium._rule])
    with pytest.raises(ConstructionError) as err:
        implements_scf(scenario.game, SEPARATING_PROFILE, rule)
    # The refusal of `direct_game`, at the rule, for any rule over other reports.
    assert err.value.at == ("rule",)
    assert str(err.value) == (
        f"rule: reports {(types, types)} are not the game's types {((TYPE_LOW, TYPE_HIGH),) * 2}"
    )
    assert counts["_rule"] == 0  # refused before any profile is played


# -- random-instance properties ---------------------------------------------------


def attach_random_costs(game, rng):
    strategic = {}
    for agent in range(game.agent_count):
        for action in game.mechanism.actions_of[agent]:
            for t in game.type_space.types_of[agent]:
                strategic[(agent, action, t)] = Fraction(rng.randint(0, 6), 6)
    return BayesianGame(
        game.mechanism, game.type_space, game.utilities, CostModel(strategic=strategic)
    )


def exante_full_strategy_equilibrium(game, profile):
    """Independent oracle: no full-strategy deviation raises the ex-ante payoff."""
    ts, mech = game.type_space, game.mechanism

    def exante(agent, strategy_map):
        total = Fraction(0)
        for theta in ts.profiles():
            acts = tuple(
                strategy_map[theta[j]] if j == agent else profile.strategies[j].action(theta[j])
                for j in range(ts.agent_count)
            )
            x = mech.outcome_of[acts]
            joint = math.prod(prior[t] for prior, t in zip(ts.prior_of, theta))
            total += joint * (
                game.utilities.table[agent, x.label, theta[agent]]
                - game.costs.strategic.get((agent, acts[agent], theta[agent]), 0)
            )
        return total

    for agent in range(ts.agent_count):
        played = {t: profile.strategies[agent].action(t) for t in ts.types_of[agent]}
        base = exante(agent, played)
        for combo in itertools.product(mech.actions_of[agent], repeat=len(ts.types_of[agent])):
            if exante(agent, dict(zip(ts.types_of[agent], combo))) > base:
                return False
    return True


# (types per agent, actions per agent) of games at the edges of the search:
# a single agent (the pruned search has an empty head), an agent with one
# type, an agent with one action, and three agents with both.
EDGE_SHAPES = [
    ((3,), (3,)),
    ((1, 3), (3, 2)),
    ((2, 2), (1, 3)),
    ((2, 3), (3, 1)),
    ((2, 1, 2), (2, 3, 1)),
]


def test_one_shot_deviations_match_full_strategy_oracle():
    rng = random.Random(7)
    games = [attach_random_costs(random_zero_cost_game(rng), rng) for _ in range(12)]
    games += [ref.random_costly_game(rng, *shape) for shape in EDGE_SHAPES]
    for game in games:
        for profile in ref.profiles(game):
            assert (
                is_bayesian_nash(game, profile).is_equilibrium
                == exante_full_strategy_equilibrium(game, profile)
            )


def differential_shapes():
    rng = random.Random(5)
    shapes = list(EDGE_SHAPES)
    # The largest games the search workload meets: 729 profiles.
    shapes += [((6,), (3,)), ((3, 3), (3, 3)), ((2, 2, 2), (3, 3, 3))]
    for agents in (1, 2, 3):
        shapes += [ref.random_shape(rng, agents, max_profiles=81) for _ in range(6)]
    # The search pivots on the agent with the most plans: agent 0 of 3,
    # the middle agent, and the last of three tied agents.
    shapes += [((2, 1, 1), (3, 2, 2)), ((1, 2, 1), (2, 3, 2)), ((1, 2, 1), (4, 2, 4))]
    # Four agents: a non-pivot agent's rows are kept by the plans of three
    # others, the pivot's reply among them. At their seeds each of these
    # games and its cost-free copy has equilibria (1 to 36).
    shapes += [((2, 1, 2, 1), (2, 3, 2, 2)), ((1, 1, 2, 1), (3, 3, 2, 3))]
    shapes += [((1, 1, 1, 1), (3, 3, 3, 3))]
    return shapes


@pytest.mark.parametrize("seed, shape", list(enumerate(differential_shapes())))
def test_compiled_engine_matches_reference_engine(seed, shape):
    costly = ref.random_costly_game(random.Random(seed), *shape)
    profiles = ref.profiles(costly)
    ts, mech = costly.type_space, costly.mechanism
    for game in (costly, ref.cost_free(costly)):
        # The reference engine judges each profile once; its search is the
        # profiles it judges equilibria, in order (`ref.find_all_pure_bne`).
        verdicts = [ref.is_bayesian_nash(game, profile) for profile in profiles]
        equilibria = [profile for profile, v in zip(profiles, verdicts) if v.is_equilibrium]
        assert find_all_pure_bne(game) == equilibria
        for profile, verdict in zip(profiles, verdicts):
            assert is_bayesian_nash(game, profile) == verdict
        # Every (agent, type, action); on every ninth profile of the largest games.
        for profile in profiles[:: 1 if len(profiles) <= 81 else 9]:
            for agent in range(game.agent_count):
                for t in ts.types_of[agent]:
                    for a in mech.actions_of[agent]:
                        assert compiled_payoff(
                            game, profile, agent, t, a
                        ) == ref.interim(game, profile, agent, t, a)


# The shapes the declared workload runs, where opponent type profiles
# outnumber outcomes (up to 36 against 6), and a game with one outcome.
WIDE_SHAPES = [((6, 6, 6), (4, 4, 4), 6), ((8, 8), (8, 8), 6), ((3, 2), (2, 3), 1)]


@pytest.mark.parametrize(
    "types, actions, outcomes", WIDE_SHAPES, ids=["3-agents-6x4", "2-agents-8x8", "one-outcome"]
)
def test_per_outcome_sums_match_the_reference_engine_on_wide_games(types, actions, outcomes):
    rng = random.Random(sum(types))
    game = ref.random_costly_game(rng, types, actions, outcomes)
    ts, mech = game.type_space, game.mechanism
    for _ in range(3):
        profile = StrategyProfile.from_maps(
            {t: rng.choice(acts) for t in types}
            for types, acts in zip(ts.types_of, mech.actions_of)
        )
        for agent in range(game.agent_count):
            for t in ts.types_of[agent]:
                for a in mech.actions_of[agent]:
                    assert compiled_payoff(
                        game, profile, agent, t, a
                    ) == ref.interim(game, profile, agent, t, a)


def test_the_search_pivots_on_the_agent_with_the_most_plans(monkeypatch):
    # Agent 0 has 10**5 plans and agent 1 one, so the search pivots on
    # agent 0: its rows once, then agent 1's rows once per best-reply
    # combination (two here), instead of two row sets per plan of agent 0.
    game = ref.random_costly_game(random.Random(21), (5, 1), (10, 1))
    counts = counted(monkeypatch, [equilibrium._interim_rows])
    found = find_all_pure_bne(game)
    assert counts == {"_interim_rows": 3}
    # Agent 1 has one action, so the equilibria are agent 0's per-type best
    # replies, which do not depend on agent 0's own plan.
    (types, (lone,)), (actions, (only,)) = game.type_space.types_of, game.mechanism.actions_of
    probe = StrategyProfile.from_maps([dict.fromkeys(types, actions[0]), {lone: only}])
    best = []
    for t in types:
        values = [ref.interim(game, probe, 0, t, a) for a in actions]
        best.append([a for a, v in zip(actions, values) if v == max(values)])
    expected = [
        StrategyProfile.from_maps([dict(zip(types, combo)), {lone: only}])
        for combo in itertools.product(*best)
    ]
    assert found == expected and len(found) == 2
    assert all(ref.is_bayesian_nash(game, p).is_equilibrium for p in found)


def test_the_search_computes_each_row_set_once(monkeypatch):
    # Agent 1, the pivot, has 9 plans and agent 0 has 4. The search takes
    # the pivot's rows once per plan of agent 0, and agent 0's rows once per
    # distinct reply of the pivot, however many of agent 0's plans it answers.
    game = ref.random_costly_game(random.Random(2), (2, 2), (2, 3))
    (types0, types1), (actions0, actions1) = game.type_space.types_of, game.mechanism.actions_of
    plans0 = [dict(zip(types0, combo)) for combo in itertools.product(actions0, repeat=2)]
    replies = []
    for own in plans0:
        probe = StrategyProfile.from_maps([own, dict.fromkeys(types1, actions1[0])])
        best = []
        for t in types1:
            values = [ref.interim(game, probe, 1, t, a) for a in actions1]
            best.append([a for a, v in zip(actions1, values) if v == max(values)])
        replies += itertools.product(*best)
    # With ties the pivot gives 17 replies to agent 0's 4 plans, 7 of them
    # distinct: 11 row sets, where one per reply would take 21.
    assert (len(replies), len(set(replies))) == (17, 7)
    counts = counted(monkeypatch, [equilibrium._interim_rows])
    find_all_pure_bne(game)
    assert counts == {"_interim_rows": len(plans0) + len(set(replies))}


# -- ex-post games and dominance ---------------------------------------------------


def test_expost_matches_case_values():
    game = canonical_game()
    nf = expost_normal_form(game, (TYPE_HIGH, TYPE_LOW))
    assert nf.payoff((BID_HIGH, BID_ZERO))[0] == Fraction(1)
    assert nf.payoff((BID_ZERO, BID_ZERO))[0] == Fraction(3, 4)


def prisoners_dilemma():
    labels = {
        ("c", "c"): (Fraction(2), Fraction(2)),
        ("c", "d"): (Fraction(0), Fraction(3)),
        ("d", "c"): (Fraction(3), Fraction(0)),
        ("d", "d"): (Fraction(1), Fraction(1)),
    }
    return NormalFormGame((("c", "d"), ("c", "d")), labels)


def test_find_pure_nash_and_strict_dominance():
    nf = prisoners_dilemma()
    assert find_pure_nash(nf) == [("d", "d")]
    for agent in (0, 1):
        d = dominant_strategies(nf, agent)
        assert d is not None and d.action == "d" and d.kind == "strict"


def test_constant_game_everything_is_weakly_dominant():
    payoffs = {p: (Fraction(1), Fraction(1)) for p in itertools.product("ab", "ab")}
    nf = NormalFormGame((("a", "b"), ("a", "b")), payoffs)
    assert len(find_pure_nash(nf)) == 4
    d = dominant_strategies(nf, 0)
    assert d is not None and d.action == "a" and d.kind == "weak"


def test_matching_pennies_has_no_dominant_action():
    payoffs = {
        ("h", "h"): (Fraction(1), Fraction(-1)),
        ("h", "t"): (Fraction(-1), Fraction(1)),
        ("t", "h"): (Fraction(-1), Fraction(1)),
        ("t", "t"): (Fraction(1), Fraction(-1)),
    }
    nf = NormalFormGame((("h", "t"), ("h", "t")), payoffs)
    assert dominant_strategies(nf, 0) is None
    assert find_pure_nash(nf) == []


def test_only_the_middle_agents_deviation_breaks_a_profile():
    # Agents 0 and 2 get 0 everywhere; agent 1 gets 1 only at (x, y, x), so
    # (x, x, x) fails on the middle agent's deviation alone.
    profiles = list(itertools.product("xy", repeat=3))
    payoffs = {p: (Fraction(0), Fraction(p == ("x", "y", "x")), Fraction(0)) for p in profiles}
    nf = NormalFormGame((("x", "y"),) * 3, payoffs)
    assert find_pure_nash(nf) == [p for p in profiles if p != ("x", "x", "x")]


def own_payoffs_game(rows):
    """A two-agent normal form where agent 0 plays the keys of `rows`, each
    holding its payoffs against agent 1's l and r, and agent 1 gets 0."""
    payoffs = {
        (a, b): (Fraction(v), Fraction(0)) for a, row in rows.items() for b, v in zip("lr", row)
    }
    return NormalFormGame((tuple(rows), ("l", "r")), payoffs)


def test_a_weakly_dominant_action_after_a_non_dominant_one_is_found():
    # b ties a against l and c against r, and is never beaten.
    nf = own_payoffs_game({"a": (1, 0), "b": (1, 1), "c": (0, 1)})
    assert dominant_strategies(nf, 0) == DominantAction("b", "weak")


def test_the_first_of_two_tied_weakly_dominant_actions_wins():
    nf = own_payoffs_game({"a": (0, 1), "b": (1, 1), "c": (1, 1)})
    assert dominant_strategies(nf, 0) == DominantAction("b", "weak")


def test_singleton_action_set_is_trivially_dominant():
    nf = NormalFormGame((("only",),), {("only",): (Fraction(0),)})
    d = dominant_strategies(nf, 0)
    assert d is not None and d.kind == "strict"


@pytest.mark.parametrize("value", [0.1, True, "\u0661"], ids=["float", "bool", "arabic-indic-one"])
def test_normal_form_payoffs_are_exact_rationals(value):
    with pytest.raises(ConstructionError) as err:
        NormalFormGame((("a", "b"),), {("a",): (Fraction(0),), ("b",): (value,)})
    assert err.value.at == ("payoffs", ("b",))


def test_normal_form_bounds_each_agents_denominators():
    # Each agent's payoffs are compared on its own LCM, so each agent's
    # denominators are bounded on their own: agent 0's 2**2048 and 1 have
    # 2,049 bits and 1 bit.
    long = Fraction(1, 2**2048)
    with pytest.raises(ConstructionError) as err:
        NormalFormGame((("a", "b"), ("c",)), {("a", "c"): (long, 0), ("b", "c"): (0, 0)})
    assert err.value.at == ("payoffs",)
    assert str(err.value) == (
        "payoffs: distinct denominators of 2050 bits in all exceed the limit of 2048"
    )
    half = Fraction(1, 2**2047)
    NormalFormGame((("a", "b"),) * 2, {p: (half, half) for p in itertools.product("ab", "ab")})


def test_dominant_strategies_rejects_a_bool_agent():
    with pytest.raises(DomainError, match="unknown agent index True"):
        dominant_strategies(prisoners_dilemma(), True)


@pytest.mark.parametrize(
    "actions_of, at",
    [
        ((("a", "a"), ("b",)), ("actions", 0)),
        ((("a",), ()), ("actions", 1)),
        ((("a", ""),), ("actions", 0)),
        (((1, 2),), ("actions", 0)),
        ((), ("actions",)),
    ],
    ids=["duplicate", "empty-set", "empty-label", "non-string", "no-agent"],
)
def test_normal_form_checks_its_action_labels(actions_of, at):
    # A duplicate would list its Nash profile twice and dominate itself.
    payoffs = {p: (Fraction(0),) * len(p) for p in itertools.product(*actions_of)}
    with pytest.raises(ConstructionError) as err:
        NormalFormGame(actions_of, payoffs)
    assert err.value.at == at


def test_normal_form_validation():
    with pytest.raises(ConstructionError):
        NormalFormGame((("a", "b"),), {("a",): (Fraction(1),)})
    with pytest.raises(ConstructionError):
        NormalFormGame((("a",),), {("a",): (Fraction(1), Fraction(2))})
