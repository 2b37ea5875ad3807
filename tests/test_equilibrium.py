"""Engine checks: enumeration order, interim payoffs, equilibrium scans,
ex-post games, and dominance. Random-instance suites compare the engine
against independently written oracles, among them the reference engine of
`reference_engine.py`."""

import itertools
import random
from fractions import Fraction

import pytest
import reference_engine as ref

from revaudit.auditor import random_zero_cost_game
from revaudit.core import (
    ConstructionError,
    CostModel,
    DomainError,
    Mechanism,
    Outcome,
    SearchSpaceError,
    TypeSpace,
    UtilityTable,
)
from revaudit.equilibrium import (
    BayesianGame,
    Deviation,
    EquilibriumMode,
    EquilibriumVerdict,
    NormalFormGame,
    PureStrategy,
    StrategyProfile,
    dominant_strategies,
    enumerate_profiles,
    enumerate_pure_strategies,
    expost_normal_form,
    find_all_pure_bne,
    find_pure_nash,
    implements_scf,
    interim_expected_payoff,
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

UTILITY = EquilibriumMode.UTILITY_BASED
PROFIT = EquilibriumMode.PROFIT_BASED


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
    assert StrategyProfile((a, b)).action_profile(("t", "t")) == ("x", "y")
    with pytest.raises(ConstructionError):
        StrategyProfile((b, a))


def test_from_maps_builds_indexed_strategies():
    p = StrategyProfile.from_maps([{"t": "x"}, {"t": "y"}])
    assert p.strategies[1].agent == 1
    assert p.action_profile(("t", "t")) == ("x", "y")


# -- enumeration ----------------------------------------------------------------


def test_enumerate_pure_strategies_order_and_count():
    game = canonical_game()
    strategies = enumerate_pure_strategies(game.mechanism, game.type_space, 0)
    assert len(strategies) == 4
    # Lexicographic over (type order, action order): the oracle is the raw product.
    expected = [
        PureStrategy(0, tuple(zip((TYPE_LOW, TYPE_HIGH), combo)))
        for combo in itertools.product((BID_ZERO, BID_HIGH), repeat=2)
    ]
    assert strategies == expected
    assert strategies[0].as_map() == {TYPE_LOW: BID_ZERO, TYPE_HIGH: BID_ZERO}


def test_enumeration_caps():
    game = canonical_game()
    with pytest.raises(SearchSpaceError, match="agent 0: 4 pure strategies exceed the cap of 3"):
        enumerate_pure_strategies(game.mechanism, game.type_space, 0, cap=3)
    with pytest.raises(SearchSpaceError, match=r"^16\+ strategy profiles exceed the cap of 15$"):
        enumerate_profiles(game.mechanism, game.type_space, cap=15)
    with pytest.raises(SearchSpaceError, match=r"^16\+ strategy profiles exceed the cap of 15$"):
        find_all_pure_bne(game, PROFIT, cap=15)
    # A game with exactly as many profiles as the cap passes.
    assert len(enumerate_pure_strategies(game.mechanism, game.type_space, 0, cap=4)) == 4
    assert len(enumerate_profiles(game.mechanism, game.type_space, cap=16)) == 16
    assert find_all_pure_bne(game, PROFIT, cap=16) == find_all_pure_bne(game, PROFIT)


def test_enumerate_profiles_is_deterministic():
    game = canonical_game()
    first = enumerate_profiles(game.mechanism, game.type_space)
    second = enumerate_profiles(game.mechanism, game.type_space)
    assert len(first) == 16
    assert first == second
    assert repr(first) == repr(second)


# -- interim payoffs ------------------------------------------------------------


def test_interim_values_at_canonical_wage():
    game = canonical_game()
    sep = SEPARATING_PROFILE
    assert interim_expected_payoff(game, sep, 0, TYPE_HIGH) == Fraction(5, 8)
    assert interim_expected_payoff(game, sep, 0, TYPE_LOW) == Fraction(3, 8)
    # Low type forced up to the high bid: 1/2*(3/2) + 1/2*(3/4) - 1 = 1/8.
    assert interim_expected_payoff(game, sep, 0, TYPE_LOW, deviation=BID_HIGH) == Fraction(1, 8)
    # Utility mode ignores the bid cost.
    assert interim_expected_payoff(game, sep, 0, TYPE_LOW, deviation=BID_HIGH, mode=UTILITY) == Fraction(9, 8)
    with pytest.raises(DomainError):
        interim_expected_payoff(game, sep, 0, "theta_M")
    with pytest.raises(DomainError):
        interim_expected_payoff(game, sep, 0, TYPE_LOW, deviation="e_M")


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
    assert interim_expected_payoff(game, profile, 0, "hi") == Fraction(1)


# -- equilibrium checks -----------------------------------------------------------


def test_separating_profile_is_profit_equilibrium_only():
    game = canonical_game()
    sep = SEPARATING_PROFILE
    assert is_bayesian_nash(game, sep, PROFIT).is_equilibrium
    # Without costs the low type would imitate: bids are free to inflate.
    verdict = is_bayesian_nash(game, sep, UTILITY)
    assert not verdict.is_equilibrium
    assert verdict.witness == Deviation(0, TYPE_LOW, BID_HIGH, Fraction(3, 4))


def test_witness_is_maximal_gap_with_agent_tiebreak():
    game = canonical_game()
    both_zero = StrategyProfile.from_maps(
        [{TYPE_LOW: BID_ZERO, TYPE_HIGH: BID_ZERO}] * 2
    )
    verdict = is_bayesian_nash(game, both_zero, PROFIT)
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
    game = BayesianGame(mech, ts, u, CostModel.zero())
    both_s = StrategyProfile.from_maps([{"t": "s"}, {"t": "s"}])
    verdict = is_bayesian_nash(game, both_s, PROFIT)
    assert verdict.witness == Deviation(1, "t", "d", Fraction(1, 2))


def test_weak_inequality_keeps_indifferent_profiles():
    ts = TypeSpace.uniform([("t",)])
    x = Outcome("x")
    mech = Mechanism((("a", "b"),), {("a",): x, ("b",): x})
    u = UtilityTable({(0, "x", "t"): Fraction(1)})
    game = BayesianGame(mech, ts, u, CostModel.zero())
    assert len(find_all_pure_bne(game, PROFIT)) == 2


def test_verdict_shape_is_enforced():
    with pytest.raises(ConstructionError):
        EquilibriumVerdict(True, Deviation(0, "t", "a", Fraction(1)))
    with pytest.raises(ConstructionError):
        EquilibriumVerdict(False, None)


def test_find_all_pure_bne_is_deterministic():
    game = canonical_game()
    assert find_all_pure_bne(game, PROFIT) == find_all_pure_bne(game, PROFIT)


def test_implements_scf():
    params = LaborParams(theta_L=1, theta_H=2, e_H=1, w="3/2")
    scenario = build_scenario(params)
    assert implements_scf(scenario.game, SEPARATING_PROFILE, scenario.direct.mechanism)
    both_zero = StrategyProfile.from_maps(
        [{TYPE_LOW: BID_ZERO, TYPE_HIGH: BID_ZERO}] * 2
    )
    assert not implements_scf(scenario.game, both_zero, scenario.direct.mechanism)


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
            x = mech.outcome(acts)
            total += ts.joint_prior(theta) * (
                game.utilities.utility(agent, x, theta[agent])
                - game.costs.strategic_cost(agent, acts[agent], theta[agent])
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
        for profile in enumerate_profiles(game.mechanism, game.type_space):
            assert (
                is_bayesian_nash(game, profile, PROFIT).is_equilibrium
                == exante_full_strategy_equilibrium(game, profile)
            )


def differential_shapes():
    rng = random.Random(5)
    shapes = list(EDGE_SHAPES)
    # The largest games the search workload meets: 729 profiles.
    shapes += [((6,), (3,)), ((3, 3), (3, 3)), ((2, 2, 2), (3, 3, 3))]
    for agents in (1, 2, 3):
        shapes += [ref.random_shape(rng, agents, max_profiles=81) for _ in range(6)]
    return shapes


@pytest.mark.parametrize("seed, shape", list(enumerate(differential_shapes())))
def test_compiled_engine_matches_reference_engine(seed, shape):
    game = ref.random_costly_game(random.Random(seed), *shape)
    profiles = enumerate_profiles(game.mechanism, game.type_space)
    ts, mech = game.type_space, game.mechanism
    for mode in (UTILITY, PROFIT):
        assert find_all_pure_bne(game, mode) == ref.find_all_pure_bne(game, mode)
        for profile in profiles:
            verdict = ref.is_bayesian_nash(game, profile, mode)
            assert is_bayesian_nash(game, profile, mode) == verdict
        # Every (agent, type, action); on every ninth profile of the largest games.
        for profile in profiles[:: 1 if len(profiles) <= 81 else 9]:
            for agent in range(game.agent_count):
                for t in ts.types_of[agent]:
                    for a in mech.actions_of[agent]:
                        assert interim_expected_payoff(
                            game, profile, agent, t, a, mode
                        ) == ref.interim(game, profile, agent, t, a, mode)


def test_modes_agree_when_costs_vanish():
    rng = random.Random(11)
    for _ in range(30):
        game = random_zero_cost_game(rng)
        assert find_all_pure_bne(game, UTILITY) == find_all_pure_bne(game, PROFIT)


# -- ex-post games and dominance ---------------------------------------------------


def test_expost_matches_case_values():
    game = canonical_game()
    nf = expost_normal_form(game, (TYPE_HIGH, TYPE_LOW), mode=PROFIT)
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


def test_singleton_action_set_is_trivially_dominant():
    nf = NormalFormGame((("only",),), {("only",): (Fraction(0),)})
    d = dominant_strategies(nf, 0)
    assert d is not None and d.kind == "strict"


def test_normal_form_validation():
    with pytest.raises(ConstructionError):
        NormalFormGame((("a", "b"),), {("a",): (Fraction(1),)})
    with pytest.raises(ConstructionError):
        NormalFormGame((("a",),), {("a",): (Fraction(1), Fraction(2))})
