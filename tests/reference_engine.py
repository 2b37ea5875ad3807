"""Reference equilibrium engine: the direct Fraction loop, one profile at a time.

This is the obviously correct engine that the compiled tables of
`revaudit.equilibrium` are checked against. It walks every opponent type
profile with `TypeSpace.conditional_weight`, looks each action up by label,
and scans every pure profile. Profiles and opponent type profiles are
enumerated here, from `itertools.product`, so the oracle shares no
enumeration code with the library. It is slow and is used only by the
tests, together with a generator of random costly games.
"""

import itertools
import math
from fractions import Fraction

from revaudit.core import CostModel, DomainError, Mechanism, Outcome, TypeSpace, UtilityTable
from revaudit.equilibrium import (
    BayesianGame,
    Deviation,
    EquilibriumVerdict,
    StrategyProfile,
)


def profiles(game):
    """Every pure profile, agent 0 outermost; each agent's strategies run
    lexicographically over (type order, action order)."""
    per_agent = [
        [dict(zip(types, combo)) for combo in itertools.product(actions, repeat=len(types))]
        for types, actions in zip(game.type_space.types_of, game.mechanism.actions_of)
    ]
    return [StrategyProfile.from_maps(maps) for maps in itertools.product(*per_agent)]


def opponent_profiles(ts, agent):
    """Type profiles of everyone but `agent`, in agent order, lexicographic."""
    return itertools.product(*[types for j, types in enumerate(ts.types_of) if j != agent])


def validate_profile(game, profile):
    if profile.agent_count != game.agent_count:
        raise DomainError(
            f"profile has {profile.agent_count} strategies, game has {game.agent_count} agents"
        )
    for i, strategy in enumerate(profile.strategies):
        covered = {t for t, _ in strategy.choice}
        declared = set(game.type_space.types_of[i])
        if covered != declared:
            raise DomainError(
                f"agent {i}: strategy covers types {sorted(covered)}, expected {sorted(declared)}"
            )
        for _, a in strategy.choice:
            if a not in game.mechanism.actions_of[i]:
                raise DomainError(f"agent {i}: strategy plays unknown action {a!r}")


def interim(game, profile, agent, type_label, action):
    """Expected profit for agent of playing `action` at `type_label`, opponents
    following `profile`: the utility weighted by the conditional prior over
    their types, minus the strategic cost of `action`."""
    ts = game.type_space
    total = Fraction(0)
    for opp in opponent_profiles(ts, agent):
        w = ts.conditional_weight(agent, opp)
        acts = []
        k = 0
        for j in range(game.agent_count):
            if j == agent:
                acts.append(action)
            else:
                acts.append(profile.strategies[j].action(opp[k]))
                k += 1
        x = game.mechanism.outcome(tuple(acts))
        total += w * game.utilities.utility(agent, x, type_label)
    # Conditional weights sum to one, so the constant cost comes off once.
    return total - game.costs.strategic_cost(agent, action, type_label)


def is_bayesian_nash(game, profile):
    """Scan every per-type single-action deviation. The witness is the
    largest gain; ties go to the smallest (agent, type position, action
    position), which is the scan order."""
    validate_profile(game, profile)
    best = None
    for agent in range(game.agent_count):
        for t in game.type_space.types_of[agent]:
            played = profile.strategies[agent].action(t)
            current = interim(game, profile, agent, t, played)
            for a in game.mechanism.actions_of[agent]:
                if a == played:
                    continue
                gain = interim(game, profile, agent, t, a) - current
                if gain > 0 and (best is None or gain > best.gain):
                    best = Deviation(agent, t, a, gain)
    return EquilibriumVerdict(best)


def find_all_pure_bne(game):
    """Every pure equilibrium, by checking each enumerated profile in turn."""
    return [p for p in profiles(game) if is_bayesian_nash(game, p).is_equilibrium]


def cost_free(game):
    """The same game with every cost erased: its profits are its utilities,
    the classical (utility-based) view of the game."""
    return BayesianGame(game.mechanism, game.type_space, game.utilities, CostModel())


def random_shape(rng, agents, max_profiles):
    """Type and action counts per agent with at most `max_profiles` pure
    profiles: 1..3 actions, and 1..6 types for a single agent, 1..3 otherwise."""
    while True:
        types = tuple(rng.randint(1, 6 if agents == 1 else 3) for _ in range(agents))
        actions = tuple(rng.randint(1, 3) for _ in range(agents))
        if math.prod(a**t for a, t in zip(actions, types)) <= max_profiles:
            return types, actions


def random_costly_game(rng, types, actions):
    """A random game with the given type and action counts per agent:
    non-uniform priors, and utilities and strategic costs drawn from a small
    range of rationals so that ties are common."""
    agents = len(types)
    types_of = tuple(tuple(f"t{k}" for k in range(n)) for n in types)
    priors = []
    for ts in types_of:
        weights = [rng.randint(1, 5) for _ in ts]
        priors.append({t: Fraction(w, sum(weights)) for t, w in zip(ts, weights)})
    actions_of = tuple(tuple(f"a{k}" for k in range(n)) for n in actions)
    outcomes = [Outcome(f"x{k}") for k in range(rng.randint(2, 4))]
    outcome_of = {p: rng.choice(outcomes) for p in itertools.product(*actions_of)}

    def value(low):
        return Fraction(rng.randint(low, 4), rng.choice((1, 2, 3, 5)))

    utility = {
        (i, x.label, t): value(-4) for i in range(agents) for x in outcomes for t in types_of[i]
    }
    strategic = {
        (i, a, t): value(0)
        for i in range(agents) for a in actions_of[i] for t in types_of[i] if rng.random() < 0.7
    }
    return BayesianGame(
        Mechanism(actions_of, outcome_of),
        TypeSpace(types_of, tuple(priors)),
        UtilityTable(utility),
        CostModel(strategic=strategic),
    )
