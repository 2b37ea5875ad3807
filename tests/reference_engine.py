"""Reference equilibrium engine: the direct Fraction loop, one profile at a time.

This is the obviously correct engine that the compiled tables of
`revaudit.equilibrium` are checked against. It walks every opponent type
profile with `TypeSpace.conditional_weight` (once per agent in an
equilibrium check), looks each utility up by label in `utilities.table` and
each strategic cost in `costs.strategic` (0 where absent), and scans every
pure profile. Ex-post payoffs, pure Nash profiles and dominant actions of
normal-form games are found the same way, by brute force, and so is the
rule a profile plays out. Profiles and opponent type
profiles are enumerated here, from `itertools.product`, so the oracle
shares no enumeration code with the library. It is slow and is used only
by the tests, together with a generator of random costly games and a
writer of a game as a generic config.
"""

import itertools
import math
from fractions import Fraction

from revaudit.core import (
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
    DominantAction,
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


def weighted_opponents(ts, agent):
    """Each opponent type profile of `agent`, in `opponent_profiles` order,
    with its conditional weight."""
    return [(opp, ts.conditional_weight(agent, opp)) for opp in opponent_profiles(ts, agent)]


def interim(game, profile, agent, type_label, action, weighted=None):
    """Expected profit for agent of playing `action` at `type_label`, opponents
    following `profile`: the utility weighted by the conditional prior over
    their types, minus the strategic cost of `action`. `weighted` is
    `weighted_opponents(game.type_space, agent)`, found here when not given:
    a caller that asks for many of the agent's payoffs finds it once."""
    if weighted is None:
        weighted = weighted_opponents(game.type_space, agent)
    total = Fraction(0)
    for opp, w in weighted:
        acts = []
        k = 0
        for j in range(game.agent_count):
            if j == agent:
                acts.append(action)
            else:
                acts.append(profile.strategies[j].action(opp[k]))
                k += 1
        x = game.mechanism.outcome_of[tuple(acts)]
        total += w * game.utilities.table[agent, x.label, type_label]
    # Conditional weights sum to one, so the constant cost comes off once.
    return total - game.costs.strategic.get((agent, action, type_label), 0)


def is_bayesian_nash(game, profile):
    """Scan every per-type single-action deviation. The witness is the
    largest gain; ties go to the smallest (agent, type position, action
    position), which is the scan order."""
    validate_profile(game, profile)
    best = None
    for agent in range(game.agent_count):
        # The opponents' weights do not depend on the agent's own type or action.
        weighted = weighted_opponents(game.type_space, agent)
        for t in game.type_space.types_of[agent]:
            played = profile.strategies[agent].action(t)
            current = interim(game, profile, agent, t, played, weighted)
            for a in game.mechanism.actions_of[agent]:
                if a == played:
                    continue
                gain = interim(game, profile, agent, t, a, weighted) - current
                if gain > 0 and (best is None or gain > best.gain):
                    best = Deviation(agent, t, a, gain)
    return EquilibriumVerdict(best)


def find_all_pure_bne(game):
    """Every pure equilibrium, by checking each enumerated profile in turn."""
    return [p for p in profiles(game) if is_bayesian_nash(game, p).is_equilibrium]


def induced_scf(game, profile):
    """The rule a profile plays out: at each type profile, the outcome the
    mechanism gives the actions the strategies take there, looked up by
    label."""
    types_of, strategies = game.type_space.types_of, profile.strategies
    return SocialChoiceFunction(
        types_of,
        {
            theta: game.mechanism.outcome_of[tuple(s.action(t) for s, t in zip(strategies, theta))]
            for theta in itertools.product(*types_of)
        },
    )


def expost_payoffs(game, true_types):
    """Each action profile's profits at a realized type profile, looked up by
    label: the utility of its outcome minus the strategic cost of the action
    played, which is 0 where the cost table has no entry."""
    return {
        acts: tuple(
            game.utilities.table[i, game.mechanism.outcome_of[acts].label, t]
            - game.costs.strategic.get((i, a, t), 0)
            for i, (a, t) in enumerate(zip(acts, true_types))
        )
        for acts in itertools.product(*game.mechanism.actions_of)
    }


def pure_nash(nf):
    """Every profile of a normal-form game at which no agent gains by any
    action of its own, in `itertools.product` order."""
    return [
        p
        for p in itertools.product(*nf.actions_of)
        if all(
            nf.payoffs[p[:i] + (a,) + p[i + 1 :]][i] <= nf.payoffs[p][i]
            for i, actions in enumerate(nf.actions_of)
            for a in actions
        )
    ]


def dominant_action(nf, agent):
    """The first action in declared order that does at least as well as
    every action against every opponent profile, "strict" when it does
    strictly better than every other action everywhere; None without one."""
    own = nf.actions_of[agent]
    rests = list(itertools.product(*[acts for j, acts in enumerate(nf.actions_of) if j != agent]))

    def value(a, rest):
        return nf.payoffs[rest[:agent] + (a,) + rest[agent:]][agent]

    weak = [a for a in own if all(value(a, r) >= value(b, r) for r in rests for b in own)]
    if not weak:
        return None
    a = weak[0]
    strict = all(value(a, r) > value(b, r) for r in rests for b in own if b != a)
    return DominantAction(a, "strict" if strict else "weak")


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


def random_costly_game(rng, types, actions, outcomes=None):
    """A random game with the given type and action counts per agent:
    non-uniform priors, and utilities and strategic costs drawn from a small
    range of rationals so that ties are common. There are `outcomes`
    outcomes, or 2 to 4 when it is None."""
    agents = len(types)
    types_of = tuple(tuple(f"t{k}" for k in range(n)) for n in types)
    priors = []
    for ts in types_of:
        weights = [rng.randint(1, 5) for _ in ts]
        priors.append({t: Fraction(w, sum(weights)) for t, w in zip(ts, weights)})
    actions_of = tuple(tuple(f"a{k}" for k in range(n)) for n in actions)
    outcomes = [Outcome(f"x{k}") for k in range(outcomes or rng.randint(2, 4))]
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


def random_zero_cost_game(rng):
    """The random zero-cost game of `auditor.random_zero_cost_game`, drawn
    part by part with `randint` and built with the checking constructors:
    two agents with 1..2 types and 1..3 actions, 1..4 outcomes, utilities in
    twelfths, a uniform or random full-support prior, and no costs."""
    types_of = tuple(tuple(f"t{k}" for k in range(rng.randint(1, 2))) for _ in range(2))
    priors = []
    for ts in types_of:
        if rng.random() < 1 / 2 or len(ts) == 1:
            priors.append({t: Fraction(1, len(ts)) for t in ts})
        else:
            weights = [rng.randint(1, 6) for _ in ts]
            priors.append({t: Fraction(w, sum(weights)) for t, w in zip(ts, weights)})
    actions_of = tuple(tuple(f"a{k}" for k in range(rng.randint(1, 3))) for _ in range(2))
    outcomes = [Outcome(f"x{k}") for k in range(rng.randint(1, 4))]
    outcome_of = {p: rng.choice(outcomes) for p in itertools.product(*actions_of)}
    utility = {
        (i, x.label, t): Fraction(rng.randint(0, 12), 12)
        for i in range(2) for x in outcomes for t in types_of[i]
    }
    return BayesianGame(
        Mechanism(actions_of, outcome_of),
        TypeSpace(types_of, tuple(priors)),
        UtilityTable(utility),
        CostModel(),
    )


def random_priced_game(rng, agents, max_profiles=729):
    """A random costly game of a random shape, priced with a random
    misreport schedule (every misreport priced), and a random rule over its
    outcomes: the game and the rule."""
    game = random_costly_game(rng, *random_shape(rng, agents, max_profiles))
    ts = game.type_space
    misreport = {
        (i, t, r): Fraction(rng.randint(0, 4), rng.choice((1, 2, 3, 5)))
        for i, types in enumerate(ts.types_of) for t in types for r in types if r != t
    }
    priced = BayesianGame(
        game.mechanism, ts, game.utilities, CostModel(game.costs.strategic, misreport)
    )
    outcomes = [Outcome(x) for x in sorted({x for _, x, _ in game.utilities.table})]
    table = {theta: rng.choice(outcomes) for theta in ts.profiles()}
    return priced, SocialChoiceFunction(ts.types_of, table)


# The tables of a generic config that hold one object per row.
ROW_TABLES = (
    "outcomes", "outcome_function", "rule", "utilities", "strategic_costs", "misreport_costs"
)


def _literal(value: Fraction):
    """A rational as a config writes it: an int as a JSON number, else "p/q"."""
    return value.numerator if value.denominator == 1 else str(value)


def generic_config(game, rule, plan=None, rng=None) -> dict:
    """The generic config of a game and a rule over its types, declaring the
    profile of `plan` (action positions per agent, in type order) when one
    is given. With `rng`, each table's rows are shuffled."""
    ts, mech, costs = game.type_space, game.mechanism, game.costs
    outcomes = sorted({x for _, x, _ in game.utilities.table})
    cfg = {
        "kind": "generic",
        "types": [list(types) for types in ts.types_of],
        "priors": [{t: str(p) for t, p in prior.items()} for prior in ts.prior_of],
        "actions": [list(actions) for actions in mech.actions_of],
        "outcomes": [{"label": x} for x in outcomes],
        "outcome_function": [
            {"actions": list(p), "outcome": x.label} for p, x in mech.outcome_of.items()
        ],
        "rule": [{"types": list(p), "outcome": x.label} for p, x in rule.outcome_of.items()],
        "utilities": [
            {"agent": i, "outcome": x, "type": t, "value": _literal(v)}
            for (i, x, t), v in game.utilities.table.items()
        ],
        "strategic_costs": [
            {"agent": i, "action": a, "type": t, "cost": _literal(v)}
            for (i, a, t), v in costs.strategic.items()
        ],
        "misreport_costs": [
            {"agent": i, "true_type": t, "reported_type": r, "cost": _literal(v)}
            for (i, t, r), v in costs.misreport.items()
        ],
    }
    if plan is not None:
        cfg["profile"] = [
            {t: actions[k] for t, k in zip(types, own)}
            for types, actions, own in zip(ts.types_of, mech.actions_of, plan)
        ]
    for table in ROW_TABLES if rng else ():
        rng.shuffle(cfg[table])
    return cfg
