"""Reference equilibrium engine: the direct Fraction loop over label tables.

This is the obviously correct engine that the compiled tables of
`revaudit.equilibrium` are checked against, written apart from it. A game
is a `Tables` record of label-level dicts: each agent's types, prior and
actions, the outcome label of each action profile, the utility of each
(agent, outcome label, type), and the strategic and misreport costs, 0
where absent. The tables are the dicts the generators below draw, a generic
config's rows (`from_config`), or tables written by hand (`labor_game`,
from the paper's hiring rule). Each agent's opponent type profiles are
enumerated with `itertools.product` and weighted by the product of their
marginals, once per game (`Tables.opponents`). Every payoff is looked up by
label in the tables, and every pure profile is scanned; ex-post payoffs,
pure Nash profiles, dominant actions of normal-form games and the rule a
profile plays out are found the same way, by brute force. The engine's
`BayesianGame` is built from the tables with the checking constructors
(`Tables.game`) only for a test to compare results: the oracle reads
nothing of it. It is slow and is used only by the tests, together with
generators of random games and a writer of a game as a generic config.
"""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

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
    DominantAction,
    EquilibriumVerdict,
    StrategyProfile,
)


@dataclasses.dataclass(frozen=True)
class Tables:
    """A finite Bayesian game as label-level tables. `outcome` maps each
    action profile of labels to an outcome label; `utility` is keyed by
    (agent, outcome label, type), `strategic` by (agent, action, type) and
    `misreport` by (agent, true type, reported type). `payload` holds the
    payload of each outcome that has one."""

    types_of: tuple[tuple[str, ...], ...]
    prior_of: tuple[dict[str, Fraction], ...]
    actions_of: tuple[tuple[str, ...], ...]
    outcome: dict[tuple[str, ...], str]
    utility: dict[tuple[int, str, str], Fraction]
    strategic: dict[tuple[int, str, str], Fraction] = dataclasses.field(default_factory=dict)
    misreport: dict[tuple[int, str, str], Fraction] = dataclasses.field(default_factory=dict)
    payload: dict[str, tuple[Fraction, ...]] = dataclasses.field(default_factory=dict)

    @property
    def agent_count(self) -> int:
        return len(self.types_of)

    @functools.cached_property
    def opponents(self) -> list[list[tuple[tuple[str, ...], Fraction]]]:
        """For each agent, every type profile of the others, in agent order
        and lexicographic, with its weight: the product of their marginals,
        which the agent's own type does not enter."""
        out = []
        for agent in range(self.agent_count):
            priors = self.prior_of[:agent] + self.prior_of[agent + 1 :]
            types = self.types_of[:agent] + self.types_of[agent + 1 :]
            out.append([
                (opp, math.prod(prior[t] for prior, t in zip(priors, opp)))
                for opp in itertools.product(*types)
            ])
        return out

    @functools.cached_property
    def game(self) -> BayesianGame:
        """The engine's game of these tables, built with the checking constructors."""
        outcomes = {x: Outcome(x, self.payload.get(x, ())) for x in self.outcome.values()}
        return BayesianGame(
            Mechanism(self.actions_of, {p: outcomes[x] for p, x in self.outcome.items()}),
            TypeSpace(self.types_of, self.prior_of),
            UtilityTable(self.utility),
            CostModel(self.strategic, self.misreport),
        )


def cost_free(g):
    """The same tables with every cost erased: its profits are its
    utilities, the classical (utility-based) view of the game."""
    return dataclasses.replace(g, strategic={}, misreport={})


def direct(g, rule):
    """The tables of the direct game of `rule` (an outcome label per type
    profile): reports are types, and a report costs what the misreport
    schedule charges for it, strategic[(agent, report, true type)] =
    misreport[(agent, true type, report)]."""
    prices = {(i, reported, true): v for (i, true, reported), v in g.misreport.items()}
    return Tables(g.types_of, g.prior_of, g.types_of, dict(rule), g.utility, prices, {}, g.payload)


def profiles(g):
    """Every pure profile, agent 0 outermost; each agent's strategies run
    lexicographically over (type order, action order)."""
    per_agent = [
        [dict(zip(types, combo)) for combo in itertools.product(actions, repeat=len(types))]
        for types, actions in zip(g.types_of, g.actions_of)
    ]
    return [StrategyProfile.from_maps(maps) for maps in itertools.product(*per_agent)]


def strategy_maps(g, profile):
    """A profile's strategies as one {type: action} map per agent, each
    covering the agent's types with its actions."""
    maps = [dict(s.choice) for s in profile.strategies]
    if len(maps) != g.agent_count:
        raise ValueError(f"profile has {len(maps)} strategies, game has {g.agent_count} agents")
    for i, (m, types, actions) in enumerate(zip(maps, g.types_of, g.actions_of)):
        if m.keys() != set(types):
            problem = f"strategy covers types {sorted(m)}, expected {sorted(types)}"
            raise ValueError(f"agent {i}: {problem}")
        for a in m.values():
            if a not in actions:
                raise ValueError(f"agent {i}: strategy plays unknown action {a!r}")
    return maps


def _interim(g, maps, agent, type_label, action):
    total = Fraction(0)
    others = maps[:agent] + maps[agent + 1 :]
    for opp, w in g.opponents[agent]:
        acts = [m[t] for m, t in zip(others, opp)]
        acts.insert(agent, action)
        total += w * g.utility[agent, g.outcome[tuple(acts)], type_label]
    # The weights sum to one, so the constant cost comes off once.
    return total - g.strategic.get((agent, action, type_label), 0)


def interim(g, profile, agent, type_label, action):
    """Expected profit for agent of playing `action` at `type_label`, opponents
    following `profile`: the utility weighted by the opponents' type
    weights, minus the strategic cost of `action`."""
    return _interim(g, strategy_maps(g, profile), agent, type_label, action)


def is_bayesian_nash(g, profile):
    """Scan every per-type single-action deviation. The witness is the
    largest gain; ties go to the smallest (agent, type position, action
    position), which is the scan order."""
    maps = strategy_maps(g, profile)
    best = None
    for agent, types in enumerate(g.types_of):
        for t in types:
            played = maps[agent][t]
            current = _interim(g, maps, agent, t, played)
            for a in g.actions_of[agent]:
                if a == played:
                    continue
                gain = _interim(g, maps, agent, t, a) - current
                if gain > 0 and (best is None or gain > best.gain):
                    best = Deviation(agent, t, a, gain)
    return EquilibriumVerdict(best)


def find_all_pure_bne(g):
    """Every pure equilibrium, by checking each enumerated profile in turn."""
    return [p for p in profiles(g) if is_bayesian_nash(g, p).is_equilibrium]


def induced(g, profile):
    """The rule a profile plays out: at each type profile, in product order,
    the label of the outcome the actions its strategies take there reach."""
    maps = strategy_maps(g, profile)
    return {
        theta: g.outcome[tuple(m[t] for m, t in zip(maps, theta))]
        for theta in itertools.product(*g.types_of)
    }


def rule_scf(g, rule):
    """The engine's rule of an outcome label per type profile, its outcomes
    carrying the tables' payloads."""
    return SocialChoiceFunction(
        g.types_of, {theta: Outcome(x, g.payload.get(x, ())) for theta, x in rule.items()}
    )


def induced_scf(g, profile):
    """The engine's rule of the rule a profile plays out (`induced`)."""
    return rule_scf(g, induced(g, profile))


def expost_payoffs(g, true_types):
    """Each action profile's profits at a realized type profile, looked up by
    label: the utility of its outcome minus the strategic cost of the action
    played, which is 0 where the cost table has no entry."""
    return {
        acts: tuple(
            g.utility[i, g.outcome[acts], t] - g.strategic.get((i, a, t), 0)
            for i, (a, t) in enumerate(zip(acts, true_types))
        )
        for acts in itertools.product(*g.actions_of)
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


# The labor market of the paper, written from its text: two workers of a
# low or a high type bid zero or the high education level, the higher bid
# is hired, and a tie splits the job. The hiring rule hires the higher type
# the same way. Each outcome pays each worker a share of the wage.
LABOR_TYPES = ("theta_L", "theta_H")
LABOR_BIDS = ("0", "e_H")
LABOR_SHARES = {
    "hire_1": (Fraction(1), Fraction(0)),
    "split": (Fraction(1, 2), Fraction(1, 2)),
    "hire_2": (Fraction(0), Fraction(1)),
}


def hire_higher(low, high):
    """The outcome label at each pair of labels ranked low < high: the
    worker with the higher one is hired, and a tie splits."""
    rank = {low: 0, high: 1}
    return {
        (a, b): "split" if a == b else "hire_1" if rank[a] > rank[b] else "hire_2"
        for a in (low, high) for b in (low, high)
    }


HIRING = hire_higher(*LABOR_TYPES)


def labor_game(params):
    """The bid game of a labor market, from the fields of its parameters:
    a worker's utility of an outcome is its share of the wage at either
    type, the high bid costs e_H / theta, and a low type reporting high
    pays c_mis while a high type reports low for free."""
    low, high = LABOR_TYPES
    prior = {low: 1 - params.prior_high, high: params.prior_high}
    theta = {low: params.theta_L, high: params.theta_H}
    workers = (0, 1)
    return Tables(
        (LABOR_TYPES, LABOR_TYPES),
        (prior, prior),
        (LABOR_BIDS, LABOR_BIDS),
        hire_higher(*LABOR_BIDS),
        {
            (i, x, t): params.w * shares[i]
            for x, shares in LABOR_SHARES.items() for i in workers for t in LABOR_TYPES
        },
        {(i, "e_H", t): params.e_H / theta[t] for i in workers for t in LABOR_TYPES},
        {
            (i, t, r): params.c_mis if t == low else Fraction(0)
            for i in workers for t, r in ((low, high), (high, low))
        },
        LABOR_SHARES,
    )


def random_shape(rng, agents, max_profiles):
    """Type and action counts per agent with at most `max_profiles` pure
    profiles: 1..3 actions, and 1..6 types for a single agent, 1..3 otherwise."""
    while True:
        types = tuple(rng.randint(1, 6 if agents == 1 else 3) for _ in range(agents))
        actions = tuple(rng.randint(1, 3) for _ in range(agents))
        if math.prod(a**t for a, t in zip(actions, types)) <= max_profiles:
            return types, actions


def random_costly_game(rng, types, actions, outcomes=None):
    """Random tables with the given type and action counts per agent:
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
    labels = [f"x{k}" for k in range(outcomes or rng.randint(2, 4))]
    outcome = {p: rng.choice(labels) for p in itertools.product(*actions_of)}

    def value(low):
        return Fraction(rng.randint(low, 4), rng.choice((1, 2, 3, 5)))

    utility = {(i, x, t): value(-4) for i in range(agents) for x in labels for t in types_of[i]}
    strategic = {
        (i, a, t): value(0)
        for i in range(agents) for a in actions_of[i] for t in types_of[i] if rng.random() < 0.7
    }
    return Tables(types_of, tuple(priors), actions_of, outcome, utility, strategic)


def random_zero_cost_game(rng):
    """The tables of `auditor.random_zero_cost_game`, drawn part by part
    with `randint`: two agents with 1..2 types and 1..3 actions, 1..4
    outcomes, utilities in twelfths, a uniform or random full-support
    prior, and no costs."""
    types_of = tuple(tuple(f"t{k}" for k in range(rng.randint(1, 2))) for _ in range(2))
    priors = []
    for ts in types_of:
        if rng.random() < 1 / 2 or len(ts) == 1:
            priors.append({t: Fraction(1, len(ts)) for t in ts})
        else:
            weights = [rng.randint(1, 6) for _ in ts]
            priors.append({t: Fraction(w, sum(weights)) for t, w in zip(ts, weights)})
    actions_of = tuple(tuple(f"a{k}" for k in range(rng.randint(1, 3))) for _ in range(2))
    labels = [f"x{k}" for k in range(rng.randint(1, 4))]
    outcome = {p: rng.choice(labels) for p in itertools.product(*actions_of)}
    utility = {
        (i, x, t): Fraction(rng.randint(0, 12), 12)
        for i in range(2) for x in labels for t in types_of[i]
    }
    return Tables(types_of, tuple(priors), actions_of, outcome, utility)


def random_priced_game(rng, agents, max_profiles=729):
    """Random costly tables of a random shape, priced with a random
    misreport schedule (every misreport priced), and a random rule over its
    outcomes: the tables and the rule."""
    g = random_costly_game(rng, *random_shape(rng, agents, max_profiles))
    misreport = {
        (i, t, r): Fraction(rng.randint(0, 4), rng.choice((1, 2, 3, 5)))
        for i, types in enumerate(g.types_of) for t in types for r in types if r != t
    }
    labels = sorted({x for _, x, _ in g.utility})
    rule = {theta: rng.choice(labels) for theta in itertools.product(*g.types_of)}
    return dataclasses.replace(g, misreport=misreport), rule


# The tables of a generic config that hold one object per row.
ROW_TABLES = (
    "outcomes", "outcome_function", "rule", "utilities", "strategic_costs", "misreport_costs"
)


def _literal(value: Fraction):
    """A rational as a config writes it: an int as a JSON number, else "p/q"."""
    return value.numerator if value.denominator == 1 else str(value)


def generic_config(g, rule, plan=None, rng=None) -> dict:
    """The generic config of tables and a rule over their types, declaring
    the profile of `plan` (action positions per agent, in type order) when
    one is given. With `rng`, each table's rows are shuffled."""
    cfg = {
        "kind": "generic",
        "types": [list(types) for types in g.types_of],
        "priors": [{t: str(p) for t, p in prior.items()} for prior in g.prior_of],
        "actions": [list(actions) for actions in g.actions_of],
        "outcomes": [{"label": x} for x in sorted({x for _, x, _ in g.utility})],
        "outcome_function": [{"actions": list(p), "outcome": x} for p, x in g.outcome.items()],
        "rule": [{"types": list(theta), "outcome": x} for theta, x in rule.items()],
        "utilities": [
            {"agent": i, "outcome": x, "type": t, "value": _literal(v)}
            for (i, x, t), v in g.utility.items()
        ],
        "strategic_costs": [
            {"agent": i, "action": a, "type": t, "cost": _literal(v)}
            for (i, a, t), v in g.strategic.items()
        ],
        "misreport_costs": [
            {"agent": i, "true_type": t, "reported_type": r, "cost": _literal(v)}
            for (i, t, r), v in g.misreport.items()
        ],
    }
    if plan is not None:
        cfg["profile"] = [
            {t: actions[k] for t, k in zip(types, own)}
            for types, actions, own in zip(g.types_of, g.actions_of, plan)
        ]
    for table in ROW_TABLES if rng else ():
        rng.shuffle(cfg[table])
    return cfg


def from_config(cfg):
    """The tables and the rule of a generic config, read from its rows: the
    priors are uniform where the config declares none, and a number is an
    int or a "p/q" string."""
    types_of = tuple(map(tuple, cfg["types"]))
    priors = cfg.get("priors") or [{t: Fraction(1, len(ts)) for t in ts} for ts in types_of]
    g = Tables(
        types_of,
        tuple({t: Fraction(p) for t, p in prior.items()} for prior in priors),
        tuple(map(tuple, cfg["actions"])),
        {tuple(row["actions"]): row["outcome"] for row in cfg["outcome_function"]},
        {(r["agent"], r["outcome"], r["type"]): Fraction(r["value"]) for r in cfg["utilities"]},
        {(r["agent"], r["action"], r["type"]): Fraction(r["cost"])
         for r in cfg.get("strategic_costs", ())},
        {(r["agent"], r["true_type"], r["reported_type"]): Fraction(r["cost"])
         for r in cfg.get("misreport_costs", ())},
        {r["label"]: tuple(map(Fraction, r["payload"])) for r in cfg["outcomes"] if "payload" in r},
    )
    return g, {tuple(row["types"]): row["outcome"] for row in cfg["rule"]}
