"""Exact equilibrium engine for finite Bayesian games.

Each game is compiled once, on first use, into integer tables over type and
action positions: prior weights scaled by the LCM of each agent's prior
denominators, utilities and strategic costs scaled by one LCM, and the
outcome of every action profile. Equilibrium conditions are then weak
inequalities between Python ints, and a reported payoff or gain is the exact
Fraction of an int over the agent's scale; no tolerance enters anywhere.
The one payoff is profit: outcome utility minus the strategic cost of the
action actually played. The classical utility view is the profit of the same
game built with `CostModel()`. With independent priors, per-type
single-action deviations are sufficient. The equilibrium search enumerates
the strategies of every agent but the last, takes the last agent's per-type
best replies to them, and checks only those profiles against the other
agents' deviations.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import (
    ConstructionError,
    CostModel,
    DomainError,
    Mechanism,
    SearchSpaceError,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    _check_label,
    _is_label,
    check_agent_count,
    profit,
)

DEFAULT_PROFILE_CAP = 10**6


@dataclass(frozen=True)
class PureStrategy:
    """One agent's complete contingent plan: a type label to action label map.

    The choice tuple is stored sorted by type label so equal plans compare
    equal regardless of construction order.
    """

    agent: int
    choice: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.agent, int) or isinstance(self.agent, bool) or self.agent < 0:
            raise ConstructionError(f"agent index must be a non-negative int, got {self.agent!r}")
        pairs = [(t, a) for t, a in self.choice]
        for label in itertools.chain.from_iterable(pairs):
            if not _is_label(label):  # the location is formatted on a fault only
                _check_label(label, (f"agent {self.agent} strategy",))
        choice = tuple(sorted(pairs))
        if not choice:
            raise ConstructionError("a pure strategy must cover at least one type")
        types = [t for t, _ in choice]
        if len(set(types)) != len(types):
            raise ConstructionError(f"duplicate type labels in strategy choice {choice}")
        object.__setattr__(self, "choice", choice)

    def action(self, type_label: str) -> str:
        for t, a in self.choice:
            if t == type_label:
                return a
        raise DomainError(f"strategy for agent {self.agent} covers no type {type_label!r}")


@dataclass(frozen=True)
class StrategyProfile:
    """One pure strategy per agent, in agent order."""

    strategies: tuple[PureStrategy, ...]

    def __post_init__(self) -> None:
        strategies = tuple(self.strategies)
        agents = tuple(s.agent for s in strategies)
        if agents != tuple(range(len(strategies))):
            raise ConstructionError(f"strategies must cover agents 0..n-1 in order, got {agents}")
        object.__setattr__(self, "strategies", strategies)

    @classmethod
    def from_maps(cls, maps) -> "StrategyProfile":
        """Build a profile from one {type: action} mapping per agent."""
        return cls(tuple(PureStrategy(i, tuple(m.items())) for i, m in enumerate(maps)))

    @property
    def agent_count(self) -> int:
        return len(self.strategies)

    def action_profile(self, type_profile) -> tuple[str, ...]:
        """Actions the profile plays at a realized type profile."""
        type_profile = tuple(type_profile)
        if len(type_profile) != len(self.strategies):
            raise DomainError(f"type profile {type_profile} has wrong arity")
        return tuple(s.action(t) for s, t in zip(self.strategies, type_profile))


@dataclass(frozen=True)
class Deviation:
    """A profitable unilateral deviation: who, at which type, to what, worth how much."""

    agent: int
    type_label: str
    action: str
    gain: Fraction


@dataclass(frozen=True)
class EquilibriumVerdict:
    """Outcome of an equilibrium check; witness is the maximal-gap deviation,
    None when no deviation gains."""

    witness: Deviation | None

    @property
    def is_equilibrium(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class BayesianGame:
    """A mechanism wired to a type space, utilities, and costs.

    Construction checks that the pieces fit: matching agent counts, utilities
    total over every (agent, reachable outcome, type), and cost entries only
    referencing declared agents, actions, and types.
    """

    mechanism: Mechanism
    type_space: TypeSpace
    utilities: UtilityTable
    costs: CostModel

    def __post_init__(self) -> None:
        check_agent_count(self.mechanism.actions_of, self.type_space.types_of)
        self.utilities.check_covers(
            [x.label for x in self.mechanism.outcomes()], self.type_space.types_of
        )
        self.costs.validate_against(self.mechanism, self.type_space)

    @property
    def agent_count(self) -> int:
        return self.type_space.agent_count

    @cached_property
    def _tables(self) -> "_Tables":
        # Compiled on first use and dropped with the game.
        return _compile(self)


@dataclass(frozen=True)
class _Tables:
    """A game as exact integer tables over type and action positions.

    Prior weights of agent j are scaled by the LCM of j's prior denominators,
    and utilities and strategic costs by one LCM of their denominators. An
    interim payoff of agent i is then an int over `scale[i]`, and payoffs of
    one agent compare as ints with the same weak inequalities.
    """

    # A flat action profile is sum(strides[j] * action position of j),
    # agent 0 outermost, as in itertools.product.
    strides: list[int]
    # Outcome position (in Mechanism.outcomes() order) per flat action profile.
    outcome: list[int]
    # utility[i][t][x]: scaled utility of agent i at type t for outcome x.
    utility: list[list[list[int]]]
    # cost[i][t][a]: scaled strategic cost, already on agent i's scale.
    cost: list[list[list[int]]]
    # weights[i]: the scaled prior weight of each type profile of the other
    # agents, in itertools.product order over their type positions; they
    # sum to scale[i] over the unit of utilities and costs.
    weights: list[list[int]]
    scale: list[int]


def _scaled(value: Fraction, unit: int) -> int:
    return value.numerator * (unit // value.denominator)


def _compile(game: BayesianGame) -> _Tables:
    mech, ts = game.mechanism, game.type_space
    agents = range(ts.agent_count)
    position: dict[str, int] = {}
    outcome = [
        position.setdefault(mech.outcome_of[p].label, len(position))
        for p in itertools.product(*mech.actions_of)
    ]
    unit = math.lcm(
        *[v.denominator for v in game.utilities.table.values()],
        *[v.denominator for v in game.costs.strategic.values()],
    )
    prior_units = [math.lcm(*[p.denominator for p in prior.values()]) for prior in ts.prior_of]
    priors = [[_scaled(ts.prior_of[i][t], prior_units[i]) for t in ts.types_of[i]] for i in agents]
    # Each agent's scaled priors sum to its prior unit, so the weights of
    # the others' type profiles sum to the product of their units.
    weights = [
        [math.prod(w) for w in itertools.product(*[priors[j] for j in agents if j != i])]
        for i in agents
    ]
    totals = [sum(w) for w in weights]
    utility, cost = game.utilities.utility, game.costs.strategic_cost
    return _Tables(
        strides=[math.prod([len(acts) for acts in mech.actions_of[i + 1 :]]) for i in agents],
        outcome=outcome,
        utility=[
            [[_scaled(utility(i, x, t), unit) for x in position] for t in ts.types_of[i]]
            for i in agents
        ],
        cost=[
            [
                [_scaled(cost(i, a, t), unit) * totals[i] for a in mech.actions_of[i]]
                for t in ts.types_of[i]
            ]
            for i in agents
        ],
        weights=weights,
        scale=[unit * total for total in totals],
    )


def _plan(game: BayesianGame, profile: StrategyProfile) -> list[list[int]]:
    """Check that a profile fits the game; return it as action positions,
    one list per agent in the agent's type order."""
    if profile.agent_count != game.agent_count:
        raise DomainError(
            f"profile has {profile.agent_count} strategies, game has {game.agent_count} agents"
        )
    plan = []
    for i, strategy in enumerate(profile.strategies):
        choice = dict(strategy.choice)
        declared = game.type_space.types_of[i]
        if choice.keys() != set(declared):
            raise DomainError(
                f"agent {i}: strategy covers types {sorted(choice)}, expected {sorted(declared)}"
            )
        actions = game.mechanism.actions_of[i]
        for a in choice.values():
            if a not in actions:
                raise DomainError(f"agent {i}: strategy plays unknown action {a!r}")
        plan.append([actions.index(choice[t]) for t in declared])
    return plan


def _interim_rows(game: BayesianGame, plan, agent: int) -> list[list[int]]:
    """Interim profit of every action of `agent` at each of its types, as ints
    on the agent's scale, with the others following `plan` (the agent's own
    entry is not read). Independence of the prior makes the opponents' type
    weights the same at every own type."""
    tables = game._tables
    strides, outcome, weights = tables.strides, tables.outcome, tables.weights[agent]
    # Flat action-profile offset of the others' actions at each of their
    # type profiles, in the order of `weights`.
    bases = [
        sum(offsets)
        for offsets in itertools.product(
            *[[strides[j] * a for a in plan[j]] for j in range(game.agent_count) if j != agent]
        )
    ]
    step = strides[agent]
    cells = [
        [outcome[b + a * step] for b in bases] for a in range(len(game.mechanism.actions_of[agent]))
    ]
    return [
        [sum(w * u[x] for w, x in zip(weights, xs)) - c for xs, c in zip(cells, costs)]
        for u, costs in zip(tables.utility[agent], tables.cost[agent])
    ]


def _exact(game: BayesianGame, agent: int, value: int) -> Fraction:
    """An interim payoff or gain of `agent` from `_interim_rows` as a Fraction."""
    return Fraction(value, game._tables.scale[agent])


def _best_replies(rows: list[list[int]]) -> list[list[int]]:
    """Per type, the positions of the actions with the largest payoff."""
    return [[a for a, v in enumerate(row) if v == top] for row, top in zip(rows, map(max, rows))]


def _at_best_response(rows: list[list[int]], own: Sequence[int]) -> bool:
    """Does the agent's own plan play a largest-payoff action at every type?"""
    return all(row[a] == max(row) for row, a in zip(rows, own))


def _largest_gain(game: BayesianGame, plan, rows_of) -> Deviation | None:
    """The deviation from `plan` with the largest gain, or None when no
    deviation gains. `rows_of[i]` holds agent i's payoff of every action at
    each of its types, as ints on the agent's scale (as `_interim_rows` gives
    them). Ties go to the smallest (agent index, type position, action
    position)."""
    types_of, actions_of = game.type_space.types_of, game.mechanism.actions_of
    best: Deviation | None = None
    for agent, rows in enumerate(rows_of):
        # Gains of one agent share a scale, so they compare as ints. Scan
        # order is (type order, action order), so a strict improvement is
        # the tie-break.
        top, where = 0, None
        for t, row in enumerate(rows):
            current = row[plan[agent][t]]
            for a, value in enumerate(row):
                if value - current > top:
                    top, where = value - current, (t, a)
        if where is not None:
            gain = _exact(game, agent, top)
            if best is None or gain > best.gain:
                t, a = where
                best = Deviation(agent, types_of[agent][t], actions_of[agent][a], gain)
    return best


def _verdict(game: BayesianGame, plan) -> EquilibriumVerdict:
    """The equilibrium verdict of a plan (action positions per agent, in type
    order), witnessed by its largest deviation gain."""
    rows_of = [_interim_rows(game, plan, i) for i in range(game.agent_count)]
    return EquilibriumVerdict(_largest_gain(game, plan, rows_of))


def is_bayesian_nash(game: BayesianGame, profile: StrategyProfile) -> EquilibriumVerdict:
    """Check the weak-inequality equilibrium conditions on every deviation.

    Independence of the prior makes per-type single-action deviations
    sufficient. On failure the witness is the deviation with the largest gain;
    ties go to the smallest (agent index, type position, action position).
    """
    return _verdict(game, _plan(game, profile))


def _check_profile_cap(game: BayesianGame, cap: int) -> None:
    total = 1
    for types, actions in zip(game.type_space.types_of, game.mechanism.actions_of):
        total *= len(actions) ** len(types)
        if total > cap:
            raise SearchSpaceError(f"{total}+ strategy profiles exceed the cap of {cap}")


def find_all_pure_bne(game: BayesianGame, cap: int = DEFAULT_PROFILE_CAP) -> list[StrategyProfile]:
    """Every pure-strategy equilibrium, in enumeration order.

    Only the strategies of agents 0..n-2 are enumerated. The last agent's
    payoffs do not depend on its own plan, so its plans that pass its own
    deviation checks are exactly the product of its per-type best-reply
    sets; only those are checked against the earlier agents' deviations.
    Exact; the returned list is bit-identical across runs.
    """
    _check_profile_cap(game, cap)
    types_of, actions_of = game.type_space.types_of, game.mechanism.actions_of
    *head, last = range(game.agent_count)

    def strategy(agent: int, plan) -> PureStrategy:
        actions = [actions_of[agent][a] for a in plan]
        return PureStrategy(agent, tuple(zip(types_of[agent], actions)))

    # Each agent's plans are lexicographic over (type order, action order),
    # agent 0 outermost; strategies are built only for the equilibria found.
    plans = [itertools.product(range(len(actions_of[i])), repeat=len(types_of[i])) for i in head]
    found = []
    for choice in itertools.product(*plans):
        plan = [*choice, None]
        for reply in itertools.product(*_best_replies(_interim_rows(game, plan, last))):
            plan[last] = reply
            if all(_at_best_response(_interim_rows(game, plan, i), plan[i]) for i in head):
                found.append(StrategyProfile(tuple(strategy(i, p) for i, p in enumerate(plan))))
    return found


def implements_scf(
    game: BayesianGame, profile: StrategyProfile, scf: SocialChoiceFunction
) -> bool:
    """Does playing the profile reproduce the social choice function at every
    type profile of the game? A type profile the rule lacks is a DomainError."""
    return _implements(game, _plan(game, profile), scf)


def _implements(game: BayesianGame, plan, scf: SocialChoiceFunction) -> bool:
    """`implements_scf` for a plan (action positions per agent, in type
    order), over the type profiles in `type_space.profiles()` order."""
    outcome = game.mechanism.outcome_of
    moves = [
        [(t, actions[a]) for t, a in zip(types, own)]
        for types, actions, own in zip(game.type_space.types_of, game.mechanism.actions_of, plan)
    ]
    return all(
        outcome[acts] == scf.outcome(theta)
        for theta, acts in (zip(*cell) for cell in itertools.product(*moves))
    )


@dataclass(frozen=True)
class NormalFormGame:
    """A complete-information payoff table over action profiles."""

    actions_of: tuple[tuple[str, ...], ...]
    payoffs: dict[tuple[str, ...], tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        actions_of = tuple(tuple(a) for a in self.actions_of)
        if not actions_of or any(not acts for acts in actions_of):
            raise ConstructionError("normal form needs a non-empty action set per agent")
        n = len(actions_of)
        payoffs = {}
        for key, vals in dict(self.payoffs).items():
            key = tuple(key)
            vals = tuple(Fraction(v) for v in vals)
            if len(vals) != n:
                raise ConstructionError(f"payoff vector at {key} has arity {len(vals)}, want {n}")
            payoffs[key] = vals
        expected = set(itertools.product(*actions_of))
        if set(payoffs) != expected:
            raise ConstructionError("payoff table does not cover exactly the action profiles")
        object.__setattr__(self, "actions_of", actions_of)
        object.__setattr__(self, "payoffs", payoffs)

    @property
    def agent_count(self) -> int:
        return len(self.actions_of)

    def payoff(self, action_profile) -> tuple[Fraction, ...]:
        key = tuple(action_profile)
        if key not in self.payoffs:
            raise DomainError(f"unknown action profile {key}")
        return self.payoffs[key]


@dataclass(frozen=True)
class DominantAction:
    """A dominant action and how strongly it dominates ("strict" or "weak")."""

    action: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("strict", "weak"):
            raise ConstructionError(f"kind must be 'strict' or 'weak', got {self.kind!r}")


def expost_normal_form(game: BayesianGame, true_types) -> NormalFormGame:
    """The complete-information profit game at a fixed realized type profile.

    In a direct game the strategic cost of a report is its misreporting cost,
    so its profits there are the direct game's report payoffs.
    """
    true_types = game.type_space.validate_profile(true_types)
    payoffs = {}
    for acts in game.mechanism.action_profiles():
        x = game.mechanism.outcome(acts)
        payoffs[acts] = tuple(
            profit(i, x, acts[i], t, game.utilities, game.costs) for i, t in enumerate(true_types)
        )
    return NormalFormGame(game.mechanism.actions_of, payoffs)


def _opponent_action_profiles(nf: NormalFormGame, agent: int):
    rest = [acts for j, acts in enumerate(nf.actions_of) if j != agent]
    return tuple(itertools.product(*rest))


def _embed(agent: int, own: str, rest: tuple[str, ...]) -> tuple[str, ...]:
    return rest[:agent] + (own,) + rest[agent:]


def find_pure_nash(nf: NormalFormGame) -> list[tuple[str, ...]]:
    """All pure Nash profiles of a normal-form game (weak inequalities)."""
    out = []
    for profile in itertools.product(*nf.actions_of):
        stable = True
        for i, acts in enumerate(nf.actions_of):
            rest = profile[:i] + profile[i + 1 :]
            current = nf.payoff(profile)[i]
            for a in acts:
                if a != profile[i] and nf.payoff(_embed(i, a, rest))[i] > current:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            out.append(profile)
    return out


def dominant_strategies(nf: NormalFormGame, agent: int) -> DominantAction | None:
    """The agent's dominant action in a normal-form game, if any.

    Weak dominance here means best response against every opponent profile,
    with no strictness requirement, so ties qualify. Strict dominance is
    reported when the action beats every alternative everywhere. First action
    in declared order wins ties among weakly dominant actions.
    """
    if not 0 <= agent < nf.agent_count:
        raise DomainError(f"unknown agent index {agent!r}")
    rests = _opponent_action_profiles(nf, agent)
    weak_winner = None
    for a in nf.actions_of[agent]:
        strict = True
        weak = True
        for rest in rests:
            va = nf.payoff(_embed(agent, a, rest))[agent]
            for b in nf.actions_of[agent]:
                if b == a:
                    continue
                vb = nf.payoff(_embed(agent, b, rest))[agent]
                if va < vb:
                    weak = False
                    strict = False
                    break
                if va <= vb:
                    strict = False
            if not weak:
                break
        if weak and strict:
            return DominantAction(a, "strict")
        if weak and weak_winner is None:
            weak_winner = DominantAction(a, "weak")
    return weak_winner
