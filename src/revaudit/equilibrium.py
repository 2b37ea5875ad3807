"""Exact equilibrium engine for finite Bayesian games.

Each part of a game is compiled once, on first use, on the object that owns
it, into integer tables over type and action positions. A mechanism's
outcome table was read once, when it was built, into positions
(`Mechanism.walk`): the outcome of every action profile. A type space
scales its prior once (`TypeSpace.weights`): each agent's prior times the
LCM of its denominators, shared by a game and its direct game. A utility
table scales its entries once (`UtilityTable.scaled`), to ints on the LCM
of its denominators, also shared by a game and its direct game. A game
brings those ints and its strategic costs to one LCM (`_Tables`) with one
int factor per utility, placing each cost by the label positions its type
space and mechanism keep (`positions`), which only a game with strategic
costs reads. An interim row sums, for each own action,
the opponents' prior weight on each outcome that action reaches, then takes
one sum over those outcomes per own type. Equilibrium conditions are weak
inequalities between Python ints, and a reported payoff or gain is the exact
Fraction of an int over the agent's scale; no tolerance enters anywhere.
The one payoff is profit: outcome utility minus the strategic cost of the
action actually played, read from these tables alone, by the interim rows
and by the ex-post slices alike. A slice (`_expost_slice`) is one agent's
profit at one own type at every action profile, as ints on its scale. The
Nash and dominance scans (`_best_replies`, `_nash`, `_dominant`) compare
such ints, and an ex-post game is a `NormalFormGame` record of the same
slices as Fractions, built by `labor.case_matrices`. The classical
utility view is the profit of the same game built with `CostModel()`. With
independent priors, per-type single-action deviations are sufficient. The
equilibrium search works on plans, tuples of action positions: it
enumerates the plans of every agent but the one with the most plans, takes
that agent's per-type best replies, and checks them against the others'
deviations on rows computed once per search. Labelled strategies are built
only for the equilibria it returns.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

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
    _checked,
    _is_label,
    cached_property,
    check_agent_count,
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
        self.utilities.check_covers(self.mechanism.walk.labels, self.type_space.types_of)
        self.costs.validate_against(self.mechanism, self.type_space)

    @property
    def agent_count(self) -> int:
        return self.type_space.agent_count

    @cached_property
    def _tables(self) -> "_Tables":
        # Compiled on first use and dropped with the game.
        return _compile(self)

    @property
    def _truth(self) -> list[range]:
        # Truth-telling in a direct game, whose reports are its types in order.
        return [range(len(types)) for types in self.type_space.types_of]

    @cached_property
    def _truthful_rows(self) -> list[list[list[int]]]:
        # A direct game's rows under truth-telling, shared by every check of its rule.
        return [_interim_rows(self, self._truth, i) for i in range(self.agent_count)]

    @cached_property
    def _truthful_witness(self) -> Deviation | None:
        # A direct game's most profitable misreport, None when truth-telling is an equilibrium.
        return _largest_gain(self, self._truth, self._truthful_rows)


@dataclass(frozen=True)
class _Tables:
    """A game's payoffs as exact integer tables over type and action
    positions; the parts a game shares are compiled on their owners. The
    mechanism holds its outcome table as positions (`Mechanism.walk`), the
    type space scales its prior once (`TypeSpace.weights`) and the utility
    table its entries (`UtilityTable.scaled`), so a game and its direct game
    share both. Here the utilities and strategic costs are brought to one
    unit, the LCM of the table's unit and the costs' denominators: each
    scaled utility is multiplied by one int. An interim payoff of agent i is
    then an int over `scale[i]`, and payoffs of one agent compare as ints
    with the same weak inequalities.
    """

    # utility[i][t][x]: scaled utility of agent i at type t for outcome x,
    # in the order of the mechanism's walk labels.
    utility: list[list[list[int]]]
    # cost[i][t][a]: scaled strategic cost, already on agent i's scale.
    cost: list[list[list[int]]]
    scale: list[int]


def _compile(game: BayesianGame) -> _Tables:
    """The game's `_Tables`, built from checked parts (`_checked`): the
    game's parts were checked when it was built. Each cost is scaled inline
    to its agent's scale, which its denominator divides:
    `v.numerator * (scale[i] // v.denominator)`. Costs are sparse with
    default 0, so only the entries present are filled, each at the positions
    of its type and action: `TypeSpace.positions` and `Mechanism.positions`,
    dicts built on first read and kept with their owners, so a game without
    strategic costs builds neither, a game and its direct game share the
    type positions, and a mechanism shared by many games builds its action
    positions once. The dicts keep a game at the action cap linear, where a
    scan with `.index` per entry would not be."""
    mech, ts = game.mechanism, game.type_space
    labels, total = mech.walk.labels, ts.weights.total
    scaled, strategic = game.utilities.scaled, game.costs.strategic
    unit = math.lcm(scaled.unit, *[v.denominator for v in strategic.values()])
    # Each utility is on the table's unit, which divides the game's.
    factor, table, scale = unit // scaled.unit, scaled.of, [unit * n for n in total]
    utility, cost = [], []
    for i, (types, actions) in enumerate(zip(ts.types_of, mech.actions_of)):
        utility.append([[table[i, x, t] * factor for x in labels] for t in types])
        cost.append([[0] * len(actions) for _ in types])
    for (i, a, t), v in strategic.items():
        cost[i][ts.positions[i][t]][mech.positions[i][a]] = v.numerator * (scale[i] // v.denominator)
    return _checked(_Tables, utility, cost, scale)


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
    entry is not read). Independence of the prior makes the opponents'
    weights the same at every own type, so each own action's prior weight on
    the outcomes it reaches is summed once, and each row entry is a sum over
    those outcomes. The others' action profiles are kept as flat offsets,
    each keyed to its prior weight, and every sum is a plain loop, so a call
    makes no frame but its own."""
    walk, weights = game.mechanism.walk, game.type_space.weights.of
    strides, outcome = walk.strides, walk.outcome
    # Each flat action-profile offset the others play, keyed to the prior
    # weight of their type profiles that play it.
    bases = {0: 1}
    for j, own in enumerate(plan):
        if j != agent:
            step, grown = strides[j], {}
            for b, v in bases.items():
                for a, w in zip(own, weights[j]):
                    flat = b + step * a
                    grown[flat] = grown.get(flat, 0) + v * w
            bases = grown
    step = strides[agent]
    reached = []
    for a in range(len(game.mechanism.actions_of[agent])):
        mass: dict[int, int] = {}
        for b, w in bases.items():
            x = outcome[b + a * step]
            mass[x] = mass.get(x, 0) + w
        reached.append(mass.items())
    tables = game._tables
    rows = []
    for u, costs in zip(tables.utility[agent], tables.cost[agent]):
        row = []
        for mass, c in zip(reached, costs):
            total = -c
            for x, w in mass:
                total += w * u[x]
            row.append(total)
        rows.append(row)
    return rows


def _exact(game: BayesianGame, agent: int, value: int) -> Fraction:
    """An interim payoff or gain of `agent` from `_interim_rows` as a Fraction."""
    return Fraction(value, game._tables.scale[agent])


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


def _check_profile_cap(game: BayesianGame, cap: int) -> None:
    total = 1
    for types, actions in zip(game.type_space.types_of, game.mechanism.actions_of):
        total *= len(actions) ** len(types)
        if total > cap:
            raise SearchSpaceError(f"{total}+ strategy profiles exceed the cap of {cap}")


def _equilibrium_plans(game: BayesianGame, cap: int = DEFAULT_PROFILE_CAP) -> list[tuple]:
    """Every pure equilibrium as a plan (a tuple of action positions per
    agent, in type order), sorted into enumeration order, in a game of at
    most `cap` profiles (`_check_profile_cap`). The pivot, the agent with
    the most plans (|A_i|^|T_i|, ties to the highest index), is not
    enumerated: its payoffs do not depend on its own plan, so its
    equilibrium replies are the product of its per-type best replies to
    each plan of the others. Only those are checked against the others'
    deviations, on rows kept for the search by (agent, the others' plans)."""
    _check_profile_cap(game, cap)
    types_of, actions_of = game.type_space.types_of, game.mechanism.actions_of
    agents = range(game.agent_count)
    pivot = max(agents, key=lambda i: (len(actions_of[i]) ** len(types_of[i]), i))
    others = [i for i in agents if i != pivot]
    plans = [itertools.product(range(len(actions_of[i])), repeat=len(types_of[i])) for i in others]
    found = []
    plan: list = [None] * game.agent_count
    kept_rows: dict[tuple, list[list[int]]] = {}
    for choice in itertools.product(*plans):
        for i, own in zip(others, choice):
            plan[i] = own
        rows = _interim_rows(game, plan, pivot)
        tops = zip(rows, map(max, rows))
        best = [[a for a, v in enumerate(row) if v == top] for row, top in tops]
        for reply in itertools.product(*best):
            plan[pivot] = reply
            for i in others:
                key = (i, *plan[:i], *plan[i + 1 :])
                if key not in kept_rows:
                    kept_rows[key] = _interim_rows(game, plan, i)
                if not _at_best_response(kept_rows[key], plan[i]):
                    break
            else:
                found.append(tuple(plan))
    found.sort()
    return found


def _profile(game: BayesianGame, plan) -> StrategyProfile:
    """The strategy profile of a plan (action positions per agent, in type
    order), built from checked parts (`_checked`): its labels are the game's
    own checked labels, one action per type, and each strategy's pairs are
    sorted by type, as `PureStrategy` stores them."""
    moves = enumerate(zip(game.type_space.types_of, game.mechanism.actions_of, plan))
    return _checked(StrategyProfile, tuple(
        _checked(PureStrategy, i, tuple(sorted(zip(types, [actions[a] for a in own]))))
        for i, (types, actions, own) in moves
    ))


def find_all_pure_bne(game: BayesianGame, cap: int = DEFAULT_PROFILE_CAP) -> list[StrategyProfile]:
    """Every pure-strategy equilibrium, in enumeration order: agent 0
    outermost, each agent's strategies lexicographic over (type order, action
    order). Exact and bit-identical across runs; see `_equilibrium_plans`."""
    return [_profile(game, plan) for plan in _equilibrium_plans(game, cap)]


def _rule(game: BayesianGame, plan) -> tuple[int, ...]:
    """The rule a plan plays out, as the outcome position (in the mechanism's
    walk) it realizes at each type profile, in `type_space.profiles()` order."""
    walk = game.mechanism.walk
    moves = [[step * a for a in own] for step, own in zip(walk.strides, plan)]
    return tuple(walk.outcome[sum(flat)] for flat in itertools.product(*moves))


def _implements(game: BayesianGame, plan, scf: SocialChoiceFunction) -> bool:
    """Does playing a plan (action positions per agent, in type order) reproduce
    the rule at every type profile of the game? The rule reports the game's
    types, as `auditor.direct_game` checked when it was fitted to the game,
    so the outcome labels `_rule` reaches are compared with the rule's walk."""
    played, wanted = game.mechanism.walk.labels, scf.walk
    rule = [wanted.labels[x] for x in wanted.outcome]
    return [played[x] for x in _rule(game, plan)] == rule


@dataclass(frozen=True)
class NormalFormGame:
    """A complete-information payoff table over action profiles: each
    agent's exact payoffs at every profile of `actions_of`."""

    __hash__ = None  # its payoffs are a dict

    actions_of: tuple[tuple[str, ...], ...]
    payoffs: dict[tuple[str, ...], tuple[Fraction, ...]]

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


def _expost_slice(game: BayesianGame, agent: int, k: int) -> list[int]:
    """The agent's ex-post profit at its k-th type at every action profile,
    in the walk's order, as ints on the agent's scale: the utility of the
    outcome, weighted by `total[agent]`, minus the cost of its own action."""
    tables, walk = game._tables, game.mechanism.walk
    total = game.type_space.weights.total[agent]
    utility = [v * total for v in tables.utility[agent][k]]
    cost = tables.cost[agent][k]
    stride, n = walk.strides[agent], len(cost)
    return [utility[x] - cost[flat // stride % n] for flat, x in enumerate(walk.outcome)]


def _lines(actions_of, agent: int) -> list[range]:
    """Per opponent profile, in `itertools.product` order, the flat positions
    of the profiles where the agent plays each of its actions in turn."""
    sizes = [len(actions) for actions in actions_of]
    stride, block = math.prod(sizes[agent + 1 :]), math.prod(sizes[agent:])
    return [range(r, r + block, stride) for r in range(math.prod(sizes)) if r % block < stride]


def _best_replies(actions_of, agent: int, values: list[int]) -> set[int]:
    """The flat positions, in `itertools.product` order over `actions_of`,
    of the profiles where the agent plays a best reply to the others'
    actions. `values` are its payoffs there, as ints on one scale."""
    best = set()
    for line in _lines(actions_of, agent):
        top = max([values[flat] for flat in line])
        best.update(flat for flat in line if values[flat] == top)
    return best


def _nash(actions_of, best_of: list[set[int]]) -> list[tuple[str, ...]]:
    """The profiles at which every agent plays a best reply, from each
    agent's `_best_replies`."""
    stable = set.intersection(*best_of)
    return [p for flat, p in enumerate(itertools.product(*actions_of)) if flat in stable]


def _dominant(actions_of, agent: int, best: set[int]) -> DominantAction | None:
    """The agent's dominant action, from its `_best_replies`, or None: an
    action is weakly dominant when every profile where it is played is a
    best reply, and strictly when those are all the best replies. Ties
    qualify, and the first weakly dominant action in declared order wins."""
    lines = _lines(actions_of, agent)
    for a, action in enumerate(actions_of[agent]):
        played = {line[a] for line in lines}
        if played <= best:
            return DominantAction(action, "strict" if played == best else "weak")
    return None
