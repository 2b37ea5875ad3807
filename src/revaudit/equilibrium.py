"""Exact brute-force equilibrium engine for finite Bayesian games.

The engine enumerates pure strategies outright and checks equilibrium
conditions with weak inequalities over exact rationals. Payoffs come in two
modes: utility-based (outcome utility only) and profit-based (outcome utility
minus the strategic cost of the action actually played). With independent
priors, per-type single-action deviations are sufficient, so every check is a
finite scan with no tolerance anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
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
    profit,
)

DEFAULT_PROFILE_CAP = 10**6


class EquilibriumMode(Enum):
    """Which payoff the equilibrium inequalities compare."""

    UTILITY_BASED = "utility"
    PROFIT_BASED = "profit"


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
        where = f"agent {self.agent} strategy"
        choice = tuple(
            sorted((_check_label(t, where), _check_label(a, where)) for t, a in self.choice)
        )
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

    def as_map(self) -> dict[str, str]:
        return dict(self.choice)


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
    """Outcome of an equilibrium check; witness is the maximal-gap deviation."""

    is_equilibrium: bool
    witness: Deviation | None

    def __post_init__(self) -> None:
        if self.is_equilibrium and self.witness is not None:
            raise ConstructionError("an equilibrium verdict cannot carry a witness")
        if not self.is_equilibrium and self.witness is None:
            raise ConstructionError("a failed check must carry a witness")


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
        if self.mechanism.agent_count != self.type_space.agent_count:
            raise ConstructionError(
                f"mechanism has {self.mechanism.agent_count} agents, "
                f"type space has {self.type_space.agent_count}"
            )
        for x in self.mechanism.outcomes():
            for i in range(self.type_space.agent_count):
                for t in self.type_space.types_of[i]:
                    self.utilities.utility(i, x, t)
        self.costs.validate_against(self.mechanism, self.type_space)

    @property
    def agent_count(self) -> int:
        return self.type_space.agent_count


def _validate_profile(game: BayesianGame, profile: StrategyProfile) -> None:
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


def _interim(game: BayesianGame, profile, agent, type_label, action, mode) -> Fraction:
    """Expected payoff for agent of playing `action` at `type_label`, opponents
    following `profile`, weighted by the conditional prior over their types."""
    ts = game.type_space
    total = Fraction(0)
    for opp in ts.opponent_profiles(agent):
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
    if mode is EquilibriumMode.PROFIT_BASED:
        # Conditional weights sum to one, so the constant cost comes off once.
        total -= game.costs.strategic_cost(agent, action, type_label)
    return total


def interim_expected_payoff(
    game: BayesianGame,
    profile: StrategyProfile,
    agent: int,
    type_label: str,
    deviation: str | None = None,
    mode: EquilibriumMode = EquilibriumMode.PROFIT_BASED,
) -> Fraction:
    """Interim expected payoff of agent at a type under a profile.

    If `deviation` is given it replaces the agent's own action at this type
    only; opponents keep following the profile.
    """
    _validate_profile(game, profile)
    if type_label not in game.type_space.types_of[agent]:
        raise DomainError(f"agent {agent}: unknown type {type_label!r}")
    action = profile.strategies[agent].action(type_label) if deviation is None else deviation
    if action not in game.mechanism.actions_of[agent]:
        raise DomainError(f"agent {agent}: unknown action {action!r}")
    return _interim(game, profile, agent, type_label, action, mode)


def is_bayesian_nash(
    game: BayesianGame, profile: StrategyProfile, mode: EquilibriumMode
) -> EquilibriumVerdict:
    """Check the weak-inequality equilibrium conditions by exhaustive scan.

    Independence of the prior makes per-type single-action deviations
    sufficient. On failure the witness is the deviation with the largest gain;
    ties go to the smallest (agent index, type position, action position).
    """
    _validate_profile(game, profile)
    best: Deviation | None = None
    for agent in range(game.agent_count):
        for t in game.type_space.types_of[agent]:
            played = profile.strategies[agent].action(t)
            current = _interim(game, profile, agent, t, played, mode)
            for a in game.mechanism.actions_of[agent]:
                if a == played:
                    continue
                gain = _interim(game, profile, agent, t, a, mode) - current
                # Scan order is already (agent, type order, action order), so
                # a strict improvement is the tie-break.
                if gain > 0 and (best is None or gain > best.gain):
                    best = Deviation(agent, t, a, gain)
    if best is None:
        return EquilibriumVerdict(True, None)
    return EquilibriumVerdict(False, best)


def enumerate_pure_strategies(
    mechanism: Mechanism,
    type_space: TypeSpace,
    agent: int,
    cap: int = DEFAULT_PROFILE_CAP,
) -> list[PureStrategy]:
    """All pure strategies of one agent, lexicographic over (type order, action order)."""
    if mechanism.agent_count != type_space.agent_count:
        raise ConstructionError("mechanism and type space disagree on agent count")
    types = type_space.types(agent)
    actions = mechanism.actions(agent)
    count = len(actions) ** len(types)
    if count > cap:
        raise SearchSpaceError(
            f"agent {agent}: {count} pure strategies exceed the cap of {cap}"
        )
    out = []
    for combo in itertools.product(actions, repeat=len(types)):
        out.append(PureStrategy(agent, tuple(zip(types, combo))))
    return out


def enumerate_profiles(
    mechanism: Mechanism,
    type_space: TypeSpace,
    cap: int = DEFAULT_PROFILE_CAP,
) -> list[StrategyProfile]:
    """All pure strategy profiles, agent 0 outermost; guarded by a size cap."""
    total = 1
    for i in range(type_space.agent_count):
        total *= len(mechanism.actions(i)) ** len(type_space.types(i))
        if total > cap:
            raise SearchSpaceError(f"{total}+ strategy profiles exceed the cap of {cap}")
    per_agent = [
        enumerate_pure_strategies(mechanism, type_space, i, cap)
        for i in range(type_space.agent_count)
    ]
    return [StrategyProfile(combo) for combo in itertools.product(*per_agent)]


def find_all_pure_bne(
    game: BayesianGame,
    mode: EquilibriumMode,
    cap: int = DEFAULT_PROFILE_CAP,
) -> list[StrategyProfile]:
    """Every pure-strategy equilibrium, in enumeration order.

    Exhaustive and exact; the returned list is bit-identical across runs.
    """
    return [
        p
        for p in enumerate_profiles(game.mechanism, game.type_space, cap)
        if is_bayesian_nash(game, p, mode).is_equilibrium
    ]


def implements_scf(
    game: BayesianGame, profile: StrategyProfile, scf: SocialChoiceFunction
) -> bool:
    """Does playing the profile reproduce the social choice function everywhere?"""
    _validate_profile(game, profile)
    for theta in game.type_space.profiles():
        if game.mechanism.outcome(profile.action_profile(theta)) != scf.evaluate(theta):
            return False
    return True


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


def expost_normal_form(
    game: BayesianGame,
    true_types,
    mode: EquilibriumMode = EquilibriumMode.PROFIT_BASED,
) -> NormalFormGame:
    """The complete-information game at a fixed realized type profile.

    In a direct game the strategic cost of a report is its misreporting cost,
    so profit mode there gives the direct game's report payoffs.
    """
    true_types = game.type_space.validate_profile(true_types)
    profit_mode = mode is EquilibriumMode.PROFIT_BASED
    payoffs = {}
    for acts in game.mechanism.action_profiles():
        x = game.mechanism.outcome(acts)
        payoffs[acts] = tuple(
            profit(i, x, acts[i], t, game.utilities, game.costs)
            if profit_mode
            else game.utilities.utility(i, x, t)
            for i, t in enumerate(true_types)
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
