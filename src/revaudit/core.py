"""Finite Bayesian game primitives over exact rationals.

Everything here is a plain table: type spaces with independent full-support
priors, outcomes, social choice functions, mechanisms, cost schedules, and
utility tables. All numeric fields are `fractions.Fraction`; floats are
rejected at the door so no binary rounding can leak into a verdict.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction


class GameModelError(ValueError):
    """Base class for model construction and lookup failures."""


class ConstructionError(GameModelError):
    """An invariant was violated while building a model object."""


class DomainError(GameModelError):
    """A lookup referenced a label or profile outside the declared domain."""


class SearchSpaceError(GameModelError):
    """An enumeration would exceed the configured size cap."""


# Game data are small numbers. Capping a literal's length and exponent before
# Fraction() sees it stops "1e999999" from expanding into a million digits.
MAX_LITERAL = 100
_EXPONENT = re.compile(r"[eE]([-+]?\d+)")


def check_literal_size(text: str, where: str = "value") -> str:
    """Return a number literal unchanged, or reject it when it is too large.

    The length is checked first; only a text holding an "e" or "E" is
    searched for an exponent, so a plain integer costs one len().
    """
    if len(text) > MAX_LITERAL:
        problem = f"literal of {len(text)} characters"
    elif "e" not in text and "E" not in text:
        return text
    else:
        exponent = _EXPONENT.search(text)
        if not exponent or abs(int(exponent.group(1))) <= MAX_LITERAL:
            return text
        problem = f"exponent of {text!r}"
    raise ConstructionError(f"{where}: {problem} exceeds the limit of {MAX_LITERAL}")


def as_rational(value, where: str = "value") -> Fraction:
    """Coerce int, Fraction, or a "p/q" string to an exact Fraction.

    Floats (and bools) are rejected: callers must pass exact values. Strings
    must pass check_literal_size.
    """
    if isinstance(value, bool):
        raise ConstructionError(f"{where}: expected a rational, got a bool")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ConstructionError(
            f"{where}: floats are not accepted; pass an int, Fraction, or 'p/q' string"
        )
    if isinstance(value, str):
        text = check_literal_size(value.strip(), where)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConstructionError(f"{where}: cannot parse {value!r} as a rational") from exc
    raise ConstructionError(f"{where}: cannot interpret {type(value).__name__} as a rational")


def rational_str(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    return str(Fraction(value))


def _check_label(label, where: str) -> str:
    if not isinstance(label, str) or not label:
        raise ConstructionError(f"{where}: labels must be non-empty strings, got {label!r}")
    return label


@dataclass(frozen=True)
class TypeSpace:
    """Ordered type sets per agent plus an independent full-support prior.

    `types_of[i]` fixes agent i's type order; `prior_of[i]` maps each of those
    labels to a positive Fraction, summing to one. The joint prior is the
    product of the marginals.
    """

    types_of: tuple[tuple[str, ...], ...]
    prior_of: tuple[dict[str, Fraction], ...]

    def __post_init__(self) -> None:
        types_of = tuple(tuple(ts) for ts in self.types_of)
        if not types_of:
            raise ConstructionError("type space needs at least one agent")
        for i, ts in enumerate(types_of):
            if not ts:
                raise ConstructionError(f"agent {i}: empty type set")
            for t in ts:
                _check_label(t, f"agent {i} type")
            if len(set(ts)) != len(ts):
                raise ConstructionError(f"agent {i}: duplicate type labels in {ts}")
        prior_of = tuple(
            {t: as_rational(p, f"agent {i} prior[{t}]") for t, p in dict(pr).items()}
            for i, pr in enumerate(self.prior_of)
        )
        if len(prior_of) != len(types_of):
            raise ConstructionError("prior_of must list one marginal per agent")
        for i, (ts, pr) in enumerate(zip(types_of, prior_of)):
            if set(pr) != set(ts):
                raise ConstructionError(
                    f"agent {i}: prior support {sorted(pr)} does not match types {list(ts)}"
                )
            for t in ts:
                if pr[t] <= 0:
                    raise ConstructionError(f"agent {i}: prior of {t} must be positive")
            if sum(pr.values()) != 1:
                raise ConstructionError(f"agent {i}: prior must sum to 1, got {sum(pr.values())}")
        object.__setattr__(self, "types_of", types_of)
        object.__setattr__(self, "prior_of", prior_of)

    @classmethod
    def uniform(cls, types_of) -> "TypeSpace":
        """Build a type space with the uniform prior on each agent's types."""
        types_of = tuple(tuple(ts) for ts in types_of)
        priors = tuple({t: Fraction(1, len(ts)) for t in ts} for ts in types_of)
        return cls(types_of, priors)

    @property
    def agent_count(self) -> int:
        return len(self.types_of)

    def _check_agent(self, agent: int) -> int:
        if not isinstance(agent, int) or not 0 <= agent < self.agent_count:
            raise DomainError(f"unknown agent index {agent!r}")
        return agent

    def types(self, agent: int) -> tuple[str, ...]:
        return self.types_of[self._check_agent(agent)]

    def prior(self, agent: int, type_label: str) -> Fraction:
        pr = self.prior_of[self._check_agent(agent)]
        if type_label not in pr:
            raise DomainError(f"agent {agent}: unknown type {type_label!r}")
        return pr[type_label]

    def profiles(self) -> tuple[tuple[str, ...], ...]:
        """All type profiles, lexicographic in the declared orders."""
        return tuple(itertools.product(*self.types_of))

    def validate_profile(self, profile) -> tuple[str, ...]:
        profile = tuple(profile)
        if len(profile) != self.agent_count:
            raise DomainError(
                f"type profile {profile} has {len(profile)} entries, expected {self.agent_count}"
            )
        for i, t in enumerate(profile):
            if t not in self.prior_of[i]:
                raise DomainError(f"agent {i}: unknown type {t!r} in profile {profile}")
        return profile

    def joint_prior(self, profile) -> Fraction:
        """Probability of a full type profile under the independent prior."""
        profile = self.validate_profile(profile)
        w = Fraction(1)
        for i, t in enumerate(profile):
            w *= self.prior_of[i][t]
        return w

    def opponent_profiles(self, agent: int) -> tuple[tuple[str, ...], ...]:
        """Type profiles of everyone but `agent`, in agent order, lexicographic."""
        self._check_agent(agent)
        rest = [ts for j, ts in enumerate(self.types_of) if j != agent]
        return tuple(itertools.product(*rest))

    def conditional_weight(self, agent: int, opponent_profile) -> Fraction:
        """Weight of an opponent type profile given agent's own type.

        Independence makes this the product of the opponents' marginals; the
        conditioning type never enters.
        """
        self._check_agent(agent)
        opponent_profile = tuple(opponent_profile)
        others = [j for j in range(self.agent_count) if j != agent]
        if len(opponent_profile) != len(others):
            raise DomainError(
                f"opponent profile {opponent_profile} has wrong arity for agent {agent}"
            )
        w = Fraction(1)
        for j, t in zip(others, opponent_profile):
            if t not in self.prior_of[j]:
                raise DomainError(f"agent {j}: unknown type {t!r}")
            w *= self.prior_of[j][t]
        return w


@dataclass(frozen=True)
class Outcome:
    """A labelled outcome with an optional rational payload (model specific)."""

    label: str
    payload: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        _check_label(self.label, "outcome")
        payload = tuple(as_rational(v, f"outcome {self.label} payload") for v in self.payload)
        object.__setattr__(self, "payload", payload)


def _check_outcome_labels(outcomes, where: str) -> None:
    # Two distinct outcomes must not share a label.
    seen: dict[str, Outcome] = {}
    for x in outcomes:
        if not isinstance(x, Outcome):
            raise ConstructionError(f"{where}: table values must be Outcome, got {type(x).__name__}")
        if x.label in seen and seen[x.label] != x:
            raise ConstructionError(f"{where}: two different outcomes share label {x.label!r}")
        seen[x.label] = x


@dataclass(frozen=True)
class SocialChoiceFunction:
    """A total map from type profiles to outcomes."""

    type_space: TypeSpace
    table: dict[tuple[str, ...], Outcome]

    def __post_init__(self) -> None:
        table = {tuple(k): v for k, v in dict(self.table).items()}
        profiles = set(self.type_space.profiles())
        missing = profiles - set(table)
        if missing:
            raise ConstructionError(f"social choice table is missing profiles {sorted(missing)}")
        extra = set(table) - profiles
        if extra:
            raise ConstructionError(f"social choice table has unknown profiles {sorted(extra)}")
        _check_outcome_labels(table.values(), "social choice table")
        object.__setattr__(self, "table", table)

    def evaluate(self, type_profile) -> Outcome:
        key = self.type_space.validate_profile(type_profile)
        return self.table[key]

    def outcomes(self) -> tuple[Outcome, ...]:
        """Distinct outcomes in first-appearance order over the profile order."""
        seen: dict[str, Outcome] = {}
        for profile in self.type_space.profiles():
            x = self.table[profile]
            seen.setdefault(x.label, x)
        return tuple(seen.values())


@dataclass(frozen=True)
class Mechanism:
    """Action sets per agent and a total outcome function on action profiles."""

    actions_of: tuple[tuple[str, ...], ...]
    outcome_of: dict[tuple[str, ...], Outcome]

    def __post_init__(self) -> None:
        actions_of = tuple(tuple(a) for a in self.actions_of)
        if not actions_of:
            raise ConstructionError("mechanism needs at least one agent")
        for i, acts in enumerate(actions_of):
            if not acts:
                raise ConstructionError(f"agent {i}: empty action set")
            for a in acts:
                _check_label(a, f"agent {i} action")
            if len(set(acts)) != len(acts):
                raise ConstructionError(f"agent {i}: duplicate action labels in {acts}")
        table = {tuple(k): v for k, v in dict(self.outcome_of).items()}
        profiles = set(itertools.product(*actions_of))
        missing = profiles - set(table)
        if missing:
            raise ConstructionError(f"outcome table is missing action profiles {sorted(missing)}")
        extra = set(table) - profiles
        if extra:
            raise ConstructionError(f"outcome table has unknown action profiles {sorted(extra)}")
        _check_outcome_labels(table.values(), "outcome table")
        object.__setattr__(self, "actions_of", actions_of)
        object.__setattr__(self, "outcome_of", table)

    @property
    def agent_count(self) -> int:
        return len(self.actions_of)

    def actions(self, agent: int) -> tuple[str, ...]:
        if not isinstance(agent, int) or not 0 <= agent < self.agent_count:
            raise DomainError(f"unknown agent index {agent!r}")
        return self.actions_of[agent]

    def action_profiles(self) -> tuple[tuple[str, ...], ...]:
        return tuple(itertools.product(*self.actions_of))

    def outcome(self, action_profile) -> Outcome:
        key = tuple(action_profile)
        if key not in self.outcome_of:
            raise DomainError(f"unknown action profile {key}")
        return self.outcome_of[key]

    def outcomes(self) -> tuple[Outcome, ...]:
        seen: dict[str, Outcome] = {}
        for profile in itertools.product(*self.actions_of):
            x = self.outcome_of[profile]
            seen.setdefault(x.label, x)
        return tuple(seen.values())


@dataclass(frozen=True)
class CostModel:
    """Strategic action costs and misreporting costs, both sparse with default 0.

    `strategic` is keyed by (agent, action, true type): the cost of playing an
    action while being of a type. `misreport` is keyed by (agent, true type,
    reported type): the cost a direct mechanism charges for a report; honest
    reports are free by construction. All costs are non-negative.
    """

    strategic: dict[tuple[int, str, str], Fraction] = field(default_factory=dict)
    misreport: dict[tuple[int, str, str], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        strategic = {}
        for key, v in dict(self.strategic).items():
            key = self._check_key(key, "strategic cost")
            v = as_rational(v, f"strategic cost {key}")
            if v < 0:
                raise ConstructionError(f"strategic cost {key} must be non-negative, got {v}")
            strategic[key] = v
        misreport = {}
        for key, v in dict(self.misreport).items():
            key = self._check_key(key, "misreport cost")
            v = as_rational(v, f"misreport cost {key}")
            if v < 0:
                raise ConstructionError(f"misreport cost {key} must be non-negative, got {v}")
            if key[1] == key[2] and v != 0:
                raise ConstructionError(f"honest report must cost 0, got {v} at {key}")
            misreport[key] = v
        object.__setattr__(self, "strategic", strategic)
        object.__setattr__(self, "misreport", misreport)

    @staticmethod
    def _check_key(key, where: str) -> tuple[int, str, str]:
        key = tuple(key)
        if len(key) != 3 or not isinstance(key[0], int) or isinstance(key[0], bool):
            raise ConstructionError(f"{where}: key must be (agent, label, label), got {key}")
        _check_label(key[1], where)
        _check_label(key[2], where)
        return (key[0], key[1], key[2])

    @classmethod
    def zero(cls) -> "CostModel":
        return cls({}, {})

    def strategic_cost(self, agent: int, action: str, type_label: str) -> Fraction:
        return self.strategic.get((agent, action, type_label), Fraction(0))

    def misreport_cost(self, agent: int, true_type: str, reported_type: str) -> Fraction:
        if true_type == reported_type:
            return Fraction(0)
        return self.misreport.get((agent, true_type, reported_type), Fraction(0))

    def validate_against(self, mechanism: Mechanism, type_space: TypeSpace) -> None:
        """Reject cost entries that reference unknown agents, actions, or types.

        Sparse storage defaults absent entries to zero, so a typo in a config
        would otherwise vanish silently.
        """
        for (agent, action, t) in self.strategic:
            if not 0 <= agent < mechanism.agent_count:
                raise DomainError(f"strategic cost references unknown agent {agent}")
            if action not in mechanism.actions_of[agent]:
                raise DomainError(f"strategic cost references unknown action {action!r}")
            if t not in type_space.types_of[agent]:
                raise DomainError(f"strategic cost references unknown type {t!r}")
        for (agent, t, r) in self.misreport:
            if not 0 <= agent < type_space.agent_count:
                raise DomainError(f"misreport cost references unknown agent {agent}")
            for label in (t, r):
                if label not in type_space.types_of[agent]:
                    raise DomainError(f"misreport cost references unknown type {label!r}")


@dataclass(frozen=True)
class UtilityTable:
    """Total utility table keyed by (agent, outcome label, type)."""

    table: dict[tuple[int, str, str], Fraction]

    def __post_init__(self) -> None:
        table = {}
        for key, v in dict(self.table).items():
            key = tuple(key)
            if len(key) != 3 or not isinstance(key[0], int) or isinstance(key[0], bool):
                raise ConstructionError(f"utility key must be (agent, outcome, type), got {key}")
            _check_label(key[1], "utility outcome")
            _check_label(key[2], "utility type")
            table[(key[0], key[1], key[2])] = as_rational(v, f"utility {key}")
        object.__setattr__(self, "table", table)

    def utility(self, agent: int, outcome, type_label: str) -> Fraction:
        label = outcome.label if isinstance(outcome, Outcome) else outcome
        key = (agent, label, type_label)
        if key not in self.table:
            raise DomainError(f"utility table has no entry for {key}")
        return self.table[key]


def profit(
    agent: int,
    outcome,
    action: str,
    type_label: str,
    utilities: UtilityTable,
    costs: CostModel,
) -> Fraction:
    """Utility of the outcome minus the strategic cost of the action played.

    Misreporting costs enter only in a direct game, whose cost model stores
    them as the strategic cost of each report.
    """
    return utilities.utility(agent, outcome, type_label) - costs.strategic_cost(
        agent, action, type_label
    )
