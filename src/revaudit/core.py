"""Finite Bayesian game primitives over exact rationals.

Everything here is a plain table: type spaces with independent full-support
priors, outcomes, mechanisms, social choice functions (each its own direct
mechanism, over type reports), cost schedules, and utility tables. A
mechanism's outcome table is read once, when the mechanism is built, into
positions (`Mechanism.walk`), by one reader (`_read_table`) for a table
built in code and for a config's columns alike. All numeric fields are
`fractions.Fraction`; floats are rejected at the door so no binary rounding
can leak into a verdict.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction


class GameModelError(ValueError):
    """Base class for model construction and lookup failures.

    `problem` says what is wrong; `at` says where, in the names of the generic
    config's tables: a table (or a lone value's name), then a row key or
    agent index, then a field, e.g. ("strategic_costs", (0, "e", "lo"),
    "cost"), ("priors", 0, "hi"), ("actions", 1) or ("rule",). str() joins
    the two, so a caller that never reads a config still learns the agent or
    key. A lookup failure has no location.
    """

    def __init__(self, problem: str, at: tuple = ()):
        super().__init__(problem)
        self.problem = problem
        self.at = at

    def path(self, row=repr) -> str:
        """`at` as a path: `table[row].field` in a table keyed by rows, where
        `row` renders the key, and `table[agent][type]` in the others."""
        table, *rest = self.at
        if table in ("types", "actions", "priors") or not rest:
            return table + "".join(f"[{x}]" for x in rest)
        return f"{table}[{row(rest[0])}]" + "".join(f".{f}" for f in rest[1:])

    def __str__(self) -> str:
        return f"{self.path()}: {self.problem}" if self.at else self.problem


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
# Fraction() reads "1_000" from Python 3.11 on and "3 / 2" from 3.12 on; a
# literal holding neither reads the same on every supported Python.
_UNDERSCORE_OR_SPACE = re.compile(r"[_\s]")
# An integer or "p/q" literal in ASCII digits, the common case, read without
# Fraction()'s general parser (see as_rational).
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def check_literal_size(text: str, where: str | tuple = "value") -> str:
    """Return a number literal unchanged, or reject it when it is too large.

    The length is checked first; only a text holding an "e" or "E" is
    searched for an exponent, so a plain integer costs one len(). `where`
    names the value, or is a GameModelError location.
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
    at = where if isinstance(where, tuple) else (where,)
    raise ConstructionError(f"{problem} exceeds the limit of {MAX_LITERAL}", at)


# The engine brings each table of numbers to one denominator, the LCM of its
# denominators, whose bit length is at most the sum of the bit lengths of the
# distinct ones. A game's scale is the LCM of its utilities' and one cost
# schedule's denominators times a product of the agents' prior units; the audit
# compares values of a game and its direct game: at most four tables, so at
# most 4 x 2,048 bits, 2,467 decimal digits, in any denominator it prints.
# A numerator adds the digits of the value's size, a few hundred at most for
# values read from literals of 100 characters, so every printed int stays
# under 3,000 digits, well under the 4,300 that Python's int-to-str
# conversion allows.
MAX_DENOMINATOR_BITS = 2048


def check_denominators(values, at: tuple) -> None:
    """Refuse a table of Fractions whose distinct denominators have more than
    MAX_DENOMINATOR_BITS bits in all, located at the table `at`."""
    bits = 0
    for d in {v.denominator for v in values}:
        bits += d.bit_length()
    if bits > MAX_DENOMINATOR_BITS:
        problem = (
            f"distinct denominators of {bits} bits in all exceed the limit of "
            f"{MAX_DENOMINATOR_BITS}"
        )
        raise ConstructionError(problem, at)


def as_rational(value, where: str | tuple = "value") -> Fraction:
    """Coerce int, Fraction, or a "p/q" string to an exact Fraction.

    Floats (and bools) are rejected: callers must pass exact values. Strings
    must pass check_literal_size and be ASCII, with no underscore, and no
    whitespace but at the ends. A plain "p" or "p/q" of ASCII digits, with
    an optional leading "-", of at most MAX_LITERAL characters and a
    nonzero q, is read as `Fraction(int(p), int(q))`, the value Fraction()
    gives it. `where` names the value, or is a GameModelError location.
    """
    if type(value) is str and len(value) <= MAX_LITERAL:  # the plain literal first
        plain = _PLAIN_RATIONAL.fullmatch(value)
        if plain and (denominator := int(plain[2] or 1)):  # "p/0" is refused below
            return Fraction(int(plain[1]), denominator)
    if isinstance(value, Fraction):
        return value
    at = where if isinstance(where, tuple) else (where,)
    if isinstance(value, bool):
        raise ConstructionError("expected a rational, got a bool", at)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        problem = "floats are not accepted; pass an int, Fraction, or 'p/q' string"
        raise ConstructionError(problem, at)
    if isinstance(value, str):
        text = check_literal_size(value.strip(), at)
        # Fraction() reads any Unicode decimal digit, full-width or
        # Arabic-Indic among them; a literal must be ASCII to be read alike.
        if text.isascii() and not _UNDERSCORE_OR_SPACE.search(text):
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError):
                pass
        raise ConstructionError(f"cannot parse {value!r} as a rational", at)
    raise ConstructionError(f"cannot interpret {type(value).__name__} as a rational", at)


def _is_label(label) -> bool:
    return isinstance(label, str) and label != ""


def _check_label(label, at: tuple) -> str:
    if not _is_label(label):
        raise ConstructionError(f"labels must be non-empty strings, got {label!r}", at)
    return label


def _label_lists(lists, table: str) -> tuple[tuple[str, ...], ...]:
    """At least one agent, each with a non-empty tuple of distinct, non-empty
    labels: the types of a TypeSpace or the actions of a Mechanism."""
    lists = tuple(tuple(labels) for labels in lists)
    if not lists:
        raise ConstructionError("expected at least one agent", (table,))
    for i, labels in enumerate(lists):
        at = (table, i)
        if not labels:
            raise ConstructionError("expected at least one label", at)
        for label in labels:
            _check_label(label, at)
        if len(set(labels)) != len(labels):
            raise ConstructionError(f"duplicate labels in {list(labels)}", at)
    return lists


def check_agent_count(actions_of, types_of) -> None:
    """A mechanism fits a type space only with one action set per agent."""
    if len(actions_of) != len(types_of):
        problem = f"expected {len(types_of)} action sets, one per agent, got {len(actions_of)}"
        raise ConstructionError(problem, ("actions",))


class cached_property(functools.cached_property):
    """`functools.cached_property` without its lock. On Python 3.10 and 3.11
    the stdlib takes a lock per property on the first read of each value,
    which makes that read two to three times slower; Python 3.12 dropped the
    lock. revaudit runs on one thread, so the value is computed once and
    stored in the instance's `__dict__`, where every later read finds it
    first, and a getter that raises stores nothing."""

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


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
        types_of = _label_lists(self.types_of, "types")
        priors = tuple(dict(pr) for pr in self.prior_of)
        if len(priors) != len(types_of):
            raise ConstructionError("expected one prior object per agent", ("priors",))
        for i, (ts, pr) in enumerate(zip(types_of, priors)):
            if pr.keys() != set(ts):
                problem = f"types {sorted(pr)} do not match the declared types {list(ts)}"
                raise ConstructionError(problem, ("priors", i))
            for t in ts:
                p = pr[t] = as_rational(pr[t], ("priors", i, t))
                if p.numerator <= 0:
                    raise ConstructionError(f"must be positive, got {p}", ("priors", i, t))
        check_denominators([p for pr in priors for p in pr.values()], ("priors",))
        for i, pr in enumerate(priors):
            unit = math.lcm(*[p.denominator for p in pr.values()])
            if sum(p.numerator * (unit // p.denominator) for p in pr.values()) != unit:
                problem = f"probabilities must sum to 1, got {sum(pr.values())}"
                raise ConstructionError(problem, ("priors", i))
        object.__setattr__(self, "types_of", types_of)
        object.__setattr__(self, "prior_of", priors)

    @cached_property
    def positions(self) -> list[dict[str, int]]:
        """Each agent's map from a type label to its position, built on
        first read and kept with the type space, so a game and its direct
        game share one copy."""
        return [{t: k for k, t in enumerate(types)} for types in self.types_of]

    @cached_property
    def weights(self) -> "PriorWeights":
        """The prior as ints, computed on first use and kept with the type
        space, so a game and its direct game share one copy."""
        return _prior_weights(self)

    @classmethod
    def uniform(cls, types_of) -> "TypeSpace":
        """Build a type space with the uniform prior on each agent's types."""
        types_of = tuple(tuple(ts) for ts in types_of)
        priors = tuple({t: Fraction(1, len(ts)) for t in ts} for ts in types_of)
        return cls(types_of, priors)

    @property
    def agent_count(self) -> int:
        return len(self.types_of)

    def _check_agent(self, agent: int) -> None:
        if type(agent) is not int or not 0 <= agent < self.agent_count:  # a bool is no index
            raise DomainError(f"unknown agent index {agent!r}")

    # No command calls it: its only reader is the benchmark tracer, which patches it by name.
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
class PriorWeights:
    """An independent prior as ints. `of[j][k]` is agent j's prior of its
    k-th type times j's unit, the LCM of j's prior denominators, so each
    agent's weights sum to its unit. The weight of a type profile of the
    others is the product of their weights, and those products sum, over the
    profiles of everyone but agent i, to `total[i]`, the product of the other
    agents' units."""

    of: tuple[tuple[int, ...], ...]
    total: tuple[int, ...]


def _prior_weights(ts: TypeSpace) -> PriorWeights:
    """The checked prior of `ts` as ints, built from checked parts
    (`_checked`). A prior `p` times a unit its denominator divides is the
    int `p.numerator * (unit // p.denominator)`, computed inline."""
    of, units = [], []
    for types, prior in zip(ts.types_of, ts.prior_of):
        ps = [prior[t] for t in types]
        unit = math.lcm(*[p.denominator for p in ps])
        of.append(tuple([p.numerator * (unit // p.denominator) for p in ps]))
        units.append(unit)
    everyone = math.prod(units)
    return _checked(PriorWeights, tuple(of), tuple([everyone // unit for unit in units]))


@dataclass(frozen=True)
class Outcome:
    """A labelled outcome with an optional rational payload (model specific)."""

    label: str
    payload: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        _check_label(self.label, ("outcomes", self.label, "label"))
        at = ("outcomes", self.label, "payload")
        payload = tuple(v if isinstance(v, Fraction) else as_rational(v, at) for v in self.payload)
        object.__setattr__(self, "payload", payload)


class _ConfigRows(dict):
    """A table read by the config parser, whose row check has checked the
    type of each field of each key; `_keyed_rationals` reads the keys of
    its utility and cost tables as they are. An outcome table is read into
    positions from its columns, and passes as a `_ConfigRows` only to name
    a fault."""


@dataclass(frozen=True)
class OutcomeWalk:
    """A mechanism's outcome table, the only form a mechanism stores, read
    once when the mechanism is built: over action positions, in
    itertools.product order (agent 0 outermost). The flat index of an action
    profile is sum(strides[j] * action position of j), and `outcome[flat]`
    is the position of its outcome in `outcomes`, the distinct outcomes,
    payloads included, in first-appearance order."""

    outcomes: tuple[Outcome, ...]
    outcome: list[int]
    strides: list[int]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(x.label for x in self.outcomes)


def _walk_of(outcomes, drawn: list, sizes: list[int]) -> OutcomeWalk:
    """The walk of a table over label lists of `sizes` that gives the k-th
    profile, in product order, the outcome `outcomes[drawn[k]]`."""
    first = dict(zip(dict.fromkeys(drawn), itertools.count()))
    strides = [math.prod(sizes[j + 1 :]) for j in range(len(sizes))]
    return OutcomeWalk(tuple(map(outcomes.__getitem__, first)), [*map(first.__getitem__, drawn)], strides)


def _read_table(cls, label_lists, profiles: list, labels: list, named):
    """The mechanism `cls` (a Mechanism or a rule) over `label_lists`, its
    label lists checked, whose table gives `profiles[k]` the outcome
    `named[labels[k]]`: or None unless the rows hold each profile exactly
    once and `named` holds each label, for the caller to name the fault.
    One dict per agent maps a label to its position times the agent's
    stride, so each row's flat index is a sum, taken column by column in C.
    The rows are total when there are as many as profiles and each flat
    index is found: one that repeats leaves another missing."""
    sizes = list(map(len, label_lists))
    count, flat = math.prod(sizes), itertools.repeat(0)
    try:
        if len(profiles) == count and set(map(len, profiles)) == {len(sizes)}:
            for j, own in enumerate(label_lists):
                place = dict(zip(own, itertools.count(0, math.prod(sizes[j + 1 :]))))
                flat = map(operator.add, flat, map(place.__getitem__, map(operator.itemgetter(j), profiles)))
            by_flat = dict(zip(flat, labels))
            walk = _walk_of(named, [*map(by_flat.__getitem__, range(count))], sizes)
            return _checked(cls, _label_lists(label_lists, cls._tables[0]), walk)
    except (KeyError, TypeError):  # a missing profile, an undeclared label or outcome, an unhashable label
        pass
    return None


@dataclass(frozen=True)
class Mechanism:
    """Action sets per agent and a total outcome function on action
    profiles, held only as its walk. Mechanism(actions_of, table) reads a
    table keyed by action profiles of labels into the walk once, at
    construction, by `_read_table`; `outcome_of` gives that table back when
    read."""

    actions_of: tuple[tuple[str, ...], ...]
    walk: OutcomeWalk

    # Fault locations: the label lists' table, the outcome table, a key's noun.
    _tables = ("actions", "outcome_function", "action")

    def __post_init__(self) -> None:
        """Each row is checked in turn, its key label by label and then its
        outcome, before the rows are read; a table whose rows all pass but
        that `_read_table` refuses misses a profile, and the first missing
        in product order is named."""
        labels, table, noun = self._tables
        actions_of = _label_lists(self.actions_of, labels)
        known, rows, named = [frozenset(actions) for actions in actions_of], {}, {}
        for key, x in dict(self.walk).items():
            key = tuple(key)
            if len(key) != len(known) or not all(map(frozenset.__contains__, known, key)):
                raise ConstructionError(f"{key} is not a declared {noun} profile", (table, key))
            if not isinstance(x, Outcome):
                problem = f"expected an Outcome, got {type(x).__name__}"
                raise ConstructionError(problem, (table, key, "outcome"))
            if named.setdefault(x.label, x) != x:
                problem = f"two different outcomes share label {x.label!r}"
                raise ConstructionError(problem, (table, key, "outcome"))
            rows[key] = x.label
        read = _read_table(type(self), actions_of, list(rows), list(rows.values()), named)
        if not read:
            missing = next(p for p in itertools.product(*actions_of) if p not in rows)
            raise ConstructionError(f"no row for {noun} profile {missing}", (table,))
        object.__setattr__(self, "actions_of", actions_of)
        object.__setattr__(self, "walk", read.walk)

    @property
    def agent_count(self) -> int:
        return len(self.actions_of)

    @cached_property
    def positions(self) -> list[dict[str, int]]:
        """Each agent's map from an action label to its position, built on
        first read and kept with the mechanism."""
        return [{a: k for k, a in enumerate(actions)} for actions in self.actions_of]

    @cached_property
    def outcome_of(self) -> dict[tuple[str, ...], Outcome]:
        """The table keyed by action profiles of labels, in product order,
        built on first read and kept with the mechanism."""
        outcomes = map(self.walk.outcomes.__getitem__, self.walk.outcome)
        return dict(zip(itertools.product(*self.actions_of), outcomes))


@dataclass(frozen=True)
class SocialChoiceFunction(Mechanism):
    """A rule, SocialChoiceFunction(types_of, table): a total map from type
    profiles to outcomes, read once into its walk, and its own direct
    mechanism (Myerson 1979), whose actions are the type labels agents
    report. Faults name types and rule."""

    _tables = ("types", "rule", "type")


def _keyed_rationals(table: str, entries, field: str) -> dict[tuple[int, str, str], Fraction]:
    """A sparse table keyed by (agent index, label, label), with rational
    values. A value that is already a Fraction is taken as it is, so a
    message is formatted only for a fault. Of a `_ConfigRows` table only
    the labels are looked at, for an empty one, which the row check lets
    through; a table holding one is walked, to name its first bad key."""
    result = dict(entries)
    if type(entries) is not _ConfigRows or any("" in key for key in result):
        rows, result = result, {}
        for key, v in rows.items():
            key = tuple(key)
            if not (len(key) == 3 and type(key[0]) is int and _is_label(key[1]) and _is_label(key[2])):
                raise ConstructionError("key must be (agent, label, label)", (table, key))
            result[key] = v if isinstance(v, Fraction) else as_rational(v, (table, key, field))
    check_denominators(result.values(), (table,))
    return result


def _checked(cls, *values):
    """`cls(*values)` for a frozen dataclass `cls`, built without its
    `__post_init__`: for parts whose checks have already run. Every field
    is given, defaults included, in the order of the class's own
    `__match_args__`, which names each of its fields."""
    obj = object.__new__(cls)
    vars(obj).update(zip(cls.__match_args__, values))
    return obj


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
        strategic = _keyed_rationals("strategic_costs", self.strategic, "cost")
        misreport = _keyed_rationals("misreport_costs", self.misreport, "cost")
        for table, costs in (("strategic_costs", strategic), ("misreport_costs", misreport)):
            for key, v in costs.items():
                if v.numerator < 0:
                    raise ConstructionError(f"must be non-negative, got {v}", (table, key, "cost"))
        for key, v in misreport.items():
            if v and key[1] == key[2]:
                problem = f"an honest report must cost 0, got {v}"
                raise ConstructionError(problem, ("misreport_costs", key, "cost"))
        object.__setattr__(self, "strategic", strategic)
        object.__setattr__(self, "misreport", misreport)

    def validate_against(self, mechanism: Mechanism, type_space: TypeSpace) -> None:
        """Reject cost entries that reference unknown agents, actions, or types.

        Sparse storage defaults absent entries to zero, so a typo in a config
        would otherwise vanish silently.
        """
        for (agent, action, t) in self.strategic:
            actions = mechanism.actions_of[agent] if 0 <= agent < mechanism.agent_count else ()
            if action not in actions or t not in type_space.types_of[agent]:
                problem = f"{(agent, action, t)} is not a declared (agent, action, type)"
                raise DomainError(problem, ("strategic_costs", (agent, action, t)))
        for (agent, t, r) in self.misreport:
            types = type_space.types_of[agent] if 0 <= agent < type_space.agent_count else ()
            if t not in types or r not in types:
                problem = f"{(agent, t, r)} is not a declared (agent, true type, reported type)"
                raise DomainError(problem, ("misreport_costs", (agent, t, r)))


@dataclass(frozen=True)
class UtilityTable:
    """Total utility table keyed by (agent, outcome label, type)."""

    table: dict[tuple[int, str, str], Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _keyed_rationals("utilities", self.table, "value"))

    @cached_property
    def scaled(self) -> "ScaledTable":
        """The table on one unit, computed on first use and kept with the
        table, so a game and its direct game read its Fractions once."""
        return _scale_table(self.table)

    def check_covers(self, outcomes, types_of) -> None:
        """Every agent has a utility for each outcome label in `outcomes` at
        each of its types."""
        for i, types in enumerate(types_of):
            for x in outcomes:
                for t in types:
                    if (i, x, t) not in self.table:
                        problem = f"no row for (agent, outcome, type) {(i, x, t)}"
                        raise DomainError(problem, ("utilities",))


@dataclass(frozen=True)
class ScaledTable:
    """A table of Fractions on one unit, the LCM of its denominators:
    `of[key]` is the entry at `key` times `unit`, an int."""

    unit: int
    of: dict[tuple[int, str, str], int]


def _scale_table(table: dict[tuple[int, str, str], Fraction]) -> ScaledTable:
    """A checked table on the LCM of its denominators, each entry scaled
    inline as in `_prior_weights`, built from checked parts (`_checked`)."""
    unit = math.lcm(*[v.denominator for v in table.values()])
    of = {key: v.numerator * (unit // v.denominator) for key, v in table.items()}
    return _checked(ScaledTable, unit, of)
