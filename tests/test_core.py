"""Model-layer checks: exact rationals, priors, tables, and their invariants."""

import dataclasses
import functools
import importlib
import inspect
import itertools
import math
import pkgutil
import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from payoff_probe import expost_game
from test_properties import SETTINGS

import revaudit
from revaudit import core
from revaudit.auditor import random_zero_cost_game
from revaudit.core import (
    ConstructionError,
    CostModel,
    DomainError,
    GameModelError,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    as_rational,
    check_literal_size,
)
from revaudit.equilibrium import BayesianGame
from revaudit.labor import LaborParams, build_scenario


def test_as_rational_parses_exactly():
    assert as_rational("3/2") == Fraction(3, 2)
    assert as_rational(2) == Fraction(2)
    assert as_rational(Fraction(5, 7)) == Fraction(5, 7)
    assert as_rational(" 1/3 ") == Fraction(1, 3)
    assert as_rational("\t1/3\n") == Fraction(1, 3)


# An underscore, an inner space or a non-ASCII digit is refused on every
# Python, though Fraction() reads "1_000" from 3.11 on, "3 / 2" from 3.12 on,
# and Arabic-Indic or full-width digits everywhere.
@pytest.mark.parametrize(
    "bad",
    [1.5, True, "a/b", "1/0", None, [1], "1_000", "3 / 2", "1e9_999999", "\u0661", "\uff11/\uff12"],
)
def test_as_rational_rejects_inexact_and_malformed(bad):
    with pytest.raises(ConstructionError):
        as_rational(bad)


def test_as_rational_bounds_the_literal_before_parsing():
    assert as_rational("1e100") == 10**100
    assert as_rational("1E-100") == Fraction(1, 10**100)
    assert as_rational("7" * 100) == int("7" * 100)
    for bad in ("1e101", "1e-999999", "7" * 101, "1/" + "3" * 99):
        with pytest.raises(ConstructionError, match="exceeds the limit"):
            as_rational(bad)


def literal_oracle(value: str):
    """The rational a text literal reads as, or the problem that refuses it,
    by the documented rules alone: strip the ends; at most 100 characters;
    an exponent (an "e" or "E" followed by an optional sign and digits) of
    at most 100; ASCII only, with no underscore and no whitespace left;
    then whatever Fraction() reads."""
    text = value.strip()
    if len(text) > 100:
        return f"literal of {len(text)} characters exceeds the limit of 100"
    for k in (k for k, ch in enumerate(text) if ch in "eE"):
        rest = text[k + 1:]
        rest = rest[1:] if rest[:1] in ("+", "-") else rest
        digits = "".join(itertools.takewhile(str.isdecimal, rest))
        if digits:  # the first exponent
            if int(digits) > 100:
                return f"exponent of {text!r} exceeds the limit of 100"
            break
    if text.isascii() and "_" not in text and not any(c.isspace() for c in text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    return f"cannot parse {value!r} as a rational"


def read_literal(value: str):
    try:
        return as_rational(value)
    except ConstructionError as exc:
        return exc.problem


# Each digit is drawn as often as all the other characters together.
LITERAL_CHARACTERS = [*"0123456789" * 9, *"/-+.e_ \u0661\uff15" * 10]


@settings(SETTINGS, max_examples=200)
@given(st.lists(st.sampled_from(LITERAL_CHARACTERS), min_size=1, max_size=102).map("".join))
@example("1/0")
@example("+1/2")
@example(" 1/2 ")
@example("01/02")
@example("-0")
@example("1/-2")
@example("7" * 100)
@example("7" * 101)
@example("-" + "7" * 99)
@example("1/" + "0" * 98)
def test_a_text_literal_reads_as_its_documented_rules_say(text):
    # as_rational reads a plain "p/q" of ASCII digits without Fraction()'s
    # parser; it must read every text exactly as the general rules do.
    assert read_literal(text) == literal_oracle(text)


def test_literal_check_reads_the_exponent_only_when_there_is_one():
    for ok in ("12", "-7" + "0" * 98, "1/3", "1e100", "-1E-100", "2.5e+100", "e", "1e"):
        assert check_literal_size(ok) == ok
    for bad in ("1e101", "1E-101", "2.5e+101", "1" * 101):
        with pytest.raises(ConstructionError, match="exceeds the limit of 100"):
            check_literal_size(bad)


# -- type spaces -------------------------------------------------------------


def two_by_two(p_high=Fraction(1, 2)):
    prior = {"lo": 1 - p_high, "hi": p_high}
    return TypeSpace((("lo", "hi"), ("lo", "hi")), (dict(prior), dict(prior)))


def test_uniform_prior_default():
    ts = TypeSpace.uniform([("a", "b", "c"), ("x",)])
    assert ts.prior_of[0]["b"] == Fraction(1, 3)
    assert ts.prior_of[1]["x"] == Fraction(1)


def test_prior_must_be_full_support_and_sum_to_one():
    with pytest.raises(ConstructionError):
        TypeSpace((("a", "b"),), ({"a": Fraction(1), "b": Fraction(0)},))
    with pytest.raises(ConstructionError):
        TypeSpace((("a", "b"),), ({"a": Fraction(1, 2), "b": Fraction(1, 3)},))
    with pytest.raises(ConstructionError):
        TypeSpace((("a", "b"),), ({"a": Fraction(1, 2), "c": Fraction(1, 2)},))


def test_duplicate_type_labels_rejected():
    with pytest.raises(ConstructionError):
        TypeSpace.uniform([("a", "a")])


def test_conditional_weight_divides_out_own_marginal():
    ts = TypeSpace(
        (("a", "b"), ("c", "d")),
        (
            {"a": Fraction(3, 4), "b": Fraction(1, 4)},
            {"c": Fraction(2, 3), "d": Fraction(1, 3)},
        ),
    )
    for own, opp in itertools.product(*ts.types_of):
        joint = ts.prior_of[0][own] * ts.prior_of[1][opp]
        assert ts.conditional_weight(0, (opp,)) == joint / ts.prior_of[0][own]
    assert sum(ts.conditional_weight(0, (opp,)) for opp in ("c", "d")) == 1


def test_single_agent_has_one_empty_opponent_profile():
    ts = TypeSpace.uniform([("a", "b")])
    assert ts.conditional_weight(0, ()) == 1


@pytest.mark.parametrize("agent", [True, False])
def test_conditional_weight_rejects_a_bool_agent(agent):
    # True would read as agent 1, whose opponent profile ("a",) has weight 1/2.
    ts = TypeSpace.uniform([["a", "b"], ["c", "d", "e"]])
    with pytest.raises(DomainError, match=f"unknown agent index {agent}"):
        ts.conditional_weight(agent, ["a"])
    assert ts.conditional_weight(1, ["a"]) == Fraction(1, 2)


def test_profile_validation():
    ts = two_by_two()
    with pytest.raises(DomainError):
        ts.conditional_weight(2, ("lo",))


# -- outcomes, rules, mechanisms ---------------------------------------------


def test_outcome_payload_coercion():
    x = Outcome("x", ("1/2", 1))
    assert x.payload == (Fraction(1, 2), Fraction(1))
    with pytest.raises(ConstructionError):
        Outcome("", ())
    with pytest.raises(ConstructionError):
        Outcome("x", (0.5,))


def rule_for(ts):
    win = Outcome("win", (Fraction(1),))
    tie = Outcome("tie", (Fraction(1, 2),))
    table = {}
    for t1, t2 in itertools.product(*ts.types_of):
        table[(t1, t2)] = tie if t1 == t2 else win
    return SocialChoiceFunction(ts.types_of, table)


def test_scf_totality_enforced():
    ts = two_by_two()
    scf = rule_for(ts)
    assert scf.outcome_of["lo", "hi"].label == "win"
    assert scf.outcome_of["hi", "hi"].label == "tie"
    table = dict(scf.outcome_of)
    del table[("lo", "lo")]
    with pytest.raises(ConstructionError):
        SocialChoiceFunction(ts.types_of, table)
    table = dict(scf.outcome_of)
    table[("lo", "mid")] = Outcome("win", (Fraction(1),))
    with pytest.raises(ConstructionError):
        SocialChoiceFunction(ts.types_of, table)


def test_outcome_labels_unique_within_rule():
    ts = two_by_two()
    table = {p: Outcome("x", (Fraction(1),)) for p in itertools.product(*ts.types_of)}
    table[("lo", "lo")] = Outcome("x", (Fraction(2),))
    with pytest.raises(ConstructionError):
        SocialChoiceFunction(ts.types_of, table)


def simple_mechanism():
    a = Outcome("a")
    b = Outcome("b")
    return Mechanism(
        (("l", "r"), ("l", "r")),
        {
            ("l", "l"): a,
            ("l", "r"): b,
            ("r", "l"): b,
            ("r", "r"): a,
        },
    )


def test_mechanism_table_checks():
    m = simple_mechanism()
    assert m.outcome_of["l", "r"].label == "b"
    # One walk: labels in first-appearance order, and the outcome position
    # of each flat action profile, agent 0 outermost.
    assert (m.walk.labels, m.walk.outcome, m.walk.strides) == (("a", "b"), [0, 1, 1, 0], [2, 1])
    assert m.walk is m.walk
    with pytest.raises(ConstructionError):
        Mechanism((("l", "l"),), {("l",): Outcome("a")})
    with pytest.raises(ConstructionError):
        Mechanism((("l", "r"),), {("l",): Outcome("a")})


# Outcomes with payloads, which a walk keeps.
TABLE_OUTCOMES = tuple(Outcome(f"x{k}", (Fraction(k, 3),)) for k in range(3))


@st.composite
def label_tables(draw, agents=None, prefix="a"):
    """Label lists for 1 to 4 agents (or `agents`), 1 to 3 labels each, and
    a total table over them of up to 3 outcomes, its rows inserted in a
    shuffled order."""
    agents = agents or draw(st.integers(1, 4))
    label_lists = tuple(
        tuple(f"{prefix}{i}{k}" for k in range(draw(st.integers(1, 3)))) for i in range(agents)
    )
    profiles = draw(st.permutations(list(itertools.product(*label_lists))))
    outcomes = draw(st.lists(st.sampled_from(TABLE_OUTCOMES), min_size=len(profiles),
                             max_size=len(profiles)))
    return label_lists, dict(zip(profiles, outcomes))


def brute_force_walk(label_lists, table):
    """The walk of a table found by brute force: the distinct outcomes in
    first appearance over `itertools.product`, each profile's outcome
    position, and each agent's stride, the product of the later agents'
    label counts."""
    outcomes, outcome = [], []
    for profile in itertools.product(*label_lists):
        if table[profile] not in outcomes:
            outcomes.append(table[profile])
        outcome.append(outcomes.index(table[profile]))
    sizes = [len(labels) for labels in label_lists]
    strides = [math.prod(sizes[j + 1 :]) for j in range(len(sizes))]
    return tuple(outcomes), outcome, strides


def check_read_table(mechanism, label_lists, table):
    """A mechanism holds the walk brute force finds, and its `outcome_of`
    is the table, keyed in `itertools.product` order."""
    walk = mechanism.walk
    assert (walk.outcomes, walk.outcome, walk.strides) == brute_force_walk(label_lists, table)
    assert walk.labels == tuple(x.label for x in walk.outcomes)
    assert mechanism.outcome_of == table
    assert list(mechanism.outcome_of) == list(itertools.product(*label_lists))


@settings(SETTINGS, max_examples=100)
@given(label_tables())
def test_a_label_table_reads_into_its_walk_and_back(drawn):
    label_lists, table = drawn
    for cls in (Mechanism, SocialChoiceFunction):
        check_read_table(cls(label_lists, table), label_lists, table)


# -- costs and utilities ------------------------------------------------------


def test_cost_model_invariants():
    c = CostModel(
        strategic={(0, "r", "lo"): Fraction(1, 2)},
        misreport={(0, "lo", "hi"): Fraction(1, 4), (0, "hi", "lo"): Fraction(0)},
    )
    assert c.strategic == {(0, "r", "lo"): Fraction(1, 2)}
    assert c.misreport == {(0, "lo", "hi"): Fraction(1, 4), (0, "hi", "lo"): 0}
    with pytest.raises(ConstructionError):
        CostModel(strategic={(0, "r", "lo"): Fraction(-1)})
    with pytest.raises(ConstructionError):
        CostModel(misreport={(0, "lo", "lo"): Fraction(1)})


def test_cost_model_validate_against_catches_strays():
    ts = two_by_two()
    m = simple_mechanism()
    CostModel(strategic={(0, "r", "lo"): Fraction(1)}).validate_against(m, ts)
    with pytest.raises(DomainError):
        CostModel(strategic={(0, "zz", "lo"): Fraction(1)}).validate_against(m, ts)
    with pytest.raises(DomainError):
        CostModel(misreport={(0, "lo", "zz"): Fraction(1)}).validate_against(m, ts)
    with pytest.raises(DomainError):
        CostModel(strategic={(5, "r", "lo"): Fraction(1)}).validate_against(m, ts)


def test_utility_table_reads_rationals():
    u = UtilityTable({(0, "a", "lo"): "3/2"})
    assert u.table == {(0, "a", "lo"): Fraction(3, 2)}


def test_expost_payoff_subtracts_only_strategic_cost():
    # Misreporting costs never enter a game's ex-post payoff: only a direct
    # game charges them, as the strategic cost of each report.
    u = UtilityTable({(0, x, t): Fraction(2) for x in "ab" for t in ("lo", "hi")})
    c = CostModel(strategic={(0, "r", "lo"): HALF}, misreport={(0, "lo", "hi"): Fraction(10)})
    game = game_with(utilities=u, costs=c)
    assert expost_game(game, ("lo",)).payoffs == {
        ("l",): (Fraction(2),), ("r",): (Fraction(3, 2),)
    }
    assert expost_game(game, ("hi",)).payoffs == {("l",): (2,), ("r",): (2,)}


def test_a_utility_shift_shifts_every_expost_payoff():
    # Shifting the utility of every outcome by k shifts the profit of every
    # action by k.
    shift = Fraction(7, 3)
    base = {(0, "a", "lo"): 1, (0, "b", "lo"): HALF, (0, "a", "hi"): -2, (0, "b", "hi"): 0}
    costs = CostModel(strategic={(0, "r", "lo"): Fraction(1, 5), (0, "l", "hi"): Fraction(3, 7)})
    for t in ("lo", "hi"):
        before, after = (
            expost_game(game_with(utilities=UtilityTable(u), costs=costs), (t,)).payoffs
            for u in (base, {k: v + shift for k, v in base.items()})
        )
        assert after == {acts: (v + shift,) for acts, (v,) in before.items()}


# -- fault locations -----------------------------------------------------------


def game_with(**changes):
    """A one-agent game (types lo, hi; actions l, r) with one part replaced."""
    a, b = Outcome("a"), Outcome("b")
    parts = {
        "mechanism": Mechanism((("l", "r"),), {("l",): a, ("r",): b}),
        "type_space": TypeSpace.uniform([("lo", "hi")]),
        "utilities": UtilityTable({(0, x, t): 1 for x in "ab" for t in ("lo", "hi")}),
        "costs": CostModel(),
    }
    return BayesianGame(**{**parts, **changes})


HALF = Fraction(1, 2)


def bits_prior(bits):
    """A two-type prior whose one denominator has `bits` bits."""
    low = Fraction(1, 2 ** (bits - 1))
    return dict(zip("ab", (low, 1 - low)))


FAULTS = [
    (lambda: TypeSpace.uniform([]), ("types",), "types: expected at least one agent"),
    (lambda: TypeSpace.uniform([("a",), ()]), ("types", 1),
     "types[1]: expected at least one label"),
    (lambda: TypeSpace.uniform([("a", "")]), ("types", 0),
     "types[0]: labels must be non-empty strings, got ''"),
    (lambda: TypeSpace.uniform([("a", "a")]), ("types", 0),
     "types[0]: duplicate labels in ['a', 'a']"),
    (lambda: TypeSpace((("a",),), ()), ("priors",),
     "priors: expected one prior object per agent"),
    (lambda: TypeSpace((("a", "b"),), ({"a": 1},)), ("priors", 0),
     "priors[0]: types ['a'] do not match the declared types ['a', 'b']"),
    (lambda: TypeSpace((("a", "b"),), ({"a": 1, "b": 0},)), ("priors", 0, "b"),
     "priors[0][b]: must be positive, got 0"),
    (lambda: TypeSpace((("a", "b"),), ({"a": HALF, "b": Fraction(1, 3)},)), ("priors", 0),
     "priors[0]: probabilities must sum to 1, got 5/6"),
    (lambda: TypeSpace((("a",),), ({"a": "x"},)), ("priors", 0, "a"),
     "priors[0][a]: cannot parse 'x' as a rational"),
    (lambda: Outcome(""), ("outcomes", "", "label"),
     "outcomes[''].label: labels must be non-empty strings, got ''"),
    (lambda: Outcome("x", (0.5,)), ("outcomes", "x", "payload"),
     "outcomes['x'].payload: floats are not accepted; pass an int, Fraction, or 'p/q' string"),
    (lambda: Mechanism((), {}), ("actions",), "actions: expected at least one agent"),
    (lambda: Mechanism((("l", "r"),), {("l",): Outcome("a")}), ("outcome_function",),
     "outcome_function: no row for action profile ('r',)"),
    (lambda: Mechanism((("l",),), {("l",): Outcome("a"), ("x",): Outcome("a")}),
     ("outcome_function", ("x",)),
     "outcome_function[('x',)]: ('x',) is not a declared action profile"),
    (lambda: Mechanism((("l", "r"),), {("l",): Outcome("a"), ("r",): Outcome("a", (1,))}),
     ("outcome_function", ("r",), "outcome"),
     "outcome_function[('r',)].outcome: two different outcomes share label 'a'"),
    (lambda: Mechanism((("l",),), {("l",): "a"}), ("outcome_function", ("l",), "outcome"),
     "outcome_function[('l',)].outcome: expected an Outcome, got str"),
    (lambda: SocialChoiceFunction((("lo", "hi"),), {("hi",): Outcome("a")}),
     ("rule",), "rule: no row for type profile ('lo',)"),
    (lambda: CostModel(strategic={(0, "r", "lo"): -1}), ("strategic_costs", (0, "r", "lo"), "cost"),
     "strategic_costs[(0, 'r', 'lo')].cost: must be non-negative, got -1"),
    (lambda: CostModel(misreport={(0, "lo", "lo"): 1}),
     ("misreport_costs", (0, "lo", "lo"), "cost"),
     "misreport_costs[(0, 'lo', 'lo')].cost: an honest report must cost 0, got 1"),
    (lambda: CostModel(strategic={(True, "r", "lo"): 1}), ("strategic_costs", (True, "r", "lo")),
     "strategic_costs[(True, 'r', 'lo')]: key must be (agent, label, label)"),
    (lambda: UtilityTable({(0, "a", "lo"): "w"}), ("utilities", (0, "a", "lo"), "value"),
     "utilities[(0, 'a', 'lo')].value: cannot parse 'w' as a rational"),
    (lambda: UtilityTable({(0, "a", "lo"): Fraction(1, 2**2048)}), ("utilities",),
     "utilities: distinct denominators of 2049 bits in all exceed the limit of 2048"),
    (lambda: CostModel({(0, "r", t): Fraction(1, 2**k) for t, k in (("lo", 1024), ("hi", 1023))}),
     ("strategic_costs",),
     "strategic_costs: distinct denominators of 2049 bits in all exceed the limit of 2048"),
    (lambda: CostModel(misreport={(0, "lo", "hi"): Fraction(1, 2**2048)}), ("misreport_costs",),
     "misreport_costs: distinct denominators of 2049 bits in all exceed the limit of 2048"),
    (lambda: TypeSpace((("a", "b"), ("a", "b")), (bits_prior(1025), bits_prior(1024))),
     ("priors",), "priors: distinct denominators of 2049 bits in all exceed the limit of 2048"),
    (lambda: game_with(type_space=TypeSpace.uniform([("lo",), ("lo",)])), ("actions",),
     "actions: expected 2 action sets, one per agent, got 1"),
    (lambda: game_with(utilities=UtilityTable({(0, "a", "lo"): 1})), ("utilities",),
     "utilities: no row for (agent, outcome, type) (0, 'a', 'hi')"),
    (lambda: game_with(costs=CostModel({(0, "zz", "lo"): 1})), ("strategic_costs", (0, "zz", "lo")),
     "strategic_costs[(0, 'zz', 'lo')]: (0, 'zz', 'lo') is not a declared (agent, action, type)"),
    (lambda: game_with(costs=CostModel(misreport={(0, "lo", "mid"): 1})),
     ("misreport_costs", (0, "lo", "mid")),
     "misreport_costs[(0, 'lo', 'mid')]: (0, 'lo', 'mid') is not a declared "
     "(agent, true type, reported type)"),
]


@pytest.mark.parametrize("make, at, message", FAULTS, ids=[m for _, _, m in FAULTS])
def test_each_rule_raises_once_with_its_location(make, at, message):
    with pytest.raises(GameModelError) as info:
        make()
    exc = info.value
    assert exc.at == at
    assert str(exc) == message
    assert message.endswith(f": {exc.problem}")


def test_the_denominator_bound_counts_each_distinct_denominator_once():
    # 2**2047 has 2,048 bits: at the bound, however many values share it.
    at_bound = Fraction(1, 2**2047)
    UtilityTable({(0, x, "lo"): k * at_bound for k, x in zip((1, 3, 5, -7), "abcd")})
    CostModel({(0, "r", "lo"): at_bound}, {(0, "lo", "hi"): at_bound})
    TypeSpace((("a", "b"), ("a", "b")), (bits_prior(1025), bits_prior(1023)))
    # A second denominator, 3, adds its 2 bits.
    with pytest.raises(ConstructionError, match="2050 bits"):
        UtilityTable({(0, "a", "lo"): at_bound, (0, "a", "hi"): Fraction(1, 3)})


def test_a_fault_outside_any_config_names_its_agent_and_key():
    game = random_zero_cost_game(random.Random(3))
    utility = dict(game.utilities.table)
    del utility[(1, "x0", "t0")]
    with pytest.raises(DomainError) as info:
        BayesianGame(game.mechanism, game.type_space, UtilityTable(utility), game.costs)
    assert str(info.value) == "utilities: no row for (agent, outcome, type) (1, 'x0', 't0')"
    costs = build_scenario(LaborParams(1, 2, 1, "3/2")).game.costs
    with pytest.raises(ConstructionError) as info:
        CostModel(costs.strategic, {**costs.misreport, (1, "theta_L", "theta_H"): Fraction(-1)})
    assert str(info.value) == (
        "misreport_costs[(1, 'theta_L', 'theta_H')].cost: must be non-negative, got -1"
    )


# -- the lock-free cached_property and the field order `_checked` reads -----------


def revaudit_classes():
    """Every class defined in a revaudit module."""
    names = sorted(m.name for m in pkgutil.iter_modules(revaudit.__path__))
    modules = [importlib.import_module(f"revaudit.{name}") for name in names]
    return [
        cls for m in modules for cls in vars(m).values()
        if inspect.isclass(cls) and cls.__module__ == m.__name__
    ]


@dataclass(frozen=True)
class _Lazy:
    x: int
    calls: list = field(default_factory=list, compare=False)

    @core.cached_property
    def doubled(self):
        self.calls.append(self.x)
        if self.x < 0:
            raise ValueError("negative")
        return 2 * self.x


def test_a_cached_property_computes_once_and_keeps_its_value_on_the_instance():
    a, b = _Lazy(3), _Lazy(4)
    assert (a.doubled, a.doubled, b.doubled) == (6, 6, 8)
    assert (a.calls, b.calls) == ([3], [4])  # once per instance, on a frozen dataclass
    assert vars(a)["doubled"] == 6
    assert type(vars(_Lazy)["doubled"]) is core.cached_property
    assert _Lazy.doubled is vars(_Lazy)["doubled"]  # read on the class: the descriptor


def test_a_cached_property_whose_getter_raises_caches_nothing():
    bad = _Lazy(-1)
    for _ in range(2):
        with pytest.raises(ValueError, match="negative"):
            bad.doubled
    assert bad.calls == [-1, -1]
    assert "doubled" not in vars(bad)


def test_every_cached_value_takes_the_lock_free_path():
    # A plain functools.cached_property would still work, but lock each first read.
    cached = {
        f"{cls.__name__}.{name}": type(attr)
        for cls in revaudit_classes() for name, attr in vars(cls).items()
        if isinstance(attr, functools.cached_property)
    }
    assert cached == dict.fromkeys([
        "TypeSpace.weights", "TypeSpace.positions", "OutcomeWalk.labels", "Mechanism.outcome_of",
        "Mechanism.positions", "UtilityTable.scaled",
        "BayesianGame._tables", "BayesianGame._truthful_rows",
        "BayesianGame._truthful_witness", "Scenario.rows_of", "Scenario.equilibrium",
        "Scenario.plays_rule", "Scenario.implemented", "Scenario.audit",
        "LaborScenario.break_even",
    ], core.cached_property)


def test_every_dataclass_matches_its_fields_in_order():
    # `_checked` assigns its values to the names in `__match_args__`.
    classes = [cls for cls in revaudit_classes() if dataclasses.is_dataclass(cls)]
    assert {core.TypeSpace, core.SocialChoiceFunction, LaborParams} <= set(classes)
    for cls in classes:
        assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls)), cls
