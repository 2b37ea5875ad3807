"""Model-layer checks: exact rationals, priors, tables, and their invariants."""

from fractions import Fraction

import pytest

from revaudit.core import (
    ConstructionError,
    CostModel,
    DomainError,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    as_rational,
    check_literal_size,
    profit,
    rational_str,
)


def test_as_rational_parses_exactly():
    assert as_rational("3/2") == Fraction(3, 2)
    assert as_rational(2) == Fraction(2)
    assert as_rational(Fraction(5, 7)) == Fraction(5, 7)
    assert as_rational(" 1/3 ") == Fraction(1, 3)


@pytest.mark.parametrize("bad", [1.5, True, "a/b", "1/0", None, [1]])
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


def test_literal_check_reads_the_exponent_only_when_there_is_one():
    for ok in ("12", "-7" + "0" * 98, "1/3", "1e100", "-1E-100", "2.5e+100", "e", "1e"):
        assert check_literal_size(ok) == ok
    for bad in ("1e101", "1E-101", "2.5e+101", "1" * 101):
        with pytest.raises(ConstructionError, match="exceeds the limit of 100"):
            check_literal_size(bad)


def test_rational_str_round_trips():
    for v in (Fraction(3, 2), Fraction(-7, 3), Fraction(4), Fraction(0)):
        assert Fraction(rational_str(v)) == v


# -- type spaces -------------------------------------------------------------


def two_by_two(p_high=Fraction(1, 2)):
    prior = {"lo": 1 - p_high, "hi": p_high}
    return TypeSpace((("lo", "hi"), ("lo", "hi")), (dict(prior), dict(prior)))


def test_uniform_prior_default():
    ts = TypeSpace.uniform([("a", "b", "c"), ("x",)])
    assert ts.prior(0, "b") == Fraction(1, 3)
    assert ts.prior(1, "x") == Fraction(1)


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


def test_profiles_are_lexicographic():
    ts = two_by_two()
    assert ts.profiles() == (
        ("lo", "lo"),
        ("lo", "hi"),
        ("hi", "lo"),
        ("hi", "hi"),
    )


def test_joint_prior_is_product_of_marginals():
    assert two_by_two().joint_prior(("lo", "hi")) == Fraction(1, 4)
    ts = TypeSpace(
        (("a", "b"), ("c", "d")),
        (
            {"a": Fraction(3, 4), "b": Fraction(1, 4)},
            {"c": Fraction(2, 3), "d": Fraction(1, 3)},
        ),
    )
    assert ts.joint_prior(("a", "c")) == Fraction(1, 2)
    assert sum(ts.joint_prior(p) for p in ts.profiles()) == 1


def test_conditional_weight_divides_out_own_marginal():
    ts = TypeSpace(
        (("a", "b"), ("c", "d")),
        (
            {"a": Fraction(3, 4), "b": Fraction(1, 4)},
            {"c": Fraction(2, 3), "d": Fraction(1, 3)},
        ),
    )
    for own in ("a", "b"):
        for opp in ts.opponent_profiles(0):
            joint = ts.joint_prior((own,) + opp)
            assert ts.conditional_weight(0, opp) == joint / ts.prior(0, own)
    assert sum(ts.conditional_weight(0, opp) for opp in ts.opponent_profiles(0)) == 1


def test_single_agent_has_one_empty_opponent_profile():
    ts = TypeSpace.uniform([("a", "b")])
    assert ts.opponent_profiles(0) == ((),)
    assert ts.conditional_weight(0, ()) == 1


def test_profile_validation():
    ts = two_by_two()
    with pytest.raises(DomainError):
        ts.joint_prior(("lo",))
    with pytest.raises(DomainError):
        ts.joint_prior(("lo", "mid"))
    with pytest.raises(DomainError):
        ts.prior(2, "lo")


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
    for t1, t2 in ts.profiles():
        table[(t1, t2)] = tie if t1 == t2 else win
    return SocialChoiceFunction(ts, table)


def test_scf_totality_enforced():
    ts = two_by_two()
    scf = rule_for(ts)
    assert scf.evaluate(("lo", "hi")).label == "win"
    assert scf.evaluate(("hi", "hi")).label == "tie"
    with pytest.raises(DomainError):
        scf.evaluate(("lo", "mid"))
    table = dict(scf.table)
    del table[("lo", "lo")]
    with pytest.raises(ConstructionError):
        SocialChoiceFunction(ts, table)
    table = dict(scf.table)
    table[("lo", "mid")] = Outcome("win", (Fraction(1),))
    with pytest.raises(ConstructionError):
        SocialChoiceFunction(ts, table)


def test_outcome_labels_unique_within_rule():
    ts = two_by_two()
    table = {p: Outcome("x", (Fraction(1),)) for p in ts.profiles()}
    table[("lo", "lo")] = Outcome("x", (Fraction(2),))
    with pytest.raises(ConstructionError):
        SocialChoiceFunction(ts, table)


def test_scf_outcomes_in_first_appearance_order():
    ts = two_by_two()
    assert [x.label for x in rule_for(ts).outcomes()] == ["tie", "win"]


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
    assert m.outcome(("l", "r")).label == "b"
    assert [x.label for x in m.outcomes()] == ["a", "b"]
    with pytest.raises(DomainError):
        m.outcome(("l", "x"))
    with pytest.raises(ConstructionError):
        Mechanism((("l", "l"),), {("l",): Outcome("a")})
    with pytest.raises(ConstructionError):
        Mechanism((("l", "r"),), {("l",): Outcome("a")})


# -- costs and utilities ------------------------------------------------------


def test_cost_model_invariants():
    c = CostModel(
        strategic={(0, "r", "lo"): Fraction(1, 2)},
        misreport={(0, "lo", "hi"): Fraction(1, 4), (0, "hi", "lo"): Fraction(0)},
    )
    assert c.strategic_cost(0, "r", "lo") == Fraction(1, 2)
    assert c.strategic_cost(0, "l", "lo") == 0
    assert c.misreport_cost(0, "lo", "hi") == Fraction(1, 4)
    assert c.misreport_cost(0, "hi", "hi") == 0
    assert c.misreport_cost(1, "lo", "hi") == 0
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


def test_utility_table_lookup():
    u = UtilityTable({(0, "a", "lo"): "3/2"})
    assert u.utility(0, "a", "lo") == Fraction(3, 2)
    assert u.utility(0, Outcome("a"), "lo") == Fraction(3, 2)
    with pytest.raises(DomainError):
        u.utility(0, "b", "lo")


def test_profit_subtracts_only_strategic_cost():
    u = UtilityTable({(0, "a", "lo"): Fraction(2)})
    c = CostModel(
        strategic={(0, "r", "lo"): Fraction(1, 2)},
        misreport={(0, "lo", "hi"): Fraction(10)},
    )
    assert profit(0, Outcome("a"), "r", "lo", u, c) == Fraction(3, 2)
    assert profit(0, Outcome("a"), "l", "lo", u, c) == Fraction(2)


def test_profit_is_additively_separable_in_utility():
    # Shifting the utility of every outcome by k shifts profit by k for any action.
    shift = Fraction(7, 3)
    base = {(0, "a", "lo"): Fraction(1), (0, "b", "lo"): Fraction(1, 2)}
    u1 = UtilityTable(base)
    u2 = UtilityTable({k: v + shift for k, v in base.items()})
    c = CostModel(strategic={(0, "r", "lo"): Fraction(1, 5)})
    for outcome in ("a", "b"):
        for action in ("l", "r"):
            assert (
                profit(0, Outcome(outcome), action, "lo", u2, c)
                - profit(0, Outcome(outcome), action, "lo", u1, c)
                == shift
            )
