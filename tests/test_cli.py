"""Command line harness, driven in-process through main(argv).

Exit code contract: 0 no violation / clean survey, 1 bad input or a failed
reference check, 2 violation found."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
import reference_engine as ref

from revaudit import auditor, cli, core, equilibrium, labor, serialize
from revaudit.cli import build_parser, main
from revaudit.equilibrium import find_all_pure_bne
from revaudit.serialize import parse_generic_scenario, profile_to_jsonable


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def labor_cfg(tmp_path, **overrides):
    cfg = {"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "3/2", "c_mis": "1/2"}
    cfg.update(overrides)
    return write_json(tmp_path, "labor.json", cfg)


def signal_config(with_profile=True):
    """One worker signalling type by a costly action; misreporting is free, so
    the rule's direct game loses truth-telling while the signal game keeps
    its separating equilibrium."""
    cfg = {
        "kind": "generic",
        "types": [["lo", "hi"]],
        "actions": [["0", "e"]],
        "outcomes": [{"label": "prize"}, {"label": "nothing"}],
        "outcome_function": [
            {"actions": ["0"], "outcome": "nothing"},
            {"actions": ["e"], "outcome": "prize"},
        ],
        "rule": [
            {"types": ["lo"], "outcome": "nothing"},
            {"types": ["hi"], "outcome": "prize"},
        ],
        "utilities": [
            {"agent": 0, "outcome": "prize", "type": "lo", "value": 1},
            {"agent": 0, "outcome": "prize", "type": "hi", "value": 1},
            {"agent": 0, "outcome": "nothing", "type": "lo", "value": 0},
            {"agent": 0, "outcome": "nothing", "type": "hi", "value": 0},
        ],
        "strategic_costs": [
            {"agent": 0, "action": "e", "type": "lo", "cost": 2},
            {"agent": 0, "action": "e", "type": "hi", "cost": "1/2"},
        ],
    }
    if with_profile:
        cfg["profile"] = [{"lo": "0", "hi": "e"}]
    return cfg


def single_agent_signal_cfg(tmp_path, with_profile=True):
    return write_json(tmp_path, "signal.json", signal_config(with_profile))


# -- analyze ---------------------------------------------------------------------


def test_analyze_labor_violation(tmp_path, capsys):
    code = main(["analyze", labor_cfg(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["kind"] == "labor"
    assert payload["params"]["w"] == "3/2"
    assert payload["separating"]["in_window"] is True
    assert payload["truthful"]["unique_bne_all_report_high"] is True
    assert payload["audit"]["violation"] is True
    assert payload["audit"]["truthful_witness"]["gain"] == "1/4"


def test_analyze_labor_clean_when_misreporting_dear(tmp_path, capsys):
    code = main(["analyze", labor_cfg(tmp_path, c_mis=1)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["audit"]["violation"] is False
    assert payload["audit"]["truthful_is_bne"] is True


def test_analyze_prior_high_override(tmp_path, capsys):
    # The config's prior_high overrides the default prior of 1/2.
    code = main(["analyze", labor_cfg(tmp_path, prior_high="9/10")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["params"]["prior_high"] == "9/10"
    assert payload["audit"]["violation"] is True


def test_analyze_rejects_malformed_prior(tmp_path, capsys):
    code = main(["analyze", labor_cfg(tmp_path, prior_high="almost-one")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: config.prior_high: cannot parse 'almost-one' as a rational\n"


@pytest.mark.parametrize("command", ["analyze", "matrices"])
@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("w", 0, "wage must be positive, got 0"),
        ("c_mis", -1, "misreporting cost must be non-negative, got -1"),
        ("e_H", 0, "education level e_H must be positive, got 0"),
        ("prior_high", 1, "prior_high must lie strictly between 0 and 1, got 1"),
        ("theta_L", 3, "need 0 < theta_L < theta_H, got theta_L=3, theta_H=2"),
    ],
)
def test_a_labor_range_fault_names_its_field(tmp_path, capsys, command, field, value, problem):
    code = main([command, labor_cfg(tmp_path, **{field: value})])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: config.{field}: {problem}\n"


def test_analyze_rejects_bad_labor_parameters(tmp_path, capsys):
    code = main(["analyze", labor_cfg(tmp_path, theta_L=3)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "theta_L" in err


def test_analyze_generic_violation_with_declared_profile(tmp_path, capsys):
    code = main(["analyze", single_agent_signal_cfg(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["kind"] == "generic"
    assert payload["profile_source"] == "declared"
    assert payload["audit"]["implemented"] is True
    assert payload["audit"]["violation"] is True


def test_analyze_generic_searches_for_a_profile(tmp_path, capsys):
    code = main(["analyze", single_agent_signal_cfg(tmp_path, with_profile=False)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["profile_source"] == "first equilibrium implementing the rule"


def pennies_cfg():
    """Matching pennies against a two-type opponent: no pure equilibrium."""
    return {
        "kind": "generic",
        "types": [["a", "a2"], ["b"]],
        "actions": [["h", "t"], ["h", "t"]],
        "outcomes": [{"label": "match"}, {"label": "miss"}],
        "outcome_function": [
            {"actions": [x, y], "outcome": "match" if x == y else "miss"}
            for x in "ht" for y in "ht"
        ],
        "rule": [
            {"types": ["a", "b"], "outcome": "match"},
            {"types": ["a2", "b"], "outcome": "miss"},
        ],
        "utilities": [
            {"agent": agent, "outcome": x, "type": t, "value": int((x == "match") == (agent == 0))}
            for agent, types in ((0, ("a", "a2")), (1, ("b",)))
            for x in ("match", "miss")
            for t in types
        ],
    }


def test_analyze_generic_falls_back_to_first_profile(tmp_path, capsys):
    """Matching pennies has no pure equilibrium, so the audit runs on the
    first enumerated profile."""
    cfg = pennies_cfg()
    code = main(["analyze", write_json(tmp_path, "pennies.json", cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["profile_source"] == "first enumerated profile"
    game = parse_generic_scenario(cfg).game
    first = ref.profiles(game)[0]
    assert payload["audit"]["indirect_equilibrium"] == profile_to_jsonable(first)
    assert payload["audit"]["chain"]["vacuous"] is True


def test_analyze_generic_clean_exit(tmp_path, capsys):
    cfg = {
        "kind": "generic",
        "types": [["t"]],
        "actions": [["a", "b"]],
        "outcomes": [{"label": "x"}, {"label": "y"}],
        "outcome_function": [
            {"actions": ["a"], "outcome": "x"},
            {"actions": ["b"], "outcome": "y"},
        ],
        "rule": [{"types": ["t"], "outcome": "x"}],
        "utilities": [
            {"agent": 0, "outcome": "x", "type": "t", "value": 1},
            {"agent": 0, "outcome": "y", "type": "t", "value": 0},
        ],
    }
    code = main(["analyze", write_json(tmp_path, "clean.json", cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["audit"]["violation"] is False


def test_analyze_profile_cap(tmp_path, capsys):
    code = main(
        ["analyze", single_agent_signal_cfg(tmp_path, with_profile=False), "--max-profiles", "2"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "two", "1_000", " 5 ", "\u0661\u0660"])
def test_analyze_rejects_a_profile_cap_below_one(tmp_path, capsys, value):
    # Rejected while parsing, even when a declared profile means no search runs.
    # int() reads the last three as 1000, 5 and 10, but a config literal of
    # the same form is refused, and so is the cap.
    code = main(["analyze", single_agent_signal_cfg(tmp_path), "--max-profiles", value])
    assert code == 1
    if value in ("0", "-3"):
        problem = f"must be at least 1, got {value}"
    else:
        problem = f"invalid int value: {value!r}"
    assert f"argument --max-profiles: {problem}" in capsys.readouterr().err


def test_analyze_unknown_kind(tmp_path, capsys):
    path = write_json(tmp_path, "odd.json", {"kind": "auction"})
    code = main(["analyze", path])
    assert code == 1
    assert "unknown config kind" in capsys.readouterr().err


def test_analyze_missing_file(capsys):
    code = main(["analyze", "/nonexistent/cfg.json"])
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err


def two_agent_cfg():
    """Agent 0 (types a, b) picks the outcome with action 0 or 1; agent 1 has
    one type and one action. The declared profile implements the rule."""
    return {
        "kind": "generic",
        "types": [["a", "b"], ["c"]],
        "actions": [["0", "1"], ["z"]],
        "outcomes": [{"label": "o1"}, {"label": "o2"}],
        "outcome_function": [
            {"actions": ["0", "z"], "outcome": "o1"},
            {"actions": ["1", "z"], "outcome": "o2"},
        ],
        "rule": [
            {"types": ["a", "c"], "outcome": "o1"},
            {"types": ["b", "c"], "outcome": "o2"},
        ],
        "utilities": [
            {"agent": 0, "outcome": "o1", "type": "a", "value": 1},
            {"agent": 0, "outcome": "o2", "type": "a", "value": 0},
            {"agent": 0, "outcome": "o1", "type": "b", "value": 0},
            {"agent": 0, "outcome": "o2", "type": "b", "value": 1},
            {"agent": 1, "outcome": "o1", "type": "c", "value": 0},
            {"agent": 1, "outcome": "o2", "type": "c", "value": 0},
        ],
        "strategic_costs": [],
        "misreport_costs": [],
        "profile": [{"a": "0", "b": "1"}, {"c": "z"}],
    }


def swapped_rule_cfg():
    """two_agent_cfg without its profile and with the rule's outcomes
    swapped: agent 0's one equilibrium plays o1 at a and o2 at b, not the
    rule, and the rule's direct game rewards misreporting."""
    cfg = two_agent_cfg()
    del cfg["profile"]
    cfg["rule"] = [
        {"types": ["a", "c"], "outcome": "o2"},
        {"types": ["b", "c"], "outcome": "o1"},
    ]
    return cfg


def tied_rule_cfg():
    """two_agent_cfg without its profile, type a indifferent between the
    outcomes and a rule that is always o2: of the two equilibria, in
    enumeration order, only the second plays the rule."""
    cfg = two_agent_cfg()
    del cfg["profile"]
    cfg["utilities"][1]["value"] = 1  # agent 0 at type a values o2 as o1
    cfg["rule"] = [
        {"types": ["a", "c"], "outcome": "o2"},
        {"types": ["b", "c"], "outcome": "o2"},
    ]
    return cfg


def test_analyze_generic_falls_back_to_the_first_equilibrium(tmp_path, capsys):
    cfg = swapped_rule_cfg()
    code = main(["analyze", write_json(tmp_path, "swapped.json", cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["profile_source"] == "first equilibrium"
    audit = payload["audit"]
    assert audit["implemented"] is False
    assert audit["truthful_is_bne"] is False
    assert audit["chain"]["equilibrium_inequalities_hold"] is True
    first = find_all_pure_bne(parse_generic_scenario(cfg).game)[0]
    assert audit["indirect_equilibrium"] == profile_to_jsonable(first)


def coordination_cfg():
    """Two agents, one type each, who gain 1 when their actions match: the
    game's two equilibria are (a, a) and (b, b), and the rule picks the
    miss, which neither plays."""
    pairs = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    return {
        "kind": "generic",
        "types": [["t"], ["u"]],
        "actions": [["a", "b"], ["a", "b"]],
        "outcomes": [{"label": "match"}, {"label": "miss"}],
        "outcome_function": [
            {"actions": list(pair), "outcome": "match" if pair[0] == pair[1] else "miss"}
            for pair in pairs
        ],
        "rule": [{"types": ["t", "u"], "outcome": "miss"}],
        "utilities": [
            {"agent": i, "outcome": x, "type": t, "value": int(x == "match")}
            for i, t in enumerate("tu")
            for x in ("match", "miss")
        ],
        "strategic_costs": [],
        "misreport_costs": [],
    }


def test_analyze_generic_audits_the_first_of_two_equilibria_off_the_rule(tmp_path, capsys):
    # Neither equilibrium plays the rule, so the first in enumeration order
    # is audited: (a, a), not (b, b).
    code = main(["analyze", write_json(tmp_path, "coordination.json", coordination_cfg())])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["profile_source"] == "first equilibrium"
    audit = payload["audit"]
    assert audit["indirect_equilibrium"] == [
        {"agent": 0, "choice": [["t", "a"]]},
        {"agent": 1, "choice": [["u", "a"]]},
    ]
    assert audit["implemented"] is False
    assert audit["chain"]["equilibrium_inequalities_hold"] is True


def test_analyze_two_agent_generic_config_is_clean(tmp_path, capsys):
    code = main(["analyze", write_json(tmp_path, "generic.json", two_agent_cfg())])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["audit"]["implemented"] is True


def inserted_row(table, k, row):
    """A malformed-config case: `row` inserted into `table` at index k, the
    row the error must name."""
    rows = two_agent_cfg()[table]
    return ([table], rows[:k] + [row] + rows[k:], f"config.{table}[{k}]")


def removed_row(table, k):
    """A malformed-config case: row k left out of `table`, which the error
    must name."""
    rows = two_agent_cfg()[table]
    return ([table], rows[:k] + rows[k + 1:], f"config.{table}")


def rule_only_outcome_cfg():
    """o2 is reached by the rule only, and agent 0 has no utility for it at
    type a. Only the direct game's own check sees this."""
    cfg = two_agent_cfg()
    cfg["outcome_function"][1]["outcome"] = "o1"
    del cfg["utilities"][1]
    return cfg


COST_ROW = {"agent": 0, "action": "1", "type": "a", "cost": 1}
MISREPORT_ROW = {"agent": 0, "true_type": "a", "reported_type": "b", "cost": 1}

MALFORMED_GENERIC = [
    (["priors"], [["a"], ["c"]], "config.priors[0]"),
    *(
        ([key], 1, f"config.{key}")
        for key in (
            "outcomes", "outcome_function", "rule", "utilities",
            "strategic_costs", "misreport_costs",
        )
    ),
    (["outcomes", 0, "payload"], 1, "config.outcomes[0].payload"),
    (["outcome_function", 0, "actions"], "0z", "config.outcome_function[0].actions"),
    (["rule", 0, "types"], "ac", "config.rule[0].types"),
    (["profile", 0, "a"], 1, "config.profile"),
    # Each row key may appear once per table.
    inserted_row("outcome_function", 1, {"actions": ["0", "z"], "outcome": "o2"}),
    inserted_row("rule", 2, {"types": ["a", "c"], "outcome": "o2"}),
    inserted_row("utilities", 1, {"agent": 0, "outcome": "o1", "type": "a", "value": 5}),
    (["strategic_costs"], [COST_ROW, dict(COST_ROW, cost=2)], "config.strategic_costs[1]"),
    (["misreport_costs"], [MISREPORT_ROW, MISREPORT_ROW], "config.misreport_costs[1]"),
    # Utility rows may name only declared agents, types and outcomes.
    inserted_row("utilities", 6, {"agent": 7, "outcome": "o1", "type": "a", "value": 1}),
    inserted_row("utilities", 0, {"agent": 0, "outcome": "o1", "type": "typo", "value": 1}),
    inserted_row("utilities", 3, {"agent": 1, "outcome": "o3", "type": "c", "value": 1}),
    # Faults the game model catches, named by the config field that holds
    # them; the last element tells apart cases that name the same field.
    (["strategic_costs"], [dict(COST_ROW, cost=-1)], "config.strategic_costs[0].cost", "negative"),
    (["misreport_costs"], [MISREPORT_ROW, dict(MISREPORT_ROW, reported_type="a", cost=-1)],
     "config.misreport_costs[1].cost", "negative"),
    (["misreport_costs"], [dict(MISREPORT_ROW, reported_type="a")],
     "config.misreport_costs[0].cost", "honest-report"),
    (*removed_row("utilities", 2), "missing-row"),
    (*removed_row("outcome_function", 1), "missing-row"),
    (*removed_row("rule", 0), "missing-row"),
    ([], rule_only_outcome_cfg(), "config.utilities", "rule-only-outcome"),
    (["priors"], [{"a": "1/2", "b": "1/3"}, {"c": 1}], "config.priors[0]", "sum"),
    (["priors"], [{"a": 1, "b": 0}, {"c": 1}], "config.priors[0][b]", "zero"),
    (["priors"], [{"a": "1/2", "b": "1/2"}, {"c": 1, "d": 0}], "config.priors[1]", "extra-type"),
    (["types"], [], "config.types", "no-agent"),
    (["types", 0], ["a", "b", "a"], "config.types[0]", "duplicate-label"),
    (["actions", 1], [], "config.actions[1]", "empty"),
    (["actions"], [["0", "1"]], "config.actions", "agent-count"),
    (["outcomes", 1, "label"], "", "config.outcomes[1].label", "empty"),
    (["profile", 0, "a"], "9", "config.profile", "unknown-action"),
    (["profile", 0], {"a": "0"}, "config.profile", "missing-type"),
    (["kind"], 7, "config.kind"),
]


@pytest.mark.parametrize(
    "path, value, field",
    [case[:3] for case in MALFORMED_GENERIC],
    ids=["-".join(case[2:]) for case in MALFORMED_GENERIC],
)
def test_analyze_rejects_malformed_generic_config(tmp_path, capsys, path, value, field):
    if path:
        cfg = two_agent_cfg()
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:  # the case gives the whole config
        cfg = value
    code = main(["analyze", write_json(tmp_path, "generic.json", cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


def with_values(*values):
    """two_agent_cfg with its utility values replaced, row by row from row 0."""
    cfg = two_agent_cfg()
    for row, value in zip(cfg["utilities"], values):
        row["value"] = value
    return cfg


def with_rows(table, *rows, cfg=None):
    """`cfg` (by default two_agent_cfg) with `rows` appended to `table`."""
    cfg = cfg or two_agent_cfg()
    cfg[table] = cfg[table] + list(rows)
    return cfg


# A table is read by columns and walked row by row only to name a fault;
# each of these faults hides from one column check or another, and the
# walk must name the row and the fault that reading row by row names.
COLUMN_READER_HAZARDS = [
    pytest.param(with_values(1, True), "utilities[1].value: expected a rational, got a bool",
                 id="true-after-1"),
    pytest.param(with_values(True, 0, 0, 1), "utilities[0].value: expected a rational, got a bool",
                 id="1-after-true"),
    pytest.param(with_values(1, 0, [1]), "utilities[2].value: cannot interpret list as a rational",
                 id="list-value"),
    pytest.param(with_values(1, 0, {"x": 1}),
                 "utilities[2].value: cannot interpret dict as a rational", id="object-value"),
    pytest.param(with_rows("strategic_costs", dict(COST_ROW, cost=[1])),
                 "strategic_costs[0].cost: cannot interpret list as a rational", id="list-cost"),
    pytest.param(with_rows("misreport_costs", dict(MISREPORT_ROW, cost={"p": 1})),
                 "misreport_costs[0].cost: cannot interpret dict as a rational", id="object-cost"),
    pytest.param(with_rows("utilities", {"agent": 0, "outcome": "o2", "type": "b", "value": 5}),
                 "utilities[6]: duplicate (agent, outcome, type) (0, 'o2', 'b')",
                 id="duplicate-utility-of-another-value"),
    pytest.param(with_rows("strategic_costs", COST_ROW, dict(COST_ROW, action="0"),
                           dict(COST_ROW, cost="3/2")),
                 "strategic_costs[2]: duplicate (agent, action, type) (0, '1', 'a')",
                 id="duplicate-cost-of-another-value"),
    pytest.param(with_rows("utilities", {"agent": 1, "outcome": "o1", "type": "zz", "value": 0},
                           cfg=with_values(1, 0, "1/x")),
                 "utilities[2].value: cannot parse '1/x' as a rational",
                 id="bad-literal-before-an-undeclared-key"),
    pytest.param(with_rows("rule", {"types": ["a", "c"], "outcome": "o1"},
                           {"types": ["b", "c"], "outcome": "nope"}),
                 "rule[2]: duplicate type profile ('a', 'c')",
                 id="unknown-outcome-after-a-duplicate-profile"),
]


@pytest.mark.parametrize("cfg, fault", COLUMN_READER_HAZARDS)
def test_a_table_read_by_columns_names_its_first_faulty_row(tmp_path, capsys, cfg, fault):
    assert main(["analyze", write_json(tmp_path, "generic.json", cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: config.{fault}\n")


def test_one_value_written_three_ways_reads_as_one_rational(tmp_path, capsys):
    # 1, "1" and 1.0 (an int, a string and a JSON decimal) in one column
    # each read as 1, though a literal is parsed once per type and text.
    outputs = []
    for values in ([1, 0, 0, 1, 1, 1], ["1", 0, 0, 1.0, 1, 1]):
        assert main(["analyze", write_json(tmp_path, "generic.json", with_values(*values))]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""


def test_a_missing_utility_for_an_outcome_only_the_rule_reaches(tmp_path, capsys):
    code = main(["analyze", write_json(tmp_path, "generic.json", rule_only_outcome_cfg())])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: config.utilities: no row for (agent, outcome, type) (0, 'o2', 'a')\n"
    )


def test_the_direct_game_checks_utilities_only_where_the_game_did_not(
    tmp_path, monkeypatch, capsys
):
    covered = []
    check_covers = core.UtilityTable.check_covers

    def recording(self, outcomes, types_of):
        covered.append(list(outcomes))
        return check_covers(self, outcomes, types_of)
    monkeypatch.setattr(core.UtilityTable, "check_covers", recording)
    # The game checks the outcomes its outcome function reaches, and the
    # direct game only the rule's others: here the rule reaches none.
    assert main(["analyze", write_json(tmp_path, "generic.json", two_agent_cfg())]) == 0
    assert covered == [["o1", "o2"], []]
    # The outcome function reaches o1 alone, so the direct game checks o2,
    # which agent 0 has no utility for at type a.
    covered.clear()
    assert main(["analyze", write_json(tmp_path, "generic.json", rule_only_outcome_cfg())]) == 1
    assert covered == [["o1"], ["o2"]]
    assert capsys.readouterr().err == (
        "error: config.utilities: no row for (agent, outcome, type) (0, 'o2', 'a')\n"
    )


@pytest.mark.parametrize(
    "cfg_text, message",
    [
        ('{"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": 1e999999}',
         "JSON number: exponent of '1e999999' exceeds"),
        ('{"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": 1%s}' % ("0" * 4999),
         "JSON number: literal of 5000 characters exceeds"),
        ('{"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "1e999999"}',
         "config.w: exponent of '1e999999' exceeds"),
        ('{"utilities": [{"agent": 0, "value": %s}]}' % ("1" * 101),
         ": JSON number: literal of 101 characters exceeds the limit of 100\n"),
        ('{"utilities": [{"value": 0.%s}]}' % ("1" * 101),
         ": JSON number: literal of 103 characters exceeds the limit of 100\n"),
        # A number is read before the object holding it closes, and so
        # before the object's keys are checked.
        ('{"w": 1, "w": 2, "x": %s}' % ("1" * 101),
         ": JSON number: literal of 101 characters exceeds the limit of 100\n"),
    ],
    ids=[
        "json-exponent", "json-integer-digits", "string-exponent", "json-integer-in-a-row",
        "json-decimal-in-a-row", "json-integer-beside-a-repeated-key",
    ],
)
def test_analyze_rejects_oversized_rationals(tmp_path, capsys, cfg_text, message):
    path = tmp_path / "big.json"
    path.write_text(cfg_text)
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("literal", ["1e9_999999", "1_000", "3 / 2", "\u0661", "\uff11/\uff12"])
def test_analyze_reads_a_literal_alike_on_every_python(tmp_path, capsys, literal):
    # Fraction() reads "1_000" from Python 3.11 on and "3 / 2" from 3.12 on,
    # and the exponent cap would stop at the underscore of "1e9_999999".
    # It reads any Unicode digit on every Python: Arabic-Indic one, and
    # full-width 1/2.
    cfg = {"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "3/2", "c_mis": literal}
    code = main(["analyze", write_json(tmp_path, "labor.json", cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: config.c_mis: cannot parse {literal!r} as a rational\n"


@pytest.mark.parametrize(
    "cfg_text, key",
    [
        ('{"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "3/2", "w": "5/2"}', "w"),
        (json.dumps(two_agent_cfg()).replace('"value": 0}', '"value": 0, "value": 1}', 1), "value"),
        ('{"kind": "generic", "priors": [{"t": "1/2", "t": "1/2"}]}', "t"),
        ('{"kind": "sweep", "fixed": {"e_H": 1, "e_H": 1}}', "e_H"),
        ('{"outcomes": [{"label": "x", "payload": [{"a": 1, "a": 2}]}]}', "a"),
        ('{"utilities": [{"agent": 0, "value": {"v": 1, "v": 2}}]}', "v"),
        ('{"a:": 1, "w": 1, "w": 2}', "w"),
        ('{"a\\u003a": 1, "a:": 2}', "a:"),
        ('{"kind" : "labor",\n "w"  :1, "w":\t2}', "w"),
        ('{"kind": "generic", "priors": [{"t": 1, "t": 1}], "types": [1,}', "t"),
        ('[{"a": 1, "a": 2}]', "a"),
    ],
    ids=[
        "labor-top-level", "generic-utilities-row", "in-a-prior", "in-an-object-value",
        "in-a-payload", "in-a-row-value", "beside-a-colon-in-a-key", "beside-an-escaped-colon",
        "spaced-colons", "before-a-later-syntax-error", "in-a-top-level-list",
    ],
)
def test_analyze_rejects_a_repeated_json_key(tmp_path, capsys, cfg_text, key):
    # json.loads would keep the last value and drop the first without a word.
    # An object's keys are checked as it closes, so a repeat in a closed
    # inner object is named before a later fault of the text.
    path = tmp_path / "repeated.json"
    path.write_text(cfg_text)
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {path}: duplicate key {key!r} in an object\n"


@pytest.mark.parametrize(
    "cfg_text",
    ["[" * 100000 + "]" * 100000, '{"kind": "generic", "types": %s}' % ("[" * 5000 + "]" * 5000)],
    ids=["bare-array", "generic-types"],
)
def test_analyze_rejects_deeply_nested_json(tmp_path, capsys, cfg_text):
    # The decoder recurses once per level and gives up deep below any config.
    path = tmp_path / "deep.json"
    path.write_text(cfg_text)
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nests too deeply\n"


def wide_mechanism_cfg():
    """3 agents with 80 actions each, and one of the 512,000 action profiles
    given a row."""
    actions = [f"a{k}" for k in range(80)]
    return {
        "kind": "generic",
        "types": [["t"]] * 3,
        "actions": [actions] * 3,
        "outcomes": [{"label": "x"}],
        "outcome_function": [{"actions": ["a0"] * 3, "outcome": "x"}],
        "rule": [{"types": ["t"] * 3, "outcome": "x"}],
        "utilities": [{"agent": i, "outcome": "x", "type": "t", "value": 1} for i in range(3)],
    }


def many_outcomes_cfg():
    """1,000 types, each sent by the rule to its own outcome, and no utilities."""
    n = 1000
    return {
        "kind": "generic",
        "types": [[f"t{k}" for k in range(n)]],
        "actions": [["a"]],
        "outcomes": [{"label": f"x{k}"} for k in range(n)],
        "outcome_function": [{"actions": ["a"], "outcome": "x0"}],
        "rule": [{"types": [f"t{k}"], "outcome": f"x{k}"} for k in range(n)],
        "utilities": [],
    }


def outcome_table_faults():
    """two_agent_cfg with one fault in its outcome function or its rule, and
    the message that names it. A repeated row is refused also when the
    table has as many rows as profiles. The last case holds a repeated row
    after a profile one label short: the repeated row is named first."""
    cases = []
    for key, field, noun, undeclared in (
        ("outcome_function", "actions", "action", ["1", "q"]), ("rule", "types", "type", ["b", "q"]),
    ):
        first, second = two_agent_cfg()[key]
        short = {field: first[field][:1], "outcome": "o1"}
        long = {field: first[field] + first[field][-1:], "outcome": "o1"}
        for case, rows, message in (
            ("missing", [first], f": no row for {noun} profile {tuple(second[field])}"),
            ("repeated", [first, second, first],
             f"[2]: duplicate {noun} profile {tuple(first[field])}"),
            ("repeated-for-missing", [first, first],
             f"[1]: duplicate {noun} profile {tuple(first[field])}"),
            ("undeclared", [first, {field: undeclared, "outcome": "o2"}],
             f"[1]: {tuple(undeclared)} is not a declared {noun} profile"),
            ("arity", [long, second], f"[0]: {tuple(long[field])} is not a declared {noun} profile"),
            ("unknown-outcome", [first, {**second, "outcome": "o9"}], "[1]: unknown outcome 'o9'"),
            ("repeated-after-arity", [short, second, second],
             f"[2]: duplicate {noun} profile {tuple(second[field])}"),
        ):
            cfg = {**two_agent_cfg(), key: rows}
            cases.append(pytest.param(cfg, f"config.{key}{message}", id=f"{key}-{case}"))
    return cases


@pytest.mark.parametrize(
    "cfg, message",
    [
        pytest.param(
            wide_mechanism_cfg(),
            "config.outcome_function: no row for action profile ('a0', 'a0', 'a1')",
            id="3x80-actions-one-row",
        ),
        pytest.param(
            many_outcomes_cfg(),
            "config.utilities: no row for (agent, outcome, type) (0, 'x0', 't0')",
            id="1000-types-and-outcomes-no-utilities",
        ),
        *outcome_table_faults(),
    ],
)
def test_parse_work_is_bounded_by_config_size(tmp_path, capsys, cfg, message):
    # A table is read by its rows' positions and known complete by its row
    # count, so no profile or (agent, outcome, type) set is built; a fault is
    # named row by row, the first missing profile last.
    path = write_json(tmp_path, "wide.json", cfg)
    main(["analyze", path])  # builds the cached argument parser
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["analyze", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert peak < 5 * 2**20


# A 91-digit odd number: utility j of a config below is k/(LONG + 2j), with a
# denominator of its own.
LONG = 10**90 + 1


def long_scale_search_cfg(n):
    """2 agents with 2 types and n actions each, one outcome per action
    profile, every utility over its own 91-digit denominator, and no declared
    profile. Unbounded, the LCM the engine scales by grows with n**2
    denominators: about 200,000 digits at n = 24, within every other cap."""
    types, actions = [["lo", "hi"]] * 2, [[f"a{k}" for k in range(n)]] * 2
    outcomes = [f"x{a}_{b}" for a in range(n) for b in range(n)]
    keys = [(i, x, t) for i in (0, 1) for x in outcomes for t in types[i]]
    return {
        "kind": "generic",
        "types": types,
        "actions": actions,
        "outcomes": [{"label": x} for x in outcomes],
        "outcome_function": [
            {"actions": [f"a{a}", f"a{b}"], "outcome": f"x{a}_{b}"}
            for a in range(n) for b in range(n)
        ],
        "rule": [{"types": [s, t], "outcome": f"x{k}_{m}"}
                 for k, s in enumerate(types[0]) for m, t in enumerate(types[1])],
        "utilities": [
            {"agent": i, "outcome": x, "type": t, "value": f"{j % 7}/{LONG + 2 * j}"}
            for j, (i, x, t) in enumerate(keys)
        ],
    }


def long_gain_declared_cfg(m):
    """Agent 0 has 2 types and agent 1 has m; rule and mechanism send each
    type profile to its own outcome, agent 0's utilities have distinct
    91-digit denominators, and truth-telling is declared. Unbounded, the
    truthful witness's gain has more digits than str() of an int allows at
    m = 60, and fewer at m = 20."""
    types = [["t0", "t1"], [f"s{k}" for k in range(m)]]
    rows = [{"types": [a, b], "outcome": f"x{a}_{b}"} for a in types[0] for b in types[1]]
    outcomes = [row["outcome"] for row in rows]
    keys = [(x, t) for x in outcomes for t in types[0]]
    return {
        "kind": "generic",
        "types": types,
        "actions": types,
        "outcomes": [{"label": x} for x in outcomes],
        "outcome_function": [{"actions": row["types"], "outcome": row["outcome"]} for row in rows],
        "rule": rows,
        "utilities": [
            {"agent": 0, "outcome": x, "type": t, "value": f"{1 + j % 5}/{LONG + 2 * j}"}
            for j, (x, t) in enumerate(keys)
        ] + [{"agent": 1, "outcome": x, "type": t, "value": 0} for x in outcomes for t in types[1]],
        "profile": [{t: t for t in ts} for ts in types],
    }


@pytest.mark.parametrize(
    "cfg, bits",
    [(long_scale_search_cfg(4), 16137), (long_gain_declared_cfg(60), 71745),
     (long_gain_declared_cfg(20), 23915)],
    ids=["search-4-actions", "declared-60-types", "declared-20-types"],
)
def test_long_distinct_denominators_are_refused_at_their_table(tmp_path, capsys, cfg, bits):
    # The sum of the bit lengths of a table's distinct denominators bounds
    # the bit length of their LCM, and so every int the engine computes and
    # prints. The 20-type config ran before the bound; now it is refused.
    code = main(["analyze", write_json(tmp_path, "long.json", cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"error: config.utilities: distinct denominators of {bits} bits in all exceed "
        "the limit of 2048\n"
    )


# -- sweep -----------------------------------------------------------------------


GOLDEN_SWEEP = """\
w,c_mis,in_window,separating_is_bne,truthful_is_bne,violation,error
0,0,,,,,"wage must be positive, got 0"
0,1/2,,,,,"wage must be positive, got 0"
0,1,,,,,"wage must be positive, got 0"
1,0,false,true,false,true,
1,1/2,false,true,true,false,
1,1,false,true,true,false,
3/2,0,true,true,false,true,
3/2,1/2,true,true,false,true,
3/2,1,true,true,true,false,
19/10,0,true,true,false,true,
19/10,1/2,true,true,false,true,
19/10,1,true,true,true,false,
5/2,0,false,false,false,false,
5/2,1/2,false,false,false,false,
5/2,1,false,false,false,false,
"""


def sweep_cfg(tmp_path, **fixed):
    return write_json(
        tmp_path,
        "grid.json",
        {
            "kind": "sweep",
            "w_values": ["0", "1", "3/2", "19/10", "5/2"],
            "c_mis_values": ["0", "1/2", "1"],
            "fixed": {"theta_L": 1, "theta_H": 2, "e_H": 1, **fixed},
        },
    )


def test_sweep_golden_csv(tmp_path, capsys):
    code = main(["sweep", sweep_cfg(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0  # a survey never signals violation through the exit code
    assert out == GOLDEN_SWEEP


def test_sweep_json_format_and_prior_override(tmp_path, capsys):
    # The grid's fixed prior_high overrides the default prior of 1/2.
    code = main(["sweep", sweep_cfg(tmp_path, prior_high="1/10"), "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(rows) == 15
    by_key = {(r["w"], r["c_mis"]): r for r in rows}
    assert by_key[("3/2", "1/2")]["violation"] == "true"
    assert by_key[("3/2", "1")]["violation"] == "false"
    assert by_key[("0", "0")]["error"].startswith("wage must be positive")


def test_sweep_csv_and_json_rows_agree(tmp_path, capsys):
    # One generator yields the rows; the format only picks their writer.
    path = sweep_cfg(tmp_path)
    assert main(["sweep", path, "--format", "csv"]) == 0
    csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert main(["sweep", path, "--format", "json"]) == 0
    assert csv_rows == json.loads(capsys.readouterr().out)
    assert len(csv_rows) == 15


def test_every_sweep_row_holds_the_columns_in_order(tmp_path):
    # The CSV writer prints a row's values as they stand, under a header of
    # SWEEP_COLUMNS, so each row must be keyed by exactly those, in order:
    # on a valid cell, a bad wage and a negative cost alike.
    grid = json.loads(Path(sweep_cfg(tmp_path)).read_text())
    grid["c_mis_values"].append("-1/2")
    rows = list(cli._sweep_rows(*serialize.parse_sweep_grid(grid)))
    assert len(rows) == 20
    assert {tuple(row) for row in rows} == {serialize.SWEEP_COLUMNS}
    errors = {row["error"] for row in rows}
    assert errors == {"", "wage must be positive, got 0",
                      "misreporting cost must be non-negative, got -1/2"}


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "bad.json",
        {
            "kind": "sweep",
            "w_values": [],
            "c_mis_values": ["0"],
            "fixed": {"theta_L": 1, "theta_H": 2, "e_H": 1},
        },
    )
    assert main(["sweep", path]) == 1
    assert "w_values" in capsys.readouterr().err


def one_cell_grid(fixed, **top):
    return {"kind": "sweep", "w_values": ["3/2"], "c_mis_values": ["0"], "fixed": fixed, **top}


FIXED = {"theta_L": 1, "theta_H": 2, "e_H": 1}


@pytest.mark.parametrize(
    "grid, message",
    [
        (one_cell_grid({**FIXED, "theta_L": 3}),
         "config.fixed.theta_L: need 0 < theta_L < theta_H, got theta_L=3, theta_H=2"),
        (one_cell_grid({**FIXED, "e_H": 0}),
         "config.fixed.e_H: education level e_H must be positive, got 0"),
        (one_cell_grid({**FIXED, "prior_high": "3/2"}),
         "config.fixed.prior_high: prior_high must lie strictly between 0 and 1, got 3/2"),
        (one_cell_grid(FIXED, kind="generic"),
         "config.kind: a sweep grid has kind 'sweep', got 'generic'"),
        # A whole config of another kind is named by its kind, not its fields.
        ({"kind": "labor", **FIXED, "w": "3/2", "c_mis": "1/2"},
         "config.kind: a sweep grid has kind 'sweep', got 'labor'"),
        (signal_config(),
         "config.kind: a sweep grid has kind 'sweep', got 'generic'"),
        # A literal is named by its list and position, or by its fixed field.
        ({**one_cell_grid(FIXED), "w_values": ["3/2", "x"]},
         "config.w_values[1]: cannot parse 'x' as a rational"),
        ({**one_cell_grid(FIXED), "c_mis_values": ["0", "1e999"]},
         "config.c_mis_values[1]: exponent of '1e999' exceeds the limit of 100"),
        (one_cell_grid({**FIXED, "e_H": "1/0"}),
         "config.fixed.e_H: cannot parse '1/0' as a rational"),
    ],
    ids=["theta-order", "e_H", "prior_high", "kind", "labor-config", "generic-config",
         "w-literal", "c_mis-literal", "fixed-literal"],
)
def test_sweep_rejects_a_bad_grid_before_any_cell(tmp_path, capsys, grid, message):
    # A cell holds only its wage and cost; the rest is wrong for every cell.
    code = main(["sweep", write_json(tmp_path, "grid.json", grid)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("theta_L", 3, "need 0 < theta_L < theta_H, got theta_L=3, theta_H=2"),
        ("e_H", 0, "education level e_H must be positive, got 0"),
        ("prior_high", "3/2", "prior_high must lie strictly between 0 and 1, got 3/2"),
    ],
    ids=["theta-order", "e_H", "prior_high"],
)
def test_a_labor_config_and_a_sweep_locate_a_range_fault_alike(
    tmp_path, capsys, field, value, problem
):
    # One reader and one location rule: the fault is named at its field,
    # under the block that holds it.
    labor_path = labor_cfg(tmp_path, **{field: value})
    grid_path = write_json(tmp_path, "grid.json", one_cell_grid({**FIXED, field: value}))
    for argv, where in ((["analyze", labor_path], "config"), (["sweep", grid_path], "config.fixed")):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {where}.{field}: {problem}\n"


def test_a_sweep_over_the_cell_cap_is_refused_before_any_cell(tmp_path, monkeypatch, capsys):
    counts = counted(monkeypatch, [labor.build_scenario])
    # 317 x 316 cells, just over the cap of 10^5 (316 x 316 is under it).
    assert serialize.MAX_SWEEP_CELLS == 10**5
    grid = {
        "kind": "sweep",
        "w_values": [f"{k}/100" for k in range(1, 318)],
        "c_mis_values": [f"{k}/100" for k in range(316)],
        "fixed": FIXED,
    }
    code = main(["sweep", write_json(tmp_path, "grid.json", grid)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        "error: config.w_values, config.c_mis_values: "
        "317 x 316 = 100172 cells exceed the cap of 100000\n"
    )
    assert counts["build_scenario"] == 0


def test_a_sweep_at_the_cell_cap_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(serialize, "MAX_SWEEP_CELLS", 6)
    grid = {"kind": "sweep", "w_values": ["1", "3/2"], "c_mis_values": ["0", "1/2", "1"],
            "fixed": FIXED}
    assert main(["sweep", write_json(tmp_path, "grid.json", grid)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6
    grid["c_mis_values"].append("2")
    assert main(["sweep", write_json(tmp_path, "grid.json", grid)]) == 1
    assert capsys.readouterr().err == (
        "error: config.w_values, config.c_mis_values: 2 x 4 = 8 cells exceed the cap of 6\n"
    )


class _Sink:
    """A stdout that drops what it is written."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_sweep_keeps_no_rows(tmp_path, monkeypatch, fmt):
    # Both formats write each row as its cell finishes, so the peak does not
    # grow with the grid: 2,000 cells, where one kept row dict per cell with
    # its strings would take about 3 MiB.
    grid = {"kind": "sweep", "w_values": [f"{k}/20" for k in range(50)],
            "c_mis_values": [f"{k}/40" for k in range(40)], "fixed": FIXED}
    path = write_json(tmp_path, "grid.json", grid)
    build_parser()
    monkeypatch.setattr(sys, "stdout", _Sink())
    tracemalloc.start()
    try:
        code = main(["sweep", path, "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_sweep_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path, fmt):
    # 300 x 300 cells write far more than a pipe holds, so the writes fail
    # once the reader has gone, as under `revaudit sweep grid.json | head -1`.
    grid = {"kind": "sweep", "w_values": [f"{k}/100" for k in range(1, 301)],
            "c_mis_values": [f"{k}/100" for k in range(300)], "fixed": FIXED}
    path = write_json(tmp_path, "grid.json", grid)
    src = str(Path(serialize.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "revaudit", "sweep", path, "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1


@pytest.mark.parametrize("command", ["sweep", "reproduce-paper"])
def test_output_that_fits_the_buffer_into_a_closed_pipe_exits_1_without_a_traceback(
    tmp_path, command
):
    # The whole output fits in stdout's buffer, so no write fails before the
    # command returns: `main` flushes it inside its handler, not at exit.
    grid = {"kind": "sweep", "w_values": ["3/2"], "c_mis_values": ["1/2"], "fixed": FIXED}
    argv = [command, write_json(tmp_path, "grid.json", grid)] if command == "sweep" else [command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(serialize.__file__).parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "revaudit", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


# -- matrices --------------------------------------------------------------------


def test_matrices_markdown_default(tmp_path, capsys):
    code = main(["matrices", labor_cfg(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# Ex-post report matrices\n")
    assert "## Case 2: true types (theta_L, theta_H)" in out
    assert "| theta_H | (1, 0) | (1/4, 3/4) |" in out


def test_matrices_json(tmp_path, capsys):
    code = main(["matrices", labor_cfg(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [m["case"] for m in payload["case_matrices"]] == [1, 2, 3, 4]
    assert payload["case_matrices"][0]["pure_nash"] == [["theta_H", "theta_H"]]


def test_matrices_requires_labor_config(tmp_path, capsys):
    code = main(["matrices", single_agent_signal_cfg(tmp_path)])
    assert code == 1
    assert "labor config" in capsys.readouterr().err


def test_matrices_names_the_kind_field(tmp_path, capsys):
    assert main(["matrices", single_agent_signal_cfg(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: config.kind: ")


# -- reproduce-paper ---------------------------------------------------------------


EXPECTED_CRITERIA = [
    "separating-equilibrium-window",
    "direct-game-unique-high-report",
    "zero-misreport-cost-failure",
    "truthfulness-threshold",
    "case-matrices-exact",
    "proof-chain-break-point",
    "zero-cost-regression",
    "prior-independence",
]


def test_reproduce_runs_all_reference_checks(capsys):
    code = main(["reproduce-paper"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["all_passed"] is True
    assert [c["id"] for c in payload["criteria"]] == EXPECTED_CRITERIA
    assert all(c["passed"] for c in payload["criteria"])
    assert payload["parameters"] == {"theta_L": "1", "theta_H": "2", "e_H": "1", "w": "3/2"}


def test_reproduce_output_is_byte_identical(capsys):
    main(["reproduce-paper"])
    first = capsys.readouterr().out
    main(["reproduce-paper"])
    second = capsys.readouterr().out
    assert first == second


def test_reproduce_fails_loudly_when_a_check_breaks(monkeypatch, capsys):
    import revaudit.labor

    monkeypatch.setattr(
        "revaudit.labor.wage_window", lambda params: (params.w + 1, params.w + 2)
    )
    code = main(["reproduce-paper"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 1
    assert payload["all_passed"] is False
    assert "failed: separating-equilibrium-window" in captured.err


# -- parser plumbing ---------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "revaudit" in capsys.readouterr().out
    assert main(["analyze", "--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand(capsys):
    assert main(["audit-everything"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("analyze", ["--prior-high", "9/10"]),
        ("sweep", ["--prior-high", "9/10"]),
        ("matrices", ["--prior-high", "9/10"]),
        ("analyze", ["--format", "json"]),
        ("reproduce-paper", ["--format", "json"]),
    ],
)
def test_a_removed_flag_is_a_usage_error(tmp_path, capsys, command, flag):
    # The prior is set in the config only, and analyze and reproduce-paper
    # print JSON only.
    config = [] if command == "reproduce-paper" else [labor_cfg(tmp_path)]
    assert main([command, *config, *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: revaudit ")
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")


# -- work done per command ------------------------------------------------------------


def counted(monkeypatch, functions):
    """Count the calls of each function in every revaudit module that binds
    it, by rebinding it."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in functions:
        wrapper = counting(fn.__name__, fn)
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("revaudit") and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapper)
    return counts


def priced_two_agent_cfg():
    """two_agent_cfg with priors and a payload."""
    outcomes = [{"label": "o1", "payload": ["1/2", 0]}, {"label": "o2"}]
    return {**two_agent_cfg(), "priors": [{"a": "1/3", "b": "2/3"}, {"c": 1}], "outcomes": outcomes}


def decodes(monkeypatch) -> Counter:
    """Count the JSON decodes of a config ("loads") and the objects that the
    checking decode reads ("_json_object")."""
    counts = counted(monkeypatch, [serialize._json_object])
    loads = json.loads

    def counting(*args, **kwargs):
        counts["loads"] += 1
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return counts


@pytest.mark.parametrize(
    "argv, write, entries",
    [
        (["analyze"], labor_cfg, 0),
        (["sweep"], sweep_cfg, 1),
        (["analyze"], lambda tmp_path: write_json(tmp_path, "g.json", two_agent_cfg()), 1),
        (["analyze"], lambda tmp_path: write_json(tmp_path, "g.json", priced_two_agent_cfg()), 1),
    ],
    ids=["labor", "sweep", "generic", "generic-with-priors-and-payload"],
)
def test_a_valid_config_is_decoded_once_without_its_keys_checked(
    tmp_path, monkeypatch, capsys, argv, write, entries
):
    # A flat config's colons are its top entries, so `_entries` is not built for it.
    counts, built = decodes(monkeypatch), counted(monkeypatch, [serialize._entries])
    assert main([*argv, write(tmp_path)]) in (0, 2)
    assert capsys.readouterr().err == ""
    assert (counts, built["_entries"]) == ({"loads": 1}, entries)


@pytest.mark.parametrize(
    "separators, indent", [((", ", " : "), None), ((",", "\t:  "), 1), ((",", ":"), None)]
)
def test_any_spacing_of_a_config_reads_alike_and_once(
    tmp_path, monkeypatch, capsys, separators, indent
):
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps(two_agent_cfg(), separators=separators, indent=indent))
    counts = decodes(monkeypatch)
    assert main(["analyze", str(path)]) == 0
    golden = Path(__file__).parent / "goldens" / "analyze_generic_two_agent.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    assert counts == {"loads": 1}


def test_a_colon_in_a_label_is_read_alike_by_the_checking_decode(tmp_path, monkeypatch, capsys):
    # A `:` in a string makes the colon count exceed the objects' entries,
    # so the config is decoded again with each object's keys checked: only
    # slower. Prefixing every label with "q:" or "q_" keeps their order.
    labels = re.compile(r'"(a|b|c|0|1|z|o1|o2)"')
    text = json.dumps(two_agent_cfg())
    counts = decodes(monkeypatch)
    runs = {}
    for sep in (":", "_"):
        path = tmp_path / "labels.json"
        path.write_text(labels.sub(rf'"q{sep}\1"', text))
        counts.clear()
        code = main(["analyze", str(path)])
        runs[sep] = (code, capsys.readouterr(), dict(counts))
    (code, captured, colon_counts), (underscore_code, underscored, underscore_counts) = runs.values()
    assert captured.out.count('"q:') > 0 and captured.err == underscored.err == ""
    assert (code, captured.out.replace('"q:', '"q_')) == (underscore_code, underscored.out)
    # The top object, 2 outcomes, 2 outcome_function and 2 rule rows, 6
    # utilities and 2 profile maps.
    assert colon_counts == {"loads": 2, "_json_object": 15}
    assert underscore_counts == {"loads": 1}


def test_labor_analyze_builds_each_game_once(tmp_path, monkeypatch, capsys):
    counts = counted(
        monkeypatch,
        [auditor.direct_game, core._read_table, equilibrium._compile,
         equilibrium._expost_slice, equilibrium._best_replies, equilibrium._dominant,
         core._walk_of, core._prior_weights, core._scale_table],
    )
    assert main(["analyze", labor_cfg(tmp_path)]) == 2
    # The bid game and the direct game, each checked and compiled once. Six
    # ex-post slices: the bid cases read worker 0's 2 in the bid game, and
    # the four report matrices share the direct game's 4 (one per worker and
    # true type), each scanned once for best replies and dominance, which
    # also give the Nash profiles. The bid mechanism and the hiring rule are
    # module constants, whose outcome tables were read into their walks at
    # import, so no table is read or walked here. The two games share one
    # type space, whose prior is scaled once, and one utility table, also
    # scaled once.
    assert counts == {
        "direct_game": 1, "_compile": 2, "_expost_slice": 6, "_best_replies": 4,
        "_dominant": 4, "_prior_weights": 1, "_scale_table": 1,
    }


def test_sweep_checks_no_outcome_table_per_cell(tmp_path, monkeypatch, capsys):
    counts = counted(
        monkeypatch,
        [labor.build_scenario, auditor.direct_game, core._read_table, equilibrium._interim_rows,
         labor.check_market],
    )
    grid = {
        "kind": "sweep",
        "w_values": ["1", "3/2", "19/10"],
        "c_mis_values": ["0", "1/2", "1"],
        "fixed": {"theta_L": 1, "theta_H": 2, "e_H": 1},
    }
    assert main(["sweep", write_json(tmp_path, "grid.json", grid)]) == 0
    # The first wage builds the grid's market, and so the one direct game
    # that fits the rule, once, at its first cost. Each later wage builds
    # its two games from that market's, with its own utilities, keeping the
    # direct game's fit to the rule, which no wage changes. Every cost is
    # priced against its wage's cost-free misreport gains, so no cost builds
    # a game of its own. Every direct game plays the constant hiring rule as
    # its mechanism, so no outcome table is read. Each wage computes 4 row
    # sets: each agent's in the bid game, for its judgement of the separating
    # profile, and each agent's truthful rows, which the direct game keeps
    # for its cost-free gains. The fixed parameters are checked once, for the
    # grid; each wage builds its LaborParams from checked parts, and a cell
    # checks only its wage and cost.
    assert counts == {
        "build_scenario": 1, "direct_game": 1, "_interim_rows": 12, "check_market": 1,
    }


def test_a_sweep_builds_one_market_and_judges_each_wage_only_on_its_row(
    tmp_path, monkeypatch, capsys
):
    from test_goldens import SWEEP_GRID

    counts = counted(
        monkeypatch,
        [core._prior_weights, labor.check_market, equilibrium._interim_rows,
         equilibrium._implements, auditor._audit, equilibrium._largest_gain, labor.wage_window,
         labor.build_scenario],
    )
    path = write_json(tmp_path, "grid.json", SWEEP_GRID)
    # 9 wages x 6 costs, 7 of the wages valid. The grid checks its fixed
    # parameters once, and takes its wage window, which depends on them
    # alone, once. Its first valid wage builds the grid's market, whose type
    # space every later valid wage shares, so the prior is scaled once for
    # all 14 games; each valid wage builds its LaborParams from checked
    # parts. Each valid wage reads 4 row sets: its bid game's 2 under the
    # separating profile, and its direct game's 2 under truth-telling, for
    # the break-even cost. Whether the separating profile plays the rule out
    # is one answer for every wage, found when the module loads, so no wage
    # plays it out. No row prints the audit's other families or a witness,
    # so nothing is audited and no largest gain is sought.
    expected = Counter(
        _prior_weights=1, check_market=1, _interim_rows=28, _implements=0, _audit=0,
        _largest_gain=0, wage_window=1, build_scenario=1,
    )
    for _ in range(2):
        counts.clear()
        assert main(["sweep", path]) == 0
        assert counts == expected
    capsys.readouterr()


def test_every_scenario_a_sweep_builds_is_its_cells_own_build(tmp_path, monkeypatch, capsys):
    from test_auditor import same_parts
    from test_goldens import LATE_C, LATE_W

    built = []

    def recording(build):
        def wrapper(*args):
            built.append(build(*args))
            return built[-1]
        return wrapper

    monkeypatch.setattr(cli, "build_scenario", recording(labor.build_scenario))
    monkeypatch.setattr(labor.LaborScenario, "at_wage", recording(labor.LaborScenario.at_wage))
    fixed = {"theta_L": 1, "theta_H": 2, "e_H": 1, "prior_high": "1/3"}
    grid = {"kind": "sweep", "w_values": LATE_W, "c_mis_values": LATE_C, "fixed": fixed}
    assert main(["sweep", write_json(tmp_path, "grid.json", grid)]) == 0
    capsys.readouterr()
    # The grid's first wage and first cost are refused, so its market is
    # built at its second wage and second cost, 3/4, the first valid cost of
    # every valid wage. Each valid wage's scenario must equal the one that
    # build_scenario builds from that cell's checked parameters, and hold
    # the market's type space and cost models as they are.
    assert [str(s.params.w) for s in built] == [w for w in LATE_W if w[0] not in "0-"]
    market = built[0]
    for scenario in built:
        own = labor.build_scenario(labor.LaborParams(**fixed, w=scenario.params.w, c_mis="3/4"))
        assert scenario.params == own.params
        assert same_parts(scenario.game, own.game) and same_parts(scenario.direct, own.direct)
        assert scenario.game.type_space is scenario.direct.type_space is market.game.type_space
        assert scenario.game.costs is market.game.costs and scenario.direct.costs is market.direct.costs


def test_generic_analyze_builds_each_game_once(tmp_path, monkeypatch, capsys):
    counts = counted(
        monkeypatch,
        [auditor.direct_game, core._read_table, equilibrium._compile, core._walk_of,
         core._prior_weights],
    )
    assert main(["analyze", write_json(tmp_path, "generic.json", two_agent_cfg())]) == 0
    # Two outcome tables are read from their columns into walks once each:
    # the outcome function and the rule, which the direct game plays as it
    # is. The game and the direct game share one type space, whose prior is
    # scaled once.
    assert counts == {
        "direct_game": 1, "_read_table": 2, "_compile": 2, "_walk_of": 2, "_prior_weights": 1,
    }


@pytest.mark.parametrize(
    "build, checks",
    [(lambda: parse_generic_scenario(two_agent_cfg()), 1),
     (lambda: labor.build_scenario(labor.LaborParams(1, 2, 1, "3/2", "1/2")), 0)],
    ids=["generic", "labor"],
)
def test_a_scenario_checks_its_cost_schedule_once(monkeypatch, build, checks):
    counts = Counter()
    for name in ("__post_init__", "validate_against"):
        method = getattr(core.CostModel, name)

        def counting(self, *args, name=name, method=method):
            counts[name] += 1
            return method(self, *args)
        monkeypatch.setattr(core.CostModel, name, counting)
    scenario = build()
    # A config's schedule is checked once, on its own and against the game.
    # A labor schedule is built from checked parts, so it is not checked at
    # all. The direct game prices reports from the game's schedule, so its
    # prices are not checked again.
    assert counts == Counter(__post_init__=checks, validate_against=checks)
    assert scenario.direct.costs.strategic == {
        (i, r, t): v for (i, t, r), v in scenario.game.costs.misreport.items()
    }


def test_a_generic_audit_computes_each_agents_payoffs_once(tmp_path, monkeypatch, capsys):
    counts = counted(
        monkeypatch,
        [equilibrium._interim_rows, equilibrium._plan, equilibrium._implements, auditor._audit,
         equilibrium._profile],
    )
    assert main(["analyze", write_json(tmp_path, "generic.json", two_agent_cfg())]) == 0
    # Per agent, the game's profits under the declared profile and the
    # direct game's cost-free utilities under truth-telling: 2n row sets for
    # n = 2 agents. The declared profile is checked once, when it is parsed,
    # into the plan the audit reads, and the audit labels that plan once for
    # its report; the scenario plays that equilibrium out once, to decide
    # `implemented`, and audits it once.
    assert counts == {
        "_interim_rows": 4, "_plan": 1, "_implements": 1, "_audit": 1, "_profile": 1,
    }


def test_both_config_kinds_build_one_scenario_record():
    # The one record judges and audits a plan, for labor and generic configs
    # alike; no other module holds an audit of its own.
    labor_scenario = labor.build_scenario(labor.LaborParams(1, 2, 1, "3/2", "1/2"))
    assert isinstance(labor_scenario, auditor.Scenario)
    assert isinstance(parse_generic_scenario(two_agent_cfg()), auditor.Scenario)
    binders = [
        mod.__name__ for mod in list(sys.modules.values())
        if mod.__name__.startswith("revaudit") and "_audit" in vars(mod)
    ]
    assert binders == ["revaudit.auditor"]


@pytest.mark.parametrize(
    "cfg, examined, source",
    [
        (signal_config(with_profile=False), 1, "first equilibrium implementing the rule"),
        (swapped_rule_cfg(), 1, "first equilibrium"),
        (tied_rule_cfg(), 2, "first equilibrium implementing the rule"),
    ],
    ids=["signal", "swapped-rule", "tied-rule"],
)
def test_a_generic_search_plays_each_equilibrium_out_once(
    tmp_path, monkeypatch, capsys, cfg, examined, source
):
    counts = counted(
        monkeypatch,
        [equilibrium._implements, equilibrium._plan, equilibrium.find_all_pure_bne,
         equilibrium._profile, auditor._audit],
    )
    main(["analyze", write_json(tmp_path, "search.json", cfg)])
    assert json.loads(capsys.readouterr().out)["profile_source"] == source
    # The selection plays out the equilibria in enumeration order, up to the
    # first that plays the rule, and the audit reads its verdict. The search
    # stays on plans: none is converted back from labels, and only the
    # chosen one is labelled, for the report of its one audit.
    assert counts == {"_implements": examined, "_profile": 1, "_audit": 1}


def test_labor_analyze_decides_truth_telling_once(tmp_path, monkeypatch, capsys):
    counts = counted(
        monkeypatch,
        [equilibrium._interim_rows, auditor._audit, auditor.is_truthfully_implementable,
         equilibrium._largest_gain, equilibrium._plan, equilibrium._implements],
    )
    assert main(["analyze", labor_cfg(tmp_path)]) == 2
    # The separating profile is judged once, by the one audit: its plan is a
    # module constant, checked when the module loads, not per scenario, and
    # so is whether it plays the rule out, so nothing is played out here.
    # Row sets: 4 for that audit (2 of the bid game, which the separating
    # report reads too, and the direct game's 2 under truth-telling), and 5
    # for the search over the direct game's 16 report profiles, not 8: the
    # pivot's rows for each of the other agent's 4 plans, and that agent's
    # rows once for the one reply the pivot gives them all. The direct game
    # decides truth-telling once and keeps the witness: the audit reads it,
    # and so does the truthfulness report through is_truthfully_implementable.
    # Largest gains: the separating witness, the truthful witness and the
    # audit's break point.
    assert counts == Counter(
        _interim_rows=9, _audit=1, is_truthfully_implementable=1,
        _largest_gain=3, _plan=0, _implements=0,
    )


def test_markdown_matrices_compute_only_the_matrices(tmp_path, monkeypatch, capsys):
    counts = counted(
        monkeypatch,
        [equilibrium._interim_rows, equilibrium.find_all_pure_bne, equilibrium._expost_slice,
         equilibrium._best_replies, equilibrium._dominant, auditor.audit_revelation_principle,
         auditor.is_truthfully_implementable, equilibrium._compile],
    )
    assert main(["matrices", labor_cfg(tmp_path), "--format", "md"]) == 0
    # The document prints the four ex-post matrices and no verdict. The
    # matrices share the direct game's 4 slices (one per worker and true
    # type), each scanned once for best replies and dominance; the bid game
    # is never compiled.
    assert counts == {"_expost_slice": 4, "_best_replies": 4, "_dominant": 4, "_compile": 1}


def test_reproduce_builds_only_the_matrices_it_checks(monkeypatch, capsys):
    counts = counted(
        monkeypatch,
        [equilibrium._expost_slice, equilibrium._best_replies, equilibrium._dominant,
         labor.check_separating_equilibrium],
    )
    assert main(["reproduce-paper"]) == 0
    # Only the case-matrices criterion reads ex-post matrices: one set, from
    # the direct game's 4 slices, each scanned once for best replies and
    # dominance. Each of the 9 separating checks reads worker 0's 2 bid-game
    # slices: 4 + 9 x 2 slices in all.
    assert counts == {
        "_expost_slice": 22, "_best_replies": 4, "_dominant": 4,
        "check_separating_equilibrium": 9,
    }


def test_reproduce_separating_checks_read_their_judgements(monkeypatch, capsys):
    counts = counted(
        monkeypatch,
        [auditor.audit_revelation_principle, auditor._audit, equilibrium._implements],
    )
    assert main(["reproduce-paper"]) == 0
    # The direct game alone decides truth-telling, and each of the 9
    # separating checks (3 wages at 3 priors) reads its scenario's
    # judgement, so the bid game is audited once, by the proof-chain
    # criterion. None of the 10 separating profiles judged is played out
    # against the rule: that answer is the same for every scenario, and is
    # found once, when the module loads.
    assert counts == Counter(_audit=1, _implements=0)


def test_json_matrices_never_touch_the_bid_game(tmp_path, monkeypatch, capsys):
    counts = counted(
        monkeypatch, [auditor.audit_revelation_principle, auditor._audit, equilibrium._compile]
    )
    assert main(["matrices", labor_cfg(tmp_path), "--format", "json"]) == 0
    # The truthfulness report and the matrices are of the direct game, the
    # one game compiled; the bid game is neither audited nor compiled.
    assert counts == {"_compile": 1}
