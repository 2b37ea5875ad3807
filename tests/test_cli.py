"""Command line harness, driven in-process through main(argv).

Exit code contract: 0 no violation / clean survey, 1 bad input or a failed
reference check, 2 violation found."""

import json

import pytest

from revaudit.cli import main
from revaudit.equilibrium import enumerate_profiles
from revaudit.serialize import parse_generic_scenario, profile_to_jsonable


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def labor_cfg(tmp_path, **overrides):
    cfg = {"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "3/2", "c_mis": "1/2"}
    cfg.update(overrides)
    return write_json(tmp_path, "labor.json", cfg)


def single_agent_signal_cfg(tmp_path, with_profile=True):
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
    return write_json(tmp_path, "signal.json", cfg)


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
    code = main(["analyze", labor_cfg(tmp_path), "--prior-high", "9/10"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["params"]["prior_high"] == "9/10"
    assert payload["audit"]["violation"] is True


def test_analyze_rejects_malformed_prior(tmp_path, capsys):
    code = main(["analyze", labor_cfg(tmp_path), "--prior-high", "almost-one"])
    err = capsys.readouterr().err
    assert code == 1
    assert "not a rational" in err


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


def test_analyze_generic_falls_back_to_first_profile(tmp_path, capsys):
    """Matching pennies against a two-type opponent has no pure equilibrium,
    so the audit runs on the first enumerated profile."""
    cfg = {
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
    code = main(["analyze", write_json(tmp_path, "pennies.json", cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["profile_source"] == "first enumerated profile"
    game = parse_generic_scenario(cfg).game
    first = enumerate_profiles(game.mechanism, game.type_space)[0]
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


def test_analyze_generic_refuses_prior_flag(tmp_path, capsys):
    code = main(["analyze", single_agent_signal_cfg(tmp_path), "--prior-high", "1/2"])
    assert code == 1
    assert "labor configs only" in capsys.readouterr().err


def test_analyze_profile_cap(tmp_path, capsys):
    code = main(
        ["analyze", single_agent_signal_cfg(tmp_path, with_profile=False), "--max-profiles", "2"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_analyze_rejects_a_profile_cap_below_one(tmp_path, capsys, value):
    # Rejected while parsing, even when a declared profile means no search runs.
    code = main(["analyze", single_agent_signal_cfg(tmp_path), "--max-profiles", value])
    assert code == 1
    assert "argument --max-profiles" in capsys.readouterr().err


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
]


@pytest.mark.parametrize(
    "path, value, field",
    [case[:3] for case in MALFORMED_GENERIC],
    ids=["-".join(case[2:]) for case in MALFORMED_GENERIC],
)
def test_analyze_rejects_malformed_generic_config(tmp_path, capsys, path, value, field):
    cfg = two_agent_cfg()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code = main(["analyze", write_json(tmp_path, "generic.json", cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


@pytest.mark.parametrize(
    "argv, cfg_text, message",
    [
        ([], '{"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": 1e999999}',
         "JSON number: exponent of '1e999999' exceeds"),
        ([], '{"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": 1%s}' % ("0" * 4999),
         "JSON number: literal of 5000 characters exceeds"),
        ([], '{"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "1e999999"}',
         "config.w: exponent of '1e999999' exceeds"),
        (["--prior-high", "1e999999"],
         '{"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "3/2"}',
         "argument --prior-high: not a rational: exponent of '1e999999' exceeds"),
    ],
    ids=["json-exponent", "json-integer-digits", "string-exponent", "prior-high-flag"],
)
def test_analyze_rejects_oversized_rationals(tmp_path, capsys, argv, cfg_text, message):
    path = tmp_path / "big.json"
    path.write_text(cfg_text)
    code = main(["analyze", str(path), *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err


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


def sweep_cfg(tmp_path):
    return write_json(
        tmp_path,
        "grid.json",
        {
            "kind": "sweep",
            "w_values": ["0", "1", "3/2", "19/10", "5/2"],
            "c_mis_values": ["0", "1/2", "1"],
            "fixed": {"theta_L": 1, "theta_H": 2, "e_H": 1},
        },
    )


def test_sweep_golden_csv(tmp_path, capsys):
    code = main(["sweep", sweep_cfg(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0  # a survey never signals violation through the exit code
    assert out == GOLDEN_SWEEP


def test_sweep_json_format_and_prior_override(tmp_path, capsys):
    code = main(["sweep", sweep_cfg(tmp_path), "--format", "json", "--prior-high", "1/10"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(rows) == 15
    by_key = {(r["w"], r["c_mis"]): r for r in rows}
    assert by_key[("3/2", "1/2")]["violation"] == "true"
    assert by_key[("3/2", "1")]["violation"] == "false"
    assert by_key[("0", "0")]["error"].startswith("wage must be positive")


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
