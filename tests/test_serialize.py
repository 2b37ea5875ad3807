"""Config parsing and report rendering: exact rationals in and out,
deterministic JSON/CSV/markdown, and full audit-report round trips through
the readers of `test_properties.py`."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_properties import (
    SETTINGS,
    audit_report_from_jsonable,
    chain_from_jsonable,
    deviation_from_jsonable,
    profile_from_jsonable,
)

from revaudit.equilibrium import Deviation
from revaudit.labor import (
    SEPARATING_PROFILE,
    TYPE_HIGH,
    TYPE_LOW,
    LaborParams,
    build_scenario,
    case_matrices,
    check_separating_equilibrium,
    check_truthful_reporting,
)
from revaudit.serialize import (
    SWEEP_COLUMNS,
    ConfigError,
    audit_report_to_jsonable,
    chain_to_jsonable,
    deviation_to_jsonable,
    json_dumps,
    load_config,
    normal_form_to_jsonable,
    params_to_jsonable,
    parse_generic_scenario,
    parse_labor_params,
    parse_sweep_grid,
    profile_to_jsonable,
    render_matrices_markdown,
    separating_report_to_jsonable,
    sweep_rows_to_csv,
    truthfulness_report_to_jsonable,
)


def canonical_params(c_mis="1/2"):
    return LaborParams(theta_L=1, theta_H=2, e_H=1, w="3/2", c_mis=c_mis)


# -- config loading ----------------------------------------------------------------


def test_load_config_parses_decimals_exactly(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"w": 0.1, "name": "3/2"}')
    cfg = load_config(str(path))
    assert cfg["w"] == Fraction(1, 10)
    assert isinstance(cfg["w"], Fraction)
    assert cfg["name"] == "3/2"


def test_load_config_reports_json_errors_with_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "w": ,\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(path))


def test_load_config_requires_object_top_level(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/nowhere.json")


# -- labor config ------------------------------------------------------------------


def test_parse_labor_params():
    cfg = {"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "3/2"}
    p = parse_labor_params(cfg)
    assert p == LaborParams(1, 2, 1, "3/2")
    assert p.c_mis == 0 and p.prior_high == Fraction(1, 2)


def test_parse_labor_params_rejects_unknown_keys():
    cfg = {"theta_L": 1, "theta_H": 2, "e_H": 1, "w": 1, "wage": 2}
    with pytest.raises(ConfigError, match="unknown fields \\['wage'\\]"):
        parse_labor_params(cfg)


def test_parse_labor_params_names_missing_field():
    with pytest.raises(ConfigError, match="missing required field 'w'"):
        parse_labor_params({"theta_L": 1, "theta_H": 2, "e_H": 1})


def test_parse_labor_params_names_bad_rational():
    cfg = {"theta_L": "one", "theta_H": 2, "e_H": 1, "w": 1}
    with pytest.raises(ConfigError, match="config.theta_L"):
        parse_labor_params(cfg)


# -- generic config ----------------------------------------------------------------


def generic_cfg():
    return {
        "kind": "generic",
        "types": [["lo", "hi"], ["m"]],
        "priors": [{"lo": "1/3", "hi": "2/3"}, {"m": 1}],
        "actions": [["L", "H"], ["z"]],
        "outcomes": [
            {"label": "x", "payload": ["1/2", "1/2"]},
            {"label": "y"},
        ],
        "outcome_function": [
            {"actions": ["L", "z"], "outcome": "x"},
            {"actions": ["H", "z"], "outcome": "y"},
        ],
        "rule": [
            {"types": ["lo", "m"], "outcome": "x"},
            {"types": ["hi", "m"], "outcome": "y"},
        ],
        "utilities": [
            {"agent": 0, "outcome": "x", "type": "lo", "value": 1},
            {"agent": 0, "outcome": "x", "type": "hi", "value": 0},
            {"agent": 0, "outcome": "y", "type": "lo", "value": 0},
            {"agent": 0, "outcome": "y", "type": "hi", "value": 1},
            {"agent": 1, "outcome": "x", "type": "m", "value": 0},
            {"agent": 1, "outcome": "y", "type": "m", "value": 0},
        ],
        "strategic_costs": [{"agent": 0, "action": "H", "type": "lo", "cost": "1/4"}],
        "misreport_costs": [
            {"agent": 0, "true_type": "lo", "reported_type": "hi", "cost": "1/2"}
        ],
        "profile": [{"lo": "L", "hi": "H"}, {"m": "z"}],
    }


def test_parse_generic_scenario():
    sc = parse_generic_scenario(generic_cfg())
    ts = sc.game.type_space
    assert ts.types_of == (("lo", "hi"), ("m",))
    assert ts.prior_of[0]["hi"] == Fraction(2, 3)
    assert sc.game.mechanism.outcome(("H", "z")).label == "y"
    assert sc.direct.mechanism.outcome(("hi", "m")).label == "y"
    assert sc.game.utilities.table[0, "y", "hi"] == 1
    assert sc.game.costs.strategic[0, "H", "lo"] == Fraction(1, 4)
    assert sc.game.costs.misreport[(0, "lo", "hi")] == Fraction(1, 2)
    assert sc.candidate is not None
    assert sc.candidate.action_profile(("hi", "m")) == ("H", "z")


def test_parse_generic_defaults_to_uniform_prior():
    cfg = generic_cfg()
    del cfg["priors"]
    del cfg["profile"]
    sc = parse_generic_scenario(cfg)
    assert sc.game.type_space.prior_of[0]["lo"] == Fraction(1, 2)
    assert sc.candidate is None


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda c: c.update(extra=1), "unknown fields \\['extra'\\]"),
        (lambda c: c.__setitem__("outcomes", ["x"]), "outcomes\\[0\\]: expected an object"),
        (
            lambda c: c["outcome_function"].append({"actions": ["L", "z"], "outcome": "nope"}),
            "unknown outcome 'nope'",
        ),
        (
            lambda c: c.__setitem__(
                "outcomes", c["outcomes"] + [{"label": "x"}]
            ),
            "duplicate outcome label 'x'",
        ),
        (lambda c: c["utilities"][0].pop("value"), "missing required field 'value'"),
        (
            lambda c: c["utilities"][0].__setitem__("value", "w"),
            "utilities\\[0\\].value",
        ),
        (lambda c: c.__setitem__("profile", "sep"), "profile"),
        (lambda c: c.__setitem__("priors", [{"lo": 1}]), "one prior object per agent"),
    ],
)
def test_parse_generic_diagnostics(mangle, fragment):
    cfg = generic_cfg()
    mangle(cfg)
    with pytest.raises(ConfigError, match=fragment):
        parse_generic_scenario(cfg)


# -- number literals ---------------------------------------------------------------


def test_a_bad_literal_is_reported_at_its_first_row():
    cfg = generic_cfg()
    cfg["utilities"][1]["value"] = "1/x"
    cfg["utilities"][4]["value"] = "1/x"
    with pytest.raises(ConfigError, match=r"^config\.utilities\[1\]\.value: cannot parse '1/x'"):
        parse_generic_scenario(cfg)


def test_one_literal_text_has_one_value_in_every_table():
    cfg = generic_cfg()  # "1/3" is already the prior of lo
    cfg["utilities"][0]["value"] = "1/3"
    cfg["strategic_costs"][0]["cost"] = "1/3"
    game = parse_generic_scenario(cfg).game
    assert game.type_space.prior_of[0]["lo"] == Fraction(1, 3)
    assert game.utilities.table[0, "x", "lo"] == Fraction(1, 3)
    assert game.costs.strategic[0, "H", "lo"] == Fraction(1, 3)


def test_each_use_of_a_repeated_literal_is_checked():
    # "-1" is a valid utility but not a valid cost.
    cfg = generic_cfg()
    cfg["utilities"][0]["value"] = "-1"
    cfg["strategic_costs"][0]["cost"] = "-1"
    with pytest.raises(
        ConfigError, match=r"^config\.strategic_costs\[0\]\.cost: must be non-negative, got -1$"
    ):
        parse_generic_scenario(cfg)


LITERALS_AT_THE_LIMIT = [
    pytest.param("1" + "0" * 99, True, id="integer-100-chars"),
    pytest.param("1" + "0" * 100, False, id="integer-101-chars"),
    pytest.param("0." + "0" * 97 + "1", True, id="decimal-100-chars"),
    pytest.param("0." + "0" * 98 + "1", False, id="decimal-101-chars"),
    pytest.param("1e100", True, id="e100"),
    pytest.param("1e-100", True, id="e-100"),
    pytest.param("1e101", False, id="e101"),
    pytest.param("1E-101", False, id="E-101"),
]


@pytest.mark.parametrize("text, accepted", LITERALS_AT_THE_LIMIT)
@pytest.mark.parametrize("quoted", [False, True], ids=["json-number", "string"])
def test_literal_size_limit(tmp_path, text, accepted, quoted):
    cfg = generic_cfg()
    cfg["utilities"][0]["value"] = "LITERAL"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"LITERAL"', json.dumps(text) if quoted else text))
    if accepted:
        game = parse_generic_scenario(load_config(str(path))).game
        assert game.utilities.table[0, "x", "lo"] == Fraction(text)
    else:
        where = r"config\.utilities\[0\]\.value" if quoted else r".*cfg\.json: JSON number"
        with pytest.raises(ConfigError, match=f"^{where}: .* exceeds the limit of 100$"):
            parse_generic_scenario(load_config(str(path)))


# -- sweep config ------------------------------------------------------------------


def test_parse_sweep_grid():
    cfg = {
        "kind": "sweep",
        "w_values": ["1", "3/2"],
        "c_mis_values": [0, "1/2"],
        "fixed": {"theta_L": 1, "theta_H": 2, "e_H": 1},
    }
    grid = parse_sweep_grid(cfg)
    assert grid.w_values == (Fraction(1), Fraction(3, 2))
    assert grid.c_mis_values == (Fraction(0), Fraction(1, 2))
    cell = grid.cell_params(Fraction(3, 2), Fraction(1, 2))
    assert cell == canonical_params()


def test_parse_sweep_grid_diagnostics():
    base = {
        "w_values": ["1"],
        "c_mis_values": ["0"],
        "fixed": {"theta_L": 1, "theta_H": 2, "e_H": 1},
    }
    with pytest.raises(ConfigError, match="w_values"):
        parse_sweep_grid({**base, "w_values": []})
    with pytest.raises(ConfigError, match="missing required field 'theta_H'"):
        parse_sweep_grid({**base, "fixed": {"theta_L": 1, "e_H": 1}})
    with pytest.raises(ConfigError, match="fixed: unknown fields \\['w'\\]"):
        parse_sweep_grid({**base, "fixed": {**base["fixed"], "w": 1}})
    with pytest.raises(ConfigError, match="fixed: expected an object"):
        parse_sweep_grid({**base, "fixed": [1]})


# -- JSON rendering ----------------------------------------------------------------


def test_json_dumps_is_deterministic():
    assert json_dumps({"b": 1, "a": 2}) == json_dumps({"a": 2, "b": 1})
    assert json_dumps({}).endswith("\n")
    assert json_dumps({"b": 1, "a": 2}).index('"a"') < json_dumps({"b": 1, "a": 2}).index('"b"')


# Text with what the writer must escape: quotes, backslashes, control
# characters, and characters beyond ASCII (one outside the BMP).
json_text = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\xe9\U0001f600'))
json_ints = (
    st.integers()
    | st.integers(10**399, 10**400 - 1)
    | st.integers(-(10**400) + 1, -(10**399))
)
json_values = st.recursive(
    st.none() | st.booleans() | json_ints | json_text,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(json_text, inner),
    max_leaves=30,
)


@SETTINGS
@given(json_values)
def test_json_dumps_writes_the_bytes_of_json_dumps(value):
    assert json_dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value", [0.5, Fraction(1, 2), {"a"}, {1: "a"}, {"a": [1, 2.5]}], ids=repr
)
def test_json_dumps_refuses_what_a_report_never_holds(value):
    # Reports carry exact rationals as strings, so a float is a bug.
    with pytest.raises(TypeError):
        json_dumps(value)


def test_params_to_jsonable():
    assert params_to_jsonable(canonical_params()) == {
        "theta_L": "1",
        "theta_H": "2",
        "e_H": "1",
        "w": "3/2",
        "c_mis": "1/2",
        "prior_high": "1/2",
    }


def test_profile_round_trip():
    sep = SEPARATING_PROFILE
    assert profile_from_jsonable(profile_to_jsonable(sep)) == sep


def test_deviation_round_trip():
    dev = Deviation(1, TYPE_LOW, TYPE_HIGH, Fraction(1, 4))
    data = deviation_to_jsonable(dev)
    assert data == {"agent": 1, "type": TYPE_LOW, "action": TYPE_HIGH, "gain": "1/4"}
    assert deviation_from_jsonable(data) == dev
    assert deviation_to_jsonable(None) is None
    assert deviation_from_jsonable(None) is None


def test_audit_report_round_trips_through_json_text():
    report = build_scenario(canonical_params()).audit
    text = json_dumps(audit_report_to_jsonable(report))
    back = audit_report_from_jsonable(json.loads(text))
    assert back == report
    assert back.chain == report.chain
    assert chain_from_jsonable(chain_to_jsonable(report.chain)) == report.chain


def test_normal_form_jsonable_rows_follow_action_order():
    data = normal_form_to_jsonable(case_matrices(build_scenario(canonical_params()))[0].game)
    assert data["actions"] == [[TYPE_LOW, TYPE_HIGH], [TYPE_LOW, TYPE_HIGH]]
    got_profiles = [tuple(row["actions"]) for row in data["payoffs"]]
    assert got_profiles == [
        (TYPE_LOW, TYPE_LOW),
        (TYPE_LOW, TYPE_HIGH),
        (TYPE_HIGH, TYPE_LOW),
        (TYPE_HIGH, TYPE_HIGH),
    ]
    assert data["payoffs"][0]["values"] == ["3/4", "3/4"]


def test_report_jsonables_are_json_serializable():
    scenario = build_scenario(canonical_params())
    sep = separating_report_to_jsonable(check_separating_equilibrium(scenario))
    truth = truthfulness_report_to_jsonable(
        check_truthful_reporting(scenario), case_matrices(scenario)
    )
    assert json.loads(json_dumps(sep))["in_window"] is True
    loaded = json.loads(json_dumps(truth))
    assert loaded["unique_bne_all_report_high"] is True
    assert loaded["truthful_witness"]["gain"] == "1/4"
    assert len(loaded["case_matrices"]) == 4


# -- markdown and CSV ---------------------------------------------------------------


def test_render_matrices_markdown_golden_fragments():
    p = canonical_params()
    text = render_matrices_markdown(p, case_matrices(build_scenario(p)))
    assert text.startswith("# Ex-post report matrices\n")
    assert "theta_L = 1, theta_H = 2, e_H = 1, w = 3/2, c_mis = 1/2" in text
    assert "## Case 1: true types (theta_H, theta_H)" in text
    assert "## Case 4: true types (theta_L, theta_L)" in text
    assert "| report i \\ report j | theta_L | theta_H |" in text
    assert "| theta_L | (3/4, 3/4) | (0, 3/2) |" in text
    assert "- dominant report for agent i: theta_H (strict)" in text
    assert "- pure Nash profiles: (theta_H, theta_H)" in text
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text == render_matrices_markdown(p, case_matrices(build_scenario(p)))


def test_sweep_rows_to_csv():
    rows = [
        {
            "w": "3/2",
            "c_mis": "1/2",
            "in_window": "true",
            "separating_is_bne": "true",
            "truthful_is_bne": "false",
            "violation": "true",
            "error": "",
        }
    ]
    text = sweep_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert lines[1] == "3/2,1/2,true,true,false,true,"
    assert "\r" not in text
