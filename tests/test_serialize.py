"""Config parsing and report rendering: exact rationals in and out,
deterministic JSON/CSV/markdown, and full audit-report round trips through
the readers of `test_properties.py`."""

import functools
import json
import random
import re
from fractions import Fraction

import pytest
import reference_engine as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core import TABLE_OUTCOMES, check_read_table, label_tables
from test_labor import LABOR_PARAMS_CASES
from test_properties import (
    SETTINGS,
    audit_report_from_jsonable,
    case_matrix_from_jsonable,
    chain_from_jsonable,
    deviation_from_jsonable,
    profile_from_jsonable,
    separating_report_from_jsonable,
    truthfulness_report_from_jsonable,
)

from revaudit.auditor import AuditReport, BreakPoint, ProofChainRecord, RegressionSummary
from revaudit.equilibrium import (
    Deviation,
    DominantAction,
    EquilibriumVerdict,
    NormalFormGame,
    PureStrategy,
    StrategyProfile,
    _profile,
)
from revaudit.labor import (
    SEPARATING_PROFILE,
    TYPE_HIGH,
    TYPE_LOW,
    UNIQUENESS_NOTE,
    BestResponseCase,
    CaseMatrix,
    LaborParams,
    SeparatingReport,
    TruthfulnessReport,
    build_scenario,
    case_matrices,
    check_separating_equilibrium,
    check_truthful_reporting,
)
from revaudit.serialize import (
    MISREPORT_COSTS,
    OUTCOME_FUNCTION,
    OUTCOMES,
    RULE,
    STRATEGIC_COSTS,
    UTILITIES,
    ConfigError,
    _RowError,
    json_dumps,
    load_config,
    parse_generic_scenario,
    parse_labor_params,
    parse_sweep_grid,
    render_matrices_markdown,
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


# Scalars and keys of a config's shape. Some hold a `:`, which the checking
# decode reads. Whitespace JSON allows around a `:` or a `,`.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**6), 10**6), st.text("a\"é", max_size=3),
    st.just("1:2"),
)
KEYS = st.text("ab\" ", max_size=3) | st.sampled_from([":", "a:"])
WHITESPACE = ("", " ", "  ", "\n", "\t ", "\r\n ")


def config_shapes():
    """A dict shaped like a config: scalars, lists of scalars, objects as
    values, and lists of row objects whose values may be objects too."""
    objects = st.dictionaries(KEYS, st.one_of(SCALARS, st.lists(SCALARS, max_size=3)), max_size=3)
    rows = st.dictionaries(
        KEYS, st.one_of(SCALARS, objects, st.lists(st.one_of(SCALARS, objects), max_size=3)),
        max_size=4,
    )
    values = st.one_of(SCALARS, objects, st.lists(rows, max_size=4), st.lists(SCALARS, max_size=3))
    return st.dictionaries(KEYS, values, max_size=6)


def objects_in(node):
    """Every object in the tree under node, node included."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from objects_in(value)


def spaced_json(node, rng, repeat=None) -> str:
    """node as JSON text with random whitespace around each `:` and `,`. The
    object `repeat` (found by identity) writes its first key a second time,
    somewhere after the first."""
    gap = functools.partial(rng.choice, WHITESPACE)

    def write(node) -> str:
        if isinstance(node, list):
            return "[" + f"{gap()},{gap()}".join(map(write, node)) + "]"
        if not isinstance(node, dict):
            return json.dumps(node)
        pairs = [f"{json.dumps(k)}{gap()}:{gap()}{write(v)}" for k, v in node.items()]
        if node is repeat:
            key = next(iter(node))
            pairs.insert(rng.randint(1, len(pairs)), f"{json.dumps(key)}:{write(node[key])}")
        return "{" + gap() + f"{gap()},{gap()}".join(pairs) + gap() + "}"

    return write(node)


@settings(SETTINGS, max_examples=60)
@given(config_shapes(), st.randoms(use_true_random=False))
def test_load_config_reads_any_spacing_and_names_any_repeated_key(tmp_path_factory, cfg, rng):
    path = tmp_path_factory.mktemp("shape") / "cfg.json"
    text = spaced_json(cfg, rng)
    path.write_text(text, encoding="utf-8")
    # Equal as JSON text: in value and in the order of every object's keys.
    assert json.dumps(load_config(str(path))) == json.dumps(json.loads(text)) == json.dumps(cfg)
    objects = [obj for obj in objects_in(cfg) if obj]
    if objects:
        repeat = rng.choice(objects)
        path.write_text(spaced_json(cfg, rng, repeat), encoding="utf-8")
        key = next(iter(repeat))
        with pytest.raises(ConfigError, match=re.escape(f": duplicate key {key!r} in an object")):
            load_config(str(path))


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
    assert sc.game.mechanism.outcome_of["H", "z"].label == "y"
    assert sc.direct.mechanism.outcome_of["hi", "m"].label == "y"
    assert sc.game.utilities.table[0, "y", "hi"] == 1
    assert sc.game.costs.strategic[0, "H", "lo"] == Fraction(1, 4)
    assert sc.game.costs.misreport[(0, "lo", "hi")] == Fraction(1, 2)
    assert sc.plan == [[0, 1], [0]]
    profile = _profile(sc.game, sc.plan)
    assert profile == StrategyProfile.from_maps(generic_cfg()["profile"])
    assert [s.action(t) for s, t in zip(profile.strategies, ("hi", "m"))] == ["H", "z"]


@settings(SETTINGS, max_examples=50)
@given(st.data())
def test_a_shuffled_config_reads_each_outcome_table_into_its_walk(data):
    actions_of, mechanism = data.draw(label_tables())
    types_of, rule = data.draw(label_tables(len(actions_of), "t"))
    cfg = {
        "kind": "generic",
        "types": [list(types) for types in types_of],
        "actions": [list(actions) for actions in actions_of],
        "outcomes": [
            {"label": x.label, "payload": [str(v) for v in x.payload]} for x in TABLE_OUTCOMES
        ],
        "outcome_function": [{"actions": list(p), "outcome": x.label} for p, x in mechanism.items()],
        "rule": [{"types": list(p), "outcome": x.label} for p, x in rule.items()],
        "utilities": [
            {"agent": i, "outcome": x.label, "type": t, "value": 0}
            for i, types in enumerate(types_of) for x in TABLE_OUTCOMES for t in types
        ],
    }
    scenario = parse_generic_scenario(cfg)
    check_read_table(scenario.game.mechanism, actions_of, mechanism)
    check_read_table(scenario.direct.mechanism, types_of, rule)


def test_parse_generic_defaults_to_uniform_prior():
    cfg = generic_cfg()
    del cfg["priors"]
    del cfg["profile"]
    sc = parse_generic_scenario(cfg)
    assert sc.game.type_space.prior_of[0]["lo"] == Fraction(1, 2)
    assert sc.plan is None


def _row_fault(table, fields, message, label):
    """A fault in the first row of a keyed table, with its whole message."""
    return pytest.param(
        lambda c: c[table][0].update(fields),
        f"^{re.escape(f'config.{table}[0]{message}')}$",
        id=f"{table}-{label}",
    )


# Faults in the first row of each table keyed by (agent, label, label). An
# unknown field is named before a field's type, and a field's type before a
# value. An empty label passes the row check: the utilities reader finds it
# undeclared, and `core` finds a cost key malformed.
KEYED_ROW_FAULTS = [
    _row_fault(table, fields, message, label)
    for table, name, value, empty in [
        ("utilities", "outcome", "value", ": (0, '', 'lo') is not a declared (agent, outcome, type)"),
        ("strategic_costs", "action", "cost", ": key must be (agent, label, label)"),
        ("misreport_costs", "true_type", "cost", ": key must be (agent, label, label)"),
    ]
    for fields, message, label in [
        ({"agent": True}, ".agent: expected an agent index", "bool-agent"),
        ({name: 1}, f".{name}: expected a label string", "int-label"),
        ({name: ["lo"]}, f".{name}: expected a label string", "list-label"),
        ({name: ""}, empty, "empty-label"),
        ({"extra": 1}, ": unknown fields ['extra']", "unknown-field"),
        ({"extra": 1, name: 1}, ": unknown fields ['extra']", "unknown-field-and-bad-type"),
        ({value: "w", "agent": True}, ".agent: expected an agent index", "bad-value-and-bool-agent"),
    ]
]


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
        *KEYED_ROW_FAULTS,
        pytest.param(
            lambda c: c["outcome_function"][1]["actions"].__setitem__(1, 0),
            r"^config\.outcome_function\[1\]\.actions: expected a list of label strings$",
            id="outcome_function-int-in-label-list",
        ),
        pytest.param(
            lambda c: c["rule"][1].update(extra=1),
            r"^config\.rule\[1\]: unknown fields \['extra'\]$",
            id="rule-unknown-field",
        ),
        pytest.param(
            lambda c: c.__setitem__("types", "lo"),
            r"^config\.types: expected a list of lists of labels$",
            id="types-string",
        ),
        pytest.param(
            lambda c: c["actions"][1].__setitem__(0, 0),
            r"^config\.actions\[1\]: expected a list of label strings$",
            id="actions-int-label",
        ),
        pytest.param(
            lambda c: c["outcome_function"][0].__setitem__("actions", "L"),
            r"^config\.outcome_function\[0\]\.actions: expected a list of label strings$",
            id="outcome_function-string-for-label-list",
        ),
        # A row with a payload has more fields than the table requires, so
        # an outcomes table that holds one is always walked row by row.
        pytest.param(
            lambda c: c["outcomes"][0].__setitem__("label", 0),
            r"^config\.outcomes\[0\]\.label: expected a label string$",
            id="outcomes-with-payload-int-label",
        ),
    ],
)
def test_parse_generic_diagnostics(mangle, fragment):
    cfg = generic_cfg()
    mangle(cfg)
    with pytest.raises(ConfigError, match=fragment):
        parse_generic_scenario(cfg)


# A field's value of the field's own type, and one of another type.
FIELD_VALUES = {
    int: st.integers(-1, 2),
    str: st.sampled_from(["lo", "x", ""]),
    list: st.lists(st.sampled_from(["lo", "z"]), max_size=2),
    None: st.one_of(st.sampled_from(["1/2", "w"]), st.integers(-1, 1), st.none()),
}
WRONG_VALUES = {
    int: st.one_of(st.booleans(), st.just("0")),
    str: st.one_of(st.integers(0, 1), st.none(), st.just(["lo"])),
    list: st.one_of(st.just("lo"), st.lists(st.sampled_from([1, None]), min_size=1, max_size=2)),
    None: st.just([]),
}
TABLES = [OUTCOMES, OUTCOME_FUNCTION, RULE, UTILITIES, STRATEGIC_COSTS, MISREPORT_COSTS]


@st.composite
def table_rows(draw, table):
    """A table's rows, each a valid object or one with one fault: a field
    of another type, a field dropped or added, or no object at all."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row = {f: draw(FIELD_VALUES[kind]) for f, kind in table.kinds}
        fault = draw(st.sampled_from(["none"] * 4 + ["type", "drop", "add", "other"]))
        f, kind = draw(st.sampled_from(table.kinds))
        if fault == "type":
            row[f] = draw(WRONG_VALUES[kind])
        elif fault == "drop":
            del row[f]
        elif fault == "add":
            row[draw(st.sampled_from(["extra", "payload"]))] = []
        rows.append(draw(st.sampled_from([[], "row", 0])) if fault == "other" else row)
    return rows


@settings(SETTINGS, max_examples=300)
@given(st.sampled_from(TABLES).flatmap(lambda t: st.tuples(st.just(t), table_rows(t))))
def test_a_table_is_valid_exactly_when_every_row_passes_its_check(table_and_rows):
    # `valid` lets a table's rows skip `check`, so it must never pass a row
    # that `check` refuses, and it passes every table of plain rows that
    # have exactly the required fields and pass. What it passes on is the
    # table's columns: each required field's values, in row order.
    table, rows = table_and_rows

    def passes(row) -> bool:
        try:
            table.check(row)
        except _RowError:
            return False
        return row.keys() == set(table.fields)

    columns = table.valid(rows)
    assert (columns is not None) == (bool(rows) and all(map(passes, rows)))
    if columns is not None:
        assert columns == {f: [row[f] for row in rows] for f in table.fields}


@settings(SETTINGS, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_a_written_config_reads_back_as_its_game(agents, seed):
    # A random priced game and rule, written as a generic config with its
    # rows shuffled, read back as equal parts: with a declared profile, and
    # without one.
    rng = random.Random(seed)
    game, rule = ref.random_priced_game(rng, agents)
    plan = [
        [rng.randrange(len(actions)) for _ in types]
        for types, actions in zip(game.type_space.types_of, game.mechanism.actions_of)
    ]
    for declared in (plan, None):
        cfg = json.loads(json.dumps(ref.generic_config(game, rule, declared, rng)))
        sc = parse_generic_scenario(cfg)
        assert sc.game.type_space == game.type_space
        assert sc.game.mechanism == game.mechanism
        assert sc.game.utilities == game.utilities
        assert sc.game.costs == game.costs
        assert sc.direct.mechanism == rule
        assert sc.plan == declared


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
    w_values, c_mis_values, fixed = parse_sweep_grid(cfg)
    assert w_values == (Fraction(1), Fraction(3, 2))
    assert c_mis_values == (Fraction(0), Fraction(1, 2))
    assert fixed == {"theta_L": 1, "theta_H": 2, "e_H": 1}
    assert all(type(v) is Fraction for v in fixed.values())
    assert LaborParams(w=Fraction(3, 2), c_mis=Fraction(1, 2), **fixed) == canonical_params()


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
    "value",
    [0.5, {"a"}, {1: "a"}, {"a": [1, 2.5]}, EquilibriumVerdict(None), RegressionSummary(1, 1, ())],
    ids=repr,
)
def test_json_dumps_refuses_what_a_report_never_holds(value):
    # Reports carry exact rationals, so a float is a bug; a dataclass outside
    # the writer's key table is no report record.
    with pytest.raises(TypeError):
        json_dumps(value)


def test_json_dumps_writes_a_fraction_as_its_text():
    assert json_dumps(Fraction(-3, 2)) == '"-3/2"\n'
    assert json_dumps(Fraction(3)) == '"3"\n'
    assert json_dumps({"x": [Fraction(1, 4)]}) == json_dumps({"x": ["1/4"]})


# The JSON keys of every report record the writer knows, as `analyze` and
# `matrices --format json` print them. A field added to a report class
# changes its keys, so it cannot enter a report unnoticed.
RECORD_JSON_KEYS = {
    AuditReport: {"chain", "implemented", "indirect_equilibrium", "truthful_is_bne",
                  "truthful_witness", "violation"},
    BestResponseCase: {"case", "optimal_bid", "opponent_type", "own_type", "payoff_bid_high",
                       "payoff_bid_zero"},
    BreakPoint: {"agent", "costfree_gain", "mimicked_type", "type"},
    CaseMatrix: {"case", "dominant", "matrix", "pure_nash", "true_types"},
    Deviation: {"agent", "type", "action", "gain"},
    DominantAction: {"action", "kind"},
    LaborParams: {"c_mis", "e_H", "prior_high", "theta_H", "theta_L", "w"},
    NormalFormGame: {"actions", "payoffs"},
    ProofChainRecord: {"break_point", "costfree_truthful_inequalities_hold",
                       "equilibrium_inequalities_hold", "mimicry_inequalities_hold", "vacuous"},
    PureStrategy: {"agent", "choice"},
    SeparatingReport: {"best_response_cases", "bne_witness", "implements_rule", "in_window",
                       "ir_margin", "ir_satisfied", "notes", "separating_is_bne", "window"},
    TruthfulnessReport: {"all_report_high_is_bne", "cmis_below_half_w", "equilibria",
                         "truthful_is_bne", "truthful_witness", "unique_bne_all_report_high"},
}


def canonical_records():
    """One record of each kind the writer knows, from the canonical market."""
    params = canonical_params()
    scenario = build_scenario(params)
    sep, audit = check_separating_equilibrium(scenario), scenario.audit
    matrix = case_matrices(scenario)[0]
    return [
        audit, sep.best_response_cases[0], audit.chain.break_point, matrix,
        audit.truthful_witness, matrix.dominant[0], params, matrix.game, audit.chain,
        audit.indirect_equilibrium.strategies[0], sep, check_truthful_reporting(scenario),
    ]


def test_the_writer_prints_each_report_record_with_its_keys_in_order():
    records = canonical_records()
    assert {type(r) for r in records} == RECORD_JSON_KEYS.keys()
    for record in records:
        keys = list(json.loads(json_dumps(record)))
        assert keys == sorted(RECORD_JSON_KEYS[type(record)]), type(record).__name__


def test_params_write_as_rationals():
    assert json.loads(json_dumps(canonical_params())) == {
        "theta_L": "1",
        "theta_H": "2",
        "e_H": "1",
        "w": "3/2",
        "c_mis": "1/2",
        "prior_high": "1/2",
    }


def test_profile_round_trip():
    sep = SEPARATING_PROFILE
    assert profile_from_jsonable(json.loads(json_dumps(sep))) == sep


def test_deviation_round_trip():
    dev = Deviation(1, TYPE_LOW, TYPE_HIGH, Fraction(1, 4))
    data = json.loads(json_dumps(dev))
    assert data == {"agent": 1, "type": TYPE_LOW, "action": TYPE_HIGH, "gain": "1/4"}
    assert deviation_from_jsonable(data) == dev
    assert json.loads(json_dumps(None)) is None
    assert deviation_from_jsonable(None) is None


def test_audit_report_round_trips_through_json_text():
    report = build_scenario(canonical_params()).audit
    text = json_dumps(report)
    back = audit_report_from_jsonable(json.loads(text))
    assert back == report
    assert back.chain == report.chain
    assert chain_from_jsonable(json.loads(json_dumps(report.chain))) == report.chain


def test_normal_form_jsonable_rows_follow_action_order():
    data = json.loads(json_dumps(case_matrices(build_scenario(canonical_params()))[0].game))
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
    sep = check_separating_equilibrium(scenario)
    truth = truthfulness_report_to_jsonable(
        check_truthful_reporting(scenario), case_matrices(scenario)
    )
    assert json.loads(json_dumps(sep))["in_window"] is True
    loaded = json.loads(json_dumps(truth))
    assert loaded["unique_bne_all_report_high"] is True
    assert loaded["truthful_witness"]["gain"] == "1/4"
    assert len(loaded["case_matrices"]) == 4


@pytest.mark.parametrize("p", LABOR_PARAMS_CASES)
def test_each_labor_report_reads_back_from_its_json(p):
    # The reports `analyze` and `matrices` print beside the audit, at the
    # labor markets tests/test_labor.py checks its scenarios at.
    scenario = build_scenario(p)
    sep = check_separating_equilibrium(scenario)
    truth, matrices = check_truthful_reporting(scenario), case_matrices(scenario)
    assert separating_report_from_jsonable(json.loads(json_dumps(sep))) == sep
    data = json.loads(json_dumps(truthfulness_report_to_jsonable(truth, matrices)))
    assert truthfulness_report_from_jsonable(data) == truth
    assert data["truthful_is_bne"] is truth.truthful_is_bne
    assert tuple(map(case_matrix_from_jsonable, data["case_matrices"])) == matrices
    assert data["notes"] == [UNIQUENESS_NOTE]


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
