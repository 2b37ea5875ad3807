"""A fuzzer for generic configs, run through the command line's `main`.

Each example starts from a valid generic config and changes one thing: it
drops, duplicates or retypes one field, swaps one label for another, puts an
oversized number literal in place of a value, repeats a JSON object key, or
puts every value of one table over a long denominator of its own.
`main` must then either run (exit 0, or 2 for a violation, with a JSON
report and nothing on stderr) or exit 1 with empty stdout and one `error:`
line that names the field or key. It must never raise, and never accept a
value of the wrong JSON type by coercing it."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revaudit.cli import main
from revaudit.core import MAX_DENOMINATOR_BITS
from test_cli import two_agent_cfg
from test_serialize import generic_cfg

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def signal_cfg():
    """One agent, no declared profile and no priors: the search runs."""
    return {
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
            {"agent": 0, "outcome": x, "type": t, "value": int(x == "prize")}
            for x in ("prize", "nothing")
            for t in ("lo", "hi")
        ],
        "strategic_costs": [
            {"agent": 0, "action": "e", "type": "lo", "cost": 2},
            {"agent": 0, "action": "e", "type": "hi", "cost": "1/2"},
        ],
        "misreport_costs": [{"agent": 0, "true_type": "lo", "reported_type": "hi", "cost": 0}],
    }


def four_type_cfg():
    """One agent with four types: its utility and strategic cost tables hold
    more values than the others', enough for long denominators to cross the
    bound on their bits."""
    types = ["t0", "t1", "t2", "t3"]
    return {
        "kind": "generic",
        "types": [types],
        "actions": [["0", "e"]],
        "outcomes": [{"label": "prize"}, {"label": "nothing"}],
        "outcome_function": [
            {"actions": ["0"], "outcome": "nothing"},
            {"actions": ["e"], "outcome": "prize"},
        ],
        "rule": [
            {"types": [t], "outcome": ("nothing", "prize")[k % 2]} for k, t in enumerate(types)
        ],
        "utilities": [
            {"agent": 0, "outcome": x, "type": t, "value": int(x == "prize")}
            for x in ("prize", "nothing")
            for t in types
        ],
        "strategic_costs": [
            {"agent": 0, "action": "e", "type": t, "cost": f"{k + 1}/4"}
            for k, t in enumerate(types)
        ],
        "misreport_costs": [{"agent": 0, "true_type": "t0", "reported_type": "t1", "cost": "1/3"}],
    }


BASES = (two_agent_cfg, generic_cfg, signal_cfg, four_type_cfg)

# Stand-ins written into the config tree and replaced in the JSON text, for
# what a Python dict cannot hold: a repeated key and an oversized literal.
REPEAT, BIG = "__repeated_key__", "__big_literal__"
BIG_NUMBERS = ("1" + "0" * 100, "1e101", "-2.5E-999", "0." + "0" * 98 + "1")
# The rational field of each table whose values a "long" mutation puts over
# distinct 98-digit denominators, in literals of the longest length allowed.
LONG_TABLES = {"utilities": "value", "strategic_costs": "cost", "misreport_costs": "cost"}

# Values of another JSON type than the field takes; none of them may be
# accepted. A rational field takes a number or a "p/q" string, an agent a
# JSON integer, a label a string.
WRONG_TYPE = {
    "rational": [None, True, "half", [], {}],
    "agent": [None, False, "0", 1.0, [0], {}],
    "label": [None, True, 3, 0.5, ["x"], {}],
    "list": [None, True, 3, "x", {}],
    "object": [None, True, 3, "x", []],
}


def nodes(value, path=()):
    """Every node of a config tree, as a path of keys and indexes."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from nodes(child, path + (key,))


def get(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def kind_of(path, value) -> str:
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "list"
    if path[-1] == "agent":
        return "agent"
    if path[-1] in ("value", "cost") or path[0] == "priors" or "payload" in path:
        return "rational"
    return "label"


def config_path(path) -> str:
    """The field path an error should name for a fault at `path`: the row
    (or prior, or label list) that holds it; a profile is named whole."""
    head = path[:1] if path[0] in ("kind", "profile") else path[:2]
    return "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in head)


@st.composite
def mutated_configs(draw):
    """(JSON text, mutation, path, detail) for one changed config."""
    cfg = draw(st.sampled_from(BASES))()
    paths = list(nodes(cfg))[1:]
    mutations = ("drop", "duplicate", "retype", "swap", "big", "repeat", "long")
    mutation = draw(st.sampled_from(mutations))
    if mutation == "long":
        table = draw(st.sampled_from([t for t in LONG_TABLES if cfg.get(t)]))
        denominators = [10**97 + 2 * j + 1 for j in range(len(cfg[table]))]
        for row, d in zip(cfg[table], denominators):
            row[LONG_TABLES[table]] = f"1/{d}"
        return json.dumps(cfg), mutation, (table,), sum(d.bit_length() for d in denominators)
    if mutation == "repeat":
        objects = [p for p in [()] + paths if isinstance(get(cfg, p), dict) and get(cfg, p)]
        path = draw(st.sampled_from(objects))
        node = get(cfg, path)
        key = draw(st.sampled_from(sorted(node)))
        same = draw(st.booleans())
        node[REPEAT] = node[key] if same else draw(st.sampled_from(WRONG_TYPE["label"]))
        text = json.dumps(cfg).replace(json.dumps(REPEAT), json.dumps(key))
        return text, mutation, path, key
    if mutation == "duplicate":
        paths = [p for p in paths if isinstance(p[-1], int)]
    if mutation == "swap":
        paths = [p for p in paths if isinstance(get(cfg, p), str)]
    path = draw(st.sampled_from(paths))
    parent, key, value = get(cfg, path[:-1]), path[-1], get(cfg, path)
    detail = kind_of(path, value)
    if mutation == "drop":
        del parent[key]
    elif mutation == "duplicate":
        parent.insert(key, json.loads(json.dumps(value)))
    elif mutation == "retype":
        parent[key] = draw(st.sampled_from(WRONG_TYPE[detail]))
    elif mutation == "swap":
        labels = sorted({get(cfg, p) for p in paths} - {value})
        parent[key] = draw(st.sampled_from(labels))
    else:
        quoted = detail == "rational" and draw(st.booleans())
        big = draw(st.sampled_from(BIG_NUMBERS))
        parent[key] = BIG
        detail = json.dumps(big) if quoted else big
        return json.dumps(cfg).replace(json.dumps(BIG), detail), mutation, path, detail
    return json.dumps(cfg), mutation, path, detail


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


def run(cfg_file, text):
    cfg_file.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(cfg_file)])
    return code, out.getvalue(), err.getvalue()


def test_the_base_configs_are_valid(cfg_file):
    for base in BASES:
        code, out, err = run(cfg_file, json.dumps(base()))
        assert code in (0, 2) and err == "" and json.loads(out)["kind"] == "generic"


@SETTINGS
@given(mutated_configs())
def test_a_mutated_config_runs_or_names_its_fault(cfg_file, case):
    text, mutation, path, detail = case
    code, out, err = run(cfg_file, text)
    if code in (0, 2):
        assert err == ""
        assert json.loads(out)["kind"] == "generic"
        # A repeated key, a value of the wrong JSON type or an oversized
        # literal is never valid; a duplicated list item is valid only in a
        # payload, which may have any length; long denominators only while
        # their bits stay within the bound.
        assert (
            mutation in ("drop", "swap")
            or (mutation == "duplicate" and "payload" in path)
            or (mutation == "long" and detail <= MAX_DENOMINATOR_BITS)
        )
        return
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    if mutation == "long":
        assert err == (
            f"error: config.{path[0]}: distinct denominators of {detail} bits in all exceed "
            f"the limit of {MAX_DENOMINATOR_BITS}\n"
        )
    elif mutation == "repeat":
        assert f"duplicate key {detail!r}" in err
    elif mutation == "big":
        assert "exceeds the limit of 100" in err
        if detail.startswith('"'):
            assert err.startswith(f"error: {config_path(path)}")
    elif mutation == "retype":
        assert err.startswith(f"error: {config_path(path)}")
    else:
        assert err.startswith("error: config")
