"""Config parsing and report rendering for the command line harness.

Configs are JSON. Rationals travel as "p/q" strings or integers; JSON decimal
literals are parsed digit-exact into Fractions (never through a float). A
config's text is read once and decoded once on the decoder's fast path, with
no hook per object; it repeats no key when its count of `:` equals the
entries of its objects. Any other text is decoded again with each object's
keys checked, which names its fault, or reads a `:` in a label. A
generic config's tables are read by columns: each table's fields are
type-checked as whole columns, each distinct literal is parsed once, and
each rule on its rows is checked over whole columns; an outcome table's
columns are read straight into its mechanism's positions. Only a table that
fails is walked row by row, to name the first faulty row.

Every JSON report is written by one writer, which writes a report record
straight from its fields by its row of the key table `RECORD_KEYS`: the
record's JSON keys, sorted, and what each key reads. All rendering is
deterministic: fixed key order, fixed row order, no timestamps.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import MISSING
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from types import GeneratorType

from .auditor import AuditReport, BreakPoint, ProofChainRecord, Scenario, direct_game
from .core import (
    MAX_LITERAL,
    CostModel,
    GameModelError,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    _ConfigRows,
    _read_table,
    as_rational,
    check_agent_count,
    check_literal_size,
)
from .equilibrium import (
    BayesianGame,
    Deviation,
    DominantAction,
    NormalFormGame,
    PureStrategy,
    StrategyProfile,
    _plan,
)
from .labor import (
    LABOR_FIELDS,
    UNIQUENESS_NOTE,
    BestResponseCase,
    CaseMatrix,
    LaborParams,
    SeparatingReport,
    TruthfulnessReport,
    check_market,
)


class ConfigError(GameModelError):
    """A config file is malformed; the message names the offending field."""


def _json_decimal(text: str) -> Fraction:
    # The decoder hands over the raw literal, so "0.1" becomes exactly 1/10.
    return Fraction(check_literal_size(text, "JSON number"))


def _json_int(text: str) -> int:
    # An integer literal has no exponent, so only its length can exceed the
    # limit; check_literal_size is called only to report that.
    if len(text) > MAX_LITERAL:
        check_literal_size(text, "JSON number")
    return int(text)


def _json_object(pairs: list) -> dict:
    # json would keep the last of two equal keys and drop the first without
    # a word; a config must not say two things about one field. Only the
    # checking decode calls this, so it need not be fast.
    seen = set()
    repeated = [k for k, _ in pairs if k in seen or seen.add(k)]
    if repeated:
        raise ValueError(f"duplicate key {repeated[0]!r} in an object")
    return dict(pairs)


# The number hooks of both decodes; the checking decode adds `_json_object`.
_NUMBERS = {"parse_float": _json_decimal, "parse_int": _json_int}


def _entries(data: dict) -> int:
    """The entries of a top object, of its object values and of the objects
    in its lists of objects, each object counted once and summed in C. No
    dict holds more entries than its JSON object had pairs, and each pair
    has one `:` outside a string, so this is at most the text's count of
    `:`, and equal to it only when every pair is in a counted object and no
    object repeats a key."""
    lists = [v for v in data.values() if type(v) is list and set(map(type, v)) == {dict}]
    objects = [v for v in data.values() if type(v) is dict] + [*itertools.chain(*lists)]
    return len(data) + sum(map(len, objects))


def load_config(path: str) -> dict:
    """A config file's top object. Its text is read once and decoded once
    without a pairs hook; a config whose top entries, or else whose entries
    (`_entries`), match its count of `:` repeats no key. Any other text (a
    fault, a `:` in a label, an object deeper than a config's) is decoded
    again, checking each object's keys, so a fault is named as the checking
    decode meets it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            data = json.loads(text, **_NUMBERS)
        except (ValueError, RecursionError):  # the checking decode names it
            data = None
        # len(data) <= _entries(data) <= the count of `:`, so a count equal to
        # len(data) accepts at once, before `_entries` builds its lists.
        if type(data) is not dict or len(data) != (colons := text.count(":")) != _entries(data):
            data = json.loads(text, object_pairs_hook=_json_object, **_NUMBERS)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: JSON nests too deeply") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return cfg[key]


def _check_known_keys(cfg: dict, known, where: str) -> None:
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")


def _read_params(cfg: dict, params, where: str, also=()) -> dict:
    """Read the LaborParams fields `params` from cfg as rationals. cfg may hold
    no other field but `also`; a field without a default is required."""
    _check_known_keys(cfg, also + tuple(f.name for f in params), where)
    return {
        f.name: _located(where, as_rational, _require(cfg, f.name, where), f.name)
        for f in params
        if f.default is MISSING or f.name in cfg
    }


def _located(where: str, build, *args, keyed=None, **kwargs):
    """build(*args, **kwargs), a game-model fault turned into a ConfigError at
    its location under `where`; the one place a config fault is located. A
    row of the keyed table `keyed[table]` is named by its key's position,
    because each row stores exactly one key. A fault with no location (a
    ConfigError among them) names its field already and passes through."""
    try:
        return build(*args, **kwargs)
    except GameModelError as exc:
        if not exc.at:
            raise
        row = repr if keyed is None else lambda key: list(keyed[exc.at[0]]).index(key)
        raise ConfigError(f"{where}.{exc.path(row)}: {exc.problem}") from None


def parse_labor_params(cfg: dict) -> LaborParams:
    return _located("config", LaborParams, **_read_params(cfg, LABOR_FIELDS, "config", ("kind",)))


def _label_lists(value, where: str) -> list:
    """A list of lists of label strings, one list per agent. The labels
    themselves are the game model's to check."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of lists of labels")
    for i, group in enumerate(value):
        if not _typed(list, [group]):
            raise ConfigError(f"{where}[{i}]: expected {KIND_NAMES[list]}")
    return value


def _list(cfg: dict, key: str, default=None) -> list:
    value = _require(cfg, key, "config") if default is None else cfg.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"config.{key}: expected a list")
    return value


class _RowError(Exception):
    """A fault inside one config row or prior. The message continues the
    path of that row (".value: ..." or ": ..."); the path itself is
    formatted only when the fault is reported."""


# The type of each checked row field: an agent index, a label, or a list of
# labels. Other fields (values and costs) are numbers, read later.
FIELD_TYPES = {
    "agent": int,
    **dict.fromkeys(("label", "outcome", "type", "action", "true_type", "reported_type"), str),
    **dict.fromkeys(("actions", "types"), list),
}
# What a value of each kind is, as the fault of a value not of its kind names it.
KIND_NAMES = {int: "an agent index", str: "a label string", list: "a list of label strings"}


def _typed(kind: type, column: list) -> bool:
    """Whether every value of a non-empty column has exactly the type `kind`,
    a list holding only labels: one pass over the column in C, where a test
    of each value costs a Python loop. JSON decodes to exact types only."""
    if set(map(type, column)) != {kind}:
        return False
    return kind is not list or set(map(type, itertools.chain.from_iterable(column))) <= {str}


class _Table:
    """A config table: the key that holds it, what one row is keyed by, the
    fields each row must have (in the order their faults are reported) and
    the fields it may add."""

    def __init__(self, key: str, noun: str, fields: tuple[str, ...], optional=()):
        self.key, self.noun, self.fields = key, noun, fields
        self.allowed = (*fields, *optional)
        self.kinds = tuple((f, FIELD_TYPES.get(f)) for f in fields)

    def valid(self, entries: list) -> dict[str, list] | None:
        """The table's columns, {field: its values in row order} with the
        required fields in their order, when every row is an object with
        exactly the required fields, each checked field of its type, a list
        holding only labels; else None. Each field is checked as one column
        of the whole table: one pass over its rows by `_typed`. A table that
        fails is walked row by row, by `check`, to name its fault."""
        if set(map(type, entries)) != {dict} or set(map(len, entries)) != {len(self.fields)}:
            return None
        columns = {}
        for f, kind in self.kinds:
            try:
                column = columns[f] = list(map(operator.itemgetter(f), entries))
            except KeyError:
                return None
            if kind and not _typed(kind, column):
                return None
        return columns

    def check(self, entry) -> dict[str, list]:
        """The columns of one row, as `valid` gives a table's, then any
        optional field it holds: the row must be an object with exactly the
        required fields (plus any optional ones), each checked field of its
        type by the test `valid` applies."""
        if not isinstance(entry, dict):
            raise _RowError(": expected an object")
        unknown = entry.keys() - self.allowed
        if unknown:
            raise _RowError(f": unknown fields {sorted(unknown)}")
        for f, kind in self.kinds:
            if f not in entry:
                raise _RowError(f": missing required field '{f}'")
            if kind and not _typed(kind, [entry[f]]):
                raise _RowError(f".{f}: expected {KIND_NAMES[kind]}")
        return {f: [entry[f]] for f in self.allowed if f in entry}


OUTCOMES = _Table("outcomes", "outcome label", ("label",), optional=("payload",))
OUTCOME_FUNCTION = _Table("outcome_function", "action profile", ("actions", "outcome"))
RULE = _Table("rule", "type profile", ("types", "outcome"))
UTILITIES = _Table("utilities", "(agent, outcome, type)", ("agent", "outcome", "type", "value"))
STRATEGIC_COSTS = _Table(
    "strategic_costs", "(agent, action, type)", ("agent", "action", "type", "cost")
)
MISREPORT_COSTS = _Table(
    "misreport_costs",
    "(agent, true type, reported type)",
    ("agent", "true_type", "reported_type", "cost"),
)
COST_TABLES = (STRATEGIC_COSTS, MISREPORT_COSTS)
ROW_TABLES = (OUTCOMES, OUTCOME_FUNCTION, RULE, UTILITIES, *COST_TABLES)
# The fields of a generic config: its agents' types, priors and actions, its
# six row tables and an optional declared profile.
GENERIC_KEYS = ("kind", "types", "priors", "actions", *(t.key for t in ROW_TABLES), "profile")


def _read_rows(cfg: dict, table: _Table, rows: dict, read, default=None) -> _ConfigRows:
    """Read a config table by columns: `read` makes a {key: value} dict, in
    row order, of the columns `valid` gives, and raises a _RowError on a
    fault. The dict is stored in rows[table.key]. It must hold one key per
    row, or some row repeats a key and would silently replace another.

    A table that fails any of this is walked row by row, only to name its
    first fault: each row is checked and read alone by the same `read`, on
    the row's columns from `check`, so its fault, or a second row for a
    key, is reported under the row's path."""
    entries = _list(cfg, table.key, default)
    columns = table.valid(entries)
    try:
        values = rows[table.key] = _ConfigRows(read(columns) if columns else ())
    except _RowError:
        values = ()
    if len(values) == len(entries):
        return values
    values = rows[table.key] = _ConfigRows()
    for k, entry in enumerate(entries):
        try:
            ((key, value),) = read(table.check(entry)).items()
            if key in values:
                raise _RowError(f": duplicate {table.noun} {key!r}")
            values[key] = value
        except _RowError as exc:
            raise ConfigError(f"config.{table.key}[{k}]{exc}") from None
    return values


def parse_generic_scenario(cfg: dict) -> Scenario:
    """Build the game a generic config declares, as a `Scenario`: the game,
    the direct game of its rule, and the declared profile's plan, checked
    to fit the game, or no plan when none is declared.

    The parser checks the JSON shape and the rules only a config can break:
    one row per key, outcome labels declared once before use, and utility
    rows only for declared agents, outcomes and types. Every rule of the
    game itself is checked once, by `core` and `BayesianGame`, the rule's
    direct game included: its check finds a missing utility for an outcome
    only the rule reaches. Their faults carry a location (`GameModelError.at`),
    turned into a config field by `_located` on the error path only.
    """
    _check_known_keys(cfg, GENERIC_KEYS, "config")
    rows: dict[str, dict] = {}  # the rows of each keyed table, in config order
    game, direct = _located("config", _generic_game, cfg, rows, keyed=rows)

    plan = None
    if "profile" in cfg:
        maps = cfg["profile"]
        if not isinstance(maps, list) or not all(isinstance(m, dict) for m in maps):
            raise ConfigError("config.profile: expected one {type: action} object per agent")
        try:
            plan = _plan(game, StrategyProfile.from_maps(maps))
        except GameModelError as exc:
            raise ConfigError(f"config.profile: {exc}") from exc
    return Scenario(game, direct, plan)


def _generic_game(cfg: dict, rows: dict):
    """The game of a generic config and its rule's direct game; each keyed
    table's rows are stored in `rows` as they are read by `_read_rows` (an
    outcome table's only when it fails), for `_located` to name a faulty row
    by its position."""
    # (type, literal) -> value, for this config only: each distinct literal
    # is parsed once, and `true` never takes the value of `1`.
    literals: dict[tuple, Fraction] = {}

    def rationals(column: list, field: str) -> list[Fraction]:
        """The value of each literal of a column, or a _RowError at `field`."""
        try:
            try:
                keyed = list(zip(map(type, column), column))
                literals.update((key, as_rational(key[1])) for key in set(keyed) - literals.keys())
            except TypeError:  # a list or an object: it cannot be hashed, nor read
                return list(map(as_rational, column))
            return list(map(literals.__getitem__, keyed))
        except GameModelError as exc:
            raise _RowError(f"{field}: {exc.problem}") from None

    types_of = _label_lists(_require(cfg, "types", "config"), "config.types")
    if "priors" in cfg:
        priors = cfg["priors"]
        if not isinstance(priors, list):
            raise ConfigError("config.priors: expected one prior object per agent")
        for i, prior in enumerate(priors):
            if not isinstance(prior, dict):
                raise ConfigError(f"config.priors[{i}]: expected a {{type: probability}} object")
        type_space = TypeSpace(types_of, priors)
    else:
        type_space = TypeSpace.uniform(types_of)
    types_of = type_space.types_of

    actions_of = _label_lists(_require(cfg, "actions", "config"), "config.actions")
    check_agent_count(actions_of, types_of)

    def outcome_rows(c: dict) -> dict:
        if "payload" not in c:  # a payload is optional, so `valid` refuses a row with one
            return dict.fromkeys(c["label"], ())
        (label,), (payload,) = c.values()
        if not isinstance(payload, list):
            raise _RowError(".payload: expected a list")
        return {label: tuple(rationals([v], f".payload[{j}]")[0] for j, v in enumerate(payload))}

    outcomes = {x: Outcome(x, p) for x, p in _read_rows(cfg, OUTCOMES, rows, outcome_rows).items()}

    def profile_rows(c: dict) -> dict:
        """Rows keyed by a profile, the list in their first field, each with
        its outcome from `outcomes`."""
        profiles, labels = c.values()
        if not outcomes.keys() >= set(labels):
            raise _RowError(f": unknown outcome {labels[0]!r}")
        return dict(zip(map(tuple, profiles), map(outcomes.__getitem__, labels)))

    declared = {(i, t) for i, types in enumerate(types_of) for t in types}

    def utility_rows(c: dict) -> dict:
        agents, labels, types, values = c.values()
        values = rationals(values, ".value")
        if not (declared >= set(zip(agents, types)) and outcomes.keys() >= set(labels)):
            raise _RowError(f": {agents[0], labels[0], types[0]} is not a declared {UTILITIES.noun}")
        return dict(zip(zip(agents, labels, types), values))

    def cost_rows(c: dict) -> dict:
        """Rows keyed by their first three fields, each with a cost."""
        *key_columns, costs = c.values()
        return dict(zip(zip(*key_columns), rationals(costs, ".cost")))

    def outcome_table(cls, label_lists, table: _Table):
        """A mechanism or rule read from its table's checked columns. A table
        that fails a check is read by rows, only to name its first fault."""
        columns = table.valid(_list(cfg, table.key))
        read = columns and _read_table(cls, label_lists, *columns.values(), outcomes)
        return read or cls(label_lists, _read_rows(cfg, table, rows, profile_rows))

    mechanism = outcome_table(Mechanism, actions_of, OUTCOME_FUNCTION)
    scf = outcome_table(SocialChoiceFunction, types_of, RULE)
    utility = _read_rows(cfg, UTILITIES, rows, utility_rows)
    costs = CostModel(*(_read_rows(cfg, t, rows, cost_rows, []) for t in COST_TABLES))
    game = BayesianGame(mechanism, type_space, UtilityTable(utility), costs)
    return game, direct_game(game, scf)


SWEEP_KEYS = ("kind", "w_values", "c_mis_values", "fixed")
# A cell holds its wage and cost; the other labor parameters are fixed.
SWEEP_FIXED = tuple(f for f in LABOR_FIELDS if f.name not in ("w", "c_mis"))
# A sweep's time grows with its cells, 2.1 to 2.6 microseconds each as CSV
# and 5.2 to 5.8 as JSON in process, at the cap, on one core of a shared
# Xeon host; its memory does not, since no row is kept.
MAX_SWEEP_CELLS = 10**5


def parse_sweep_grid(cfg: dict) -> tuple[tuple, tuple, dict]:
    """A labor parameter grid as rationals: its wages, its misreporting costs
    and the other parameters, fixed across its cells.

    The fixed parameters are checked once per grid, so a cell fails only on
    its wage or cost. A sweep builds one scenario per wage from them, and
    prices each cost against that wage's cost-free misreport gains."""
    # The kind first: another kind of config has other fields, and naming
    # them would hide that the whole config is of the wrong kind.
    if cfg.get("kind", "sweep") != "sweep":
        raise ConfigError(f"config.kind: a sweep grid has kind 'sweep', got {cfg['kind']!r}")
    _check_known_keys(cfg, SWEEP_KEYS, "config")
    w_raw = _require(cfg, "w_values", "config")
    c_raw = _require(cfg, "c_mis_values", "config")
    if not isinstance(w_raw, list) or not w_raw:
        raise ConfigError("config.w_values: expected a non-empty list")
    if not isinstance(c_raw, list) or not c_raw:
        raise ConfigError("config.c_mis_values: expected a non-empty list")
    cells = len(w_raw) * len(c_raw)
    if cells > MAX_SWEEP_CELLS:
        problem = f"{len(w_raw)} x {len(c_raw)} = {cells} cells exceed the cap of {MAX_SWEEP_CELLS}"
        raise ConfigError(f"config.w_values, config.c_mis_values: {problem}")
    fixed_cfg = _require(cfg, "fixed", "config")
    if not isinstance(fixed_cfg, dict):
        raise ConfigError("config.fixed: expected an object")
    fixed = _read_params(fixed_cfg, SWEEP_FIXED, "config.fixed")
    w_values, c_mis_values = (
        tuple(_located("config", as_rational, v, f"{key}[{k}]") for k, v in enumerate(raw))
        for key, raw in (("w_values", w_raw), ("c_mis_values", c_raw))
    )
    _located("config.fixed", check_market, **fixed)
    return w_values, c_mis_values, fixed


# ---------------------------------------------------------------------------
# Report rendering. One writer, `_write`, prints every JSON report; it writes
# a report record from its row of the key table `RECORD_KEYS`.
# ---------------------------------------------------------------------------


def json_dumps(payload) -> str:
    """The bytes of `json.dumps(payload, indent=2, sort_keys=True)`, plus a
    newline, written in one pass: that call never reaches json's C encoder
    when it indents.

    A value is a dict with str keys, a list, tuple or generator, a str, an
    int, a bool or None; or a Fraction, written as its "p/q" string; or a
    report record of `RECORD_KEYS`, written as the object of its keys (a
    `StrategyProfile` as the list of its strategies). Anything else, a float
    among them, raises TypeError: reports carry exact rationals.
    """
    out: list[str] = []
    _write(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


def json_dump(payload, fp) -> None:
    """Write `json_dumps(payload)` to the text file `fp` piece by piece, so a
    generator's items are written as they come and none is kept."""
    _write(payload, "\n", fp.write)
    fp.write("\n")


def _write(value, newline: str, write) -> None:
    """Pass the JSON of `value` to `write` in pieces; `newline` is a newline
    and the indent of the line the value starts on."""
    if isinstance(value, str):
        write(_encode_str(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif type(value) is Fraction:
        write('"' + str(value) + '"')
    elif (keys := RECORD_KEYS.get(type(value))) is not None:
        inner, sep = newline + "  ", "{"
        for _, text, get in keys:
            write(sep + inner + text)
            _write(get(value), inner, write)
            sep = ","
        write(newline + "}")
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            write(sep + inner + _encode_str(key) + ": ")
            _write(item, inner, write)
            sep = ","
        write("{}" if sep == "{" else newline + "}")
    elif isinstance(value, (list, tuple, GeneratorType)):
        inner, sep = newline + "  ", "["
        for item in value:
            write(sep + inner)
            _write(item, inner, write)
            sep = ","
        write("[]" if sep == "[" else newline + "]")
    elif type(value) is StrategyProfile:
        _write(value.strategies, newline, write)
    else:
        raise TypeError(f"a {type(value).__name__} has no JSON form in a report")


# The JSON key of each report field not written under its own name.
_RENAMED = {"type_label": "type", "game": "matrix", "actions_of": "actions"}


def _record_keys(cls, added=(), replaced=(), **shaped) -> tuple:
    """A report class's row of `RECORD_KEYS`: each JSON key in sorted order,
    with its JSON text and `: `, and the reader of its value. A key reads
    the field it names (`_RENAMED` aside), a property in `added`, or, for a
    key in `shaped`, a value built from the record, in place of the fields
    in `replaced`."""
    names = [f for f in (*cls.__match_args__, *added) if f not in replaced]
    keys = {_RENAMED.get(f, f): operator.attrgetter(f) for f in names} | shaped
    return tuple((key, _encode_str(key) + ": ", keys[key]) for key in sorted(keys))


def _payoff_rows(game: NormalFormGame):
    profiles = itertools.product(*game.actions_of)
    return ({"actions": profile, "values": game.payoff(profile)} for profile in profiles)


# Each report record the writer knows, by its exact class: its keys in
# sorted order and how each reads its value. Built once, at import.
RECORD_KEYS = {
    cls: _record_keys(cls)
    for cls in (LaborParams, PureStrategy, Deviation, BreakPoint, ProofChainRecord,
                BestResponseCase, DominantAction, CaseMatrix)
} | {
    AuditReport: _record_keys(AuditReport, added=("truthful_is_bne", "violation")),
    TruthfulnessReport: _record_keys(TruthfulnessReport, added=("truthful_is_bne",)),
    SeparatingReport: _record_keys(
        SeparatingReport,
        replaced=("window_low", "window_high"),
        window=lambda r: {"low": r.window_low, "high": r.window_high},
    ),
    NormalFormGame: _record_keys(NormalFormGame, replaced=("payoffs",), payoffs=_payoff_rows),
}


def truthfulness_report_to_jsonable(
    report: TruthfulnessReport, matrices: tuple[CaseMatrix, ...]
) -> dict:
    """The direct game's report with its four case matrices and the caveat
    on uniqueness, as `matrices --format json` and `analyze` print it."""
    fields = {key: get(report) for key, _, get in RECORD_KEYS[TruthfulnessReport]}
    return fields | {"case_matrices": matrices, "notes": [UNIQUENESS_NOTE]}


def render_matrices_markdown(params: LaborParams, matrices: tuple[CaseMatrix, ...]) -> str:
    """Markdown document with one report-game table per realized type pair.

    Row player is the first agent of the pair; each cell is (row payoff,
    column payoff).
    """
    lines = [
        "# Ex-post report matrices",
        "",
        ", ".join(f"{k} = {v}" for k, v in vars(params).items() if k != "prior_high"),
        "",
        f"Note: {UNIQUENESS_NOTE}.",
        "",
    ]
    for m in matrices:
        row_actions, col_actions = m.game.actions_of
        lines.append(f"## Case {m.case}: true types ({m.true_types[0]}, {m.true_types[1]})")
        lines.append("")
        lines.append("| report i \\ report j | " + " | ".join(col_actions) + " |")
        lines.append("|" + " --- |" * (len(col_actions) + 1))
        for a in row_actions:
            cells = []
            for b in col_actions:
                v = m.game.payoff((a, b))
                cells.append(f"({v[0]}, {v[1]})")
            lines.append(f"| {a} | " + " | ".join(cells) + " |")
        lines.append("")
        for agent, d in enumerate(m.dominant):
            label = "none" if d is None else f"{d.action} ({d.kind})"
            lines.append(f"- dominant report for agent {'ij'[agent]}: {label}")
        nash = ", ".join("(" + ", ".join(prof) + ")" for prof in m.pure_nash) or "none"
        lines.append(f"- pure Nash profiles: {nash}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


SWEEP_COLUMNS = (
    "w",
    "c_mis",
    "in_window",
    "separating_is_bne",
    "truthful_is_bne",
    "violation",
    "error",
)
