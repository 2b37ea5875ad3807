"""Config parsing and report rendering for the command line harness.

Configs are JSON. Rationals travel as "p/q" strings or integers; JSON decimal
literals are parsed digit-exact into Fractions (never through a float). All
rendering is deterministic: fixed key order, fixed row order, no timestamps.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .auditor import AuditReport, ProofChainRecord, direct_game
from .core import (
    MAX_LITERAL,
    ConstructionError,
    CostModel,
    GameModelError,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    as_rational,
    check_agent_count,
    check_literal_size,
    rational_str,
)
from .equilibrium import (
    BayesianGame,
    Deviation,
    NormalFormGame,
    StrategyProfile,
    _plan,
)
from .labor import (
    UNIQUENESS_NOTE,
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
    # a word; a config must not say two things about one field.
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"duplicate key {key!r} in an object")
    return obj


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(
                fh, parse_float=_json_decimal, parse_int=_json_int, object_pairs_hook=_json_object
            )
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


def _rational(value, where: str) -> Fraction:
    try:
        return as_rational(value, where)
    except GameModelError as exc:
        raise ConfigError(str(exc)) from exc


def _check_known_keys(cfg: dict, known, where: str) -> None:
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")


LABOR_KEYS = ("kind", "theta_L", "theta_H", "e_H", "w", "c_mis", "prior_high")


def parse_labor_params(cfg: dict, where: str = "config") -> LaborParams:
    _check_known_keys(cfg, LABOR_KEYS, where)
    required = ("theta_L", "theta_H", "e_H", "w")
    values = {
        key: _rational(_require(cfg, key, where), f"{where}.{key}")
        for key in required + ("c_mis", "prior_high")
        if key in required or key in cfg
    }
    try:
        return LaborParams(**values)
    except ConstructionError as exc:  # a range fault, located at its parameter
        raise ConfigError(f"{where}.{exc.path()}: {exc.problem}") from None


@dataclass(frozen=True)
class GenericScenario:
    """A fully explicit game from a config and the direct game of its rule,
    built once by `parse_generic_scenario`, plus an optional candidate
    profile. The direct game's mechanism is the rule."""

    game: BayesianGame
    direct: BayesianGame
    candidate: StrategyProfile | None


GENERIC_KEYS = (
    "kind",
    "types",
    "priors",
    "actions",
    "outcomes",
    "outcome_function",
    "rule",
    "utilities",
    "strategic_costs",
    "misreport_costs",
    "profile",
)


def _is_label_list(value) -> bool:
    # A plain loop: every outcome_function and rule row holds such a list,
    # and all() over a generator costs twice as much on these short lists.
    if not isinstance(value, list):
        return False
    for v in value:
        if not isinstance(v, str):
            return False
    return True


def _label_lists(value, where: str) -> list:
    """A list of lists of label strings, one list per agent. The labels
    themselves are the game model's to check."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of lists of labels")
    for i, group in enumerate(value):
        if not _is_label_list(group):
            raise ConfigError(f"{where}[{i}]: expected a list of label strings")
    return value


def _list(cfg: dict, key: str, where: str, default=None) -> list:
    value = _require(cfg, key, where) if default is None else cfg.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{where}.{key}: expected a list")
    return value


class _RowError(Exception):
    """A fault inside one config row or prior. The message continues the
    path of that row (".value: ..." or ": ..."); the path itself is
    formatted only when the fault is reported."""


# How a row field is checked: an agent index, a label, or a list of labels.
# Other fields (values and costs) are numbers, read later.
AGENT, LABEL, LABELS = range(3)
FIELD_KINDS = {
    "agent": AGENT,
    **dict.fromkeys(("label", "outcome", "type", "action", "true_type", "reported_type"), LABEL),
    **dict.fromkeys(("actions", "types"), LABELS),
}


class _Table:
    """A config table: the key that holds it, what one row is keyed by, the
    fields each row must have (in the order their faults are reported) and
    the fields it may add."""

    def __init__(self, key: str, noun: str, fields: tuple[str, ...], optional=()):
        self.key, self.noun, self.fields = key, noun, fields
        self.names = frozenset(fields)
        self.allowed = self.names.union(optional)
        self.kinds = tuple((f, FIELD_KINDS.get(f)) for f in fields)
        self.typed = tuple((f, kind) for f, kind in self.kinds if kind is not None)

    def check(self, entry) -> dict:
        """An object with exactly the required fields (plus any optional
        ones), each agent an int index and each label a string."""
        if not isinstance(entry, dict):
            raise _RowError(": expected an object")
        if entry.keys() == self.names:
            fields = self.typed  # no field is missing: check the typed ones
        else:
            unknown = entry.keys() - self.allowed
            if unknown:
                raise _RowError(f": unknown fields {sorted(unknown)}")
            fields = self.kinds
        for f, kind in fields:
            try:
                value = entry[f]
            except KeyError:
                raise _RowError(f": missing required field '{f}'") from None
            if kind == LABEL:
                if not isinstance(value, str):
                    raise _RowError(f".{f}: expected a label string")
            elif kind == AGENT:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise _RowError(f".{f}: expected an agent index")
            elif kind == LABELS and not _is_label_list(value):
                raise _RowError(f".{f}: expected a list of label strings")
        return entry


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


def _read_rows(cfg: dict, table: _Table, where: str, rows: dict, read, default=None) -> dict:
    """Check each row of a config table and store the (key, value) that
    `read` makes of it in rows[table.key], in row order. A fault in a row,
    or a second row for a key (which would silently replace the first), is
    reported under the row's path."""
    values = rows[table.key] = {}
    for k, entry in enumerate(_list(cfg, table.key, where, default)):
        try:
            key, value = read(table.check(entry))
            if key in values:
                raise _RowError(f": duplicate {table.noun} {key!r}")
            values[key] = value
        except _RowError as exc:
            raise ConfigError(f"{where}.{table.key}[{k}]{exc}") from None
    return values


def parse_generic_scenario(cfg: dict, where: str = "config") -> GenericScenario:
    """Build the game a generic config declares.

    The parser checks the JSON shape and the rules only a config can break:
    one row per key, outcome labels declared once before use, and utility
    rows only for declared agents, outcomes and types. Every rule of the
    game itself is checked once, by `core` and `BayesianGame`, the rule's
    direct game included: its check finds a missing utility for an outcome
    only the rule reaches. Their faults carry a location (`GameModelError.at`),
    turned into a config field on the error path only: a keyed row is the
    position of its key in its table, because each row stores exactly one
    key.
    """
    _check_known_keys(cfg, GENERIC_KEYS, where)
    rows: dict[str, dict] = {}  # the rows of each keyed table, in config order
    try:
        game, scf = _generic_game(cfg, where, rows)
        direct = direct_game(game, scf)
    except GameModelError as exc:
        if not exc.at:  # a ConfigError names its field already
            raise
        path = exc.path(lambda key: list(rows[exc.at[0]]).index(key))
        raise ConfigError(f"{where}.{path}: {exc.problem}") from None

    candidate = None
    if "profile" in cfg:
        maps = cfg["profile"]
        if not isinstance(maps, list) or not all(isinstance(m, dict) for m in maps):
            raise ConfigError(f"{where}.profile: expected one {{type: action}} object per agent")
        try:
            candidate = StrategyProfile.from_maps(maps)
            _plan(game, candidate)
        except GameModelError as exc:
            raise ConfigError(f"{where}.profile: {exc}") from exc
    return GenericScenario(game, direct, candidate)


def _generic_game(cfg: dict, where: str, rows: dict):
    """The game and rule of a generic config; each keyed table's rows are
    stored in `rows` as they are read."""
    # Literal text -> value, for this config only: a value repeated across
    # rows is parsed once. A bad literal raises before it is stored, so the
    # error names the first row that holds it.
    literals: dict[str, Fraction] = {}

    def rational(value, field: str) -> Fraction:
        if isinstance(value, str) and value in literals:
            return literals[value]
        try:
            result = as_rational(value)
        except GameModelError as exc:
            raise _RowError(f"{field}: {exc.problem}") from None
        if isinstance(value, str):
            literals[value] = result
        return result

    types_of = _label_lists(_require(cfg, "types", where), f"{where}.types")
    if "priors" in cfg:
        priors = cfg["priors"]
        if not isinstance(priors, list):
            raise ConfigError(f"{where}.priors: expected one prior object per agent")
        for i, prior in enumerate(priors):
            if not isinstance(prior, dict):
                raise ConfigError(f"{where}.priors[{i}]: expected a {{type: probability}} object")
        type_space = TypeSpace(types_of, priors)
    else:
        type_space = TypeSpace.uniform(types_of)
    types_of = type_space.types_of

    actions_of = _label_lists(_require(cfg, "actions", where), f"{where}.actions")
    check_agent_count(actions_of, types_of)

    def outcome_row(entry) -> tuple:
        payload = entry.get("payload", [])
        if not isinstance(payload, list):
            raise _RowError(".payload: expected a list")
        return entry["label"], tuple(rational(v, f".payload[{j}]") for j, v in enumerate(payload))

    payloads = _read_rows(cfg, OUTCOMES, where, rows, outcome_row)
    outcomes = {label: Outcome(label, payload) for label, payload in payloads.items()}

    def outcome(entry) -> Outcome:
        label = entry["outcome"]
        if label not in outcomes:
            raise _RowError(f": unknown outcome {label!r}")
        return outcomes[label]

    def profile_rows(table: _Table) -> dict:
        """Rows keyed by a profile, the list in their first field."""
        field = table.fields[0]
        return _read_rows(cfg, table, where, rows, lambda e: (tuple(e[field]), outcome(e)))

    mechanism = Mechanism(actions_of, profile_rows(OUTCOME_FUNCTION))
    scf = SocialChoiceFunction(types_of, profile_rows(RULE))

    type_sets = [frozenset(types) for types in types_of]

    def utility_row(entry) -> tuple:
        value = rational(entry["value"], ".value")
        key = agent, x, t = entry["agent"], entry["outcome"], entry["type"]
        if not (0 <= agent < len(type_sets) and x in outcomes and t in type_sets[agent]):
            raise _RowError(f": {key} is not a declared {UTILITIES.noun}")
        return key, value

    utility = _read_rows(cfg, UTILITIES, where, rows, utility_row)

    def cost_rows(table: _Table) -> dict:
        """Rows keyed by their first three fields, each with a cost."""
        key_of = operator.itemgetter(*table.fields[:3])
        return _read_rows(
            cfg, table, where, rows, lambda e: (key_of(e), rational(e["cost"], ".cost")), default=[]
        )

    costs = CostModel(cost_rows(STRATEGIC_COSTS), cost_rows(MISREPORT_COSTS))
    return BayesianGame(mechanism, type_space, UtilityTable(utility), costs), scf


@dataclass(frozen=True)
class SweepGrid:
    """A labor parameter grid: wages times misreporting costs, rest fixed.

    The fixed parameters are checked once per grid, so a cell fails only on
    its wage or cost. A sweep builds one scenario per wage and prices each
    cost against that wage's cost-free misreport gains."""

    w_values: tuple[Fraction, ...]
    c_mis_values: tuple[Fraction, ...]
    fixed: dict

    def __post_init__(self) -> None:
        check_market(**self.fixed)

    def cell_params(self, w: Fraction, c_mis: Fraction) -> LaborParams:
        return LaborParams(w=w, c_mis=c_mis, **self.fixed)


SWEEP_KEYS = ("kind", "w_values", "c_mis_values", "fixed")
SWEEP_FIXED_KEYS = ("theta_L", "theta_H", "e_H", "prior_high")


def parse_sweep_grid(cfg: dict, where: str = "config") -> SweepGrid:
    # The kind first: another kind of config has other fields, and naming
    # them would hide that the whole config is of the wrong kind.
    if cfg.get("kind", "sweep") != "sweep":
        raise ConfigError(f"{where}.kind: a sweep grid has kind 'sweep', got {cfg['kind']!r}")
    _check_known_keys(cfg, SWEEP_KEYS, where)
    w_raw = _require(cfg, "w_values", where)
    c_raw = _require(cfg, "c_mis_values", where)
    if not isinstance(w_raw, list) or not w_raw:
        raise ConfigError(f"{where}.w_values: expected a non-empty list")
    if not isinstance(c_raw, list) or not c_raw:
        raise ConfigError(f"{where}.c_mis_values: expected a non-empty list")
    fixed_cfg = _require(cfg, "fixed", where)
    if not isinstance(fixed_cfg, dict):
        raise ConfigError(f"{where}.fixed: expected an object")
    _check_known_keys(fixed_cfg, SWEEP_FIXED_KEYS, f"{where}.fixed")
    fixed = {
        key: _rational(_require(fixed_cfg, key, f"{where}.fixed"), f"{where}.fixed.{key}")
        for key in SWEEP_FIXED_KEYS
        if key != "prior_high" or key in fixed_cfg
    }
    w_values = tuple(_rational(v, f"{where}.w_values[{k}]") for k, v in enumerate(w_raw))
    c_mis_values = tuple(_rational(v, f"{where}.c_mis_values[{k}]") for k, v in enumerate(c_raw))
    try:
        return SweepGrid(w_values, c_mis_values, fixed)
    except GameModelError as exc:
        raise ConfigError(f"{where}.fixed: {exc.problem}") from None


# ---------------------------------------------------------------------------
# Report rendering. to_jsonable functions emit plain dicts with rationals as
# strings.
# ---------------------------------------------------------------------------


def json_dumps(payload) -> str:
    """The bytes of `json.dumps(payload, indent=2, sort_keys=True)`, plus a
    newline, written in one pass: that call never reaches json's C encoder
    when it indents.

    A value is a dict with str keys, a list or tuple, a str, an int, a bool
    or None. Anything else, a float or a Fraction among them, raises
    TypeError: reports carry exact rationals as strings.
    """
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list) -> None:
    """Append the JSON of `value` to `out`; `newline` is a newline and the
    indent of the line the value starts on."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep + inner + _encode_str(key) + ": ")
            _write(item, inner, out)
            sep = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write(item, inner, out)
            sep = ","
        out.append(newline + "]")
    else:
        raise TypeError(f"a {type(value).__name__} has no JSON form in a report")


def params_to_jsonable(params: LaborParams) -> dict:
    return {
        "theta_L": rational_str(params.theta_L),
        "theta_H": rational_str(params.theta_H),
        "e_H": rational_str(params.e_H),
        "w": rational_str(params.w),
        "c_mis": rational_str(params.c_mis),
        "prior_high": rational_str(params.prior_high),
    }


def profile_to_jsonable(profile: StrategyProfile) -> list:
    return [
        {"agent": s.agent, "choice": [[t, a] for t, a in s.choice]}
        for s in profile.strategies
    ]


def deviation_to_jsonable(dev: Deviation | None):
    if dev is None:
        return None
    return {
        "agent": dev.agent,
        "type": dev.type_label,
        "action": dev.action,
        "gain": rational_str(dev.gain),
    }


def chain_to_jsonable(chain: ProofChainRecord) -> dict:
    bp = chain.break_point
    return {
        "vacuous": chain.vacuous,
        "equilibrium_inequalities_hold": chain.equilibrium_inequalities_hold,
        "mimicry_inequalities_hold": chain.mimicry_inequalities_hold,
        "costfree_truthful_inequalities_hold": chain.costfree_truthful_inequalities_hold,
        "break_point": None
        if bp is None
        else {
            "agent": bp.agent,
            "type": bp.type_label,
            "mimicked_type": bp.mimicked_type,
            "costfree_gain": rational_str(bp.costfree_gain),
        },
    }


def audit_report_to_jsonable(report: AuditReport) -> dict:
    return {
        "indirect_equilibrium": profile_to_jsonable(report.indirect_equilibrium),
        "implemented": report.implemented,
        "truthful_is_bne": report.truthful_is_bne,
        "violation": report.violation,
        "truthful_witness": deviation_to_jsonable(report.truthful_witness),
        "chain": chain_to_jsonable(report.chain),
    }


def normal_form_to_jsonable(nf: NormalFormGame) -> dict:
    return {
        "actions": [list(acts) for acts in nf.actions_of],
        "payoffs": [
            {
                "actions": list(profile),
                "values": [rational_str(v) for v in nf.payoff(profile)],
            }
            for profile in itertools.product(*nf.actions_of)
        ],
    }


def separating_report_to_jsonable(report: SeparatingReport) -> dict:
    return {
        "window": {
            "low": rational_str(report.window_low),
            "high": rational_str(report.window_high),
        },
        "in_window": report.in_window,
        "separating_is_bne": report.separating_is_bne,
        "bne_witness": deviation_to_jsonable(report.bne_witness),
        "implements_rule": report.implements_rule,
        "ir_margin": rational_str(report.ir_margin),
        "ir_satisfied": report.ir_satisfied,
        "best_response_cases": [
            {
                "case": c.case,
                "own_type": c.own_type,
                "opponent_type": c.opponent_type,
                "payoff_bid_high": rational_str(c.payoff_bid_high),
                "payoff_bid_zero": rational_str(c.payoff_bid_zero),
                "optimal_bid": c.optimal_bid,
            }
            for c in report.best_response_cases
        ],
        "notes": list(report.notes),
    }


def truthfulness_report_to_jsonable(
    report: TruthfulnessReport, matrices: tuple[CaseMatrix, ...]
) -> dict:
    return {
        "cmis_below_half_w": report.cmis_below_half_w,
        "truthful_is_bne": report.truthful_is_bne,
        "truthful_witness": deviation_to_jsonable(report.truthful_witness),
        "all_report_high_is_bne": report.all_report_high_is_bne,
        "unique_bne_all_report_high": report.unique_bne_all_report_high,
        "equilibria": [profile_to_jsonable(p) for p in report.equilibria],
        "case_matrices": [
            {
                "case": m.case,
                "true_types": list(m.true_types),
                "matrix": normal_form_to_jsonable(m.game),
                "dominant": [
                    None if d is None else {"action": d.action, "kind": d.kind}
                    for d in m.dominant
                ],
                "pure_nash": [list(p) for p in m.pure_nash],
            }
            for m in matrices
        ],
        "notes": [UNIQUENESS_NOTE],
    }


def render_matrices_markdown(params: LaborParams, matrices: tuple[CaseMatrix, ...]) -> str:
    """Markdown document with one report-game table per realized type pair.

    Row player is the first agent of the pair; each cell is (row payoff,
    column payoff).
    """
    lines = [
        "# Ex-post report matrices",
        "",
        (
            f"theta_L = {rational_str(params.theta_L)}, "
            f"theta_H = {rational_str(params.theta_H)}, e_H = {rational_str(params.e_H)}, "
            f"w = {rational_str(params.w)}, c_mis = {rational_str(params.c_mis)}"
        ),
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
                cells.append(f"({rational_str(v[0])}, {rational_str(v[1])})")
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


def sweep_rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
