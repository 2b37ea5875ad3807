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
from dataclasses import dataclass
from fractions import Fraction

from .auditor import AuditReport, BreakPoint, ProofChainRecord
from .core import (
    MAX_LITERAL,
    CostModel,
    GameModelError,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    as_rational,
    check_literal_size,
    rational_str,
)
from .equilibrium import (
    BayesianGame,
    Deviation,
    NormalFormGame,
    PureStrategy,
    StrategyProfile,
    _plan,
)
from .labor import LaborParams, SeparatingReport, TruthfulnessReport


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


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_json_decimal, parse_int=_json_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
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
    return LaborParams(**{
        key: _rational(_require(cfg, key, where), f"{where}.{key}")
        for key in required + ("c_mis", "prior_high")
        if key in required or key in cfg
    })


@dataclass(frozen=True)
class GenericScenario:
    """A fully explicit game from a config plus an optional candidate profile."""

    game: BayesianGame
    scf: SocialChoiceFunction
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


def _label_lists(value, where: str) -> tuple[tuple[str, ...], ...]:
    """One non-empty list of distinct, non-empty labels per agent."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of lists of labels")
    if not value:
        raise ConfigError(f"{where}: expected at least one agent")
    for i, group in enumerate(value):
        if not _is_label_list(group):
            raise ConfigError(f"{where}[{i}]: expected a list of label strings")
        if not group:
            raise ConfigError(f"{where}[{i}]: expected at least one label")
        if "" in group:
            raise ConfigError(f"{where}[{i}]: labels must be non-empty strings, got ''")
        if len(set(group)) != len(group):
            raise ConfigError(f"{where}[{i}]: duplicate labels in {group}")
    return tuple(tuple(group) for group in value)


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
    """A config table: the key that holds it, the fields each row must have
    (in the order their faults are reported) and the fields it may add."""

    def __init__(self, key: str, fields: tuple[str, ...], optional: tuple[str, ...] = ()):
        self.key = key
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


OUTCOMES = _Table("outcomes", ("label",), optional=("payload",))
OUTCOME_FUNCTION = _Table("outcome_function", ("actions", "outcome"))
RULE = _Table("rule", ("types", "outcome"))
UTILITIES = _Table("utilities", ("agent", "outcome", "type", "value"))
STRATEGIC_COSTS = _Table("strategic_costs", ("agent", "action", "type", "cost"))
MISREPORT_COSTS = _Table("misreport_costs", ("agent", "true_type", "reported_type", "cost"))


def _read_table(cfg: dict, table: _Table, where: str, add, default=None) -> None:
    """Check each row of a config table and hand it to `add`; a fault in a
    row is reported under the row's path."""
    for k, entry in enumerate(_list(cfg, table.key, where, default)):
        try:
            add(table.check(entry))
        except _RowError as exc:
            raise ConfigError(f"{where}.{table.key}[{k}]{exc}") from None


def _add_row(values: dict, key, value, domain, name: str) -> None:
    """Store one config row; a key outside `domain`, or one that an earlier
    row already set, would otherwise be ignored or silently overwritten."""
    if key not in domain:
        raise _RowError(f": {key} is not a declared {name}")
    if key in values:
        raise _RowError(f": duplicate row for {key}")
    values[key] = value


def _check_complete(values: dict, keys, name: str, where: str, table: _Table) -> None:
    """A table must give a row for every key in `keys`, in their order."""
    for key in keys:
        if key not in values:
            raise ConfigError(f"{where}.{table.key}: no row for {name} {key}")


def _check_cost(value: Fraction) -> None:
    if value.numerator < 0:
        raise _RowError(f".cost: must be non-negative, got {value}")


def _check_prior(prior: dict, types: tuple[str, ...]) -> None:
    """A prior gives each declared type, and no other, a positive weight,
    and the weights sum to 1."""
    if prior.keys() != set(types):
        raise _RowError(f": types {sorted(prior)} do not match the declared types {list(types)}")
    for t in types:
        if prior[t] <= 0:
            raise _RowError(f"[{t}]: must be positive, got {prior[t]}")
    total = sum(prior.values())
    if total != 1:
        raise _RowError(f": probabilities must sum to 1, got {total}")


def parse_generic_scenario(cfg: dict, where: str = "config") -> GenericScenario:
    _check_known_keys(cfg, GENERIC_KEYS, where)

    # Literal text -> value, for this config only: a value repeated across
    # rows is parsed once. A bad literal raises before it is stored, so the
    # error names the first row that holds it.
    literals: dict[str, Fraction] = {}

    def rational(value, field: str) -> Fraction:
        if isinstance(value, str) and value in literals:
            return literals[value]
        try:
            result = as_rational(value, field)
        except GameModelError as exc:
            raise _RowError(str(exc)) from None
        if isinstance(value, str):
            literals[value] = result
        return result

    types_of = _label_lists(_require(cfg, "types", where), f"{where}.types")
    if "priors" in cfg:
        raw = cfg["priors"]
        if not isinstance(raw, list) or len(raw) != len(types_of):
            raise ConfigError(f"{where}.priors: expected one prior object per agent")
        for i, prior in enumerate(raw):
            if not isinstance(prior, dict):
                raise ConfigError(f"{where}.priors[{i}]: expected a {{type: probability}} object")
        priors = []
        try:
            for i, prior in enumerate(raw):
                priors.append({t: rational(p, f"[{t}]") for t, p in prior.items()})
            for i, (prior, types) in enumerate(zip(priors, types_of)):
                _check_prior(prior, types)
        except _RowError as exc:
            raise ConfigError(f"{where}.priors[{i}]{exc}") from None
        type_space = TypeSpace(types_of, tuple(priors))
    else:
        type_space = TypeSpace.uniform(types_of)

    actions_of = _label_lists(_require(cfg, "actions", where), f"{where}.actions")
    if len(actions_of) != len(types_of):
        raise ConfigError(f"{where}.actions: expected {len(types_of)} lists, one per agent")

    outcomes: dict[str, Outcome] = {}

    def add_outcome(entry) -> None:
        label = entry["label"]
        payload = entry.get("payload", [])
        if not isinstance(payload, list):
            raise _RowError(".payload: expected a list")
        payload = tuple(rational(v, f".payload[{j}]") for j, v in enumerate(payload))
        if label in outcomes:
            raise _RowError(f": duplicate outcome label {label!r}")
        if not label:
            raise _RowError(".label: labels must be non-empty strings, got ''")
        outcomes[label] = Outcome(label, payload)

    _read_table(cfg, OUTCOMES, where, add_outcome)

    def outcome(label) -> Outcome:
        if label not in outcomes:
            raise _RowError(f": unknown outcome {label!r}")
        return outcomes[label]

    def profile_table(table: _Table, field: str, profiles, name: str) -> dict:
        """Read a table of profile -> outcome rows, one row per profile."""
        values, domain = {}, set(profiles)

        def add(entry) -> None:
            x = outcome(entry["outcome"])
            _add_row(values, tuple(entry[field]), x, domain, name)

        _read_table(cfg, table, where, add)
        _check_complete(values, profiles, name, where, table)
        return values

    action_profiles = tuple(itertools.product(*actions_of))
    outcome_of = profile_table(OUTCOME_FUNCTION, "actions", action_profiles, "action profile")
    mechanism = Mechanism(actions_of, outcome_of)
    rule_table = profile_table(RULE, "types", type_space.profiles(), "type profile")
    scf = SocialChoiceFunction(type_space, rule_table)

    utility = {}
    known_utilities = {(i, x, t) for i, ts in enumerate(types_of) for x in outcomes for t in ts}

    def add_utility(entry) -> None:
        key = (entry["agent"], entry["outcome"], entry["type"])
        value = rational(entry["value"], ".value")
        _add_row(utility, key, value, known_utilities, "(agent, outcome, type)")

    _read_table(cfg, UTILITIES, where, add_utility)

    strategic = {}
    known_actions = {
        (i, a, t)
        for i, (ts, acts) in enumerate(zip(types_of, actions_of))
        for a in acts
        for t in ts
    }

    def add_strategic_cost(entry) -> None:
        key = (entry["agent"], entry["action"], entry["type"])
        value = rational(entry["cost"], ".cost")
        _add_row(strategic, key, value, known_actions, "(agent, action, type)")
        _check_cost(value)

    _read_table(cfg, STRATEGIC_COSTS, where, add_strategic_cost, default=[])

    misreport = {}
    known_reports = {(i, t, r) for i, ts in enumerate(types_of) for t in ts for r in ts}

    def add_misreport_cost(entry) -> None:
        key = (entry["agent"], entry["true_type"], entry["reported_type"])
        value = rational(entry["cost"], ".cost")
        _add_row(misreport, key, value, known_reports, "(agent, true type, reported type)")
        _check_cost(value)
        if key[1] == key[2] and value.numerator:
            raise _RowError(f".cost: an honest report must cost 0, got {value}")

    _read_table(cfg, MISREPORT_COSTS, where, add_misreport_cost, default=[])

    # Every outcome the mechanism or the rule can reach needs a utility.
    used = {x.label for x in outcome_of.values()} | {x.label for x in rule_table.values()}
    needed = (
        (i, x, t) for i, ts in enumerate(types_of) for x in outcomes if x in used for t in ts
    )
    _check_complete(utility, needed, "(agent, outcome, type)", where, UTILITIES)

    game = BayesianGame(
        mechanism, type_space, UtilityTable(utility), CostModel(strategic, misreport)
    )

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
    return GenericScenario(game, scf, candidate)


@dataclass(frozen=True)
class SweepGrid:
    """A labor parameter grid: wages times misreporting costs, rest fixed."""

    w_values: tuple[Fraction, ...]
    c_mis_values: tuple[Fraction, ...]
    fixed: dict

    def cell_params(self, w: Fraction, c_mis: Fraction) -> LaborParams:
        return LaborParams(w=w, c_mis=c_mis, **self.fixed)


SWEEP_KEYS = ("kind", "w_values", "c_mis_values", "fixed")
SWEEP_FIXED_KEYS = ("theta_L", "theta_H", "e_H", "prior_high")


def parse_sweep_grid(cfg: dict, where: str = "config") -> SweepGrid:
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
    return SweepGrid(
        w_values=tuple(_rational(v, f"{where}.w_values[{k}]") for k, v in enumerate(w_raw)),
        c_mis_values=tuple(_rational(v, f"{where}.c_mis_values[{k}]") for k, v in enumerate(c_raw)),
        fixed=fixed,
    )


# ---------------------------------------------------------------------------
# Report rendering. to_jsonable functions emit plain dicts with rationals as
# strings; the audit report also parses back, exactly.
# ---------------------------------------------------------------------------


def json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


def profile_from_jsonable(data) -> StrategyProfile:
    strategies = []
    for entry in data:
        strategies.append(
            PureStrategy(entry["agent"], tuple((t, a) for t, a in entry["choice"]))
        )
    return StrategyProfile(tuple(strategies))


def deviation_to_jsonable(dev: Deviation | None):
    if dev is None:
        return None
    return {
        "agent": dev.agent,
        "type": dev.type_label,
        "action": dev.action,
        "gain": rational_str(dev.gain),
    }


def deviation_from_jsonable(data) -> Deviation | None:
    if data is None:
        return None
    return Deviation(data["agent"], data["type"], data["action"], Fraction(data["gain"]))


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


def chain_from_jsonable(data) -> ProofChainRecord:
    bp = data["break_point"]
    return ProofChainRecord(
        vacuous=data["vacuous"],
        equilibrium_inequalities_hold=data["equilibrium_inequalities_hold"],
        mimicry_inequalities_hold=data["mimicry_inequalities_hold"],
        costfree_truthful_inequalities_hold=data["costfree_truthful_inequalities_hold"],
        break_point=None
        if bp is None
        else BreakPoint(bp["agent"], bp["type"], bp["mimicked_type"], Fraction(bp["costfree_gain"])),
    )


def audit_report_to_jsonable(report: AuditReport) -> dict:
    return {
        "indirect_equilibrium": profile_to_jsonable(report.indirect_equilibrium),
        "implemented": report.implemented,
        "truthful_is_bne": report.truthful_is_bne,
        "violation": report.violation,
        "truthful_witness": deviation_to_jsonable(report.truthful_witness),
        "chain": chain_to_jsonable(report.chain),
    }


def audit_report_from_jsonable(data) -> AuditReport:
    return AuditReport(
        indirect_equilibrium=profile_from_jsonable(data["indirect_equilibrium"]),
        implemented=data["implemented"],
        truthful_is_bne=data["truthful_is_bne"],
        violation=data["violation"],
        truthful_witness=deviation_from_jsonable(data["truthful_witness"]),
        chain=chain_from_jsonable(data["chain"]),
    )


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


def truthfulness_report_to_jsonable(report: TruthfulnessReport) -> dict:
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
            for m in report.case_matrices
        ],
        "notes": list(report.notes),
    }


def render_matrices_markdown(report: TruthfulnessReport) -> str:
    """Markdown document with one report-game table per realized type pair.

    Row player is the first agent of the pair; each cell is (row payoff,
    column payoff).
    """
    p = report.params
    lines = [
        "# Ex-post report matrices",
        "",
        (
            f"theta_L = {rational_str(p.theta_L)}, theta_H = {rational_str(p.theta_H)}, "
            f"e_H = {rational_str(p.e_H)}, w = {rational_str(p.w)}, "
            f"c_mis = {rational_str(p.c_mis)}"
        ),
        "",
    ]
    for note in report.notes:
        lines.append(f"Note: {note}.")
    lines.append("")
    for m in report.case_matrices:
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
