"""Two-agent labor market with productivity types and costly wage bids.

Two workers with private productivity (low or high) bid an education level to
a firm paying a fixed wage w. Education is pure signalling: it costs bid/theta
and produces nothing. The higher bidder is hired, ties split the job. The
target allocation rule hires the more productive worker. This is the bundled
reference scenario for the revelation audit: inside an open wage window the
separating bid profile implements the rule in profit-based equilibrium, yet
for small misreporting costs truth-telling dies in the direct mechanism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from fractions import Fraction

from .auditor import Scenario, _costfree_gains, direct_game, is_truthfully_implementable
from .core import (
    ConstructionError,
    CostModel,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    _checked,
    as_rational,
    cached_property,
    check_denominators,
)
from .equilibrium import (
    BayesianGame,
    Deviation,
    DominantAction,
    NormalFormGame,
    StrategyProfile,
    _best_replies,
    _dominant,
    _exact,
    _expost_slice,
    _implements,
    _largest_gain,
    _nash,
    _plan,
    find_all_pure_bne,
)

TYPE_LOW = "theta_L"
TYPE_HIGH = "theta_H"
BID_ZERO = "0"
BID_HIGH = "e_H"

HIRE_FIRST = Outcome("hire_1", (Fraction(1), Fraction(0)))
SPLIT = Outcome("split", (Fraction(1, 2), Fraction(1, 2)))
HIRE_SECOND = Outcome("hire_2", (Fraction(0), Fraction(1)))
OUTCOMES = (HIRE_FIRST, SPLIT, HIRE_SECOND)
# The distinct shares of the wage that some outcome pays a worker, and each
# (worker, outcome label) with the position of its share there.
WAGE_SHARES = tuple(dict.fromkeys(share for x in OUTCOMES for share in x.payload))
PAID = tuple((i, x.label, WAGE_SHARES.index(x.payload[i])) for i in (0, 1) for x in OUTCOMES)
TYPES = (TYPE_LOW, TYPE_HIGH)
BIDS = (BID_ZERO, BID_HIGH)
DEFAULT_PRIOR_HIGH = Fraction(1, 2)


def _hire_higher(low: str, high: str) -> dict[tuple[str, str], Outcome]:
    """Hire the worker whose label ranks higher (low < high); a tie splits."""
    pairs = ((low, low), (low, high), (high, low), (high, high))
    return dict(zip(pairs, (SPLIT, HIRE_SECOND, HIRE_FIRST, SPLIT)))


# Every LaborParams has 0 < e_H and theta_L < theta_H, so bids and types
# rank the same way in every scenario: one bid mechanism and one hiring
# rule, which is also the direct mechanism, serve them all, and so do the
# two profiles the checks read.
MECHANISM = Mechanism((BIDS, BIDS), _hire_higher(BID_ZERO, BID_HIGH))
HIRING_RULE = SocialChoiceFunction((TYPES, TYPES), _hire_higher(TYPE_LOW, TYPE_HIGH))
# High types bid the high education level, low types bid zero.
SEPARATING_PROFILE = StrategyProfile.from_maps([{TYPE_LOW: BID_ZERO, TYPE_HIGH: BID_HIGH}] * 2)
# In the direct game, every type of both workers reports high.
ALL_REPORT_HIGH_PROFILE = StrategyProfile.from_maps([dict.fromkeys(TYPES, TYPE_HIGH)] * 2)


def check_market(
    theta_L: Fraction, theta_H: Fraction, e_H: Fraction, prior_high: Fraction = DEFAULT_PRIOR_HIGH
) -> None:
    """The LaborParams rules on everything but the wage and the misreporting
    cost: the parameters a sweep holds fixed across its cells. The prior's
    denominator is bounded as a type space's would be, since `build_scenario`
    builds its type space from checked parts. A fault's location is the
    parameter it names (the type order names theta_L)."""
    if not 0 < theta_L < theta_H:
        problem = f"need 0 < theta_L < theta_H, got theta_L={theta_L}, theta_H={theta_H}"
        raise ConstructionError(problem, ("theta_L",))
    if e_H <= 0:
        raise ConstructionError(f"education level e_H must be positive, got {e_H}", ("e_H",))
    if not 0 < prior_high < 1:
        problem = f"prior_high must lie strictly between 0 and 1, got {prior_high}"
        raise ConstructionError(problem, ("prior_high",))
    check_denominators((prior_high,), ("prior_high",))


def check_cell(w: Fraction, c_mis: Fraction) -> None:
    """The LaborParams rules on the wage and the misreporting cost: the
    parameters a sweep sets per cell. A fault's location is the parameter it
    names, the wage first. Both are Fractions, whose denominators are
    positive, so each sign is read as an int test on the numerator."""
    if w.numerator <= 0:
        raise ConstructionError(f"wage must be positive, got {w}", ("w",))
    if c_mis.numerator < 0:
        raise ConstructionError(f"misreporting cost must be non-negative, got {c_mis}", ("c_mis",))


@dataclass(frozen=True)
class LaborParams:
    """Exact parameters of the labor market.

    theta_L < theta_H are the productivity types, e_H the high education
    level, w the posted wage, c_mis the cost of reporting high while being
    low (reporting low while high is free), prior_high the probability of
    the high type for each worker independently.
    """

    theta_L: Fraction
    theta_H: Fraction
    e_H: Fraction
    w: Fraction
    c_mis: Fraction = Fraction(0)
    prior_high: Fraction = DEFAULT_PRIOR_HIGH

    def __post_init__(self) -> None:
        for f in LABOR_FIELDS:
            object.__setattr__(self, f.name, as_rational(getattr(self, f.name), f.name))
        check_market(self.theta_L, self.theta_H, self.e_H, self.prior_high)
        check_cell(self.w, self.c_mis)


# The labor parameters in order, read once: a sweep builds a LaborParams per wage.
LABOR_FIELDS = fields(LaborParams)


# The misreports that cost c_mis: a low type reporting high. The reverse is free.
PRICED_MISREPORTS = tuple((i, TYPE_LOW, TYPE_HIGH) for i in (0, 1))
FREE_MISREPORTS = tuple((i, TYPE_HIGH, TYPE_LOW) for i in (0, 1))
MISREPORTS = PRICED_MISREPORTS + FREE_MISREPORTS


def misreport_costs(c_mis: Fraction) -> dict[tuple[int, str, str], Fraction]:
    """A priced misreport pays c_mis; the others pay nothing."""
    return {key: c_mis if key in PRICED_MISREPORTS else Fraction(0) for key in MISREPORTS}


def _games(params: LaborParams, market: LaborScenario | None = None) -> list[BayesianGame]:
    """The market's bid game, wired into the generic game model (its
    mechanism is a module constant), and the direct game of its hiring rule.
    A worker's utility of an outcome is its share of the wage at either
    type; the high bid costs e_H / theta. Each distinct value is computed
    once: the wage times each share, and each type's bid cost.

    Only the utilities depend on the wage. Given the `market` scenario of
    the same fixed parameters and misreporting cost at another wage, each of
    its two games is built again with these utilities, keeping its
    mechanism, type space and costs as they are: the direct game keeps its
    fit to the rule, which no wage changes. Otherwise the rule is fitted by
    `direct_game`, which checks it as it checks any.

    The type space, utilities, costs and games are built from checked parts
    (`_checked`): a checked `LaborParams` makes every rule their
    constructors check hold. The labels are `TYPES` and `BIDS`, the prior is
    checked, every (worker, outcome, type) has a utility, and the costs are
    non-negative, on declared keys, and none on an honest report. Only each
    table's denominators are still bounded, read from its distinct values
    and located as the constructors locate them."""
    wage = [share * params.w for share in WAGE_SHARES]
    check_denominators(wage, ("utilities",))
    utilities = _checked(UtilityTable, {(i, x, t): wage[k] for i, x, k in PAID for t in TYPES})
    if market is not None:
        return [_checked(BayesianGame, g.mechanism, g.type_space, utilities, g.costs)
                for g in (market.game, market.direct)]
    prior = {TYPE_LOW: 1 - params.prior_high, TYPE_HIGH: params.prior_high}
    type_space = _checked(TypeSpace, (TYPES, TYPES), (prior, prior))
    bid_cost = {t: params.e_H / theta for t, theta in zip(TYPES, (params.theta_L, params.theta_H))}
    misreport = misreport_costs(params.c_mis)
    check_denominators(bid_cost.values(), ("strategic_costs",))
    check_denominators(misreport.values(), ("misreport_costs",))
    strategic = {(i, BID_HIGH, t): bid_cost[t] for i in (0, 1) for t in TYPES}
    costs = _checked(CostModel, strategic, misreport)
    game = _checked(BayesianGame, MECHANISM, type_space, utilities, costs)
    return [game, direct_game(game, HIRING_RULE)]


# Every scenario's bid game plays MECHANISM over TYPES, so the separating
# profile is one plan in all of them, checked once, in one of them; and
# whether that plan plays HIRING_RULE out is one answer for all of them.
_BID_GAME = _games(LaborParams(1, 2, 1, 1))[0]
SEPARATING_PLAN = _plan(_BID_GAME, SEPARATING_PROFILE)


@dataclass(frozen=True)
class LaborScenario(Scenario):
    """A labor market's `Scenario`: the bid game and the direct game of the
    hiring rule, each built once, by `build_scenario` or `at_wage`, and read
    by every check of the scenario, with the separating plan,
    `SEPARATING_PLAN`, to audit. The direct game's mechanism is the rule,
    `HIRING_RULE`, and whether the plan plays it is one answer for every
    market: `plays_rule` is a class constant, played out once, when the
    module loads, in `_BID_GAME`, so no scenario plays it out. Labor
    `analyze` and the proof-chain criterion of `reproduce-paper` read the
    audit; the separating report and a sweep read only its rows and
    verdicts."""

    params: LaborParams
    plays_rule = _implements(_BID_GAME, SEPARATING_PLAN, HIRING_RULE)

    @cached_property
    def break_even(self) -> Fraction | None:
        """The least misreporting cost at which truth-telling is an equilibrium
        of the direct game: the largest cost-free gain of a priced misreport,
        or None when a free misreport gains. It depends on w, not on c_mis.
        The gains compare as ints on each worker's scale, and only the
        threshold becomes a Fraction."""
        direct = self.direct
        gains = _costfree_gains(direct)
        if any(gains[key] > 0 for key in FREE_MISREPORTS):
            return None
        # A gain g of worker i is g / scale[i]: it ranks as g times the other worker's scale.
        scale = direct._tables.scale
        key = max(PRICED_MISREPORTS, key=lambda k: gains[k] * scale[1 - k[0]])
        return _exact(direct, key[0], gains[key])

    def truthful_at(self, c_mis: Fraction) -> bool:
        """Is truth-telling an equilibrium of the direct game at misreporting
        cost c_mis, that is, is c_mis at least `break_even`? A cost
        `LaborParams` refuses (a negative one) is refused with the same
        message and location, by `check_cell`. Both denominators are
        positive, so the two Fractions compare as one int cross-product."""
        c_mis = as_rational(c_mis, "c_mis")
        check_cell(self.params.w, c_mis)
        b = self.break_even
        return b is not None and c_mis.numerator * b.denominator >= b.numerator * c_mis.denominator

    def at_wage(self, w: Fraction) -> LaborScenario:
        """The scenario of these parameters at wage w, equal to
        `build_scenario` of them: only its `LaborParams`, built from checked
        parts once `check_cell` passes, its utilities and its two games are
        new. The type space, with its prior weights and positions, the cost
        schedule and the report prices are this scenario's own (`_games`).
        A sweep builds every wage of its grid after the first this way."""
        p, w = self.params, as_rational(w, "w")
        check_cell(w, p.c_mis)
        params = _checked(LaborParams, p.theta_L, p.theta_H, p.e_H, w, p.c_mis, p.prior_high)
        return LaborScenario(*_games(params, self), SEPARATING_PLAN, params)


def build_scenario(params: LaborParams) -> LaborScenario:
    """The market's bid game and the direct game of its hiring rule
    (`_games`), with the separating plan to audit."""
    return LaborScenario(*_games(params), SEPARATING_PLAN, params)


def wage_window(params: LaborParams) -> tuple[Fraction, Fraction]:
    """The open wage interval where separation works: (2 e_H / theta_H, 2 e_H / theta_L)."""
    return (2 * params.e_H / params.theta_H, 2 * params.e_H / params.theta_L)


def in_wage_window(params: LaborParams) -> bool:
    lo, hi = wage_window(params)
    return lo < params.w < hi


@dataclass(frozen=True)
class BestResponseCase:
    """Ex-post payoffs of both bids for one (own type, opponent type) pair,
    the opponent playing the separating strategy. `optimal_bid` is None on a
    tie."""

    case: int
    own_type: str
    opponent_type: str
    payoff_bid_high: Fraction
    payoff_bid_zero: Fraction
    optimal_bid: str | None


@dataclass(frozen=True)
class SeparatingReport:
    """Does the separating profile implement the hiring rule in equilibrium?"""

    window_low: Fraction
    window_high: Fraction
    in_window: bool
    separating_is_bne: bool
    bne_witness: Deviation | None
    implements_rule: bool
    ir_margin: Fraction
    ir_satisfied: bool
    best_response_cases: tuple[BestResponseCase, ...]
    notes: tuple[str, ...]


def check_separating_equilibrium(scenario: LaborScenario) -> SeparatingReport:
    """Verify the separating side of the reference scenario.

    Reads the scenario's judgement of the separating bid profile, whether it
    is an equilibrium, and `LaborScenario.plays_rule`, whether it reproduces
    the hiring rule at every type profile: one answer for every market,
    found when the module loads. The witness is the largest gain over the
    scenario's interim rows. No audit runs. The high type must clear
    participation strictly (worst case: both high, split job). The four bid
    cases read worker 0's ex-post profits from one slice of the bid game's
    tables per own type, compare them as ints, and make a Fraction only of
    each printed payoff.
    """
    params, game, plan = scenario.params, scenario.game, scenario.plan
    lo, hi = wage_window(params)

    cases = []
    notes = [
        "participation uses the equilibrium high bid e_H for the high type",
        "equilibrium statements cover pure strategy profiles only",
    ]
    slices = [_expost_slice(game, 0, k) for k in range(len(TYPES))]
    # Cases 1-4: (own, opponent) types (L, L), (L, H), (H, L), (H, H). The
    # bid profile (own bid, opponent's bid) sits at flat position
    # len(BIDS) * own bid + opponent's bid, the bid of its separating plan.
    pairs = itertools.product(enumerate(TYPES), repeat=2)
    for case, ((k, own), (m, opp)) in enumerate(pairs, start=1):
        opp_bid, profits = plan[1][m], slices[k]
        high, zero = (profits[len(BIDS) * BIDS.index(b) + opp_bid] for b in (BID_HIGH, BID_ZERO))
        if high == zero:
            optimal = None
            notes.append(f"case {case}: both bids tie at w={params.w}")
        else:
            optimal = BID_HIGH if high > zero else BID_ZERO
        payoffs = _exact(game, 0, high), _exact(game, 0, zero)
        cases.append(BestResponseCase(case, own, opp, *payoffs, optimal))

    ir_margin = params.w / 2 - params.e_H / params.theta_H
    return SeparatingReport(
        window_low=lo,
        window_high=hi,
        in_window=lo < params.w < hi,
        separating_is_bne=scenario.equilibrium,
        bne_witness=_largest_gain(game, plan, scenario.rows_of),
        implements_rule=scenario.plays_rule,
        ir_margin=ir_margin,
        ir_satisfied=ir_margin > 0,
        best_response_cases=tuple(cases),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CaseMatrix:
    """The ex-post report game at one realized type pair, with its dominance
    structure and pure Nash profiles."""

    __hash__ = None  # its game's payoffs are a dict

    case: int
    true_types: tuple[str, str]
    game: NormalFormGame
    dominant: tuple[DominantAction | None, ...]
    pure_nash: tuple[tuple[str, ...], ...]


def case_matrices(scenario: LaborScenario) -> tuple[CaseMatrix, ...]:
    """The four ex-post report matrices of the direct game, one per realized
    type pair, with dominance and pure Nash analysis. A worker's payoffs
    depend on its own true type only, so its slice of the direct game's
    tables at each type, that slice's payoffs as Fractions, its best replies
    there and its dominant report are found once for the two cases where it
    holds that type: 4 slices, 16 Fractions and 4 best-reply scans serve the
    four matrices, whose games share one tuple of report profiles."""
    pairs = [
        (1, (TYPE_HIGH, TYPE_HIGH)),
        (2, (TYPE_LOW, TYPE_HIGH)),
        (3, (TYPE_HIGH, TYPE_LOW)),
        (4, (TYPE_LOW, TYPE_LOW)),
    ]
    direct, reports = scenario.direct, scenario.direct.mechanism.actions_of
    # The direct game prices each report at its misreporting cost.
    slices = {(i, t): _expost_slice(direct, i, k) for i in (0, 1) for k, t in enumerate(TYPES)}
    scale, profiles = direct._tables.scale, tuple(itertools.product(*reports))
    columns = {key: [Fraction(v, scale[key[0]]) for v in values] for key, values in slices.items()}
    best = {key: _best_replies(reports, key[0], values) for key, values in slices.items()}
    dominant = {key: _dominant(reports, key[0], flags) for key, flags in best.items()}
    matrices = []
    for case, true_types in pairs:
        keys = list(enumerate(true_types))
        matrices.append(
            CaseMatrix(
                case=case,
                true_types=true_types,
                game=NormalFormGame(reports, dict(zip(profiles, zip(*map(columns.get, keys))))),
                dominant=tuple(dominant[key] for key in keys),
                pure_nash=tuple(_nash(reports, [best[key] for key in keys])),
            )
        )
    return tuple(matrices)


@dataclass(frozen=True)
class TruthfulnessReport:
    """Does truth-telling survive in the direct mechanism of the hiring rule?"""

    cmis_below_half_w: bool
    truthful_witness: Deviation | None
    all_report_high_is_bne: bool
    unique_bne_all_report_high: bool
    equilibria: tuple[StrategyProfile, ...]

    @property
    def truthful_is_bne(self) -> bool:
        return self.truthful_witness is None


# The caveat printed with the direct game's reports and matrices.
UNIQUENESS_NOTE = "uniqueness is certified over pure strategy profiles only"


def check_truthful_reporting(scenario: LaborScenario) -> TruthfulnessReport:
    """Verify the direct-mechanism side of the reference scenario.

    Reads the truthful witness from the direct game, not the bid game, and
    scans its 16 pure report profiles for equilibria of report profits
    (utilities minus misreporting costs). For c_mis below half the wage the
    only equilibrium is that everyone always reports high.
    """
    params = scenario.params
    equilibria = tuple(find_all_pure_bne(scenario.direct))
    all_high_is_bne = ALL_REPORT_HIGH_PROFILE in equilibria
    return TruthfulnessReport(
        cmis_below_half_w=params.c_mis < params.w / 2,
        truthful_witness=is_truthfully_implementable(scenario.direct).witness,
        all_report_high_is_bne=all_high_is_bne,
        unique_bne_all_report_high=(len(equilibria) == 1 and all_high_is_bne),
        equilibria=equilibria,
    )
