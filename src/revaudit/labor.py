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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .auditor import (
    AuditReport,
    audit_revelation_principle,
    direct_game,
    misreport_gains,
)
from .core import (
    ConstructionError,
    CostModel,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    as_rational,
)
from .equilibrium import (
    BayesianGame,
    Deviation,
    DominantAction,
    NormalFormGame,
    StrategyProfile,
    _expost_profit,
    dominant_strategies,
    expost_normal_form,
    find_all_pure_bne,
    find_pure_nash,
    implements_scf,
    is_bayesian_nash,
)

TYPE_LOW = "theta_L"
TYPE_HIGH = "theta_H"
BID_ZERO = "0"
BID_HIGH = "e_H"

HIRE_FIRST = Outcome("hire_1", (Fraction(1), Fraction(0)))
SPLIT = Outcome("split", (Fraction(1, 2), Fraction(1, 2)))
HIRE_SECOND = Outcome("hire_2", (Fraction(0), Fraction(1)))
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
    cost: the parameters a sweep holds fixed across its cells. A fault's
    location is the parameter it names (the type order names theta_L)."""
    if not 0 < theta_L < theta_H:
        problem = f"need 0 < theta_L < theta_H, got theta_L={theta_L}, theta_H={theta_H}"
        raise ConstructionError(problem, ("theta_L",))
    if e_H <= 0:
        raise ConstructionError(f"education level e_H must be positive, got {e_H}", ("e_H",))
    if not 0 < prior_high < 1:
        problem = f"prior_high must lie strictly between 0 and 1, got {prior_high}"
        raise ConstructionError(problem, ("prior_high",))


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
        for name in ("theta_L", "theta_H", "e_H", "w", "c_mis", "prior_high"):
            object.__setattr__(self, name, as_rational(getattr(self, name), name))
        check_market(self.theta_L, self.theta_H, self.e_H, self.prior_high)
        if self.w <= 0:
            raise ConstructionError(f"wage must be positive, got {self.w}", ("w",))
        if self.c_mis < 0:
            problem = f"misreporting cost must be non-negative, got {self.c_mis}"
            raise ConstructionError(problem, ("c_mis",))


@dataclass(frozen=True)
class LaborScenario:
    """The bid game and the direct game of the hiring rule, each built once
    by `build_scenario` and read by every check of the scenario. The direct
    game's mechanism is the rule, `HIRING_RULE`."""

    params: LaborParams
    game: BayesianGame
    direct: BayesianGame

    @cached_property
    def audit(self) -> AuditReport:
        """The revelation audit at the separating profile, kept with the scenario."""
        return audit_revelation_principle(self.game, SEPARATING_PROFILE, self.direct)

    @cached_property
    def costfree_gains(self) -> dict[tuple[int, str, str], Fraction]:
        """Each misreport's gain with costs erased: it depends on w, not on c_mis."""
        return misreport_gains(self.direct)

    def truthful_at(self, c_mis: Fraction) -> bool:
        """Is truth-telling an equilibrium of the direct game at misreporting cost c_mis?"""
        prices = misreport_costs(c_mis)
        return all(gain <= prices.get(key, 0) for key, gain in self.costfree_gains.items())


def misreport_costs(c_mis: Fraction) -> dict[tuple[int, str, str], Fraction]:
    """A low type reporting high pays c_mis; a high type reporting low pays nothing."""
    pairs = ((TYPE_LOW, TYPE_HIGH, c_mis), (TYPE_HIGH, TYPE_LOW, Fraction(0)))
    return {(i, t, r): c for t, r, c in pairs for i in (0, 1)}


def build_scenario(params: LaborParams) -> LaborScenario:
    """Wire the labor market into the generic game model, and build the
    direct game of its hiring rule (both mechanisms are module constants)."""
    prior = {TYPE_LOW: 1 - params.prior_high, TYPE_HIGH: params.prior_high}
    type_space = TypeSpace((TYPES, TYPES), (prior, prior))
    theta_value = {TYPE_LOW: params.theta_L, TYPE_HIGH: params.theta_H}
    utilities = UtilityTable(
        {
            (i, x.label, t): x.payload[i] * params.w
            for i in (0, 1)
            for x in (HIRE_FIRST, SPLIT, HIRE_SECOND)
            for t in TYPES
        }
    )
    costs = CostModel(
        strategic={
            (i, BID_HIGH, t): params.e_H / theta_value[t] for i in (0, 1) for t in TYPES
        },
        misreport=misreport_costs(params.c_mis),
    )
    game = BayesianGame(MECHANISM, type_space, utilities, costs)
    return LaborScenario(params, game, direct_game(game, HIRING_RULE))


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

    Checks, by exhaustive scan of profitable deviations, that the separating
    bid profile is an equilibrium, that it reproduces the hiring rule at
    every type profile, and that the high type clears participation strictly
    (worst case: both high, split job).
    """
    params, game = scenario.params, scenario.game
    verdict = is_bayesian_nash(game, SEPARATING_PROFILE)
    lo, hi = wage_window(params)

    cases = []
    notes = [
        "participation uses the equilibrium high bid e_H for the high type",
        "equilibrium statements cover pure strategy profiles only",
    ]
    # Cases 1-4: (own, opponent) types (L, L), (L, H), (H, L), (H, H).
    for case, (own, opp) in enumerate(itertools.product(TYPES, TYPES), start=1):
        opp_bid = BIDS.index(SEPARATING_PROFILE.strategies[1].action(opp))
        high, zero = (
            _expost_profit(game, 0, TYPES.index(own), (BIDS.index(bid), opp_bid))
            for bid in (BID_HIGH, BID_ZERO)
        )
        if high == zero:
            optimal = None
            notes.append(f"case {case}: both bids tie at w={params.w}")
        else:
            optimal = BID_HIGH if high > zero else BID_ZERO
        cases.append(BestResponseCase(case, own, opp, high, zero, optimal))

    ir_margin = params.w / 2 - params.e_H / params.theta_H
    return SeparatingReport(
        window_low=lo,
        window_high=hi,
        in_window=in_wage_window(params),
        separating_is_bne=verdict.is_equilibrium,
        bne_witness=verdict.witness,
        implements_rule=implements_scf(game, SEPARATING_PROFILE, HIRING_RULE),
        ir_margin=ir_margin,
        ir_satisfied=ir_margin > 0,
        best_response_cases=tuple(cases),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CaseMatrix:
    """The ex-post report game at one realized type pair, with its dominance
    structure and pure Nash profiles."""

    case: int
    true_types: tuple[str, str]
    game: NormalFormGame
    dominant: tuple[DominantAction | None, ...]
    pure_nash: tuple[tuple[str, ...], ...]


def case_matrices(scenario: LaborScenario) -> tuple[CaseMatrix, ...]:
    """The four ex-post report matrices of the direct game, one per realized
    type pair, with dominance and pure Nash analysis."""
    pairs = [
        (1, (TYPE_HIGH, TYPE_HIGH)),
        (2, (TYPE_LOW, TYPE_HIGH)),
        (3, (TYPE_HIGH, TYPE_LOW)),
        (4, (TYPE_LOW, TYPE_LOW)),
    ]
    matrices = []
    for case, true_types in pairs:
        # The direct game prices each report at its misreporting cost.
        nf = expost_normal_form(scenario.direct, true_types)
        matrices.append(
            CaseMatrix(
                case=case,
                true_types=true_types,
                game=nf,
                dominant=tuple(dominant_strategies(nf, i) for i in (0, 1)),
                pure_nash=tuple(find_pure_nash(nf)),
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

    Reads the truthful witness from the scenario's audit and scans all 16
    pure report profiles of the direct game for equilibria of report
    profits (utilities minus misreporting costs). For c_mis below half the
    wage the only equilibrium is that everyone always reports high.
    """
    params = scenario.params
    equilibria = tuple(find_all_pure_bne(scenario.direct))
    all_high_is_bne = ALL_REPORT_HIGH_PROFILE in equilibria
    return TruthfulnessReport(
        cmis_below_half_w=params.c_mis < params.w / 2,
        truthful_witness=scenario.audit.truthful_witness,
        all_report_high_is_bne=all_high_is_bne,
        unique_bne_all_report_high=(len(equilibria) == 1 and all_high_is_bne),
        equilibria=equilibria,
    )
