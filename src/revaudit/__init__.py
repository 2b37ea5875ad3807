"""Exact analysis of finite Bayesian mechanisms with costly strategies.

The package checks, over exact rationals and every pure strategy profile,
whether implemented social choice rules stay truthfully implementable once
playing a strategy or misreporting a type carries a cost. It ships a small
two-agent labor market where that fails, plus the machinery to audit any
finite mechanism you can write down as tables.
"""

from .core import (
    ConstructionError,
    CostModel,
    DomainError,
    GameModelError,
    Mechanism,
    Outcome,
    SearchSpaceError,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    as_rational,
    profit,
    rational_str,
)
from .equilibrium import (
    DEFAULT_PROFILE_CAP,
    BayesianGame,
    Deviation,
    DominantAction,
    EquilibriumMode,
    EquilibriumVerdict,
    NormalFormGame,
    PureStrategy,
    StrategyProfile,
    dominant_strategies,
    enumerate_profiles,
    enumerate_pure_strategies,
    expost_normal_form,
    find_all_pure_bne,
    find_pure_nash,
    implements_scf,
    interim_expected_payoff,
    is_bayesian_nash,
)
from .auditor import (
    AuditReport,
    BreakPoint,
    ProofChainRecord,
    RegressionSummary,
    audit_revelation_principle,
    direct_game,
    induced_scf,
    is_truthfully_implementable,
    random_zero_cost_game,
    zero_cost_regression,
)
from .labor import (
    ALL_REPORT_HIGH_PROFILE,
    SEPARATING_PROFILE,
    BestResponseCase,
    CaseMatrix,
    LaborParams,
    LaborScenario,
    SeparatingReport,
    TruthfulnessReport,
    audit_scenario,
    build_scenario,
    check_separating_equilibrium,
    check_truthful_reporting,
    in_wage_window,
    wage_window,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
