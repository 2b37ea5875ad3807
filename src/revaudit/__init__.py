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
)
from .equilibrium import (
    DEFAULT_PROFILE_CAP,
    BayesianGame,
    Deviation,
    DominantAction,
    EquilibriumVerdict,
    NormalFormGame,
    PureStrategy,
    StrategyProfile,
    find_all_pure_bne,
)
from .auditor import (
    AuditReport,
    BreakPoint,
    ProofChainRecord,
    RegressionSummary,
    audit_revelation_principle,
    direct_game,
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
    build_scenario,
    case_matrices,
    check_separating_equilibrium,
    check_truthful_reporting,
    in_wage_window,
    wage_window,
)

from types import ModuleType as _Module

# Importing a submodule binds it here too; submodules are not API names.
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _Module)]

__version__ = "0.8.0"
