"""The public surface: the package exports exactly the names below, and the
README's Python API example runs as written. Adding or removing a public
name means changing this list."""

import re
from pathlib import Path

import revaudit

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTS = [
    "ALL_REPORT_HIGH_PROFILE",
    "AuditReport",
    "BayesianGame",
    "BestResponseCase",
    "BreakPoint",
    "CaseMatrix",
    "ConstructionError",
    "CostModel",
    "DEFAULT_PROFILE_CAP",
    "Deviation",
    "DomainError",
    "DominantAction",
    "EquilibriumMode",
    "EquilibriumVerdict",
    "GameModelError",
    "LaborParams",
    "LaborScenario",
    "Mechanism",
    "NormalFormGame",
    "Outcome",
    "ProofChainRecord",
    "PureStrategy",
    "RegressionSummary",
    "SEPARATING_PROFILE",
    "SearchSpaceError",
    "SeparatingReport",
    "SocialChoiceFunction",
    "StrategyProfile",
    "TruthfulnessReport",
    "TypeSpace",
    "UtilityTable",
    "as_rational",
    "audit_revelation_principle",
    "build_scenario",
    "case_matrices",
    "check_separating_equilibrium",
    "check_truthful_reporting",
    "direct_game",
    "dominant_strategies",
    "expost_normal_form",
    "find_all_pure_bne",
    "find_pure_nash",
    "implements_scf",
    "in_wage_window",
    "induced_scf",
    "is_bayesian_nash",
    "is_truthfully_implementable",
    "profit",
    "random_zero_cost_game",
    "rational_str",
    "wage_window",
    "zero_cost_regression",
]


def test_the_package_exports_exactly_these_names():
    assert sorted(revaudit.__all__) == EXPORTS


def test_the_readme_python_api_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
