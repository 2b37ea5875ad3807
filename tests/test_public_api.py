"""The public surface: the package exports exactly the names below, its
version is the project's, and the README's Python API example and command
examples run as written. Adding or
removing a public name means changing this list."""

import re
import shlex
from pathlib import Path

import revaudit
from revaudit.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

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
    "find_all_pure_bne",
    "in_wage_window",
    "is_truthfully_implementable",
    "random_zero_cost_game",
    "wage_window",
    "zero_cost_regression",
]


def test_the_package_exports_exactly_these_names():
    assert sorted(revaudit.__all__) == EXPORTS


def test_the_package_version_is_the_project_version():
    # Read with a regex: Python 3.10 has no tomllib.
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^\[project\]$.*?^version = "([^"]+)"$', project, re.DOTALL | re.MULTILINE)
    # 0.3.0 dropped is_bayesian_nash and implements_scf from the exports above;
    # 0.4.0 dropped LaborScenario.judgement, now the scenario record's verdicts;
    # 0.5.0 dropped LaborScenario.profile, as a scenario labels its plan itself;
    # 0.6.0 made Mechanism's fields (actions_of, walk), its table read once
    # into the walk, and `outcome_of` a view built when read;
    # 0.7.0 dropped TypeSpace.profiles and PureStrategy.action;
    # 0.8.0 dropped rational_str, as str(Fraction) is the one spelling.
    assert revaudit.__version__ == version.group(1) == "0.8.0"


def readme_block(heading, language):
    """The first `language` code block after a README heading."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)\n```\n", section, re.DOTALL).group(1)


def test_the_readme_python_api_example_runs():
    exec(compile(readme_block("## Python API", "python"), "README.md", "exec"), {})


# The exit code the README gives for each of its command examples.
EXIT_CODES = {"analyze": 2, "sweep": 0, "matrices": 0, "reproduce-paper": 0}


def test_the_readme_command_examples_run_as_documented(tmp_path, capsys):
    (tmp_path / "labor.json").write_text(readme_block("### analyze", "json"))
    (tmp_path / "grid.json").write_text(readme_block("### sweep", "json"))
    commands = [
        shlex.split(line, comments=True)
        for heading in ("### analyze", "### sweep", "### matrices", "### reproduce-paper")
        for line in readme_block(heading, "sh").splitlines()
    ]
    assert [argv[:2] for argv in commands] == [
        ["revaudit", command]
        for command in ["analyze"] + ["sweep"] * 2 + ["matrices"] * 2 + ["reproduce-paper"]
    ]
    for _, command, *args in commands:
        code = main([command, *(str(tmp_path / a) if a.endswith(".json") else a for a in args)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_CODES[command], ""), args
        assert captured.out
