"""Output checks for benchmark jobs.

A job fails when an exception escapes, when it exits 1, when its stdout
digest differs from the reference for its seed, or when its output breaks a
structural check below. The structural checks hold for any seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def check(job, exit_code: int, stdout: str) -> str | None:
    """Why the job's output is wrong, or None when it passes."""
    if exit_code == 1:
        return "exit code 1"
    try:
        return _CHECKS[job.kind](job, exit_code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def _audit(audit: dict, exit_code: int) -> str | None:
    expected = audit["implemented"] and not audit["truthful_is_bne"]
    if audit["violation"] != expected:
        return "violation != implemented and not truthful_is_bne"
    if exit_code != (2 if audit["violation"] else 0):
        return f"exit code {exit_code} with violation={audit['violation']}"
    return None


def _reproduce(job, exit_code, stdout):
    if json.loads(stdout)["all_passed"] is not True or exit_code != 0:
        return "reproduce-paper did not pass every criterion"
    return None


def _labor_analyze(job, exit_code, stdout):
    data = json.loads(stdout)
    expect = job.expect
    if (data["params"]["w"], data["params"]["c_mis"]) != (expect["w"], expect["c_mis"]):
        return "reported parameters differ from the config"
    if data["separating"]["in_window"] != expect["in_window"]:
        return "in_window disagrees with the wage window"
    if data["truthful"]["cmis_below_half_w"] != expect["cmis_below_half_w"]:
        return "cmis_below_half_w disagrees with c_mis < w/2"
    return _audit(data["audit"], exit_code)


def _labor_matrices(job, exit_code, stdout):
    expect = job.expect
    if exit_code != 0 or not stdout.startswith("# Ex-post report matrices\n"):
        return "not a matrices document"
    if stdout.count("\n## Case ") != 4:
        return "expected four case tables"
    if f"w = {expect['w']}, c_mis = {expect['c_mis']}\n" not in stdout:
        return "reported parameters differ from the config"
    return None


def _sweep(job, exit_code, stdout):
    cells = job.expect["cells"]
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if exit_code != 0 or len(rows) != len(cells):
        return f"{len(rows)} rows for {len(cells)} cells (exit code {exit_code})"
    for row, cell in zip(rows, cells):
        if (row["w"], row["c_mis"]) != (cell["w"], cell["c_mis"]):
            return f"row ({row['w']}, {row['c_mis']}) out of grid order"
        if bool(row["error"]) == cell["valid"]:
            return f"cell ({row['w']}, {row['c_mis']}): error column wrong"
        if cell["valid"] and row["in_window"] != ("true" if cell["in_window"] else "false"):
            return f"cell ({row['w']}, {row['c_mis']}): in_window disagrees with the wage window"
    return None


def _generic_search(job, exit_code, stdout):
    data = json.loads(stdout)
    source = data["profile_source"]
    if source == "declared":
        return "searched config reported a declared profile"
    if "equilibrium" in source and not data["audit"]["chain"]["equilibrium_inequalities_hold"]:
        return f"profile from '{source}' fails the equilibrium inequalities"
    return _audit(data["audit"], exit_code)


def _generic_declared(job, exit_code, stdout):
    data = json.loads(stdout)
    if data["profile_source"] != "declared":
        return "declared profile was not used"
    return _audit(data["audit"], exit_code)


_CHECKS = {
    "reproduce": _reproduce,
    "labor-analyze": _labor_analyze,
    "labor-matrices": _labor_matrices,
    "sweep": _sweep,
    "generic-search": _generic_search,
    "generic-declared": _generic_declared,
}
