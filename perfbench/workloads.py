"""Seeded inputs for the four benchmark workloads.

`generate(workload, seed)` returns a `Plan`: the config files to write, the
ordered job list (one CLI invocation each) and the measured properties of the
inputs. The same seed gives byte-identical files and the same jobs. The shape
of every workload (job counts, game sizes, grid shapes) is fixed; the seed
only draws the values inside them, so medians and percentiles land on the
same kind of job whatever the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("paper", "sweep", "search", "declared")

WHY = {
    "paper": (
        "reproduce-paper plus ~100 labor analyze/matrices jobs: the first command users "
        "run; the zero-cost regression dominates its wall time, rendering and labor sit "
        "on the p50, and every game has at most 81 profiles"
    ),
    "sweep": (
        "~950 labor cells over 110 sweep jobs with shared wage and cost pools: per-cell "
        "rebuilding (core construction, build_scenario twice, the 16-profile search, four "
        "ex-post matrices) dominates"
    ),
    "search": (
        "analyze on generic configs without a profile, so the full equilibrium search "
        "runs: p50 falls on small games, p90 on 729-profile games, one 4,096-profile game"
    ),
    "declared": (
        "analyze on wide generic configs (2 agents with 6 to 8 types and actions, 3 agents "
        "with 4 to 6 types) with a declared profile: no enumeration, time "
        "goes to parsing, core validation, the direct game and the proof chain's sums"
    ),
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy.

    `argv` names config files relative to the work directory; `kind` selects
    the output check and `expect` carries what the generator knows about the
    answer independently of the program.
    """

    argv: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    files: dict[str, bytes]
    jobs: tuple[Job, ...]
    properties: dict


def generate(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"revaudit-perfbench/{workload}/{seed}")
    files, jobs, properties = _GENERATORS[workload](rng)
    properties = {"why": WHY[workload], "jobs": len(jobs), **properties}
    return Plan(workload, seed, files, tuple(jobs), properties)


def _dump(cfg: dict) -> bytes:
    return (json.dumps(cfg, sort_keys=True) + "\n").encode()


def _q(value) -> str:
    return str(Fraction(value))


def histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def shares(values) -> dict[str, float]:
    counts = Counter(values)
    return {str(k): counts[k] / len(values) for k in sorted(counts)}


# ---------------------------------------------------------------------------
# Labor market parameters. The wage window is (2 e_H / theta_H, 2 e_H / theta_L).
# ---------------------------------------------------------------------------

THETAS = ((1, 2), (1, 3), (2, 3), (1, Fraction(3, 2)))
EDUCATION = (1, Fraction(1, 2), Fraction(3, 2))
SKEWED_PRIORS = (Fraction(1, 10), Fraction(9, 10), Fraction(1, 5), Fraction(3, 4), Fraction(1, 3))
WAGE_POSITIONS = ("inside", "edge", "outside")
COST_POSITIONS = ("below", "at", "above")


def window(theta_L, theta_H, e_H) -> tuple[Fraction, Fraction]:
    e_H = Fraction(e_H)
    return 2 * e_H / Fraction(theta_H), 2 * e_H / Fraction(theta_L)


def _fixed_params(rng: random.Random) -> dict[str, Fraction]:
    theta_L, theta_H = rng.choice(THETAS)
    return {"theta_L": Fraction(theta_L), "theta_H": Fraction(theta_H), "e_H": Fraction(rng.choice(EDUCATION))}


def _wage(rng: random.Random, lo: Fraction, hi: Fraction, position: str) -> Fraction:
    if position == "inside":
        return lo + (hi - lo) * Fraction(rng.randint(1, 6), 7)
    if position == "edge":
        return rng.choice((lo, hi))
    if rng.random() < 0.5:
        return lo * Fraction(rng.randint(1, 7), 8)
    return hi + (hi - lo) * Fraction(rng.randint(1, 4), 4)


def _misreport_cost(rng: random.Random, w: Fraction, position: str) -> Fraction:
    half = w / 2
    if position == "below":
        return half * Fraction(rng.randint(0, 4), 5)
    if position == "at":
        return half
    return half + w * Fraction(rng.randint(1, 3), 4)


def _paper(rng: random.Random):
    """reproduce-paper, 66 labor analyze jobs and 34 matrices jobs.

    Two thirds analyze and one third matrices keep p50 and p90 inside the
    analyze cluster rather than on the boundary between the two job kinds.
    """
    files: dict[str, bytes] = {}
    labor_jobs = []
    wage_pos, cost_pos, skewed = [], [], []
    for k in range(100):
        fixed = _fixed_params(rng)
        lo, hi = window(**fixed)
        wpos = WAGE_POSITIONS[k % 3]
        cpos = COST_POSITIONS[(k // 3) % 3]
        w = _wage(rng, lo, hi, wpos)
        c_mis = _misreport_cost(rng, w, cpos)
        prior = rng.choice(SKEWED_PRIORS) if k % 4 == 3 else Fraction(1, 2)
        name = f"labor{k:03d}.json"
        cfg = {"kind": "labor", **{key: _q(v) for key, v in fixed.items()},
               "w": _q(w), "c_mis": _q(c_mis), "prior_high": _q(prior)}
        files[name] = _dump(cfg)
        expect = {"w": _q(w), "c_mis": _q(c_mis), "in_window": lo < w < hi,
                  "cmis_below_half_w": c_mis < w / 2}
        command = "matrices" if k % 50 >= 33 else "analyze"
        labor_jobs.append(Job((command, name), f"labor-{command}", expect))
        wage_pos.append(wpos)
        cost_pos.append(cpos)
        skewed.append(prior != Fraction(1, 2))
    first, rest = labor_jobs[0], labor_jobs[1:]
    rng.shuffle(rest)
    jobs = [first, Job(("reproduce-paper",), "reproduce")] + rest
    properties = {
        "job_kinds": histogram(j.kind for j in jobs),
        "profile_counts": {"16": len(labor_jobs), "reproduce-paper (games of 1 to 81)": 1},
        "wage_position_share": shares(wage_pos),
        "c_mis_vs_half_w_share": shares(cost_pos),
        "skewed_prior_share": sum(skewed) / len(skewed),
    }
    return files, jobs, properties


# Grid shapes (wages x costs, jobs). Three 3x3 grids carry one invalid wage
# row, so their time sits with the 2x3 grids; p50 then falls in the middle of
# the 3x3 cluster and p90 in the middle of the 3x5 cluster.
SWEEP_SHAPES = ((1, 3, 20), (2, 3, 20), (3, 3, 30), (2, 5, 20), (3, 5, 20))
SWEEP_INVALID_GRIDS = 3
INVALID_WAGES = (Fraction(0), Fraction(-1), Fraction(-1, 2))


def _sweep(rng: random.Random):
    """110 sweep jobs over ~950 cells drawn from shared wage and cost pools."""
    fixed_pool = [_fixed_params(rng) for _ in range(3)]
    # The window edges of the fixed parameters are in the pool, so every
    # seed has cells exactly on an edge.
    wage_pool = {Fraction(rng.randint(1, 48), 12) for _ in range(14)}
    wage_pool = sorted(wage_pool | {edge for fixed in fixed_pool for edge in window(**fixed)})
    cost_pool = sorted({Fraction(rng.randint(0, 24), 12) for _ in range(10)})
    shapes = [(nw, nc) for nw, nc, count in SWEEP_SHAPES for _ in range(count)]
    invalid_slots = set([k for k, s in enumerate(shapes) if s == (3, 3)][:SWEEP_INVALID_GRIDS])
    order = list(range(1, len(shapes)))
    rng.shuffle(order)
    files: dict[str, bytes] = {}
    jobs = []
    for k in [0] + order:
        nw, nc = shapes[k]
        fixed = dict(rng.choice(fixed_pool))
        if rng.random() < 0.25:
            fixed["prior_high"] = rng.choice(SKEWED_PRIORS)
        lo, hi = window(fixed["theta_L"], fixed["theta_H"], fixed["e_H"])
        wages = sorted(rng.sample(wage_pool, nw))
        if k in invalid_slots:
            wages[rng.randrange(nw)] = rng.choice(INVALID_WAGES)
        costs = sorted(rng.sample(cost_pool, nc))
        name = f"grid{len(jobs):03d}.json"
        files[name] = _dump({
            "kind": "sweep",
            "w_values": [_q(w) for w in wages],
            "c_mis_values": [_q(c) for c in costs],
            "fixed": {key: _q(v) for key, v in fixed.items()},
        })
        cells = [{"w": _q(w), "c_mis": _q(c), "valid": w > 0, "in_window": w > 0 and lo < w < hi,
                  "cheap": w > 0 and c < w / 2} for w in wages for c in costs]
        jobs.append(Job(("sweep", name), "sweep", {"cells": cells}))
    cells = [c for job in jobs for c in job.expect["cells"]]
    properties = {
        "grid_shapes": histogram(f"{nw}x{nc}" for nw, nc in shapes),
        "cells": len(cells),
        "profile_counts": {"16": sum(c["valid"] for c in cells)},
        "distinct_wages": len(wage_pool),
        "distinct_costs": len(cost_pool),
        "cell_share_in_window": sum(c["in_window"] for c in cells) / len(cells),
        "cell_share_cmis_below_half_w": sum(c["cheap"] for c in cells) / len(cells),
        "cell_share_invalid": sum(not c["valid"] for c in cells) / len(cells),
    }
    return files, jobs, properties


def _generic_config(rng: random.Random, types_per_agent, actions_per_agent,
                    n_outcomes: int, induced: bool, declare: bool) -> dict:
    """A random generic game. With `induced` the rule is what a random
    profile plays out, so an implementing equilibrium may exist; otherwise
    the rule is random. With `declare` that random profile is the candidate."""
    types = [[f"t{k}" for k in range(n)] for n in types_per_agent]
    actions = [[f"a{k}" for k in range(n)] for n in actions_per_agent]
    outcomes = [f"x{k}" for k in range(n_outcomes)]
    priors = []
    for ts in types:
        weights = [1] * len(ts) if rng.random() < 0.5 else [rng.randint(1, 5) for _ in ts]
        priors.append({t: _q(Fraction(wt, sum(weights))) for t, wt in zip(ts, weights)})
    outcome_of = {p: rng.choice(outcomes) for p in itertools.product(*actions)}
    choice = [{t: rng.choice(acts) for t in ts} for ts, acts in zip(types, actions)]
    rule = []
    for theta in itertools.product(*types):
        if induced:
            x = outcome_of[tuple(c[t] for c, t in zip(choice, theta))]
        else:
            x = rng.choice(outcomes)
        rule.append({"types": list(theta), "outcome": x})
    cfg = {
        "kind": "generic",
        "types": types,
        "priors": priors,
        "actions": actions,
        "outcomes": [{"label": x} for x in outcomes],
        "outcome_function": [{"actions": list(p), "outcome": x} for p, x in outcome_of.items()],
        "rule": rule,
        "utilities": [
            {"agent": i, "outcome": x, "type": t, "value": _q(Fraction(rng.randint(0, 12), 12))}
            for i, ts in enumerate(types) for x in outcomes for t in ts
        ],
        "strategic_costs": [
            {"agent": i, "action": a, "type": t, "cost": _q(Fraction(rng.randint(1, 4), 12))}
            for i, (ts, acts) in enumerate(zip(types, actions)) for a in acts for t in ts
            if rng.random() < 0.5
        ],
        "misreport_costs": [
            {"agent": i, "true_type": t, "reported_type": r, "cost": _q(Fraction(rng.randint(1, 6), 12))}
            for i, ts in enumerate(types) for t in ts for r in ts
            if r != t and rng.random() < 0.5
        ],
    }
    if declare:
        cfg["profile"] = choice
    return cfg


def profile_count(types_per_agent, actions_per_agent) -> int:
    total = 1
    for t, a in zip(types_per_agent, actions_per_agent):
        total *= a ** t
    return total


# (types per agent, actions per agent, jobs). 87 games of at most 81
# profiles, 12 of 729 and one of 4,096: p90 falls inside the 729 cluster.
SEARCH_SHAPES = (
    ((2, 2), (2, 2), 15),
    ((2, 2), (3, 3), 25),
    ((2, 2, 2), (2, 2, 2), 15),
    ((3, 3), (2, 2), 15),
    ((1, 2), (3, 3), 10),
    ((1, 1, 1, 1), (3, 3, 3, 3), 7),
    ((3, 3), (3, 3), 6),
    ((2, 2, 2), (3, 3, 3), 6),
    ((3, 3), (4, 4), 1),
)


def _search(rng: random.Random):
    shapes = [(t, a) for t, a, count in SEARCH_SHAPES for _ in range(count)]
    order = list(range(1, len(shapes)))
    rng.shuffle(order)
    files: dict[str, bytes] = {}
    jobs = []
    rule_kinds = []
    for k in [0] + order:
        types, actions = shapes[k]
        induced = len(jobs) % 2 == 0
        name = f"search{len(jobs):03d}.json"
        files[name] = _dump(_generic_config(rng, types, actions, 4, induced, declare=False))
        jobs.append(Job(("analyze", name), "generic-search"))
        rule_kinds.append("induced" if induced else "random")
    properties = {
        "profile_counts": histogram(profile_count(t, a) for t, a in shapes),
        "rule_share": shares(rule_kinds),
    }
    return files, jobs, properties


# Types and actions stop at 8 for two agents so that a pass takes a few
# seconds. The costliest games (3 agents, 6 types) are 16 of the 104 jobs, so
# p90 (rank 94) falls in the middle of that cluster, not on its edge.
DECLARED_SHAPES = (
    [((t, t), (a, a), 8) for t in range(6, 9) for a in range(6, 9)]
    + [((t, t, t), (a, a, a), 8 if t == 6 else 4) for t in range(4, 7) for a in (3, 4)]
)


def _declared(rng: random.Random):
    shapes = [(t, a) for t, a, count in DECLARED_SHAPES for _ in range(count)]
    order = list(range(1, len(shapes)))
    rng.shuffle(order)
    files: dict[str, bytes] = {}
    jobs = []
    for k in [0] + order:
        types, actions = shapes[k]
        name = f"declared{len(jobs):03d}.json"
        files[name] = _dump(_generic_config(rng, types, actions, 6, len(jobs) % 2 == 0, declare=True))
        jobs.append(Job(("analyze", name), "generic-declared"))
    sizes = sorted(len(b) for b in files.values())
    properties = {
        "shapes": histogram(f"{len(t)} agents, {t[0]} types, {a[0]} actions" for t, a in shapes),
        "profile_counts": histogram(profile_count(t, a) for t, a in shapes),
        "config_bytes": {"min": sizes[0], "median": sizes[len(sizes) // 2], "max": sizes[-1]},
    }
    return files, jobs, properties


_GENERATORS = {"paper": _paper, "sweep": _sweep, "search": _search, "declared": _declared}
