"""Replay seeded, mutated configs through two source trees and print every
difference in exit code, stdout or stderr.

    python tests/differential_configs.py OLD_SRC NEW_SRC [--count N] [--seed S]

OLD_SRC and NEW_SRC are directories that hold a `revaudit` package (a
checkout's `src`). The replay writes N configs, a quarter labor, a quarter
sweep grids (from two base grids in turn) and half generic games, each
mutated at up to three places (a value replaced, a field or row dropped or
duplicated, a field added), and
half of them written with one change to the text that `json.dumps` never
makes (a key repeated in one object at any depth, a `:` in a string, plain
or escaped, or spaced colons). Each
tree then runs every config in one process through `revaudit.cli.main`:
`analyze` and `matrices --format json` on a labor config, `sweep` in both
formats on a grid, and `analyze` on a generic game. The exit status is 1 when
any run differs. Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import traceback
from collections import Counter

LABOR = {"kind": "labor", "theta_L": 1, "theta_H": 2, "e_H": 1, "w": "3/2", "c_mis": "1/2"}
SWEEP = {
    "kind": "sweep",
    "w_values": ["1", "3/2", "19/10"],
    "c_mis_values": ["0", "1/2", 1],
    "fixed": {"theta_L": 1, "theta_H": 2, "e_H": 1, "prior_high": "1/3"},
}
# A second grid, used on alternate sweep configs: its first wage and its
# first cost are refused, so the wage that builds the grid's market comes
# late, and every later wage is built from that market.
SWEEP_LATE = {
    "kind": "sweep",
    "w_values": ["0", "3/2", "5/2", "1", "9/2", "19/10"],
    "c_mis_values": ["-1/2", "0", "1/2", "3/4", "2"],
    "fixed": {"theta_L": "1/2", "theta_H": 2, "e_H": 1, "prior_high": "9/10"},
}
# Values a mutation may write: every JSON type, bad and edge-case literals,
# among them the edges of the plain "p/q" reading: a sign, leading zeros, a
# sign in the denominator, non-ASCII digits, a float equal to an int, and
# digit strings at and past the length limit.
JUNK = [
    True, False, None, 0, 1, -1, 2, "0", "1", "-1", "1/2", "3/2", "-1/3", "1/0", "", "x",
    "1e5", "1e999", "1_0", " 1 ", "١", "0.5", [], {}, ["x"], [1], {"x": 1}, 0.5, 10**101,
    "+1/2", "01/02", "-0", "1/-2", "٣/٤", 1.0, "1" * 100, "1" * 101,
]
FIELDS = ["kind", "agent", "outcome", "type", "action", "value", "cost", "label", "extra", "w"]


def generic_config(rng: random.Random) -> dict:
    """A small random generic game, with a declared profile half the time."""
    agents = rng.choice([1, 2, 2, 3])
    most = 3 if agents < 3 else 2
    types = [[f"t{k}" for k in range(rng.randint(1, most))] for _ in range(agents)]
    actions = [[f"a{k}" for k in range(rng.randint(1, most))] for _ in range(agents)]
    outcomes = [f"x{k}" for k in range(rng.randint(1, 3))]
    cfg = {
        "kind": "generic",
        "types": types,
        "priors": [{t: f"1/{len(ts)}" for t in ts} for ts in types],
        "actions": actions,
        "outcomes": [{"label": x} for x in outcomes],
        "outcome_function": [
            {"actions": list(p), "outcome": rng.choice(outcomes)}
            for p in itertools.product(*actions)
        ],
        "rule": [
            {"types": list(p), "outcome": rng.choice(outcomes)} for p in itertools.product(*types)
        ],
        "utilities": [
            {"agent": i, "outcome": x, "type": t, "value": f"{rng.randint(-4, 12)}/4"}
            for i, ts in enumerate(types) for x in outcomes for t in ts
        ],
        "strategic_costs": [
            {"agent": i, "action": a, "type": t, "cost": f"{rng.randint(0, 4)}/3"}
            for i, (ts, acts) in enumerate(zip(types, actions)) for a in acts for t in ts
            if rng.random() < 0.5
        ],
        "misreport_costs": [
            {"agent": i, "true_type": t, "reported_type": r, "cost": f"{rng.randint(0, 4)}/2"}
            for i, ts in enumerate(types) for t in ts for r in ts if r != t and rng.random() < 0.5
        ],
    }
    if rng.random() < 0.5:
        cfg["profile"] = [{t: rng.choice(acts) for t in ts} for ts, acts in zip(types, actions)]
    return cfg


def _slots(node):
    """Every (container, key) pair in the tree under node."""
    if isinstance(node, (dict, list)):
        for key in list(node.keys() if isinstance(node, dict) else range(len(node))):
            yield node, key
            yield from _slots(node[key])


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)


def mutate(cfg: dict, rng: random.Random) -> dict:
    """cfg changed at up to three places; one config in eight is unchanged."""
    cfg = copy.deepcopy(cfg)
    pool = JUNK + sorted(set(_strings(cfg)))
    for _ in range(rng.choice([0, 1, 1, 1, 2, 2, 3, 3])):
        slots = list(_slots(cfg))
        if not slots:
            break
        container, key = rng.choice(slots)
        op = rng.random()
        if op < 0.55:
            container[key] = copy.deepcopy(rng.choice(pool))
        elif op < 0.7:
            del container[key]
        elif op < 0.85 and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        elif isinstance(container[key], dict):
            container[key][rng.choice(FIELDS)] = copy.deepcopy(rng.choice(pool))
        else:
            container[key] = copy.deepcopy(rng.choice(pool))
    return cfg


def _dumps(node, repeat=None, pair="", at=0) -> str:
    """node as `json.dumps` writes it, but the object `repeat` (found by
    identity) also holds the text `pair` as its pair number `at`."""
    if isinstance(node, list):
        return "[" + ", ".join(_dumps(v, repeat, pair, at) for v in node) + "]"
    if not isinstance(node, dict):
        return json.dumps(node)
    pairs = [f"{json.dumps(k)}: {_dumps(v, repeat, pair, at)}" for k, v in node.items()]
    if node is repeat:
        pairs.insert(at, pair)
    return "{" + ", ".join(pairs) + "}"


def text_of(cfg: dict, rng: random.Random) -> str:
    """cfg as JSON text, changed half the time in a way `json.dumps` never
    writes: one object, at any depth, repeating one of its keys; one string
    renamed everywhere to hold a `:`, written plainly or escaped as
    `\\u003a`; or spaces around every `:`."""
    op = rng.choice(["plain", "plain", "plain", "plain", "repeat", "colon", "escaped", "spaced"])
    strings = sorted(s for s in set(_strings(cfg)) if s)
    if op == "repeat":
        objects = [cfg] + [c[k] for c, k in _slots(cfg) if isinstance(c[k], dict) and c[k]]
        target = rng.choice(objects)
        key = rng.choice(list(target))
        value = rng.choice([target[key], rng.choice(JUNK)])
        pair = f"{json.dumps(key)}: {_dumps(value)}"
        return _dumps(cfg, target, pair, rng.randint(0, len(target)))
    if op in ("colon", "escaped") and strings:
        s = rng.choice(strings)
        renamed = json.dumps(s[:1] + "\0" + s[1:])
        renamed = renamed.replace("\\u0000", ":" if op == "colon" else "\\u003a")
        return json.dumps(cfg).replace(json.dumps(s), renamed)
    if op == "spaced":
        colon = rng.choice([" : ", "\t:\n "])
        return json.dumps(cfg, indent=rng.choice([None, 1]), separators=(",", colon))
    return json.dumps(cfg)


def jobs(count: int, seed: int, workdir: str) -> list[list[str]]:
    """Write `count` mutated configs into workdir; return the argv of each run."""
    runs = []
    for k in range(count):
        rng = random.Random(f"{seed}-{k}")
        kind = ("labor", "sweep", "generic", "generic")[k % 4]
        sweep = (SWEEP, SWEEP_LATE)[k // 4 % 2]
        base = {"labor": LABOR, "sweep": sweep}.get(kind) or generic_config(rng)
        path = os.path.join(workdir, f"{k:05d}-{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text_of(mutate(base, rng), rng))
        if kind == "labor":
            runs += [["analyze", path], ["matrices", path, "--format", "json"]]
        elif kind == "sweep":
            runs += [["sweep", path, "--format", "csv"], ["sweep", path, "--format", "json"]]
        else:
            runs.append(["analyze", path])
    return runs


def run_all(runs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of each run through revaudit.cli.main."""
    from revaudit.cli import main

    results = []
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # a crash is an outcome to compare
                code = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def replay(src: str, runs_path: str) -> list[list]:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run", runs_path],
        env=env, capture_output=True, text=True,
    )
    if child.returncode:
        raise SystemExit(f"{src}: the replay failed:\n{child.stderr}")
    return json.loads(child.stdout)


def _short(text) -> str:
    text = str(text)
    return text if len(text) <= 300 else text[:300] + f"... ({len(text)} characters)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--count", type=int, default=2400, help="configs to write (default 2400)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--run", help=argparse.SUPPRESS)  # a child: run the argv list in this file
    args = parser.parse_args(argv)
    if args.run:
        with open(args.run, encoding="utf-8") as fh:
            json.dump(run_all(json.load(fh)), sys.stdout)
        return 0
    if not (args.old_src and args.new_src):
        parser.error("OLD_SRC and NEW_SRC are required")
    with tempfile.TemporaryDirectory() as workdir:
        runs = jobs(args.count, args.seed, workdir)
        runs_path = os.path.join(workdir, "runs.json")
        with open(runs_path, "w", encoding="utf-8") as fh:
            json.dump(runs, fh)
        old, new = replay(args.old_src, runs_path), replay(args.new_src, runs_path)
        differences = 0
        for argv, a, b in zip(runs, old, new):
            for stream, x, y in zip(("exit code", "stdout", "stderr"), a, b):
                if x != y:
                    differences += 1
                    print(f"{' '.join(argv)}: {stream} differs")
                    print(f"  old: {_short(x)}")
                    print(f"  new: {_short(y)}")
        codes = Counter(str(r[0]) for r in old)
        shares = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
        print(f"{args.count} configs, {len(runs)} runs ({shares}): {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
