"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds the public functions of each revaudit module, in
every module namespace that binds them (the package itself, and modules that
did `from .equilibrium import ...`), to one recording wrapper per function.
It also wraps each dataclass `__post_init__` defined in those modules, to time
construction, and counts calls of `TypeSpace.conditional_weight` without a
span, since timing the engine's inner loop would swamp the trace.
`Tracer.restore()` puts every original binding back.

Spans live in memory as lists `[span_id, parent_id, job_id, name, start_ns,
end_ns, raised]` and are written out once, at the end of the run. Their
times are read on the clock given to the Tracer: the wall clock by default,
and in a measuring worker the SpeedClock that also times the jobs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "serialize", "labor", "auditor", "equilibrium", "core")
PARSE_FUNCTIONS = ("load_config", "parse_labor_params", "parse_generic_scenario", "parse_sweep_grid")
SPAN_FIELDS = ("span_id", "parent_id", "job_id", "name", "start_ns", "end_ns", "raised")
ID, PARENT, JOB, NAME, START, END, RAISED = range(7)
CONDITIONAL_WEIGHT_CALLS = "core.TypeSpace.conditional_weight.calls"


def _profile_count(game) -> int:
    total = 1
    for types, actions in zip(game.type_space.types_of, game.mechanism.actions_of):
        total *= len(actions) ** len(types)
    return total


class Tracer:
    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.job_id, name, 0, 0, False]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_search(self, args, result) -> None:
        self.counts["equilibrium.profiles_enumerated"] += _profile_count(args[0])
        self.counts["equilibrium.equilibria_found"] += len(result)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("revaudit")
        modules = {m: importlib.import_module(f"revaudit.{m}") for m in MODULES}
        by_module = {mod.__name__: short for short, mod in modules.items()}
        wrappers: dict[object, object] = {}
        for mod in (pkg, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                short = by_module.get(obj.__module__)
                if short is None:
                    continue
                if obj not in wrappers:
                    after = self._after_search if obj.__name__ == "find_all_pure_bne" else None
                    wrappers[obj] = self._wrap(f"{short}.{obj.__name__}", obj, after)
                self._patch(mod, attr, wrappers[obj])
        for short, mod in modules.items():
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__ and "__post_init__" in vars(cls):
                    self._patch(cls, "__post_init__", self._wrap(f"{short}.{cls.__name__}", cls.__post_init__))
        type_space = modules["core"].TypeSpace
        self._patch(type_space, "conditional_weight",
                    self._count(CONDITIONAL_WEIGHT_CALLS, type_space.conditional_weight))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write("\t".join(str(round(v) if isinstance(v, float) else v) for v in span) + "\n")


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans are recorded synchronously, so children nest inside their parent
    and never overlap each other.
    """
    children = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - children[span[ID]] for span in spans]


def layer_metrics(spans, counts, names) -> dict[str, float]:
    """The named per-layer metrics, in seconds, counts or ratios.

    `<span name>.calls`, `.self_s` and `.total_s` (and `.init_s` for a class,
    the time in `__post_init__`) aggregate that span name's spans; a layer the
    run never called reads 0. `total_s` includes everything the name called.
    `<module>.self_s` sums the self time of every span of the module, and
    serialize's is split into `parse` (loading and parsing configs) and
    `render`. Ratios whose base is zero (no search ran) read 0.
    """
    self_ns = self_times_ns(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    errors = {f"{m}.errors": 0 for m in MODULES}
    for span, self_time in zip(spans, self_ns):
        name = span[NAME]
        module, func = name.split(".", 1)
        calls[name] += 1
        total[name] += span[END] - span[START]
        own[name] += self_time
        own[module] += self_time
        if module == "serialize":
            own["serialize.parse" if func in PARSE_FUNCTIONS else "serialize.render"] += self_time
        errors[f"{module}.errors"] += span[RAISED]

    profiles = counts.get("equilibrium.profiles_enumerated", 0)

    def per_profile(value):
        return value / profiles if profiles else 0.0

    derived = {
        "equilibrium.profiles_enumerated": profiles,
        "equilibrium.find_all_pure_bne.us_per_profile": per_profile(total["equilibrium.find_all_pure_bne"] / 1e3),
        "equilibrium.equilibria_per_profile": per_profile(counts.get("equilibrium.equilibria_found", 0)),
        "equilibrium.is_bayesian_nash.calls_per_profile": per_profile(calls["equilibrium.is_bayesian_nash"]),
        **errors,
    }
    out = {}
    for metric in names:
        base, _, stat = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif metric in counts:
            out[metric] = counts[metric]
        elif stat == "calls":
            out[metric] = calls.get(base, 0)
        elif stat == "self_s":
            out[metric] = own.get(base, 0) / 1e9
        elif stat in ("total_s", "init_s"):
            out[metric] = total.get(base, 0) / 1e9
        else:
            raise KeyError(f"no per-layer metric {metric!r}")
    return out
