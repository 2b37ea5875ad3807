"""Revelation-principle auditing.

The auditor plays a social choice function as its own direct mechanism,
checks whether truthful reporting survives as an equilibrium when
misreporting is costly, and decomposes the classical revelation argument
into its individual inequality families so the exact step that breaks can
be reported.

Direct games are built so that strategic action costs cannot reach them:
only the misreporting schedule is carried over, re-expressed as the cost of
playing a report. Playing a report is the only thing a direct game charges
for.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ConstructionError,
    CostModel,
    DomainError,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    _checked,
)
from .equilibrium import (
    BayesianGame,
    Deviation,
    EquilibriumVerdict,
    StrategyProfile,
    _at_best_response,
    _equilibrium_plans,
    _exact,
    _implements,
    _interim_rows,
    _largest_gain,
    _plan,
    _profile,
    _rule,
)


def direct_game(game: BayesianGame, scf: SocialChoiceFunction) -> BayesianGame:
    """The direct game of a rule that reports exactly the game's types: the
    rule is played as it is, with the game's type space and utilities.

    Only the misreporting schedule carries over, stored once as the price of
    playing a report: strategic[(agent, report, true type)] =
    misreport[(agent, true type, report)], with honest reports free. Another
    schedule is judged against `misreport_gains`, without a game of its own.

    This is the one place a rule is fitted to a game. A rule over other
    reports than the game's types, in order, is refused. The game has
    checked its type space, its misreport schedule and its utilities for
    every outcome its mechanism reaches, and a report is a type, so only
    the outcomes the rule reaches besides those are checked for utilities."""
    ts = game.type_space
    if scf.actions_of != ts.types_of:
        problem = f"reports {scf.actions_of} are not the game's types {ts.types_of}"
        raise ConstructionError(problem, ("rule",))
    reached = set(game.mechanism.walk.labels)
    game.utilities.check_covers([x for x in scf.walk.labels if x not in reached], ts.types_of)
    prices = {(i, reported, true): v for (i, true, reported), v in game.costs.misreport.items()}
    return _checked(BayesianGame, scf, ts, game.utilities, _checked(CostModel, prices, {}))


def is_truthfully_implementable(direct: BayesianGame) -> EquilibriumVerdict:
    """Is truth-telling an equilibrium of a rule's direct game,
    `direct_game(game, scf)`?

    The witness on failure is the most profitable misreport, as (agent, true
    type, reported type, gain), decided once and kept with the direct game.
    """
    return EquilibriumVerdict(direct._truthful_witness)


def _costfree(direct: BayesianGame, rows, agent: int) -> list[list[int]]:
    """The agent's rows of direct-game profits with their report prices added back."""
    return [[v + c for v, c in zip(row, cs)] for row, cs in zip(rows, direct._tables.cost[agent])]


def _costfree_gains(direct: BayesianGame) -> dict[tuple[int, str, str], int]:
    """Each misreport's gain with every report price erased, as an int on its
    agent's scale, keyed (agent, true type, reported type)."""
    types_of = direct.type_space.types_of
    free = [_costfree(direct, rows, i) for i, rows in enumerate(direct._truthful_rows)]
    return {
        (i, ts[k], ts[r]): free[i][k][r] - free[i][k][k]
        for i, ts in enumerate(types_of) for k, r in itertools.permutations(range(len(ts)), 2)
    }


def misreport_gains(direct: BayesianGame) -> dict[tuple[int, str, str], Fraction]:
    """Each misreport's gain with every report price erased, keyed (agent, true type,
    reported type): truth-telling is an equilibrium exactly when no gain exceeds its price."""
    return {key: _exact(direct, key[0], gain) for key, gain in _costfree_gains(direct).items()}


@dataclass(frozen=True)
class BreakPoint:
    """Where the revelation argument snaps: the mimicry inequality holds at
    this (agent, type, mimicked type) triple but the cost-free truthful
    inequality fails there, by `costfree_gain`."""

    agent: int
    type_label: str
    mimicked_type: str
    costfree_gain: Fraction


@dataclass(frozen=True)
class ProofChainRecord:
    """The three inequality families behind the classical revelation argument.

    `equilibrium_inequalities_hold`: the candidate profile survives every
    single-action deviation (deviations range over all actions).
    `mimicry_inequalities_hold`: it survives deviations restricted to other
    types' equilibrium actions, strategic cost of the mimicked action
    retained. `costfree_truthful_inequalities_hold`: truthful reporting beats
    misreporting on the rule itself with all costs erased. Classically the
    first implies the second implies the third; with strategic costs the last
    step can fail, and `break_point` pins the triple where it does.
    """

    vacuous: bool
    equilibrium_inequalities_hold: bool
    mimicry_inequalities_hold: bool
    costfree_truthful_inequalities_hold: bool
    break_point: BreakPoint | None


@dataclass(frozen=True)
class AuditReport:
    """Full revelation audit of one (mechanism, profile, rule) triple.

    `truthful_witness` is the most profitable misreport in the rule's direct
    game, None when truthful reporting is an equilibrium there.
    """

    indirect_equilibrium: StrategyProfile
    implemented: bool
    truthful_witness: Deviation | None
    chain: ProofChainRecord

    @property
    def truthful_is_bne(self) -> bool:
        return self.truthful_witness is None

    @property
    def violation(self) -> bool:
        """The conjunction the revelation principle forbids: the profile is an
        equilibrium implementing the rule, yet truthful reporting is not an
        equilibrium of the rule's direct game."""
        return self.implemented and not self.truthful_is_bne


def audit_revelation_principle(
    game: BayesianGame, profile: StrategyProfile, direct: BayesianGame
) -> AuditReport:
    """Audit one implementation claim end to end, in one walk.

    `direct` is `direct_game(game, scf)`, built once by the caller. Any
    other is refused, as another game's would report that game's gains:
    after the profile is checked, `direct_game(game, direct.mechanism)`
    refuses a rule over other reports or one reaching an outcome the game
    has no utility for, and then the two direct games must agree in their
    type space, utilities and report prices. The direct game's mechanism is
    the rule and truth-telling is its identity plan. For each agent the walk
    reads two sets of interim profits, the game's under the profile (its
    judgement, `_judge`) and the direct game's under truth-telling (kept
    with the direct game), and reads every verdict from them: the chain's
    equilibrium and mimicry families; truth-telling in the direct game; the
    cost-free family, whose payoffs are the direct game's profits plus its
    report prices; and the break point, the largest cost-free gain of a
    report where mimicry holds. The truthful witness and the break point
    follow one deviation rule, `equilibrium._largest_gain`. The chain is
    vacuous when the profile is not an equilibrium; its other families are
    still reported.
    """
    plan = _plan(game, profile)
    own = direct_game(game, direct.mechanism)
    got = (direct.type_space, direct.utilities, direct.costs.strategic)
    want = (own.type_space, own.utilities, own.costs.strategic)
    for part, a, b in zip(("type space", "utilities", "report prices"), got, want):
        if a != b:
            raise DomainError(f"the direct game does not match the game in its {part}")
    return _audit(direct, _judge(game, plan, direct.mechanism), profile)


@dataclass(frozen=True)
class Judgement:
    """A plan judged in a game, the first step of its audit: the plan, the
    game's interim rows under it (one set per agent, as `_interim_rows`
    gives them), whether the plan is an equilibrium, and whether it is one
    that plays the rule."""

    __hash__ = None  # its rows are lists

    plan: list[list[int]]
    rows_of: list[list[list[int]]]
    equilibrium: bool
    implemented: bool


def _judge(game: BayesianGame, plan, rule: SocialChoiceFunction,
           plays_rule: bool | None = None) -> Judgement:
    """The judgement of a plan against a rule. `plays_rule` says if the plan
    plays the rule; when None, an equilibrium is played out against it."""
    rows_of = [_interim_rows(game, plan, agent) for agent in range(game.agent_count)]
    equilibrium = all(map(_at_best_response, rows_of, plan))
    if equilibrium and plays_rule is None:
        plays_rule = _implements(game, plan, rule)
    return Judgement(plan, rows_of, equilibrium, equilibrium and plays_rule)


def _audit(direct: BayesianGame, judged: Judgement, profile: StrategyProfile) -> AuditReport:
    """`audit_revelation_principle` of a judged plan, labelled `profile`, in
    the direct game of the rule it was judged against."""
    truth = direct._truth
    mimicry_ok = costfree_ok = True
    mimicry_rows = []
    for agent, (own, rows) in enumerate(zip(judged.plan, judged.rows_of)):
        free_rows = _costfree(direct, direct._truthful_rows[agent], agent)
        costfree_ok = costfree_ok and _at_best_response(free_rows, truth[agent])
        # mimics[k][m]: type k profits no more from type m's action than from its own.
        mimics = [[row[a] <= row[b] for a in own] for row, b in zip(rows, own)]
        mimicry_ok = mimicry_ok and all(map(all, mimics))
        # Reporting m at type k gains its cost-free gain where mimicry holds, else nothing.
        mimicry_rows.append([
            [v if ok else free[k] for v, ok in zip(free, oks)]
            for k, (free, oks) in enumerate(zip(free_rows, mimics))
        ])
    gap = _largest_gain(direct, truth, mimicry_rows)
    chain = ProofChainRecord(
        vacuous=not judged.equilibrium,
        equilibrium_inequalities_hold=judged.equilibrium,
        mimicry_inequalities_hold=mimicry_ok,
        costfree_truthful_inequalities_hold=costfree_ok,
        break_point=gap and BreakPoint(gap.agent, gap.type_label, gap.action, gap.gain),
    )
    return AuditReport(
        indirect_equilibrium=profile,
        implemented=judged.implemented,
        truthful_witness=direct._truthful_witness,
        chain=chain,
    )


# ---------------------------------------------------------------------------
# Zero-cost regression: with all costs erased the classical revelation
# principle must hold, so every equilibrium's induced rule must be truthfully
# implementable. Random small instances keep the engine honest.
# ---------------------------------------------------------------------------

DEFAULT_REGRESSION_SEED = 20240811


# The parts every random zero-cost game is drawn from, built once. Each draw
# picks one part with `rng.choice`, which takes one `_randbelow(n)` from the
# stream, as `randint` over the same n values does.
_TYPE_SETS = (("t0",), ("t0", "t1"))
_UNIFORM = ({"t0": Fraction(1)}, {"t0": Fraction(1, 2), "t1": Fraction(1, 2)})
_WEIGHTS = tuple(range(1, 7))
_ACTION_SETS = (("a0",), ("a0", "a1"), ("a0", "a1", "a2"))
_OUTCOMES = tuple(_checked(Outcome, f"x{k}", ()) for k in range(4))
_OUTCOME_SETS = tuple(_OUTCOMES[:n] for n in range(1, 5))
_TWELFTHS = tuple(Fraction(k, 12) for k in range(13))
_NO_COSTS = _checked(CostModel, {}, {})


def random_zero_cost_game(rng: random.Random) -> BayesianGame:
    """A random two-agent game: 1..2 types, 1..3 actions, 1..4 outcomes,
    utilities in [0, 1] with denominator 12, prior uniform or random
    full-support weights.

    Each part is built with `_checked`, without its constructor's checks,
    since every rule they check holds by construction: the labels are
    distinct, each prior is positive and sums to 1, the outcome table is
    total, every (agent, outcome, type) has a utility, and there are no
    costs. The label sets, outcomes, twelfths, uniform priors and empty
    costs are shared by every game, and none is ever changed."""
    types_of = (rng.choice(_TYPE_SETS), rng.choice(_TYPE_SETS))
    priors = []
    for ts in types_of:
        if rng.random() < 1 / 2 or len(ts) == 1:
            priors.append(_UNIFORM[len(ts) - 1])
        else:
            weights = [rng.choice(_WEIGHTS) for _ in ts]
            priors.append({t: Fraction(w, sum(weights)) for t, w in zip(ts, weights)})
    type_space = _checked(TypeSpace, types_of, tuple(priors))

    actions_of = (rng.choice(_ACTION_SETS), rng.choice(_ACTION_SETS))
    outcomes = rng.choice(_OUTCOME_SETS)
    outcome_of = {profile: rng.choice(outcomes) for profile in itertools.product(*actions_of)}
    mechanism = _checked(Mechanism, actions_of, outcome_of)
    utility = {
        (agent, x.label, t): rng.choice(_TWELFTHS)
        for agent in range(2) for x in outcomes for t in types_of[agent]
    }
    return _checked(BayesianGame, mechanism, type_space, _checked(UtilityTable, utility), _NO_COSTS)


def _rule_scf(game: BayesianGame, rule: tuple[int, ...]) -> SocialChoiceFunction:
    """A rule of outcome positions (as `_rule` gives it) as a SocialChoiceFunction
    of the game's outcomes over its type profiles, built with `_checked`: the
    rule is total by construction."""
    mech, ts = game.mechanism, game.type_space
    named = {x.label: x for x in mech.outcome_of.values()}
    table = [named[mech.walk.labels[x]] for x in rule]
    return _checked(SocialChoiceFunction, ts.types_of, dict(zip(ts.profiles(), table)))


@dataclass(frozen=True)
class RegressionSummary:
    """Result of the zero-cost regression sweep."""

    instances: int
    equilibria_checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def zero_cost_regression(
    instances: int = 200, seed: int = DEFAULT_REGRESSION_SEED
) -> RegressionSummary:
    """Check the classical revelation principle on random zero-cost games.

    For every pure equilibrium of every generated game, the induced rule
    must be truthfully implementable. Equilibria of one game that play out
    the same rule share one verdict: each distinct rule's direct game is
    built and checked once, and a failing rule gives one failure per
    equilibrium that plays it. Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    failures = []
    checked = 0
    for k in range(instances):
        game = random_zero_cost_game(rng)
        truthful_by_rule: dict[tuple[int, ...], bool] = {}
        for plan in _equilibrium_plans(game):
            checked += 1
            rule = _rule(game, plan)
            if rule not in truthful_by_rule:
                direct = direct_game(game, _rule_scf(game, rule))
                truthful_by_rule[rule] = is_truthfully_implementable(direct).is_equilibrium
            if not truthful_by_rule[rule]:
                profile = _profile(game, plan)
                failures.append(
                    f"instance {k}: induced rule not truthfully implementable at {profile}"
                )
    return RegressionSummary(instances=instances, equilibria_checked=checked, failures=tuple(failures))
