"""Properties of the exact engine and the auditor on random games.

Verdicts compare payoffs of one agent, so they must not move when every
utility and strategic cost is scaled by one positive rational, or when a
constant is added to an agent's utilities at one type. Renaming types,
actions and outcomes renames every equilibrium and audit report the same
way and moves no verdict, and renumbering the agents renumbers every
equilibrium. With every cost zero, the classical revelation
principle holds. The rule an equilibrium plan plays out, read from
outcome positions, is the rule its labels play out by brute force, and
the engine's play-out against a rule agrees with the labels on every profile. The audit judges
truth-telling as the engines do, and so do the cost-free misreport gains
under any misreporting schedule. Every
ex-post payoff, of a game or of a rule's direct game, is the utility of the
outcome minus the strategic cost of the action played, and the pure Nash
and dominance scans agree with brute force: on random int tables, on an
ex-post game's slices against its exact payoffs, and in the labor
matrices, which share each worker's scans by type. An audit
report reads back from its JSON exactly, through the readers below, and
generic `analyze` on a random game written as a config prints what the
reference engine finds.
The games are drawn with large, pairwise coprime denominators so that the
engine's integer tables are built over large LCMs. Every verdict and bid
payoff of the labor scenario follows the paper's closed forms at random
rational parameters, window edges and skewed priors included, the separating
report judges the bid game as the reference engine does, and no labor
report depends on the prior. A scenario's cost-free gains judge every
misreporting cost as that cost's own direct game does, its break-even cost
is half the wage at every prior, and a sweep, which
builds one scenario per wage, prints every cell as that cell's own scenario
answers it."""

import contextlib
import io
import itertools
import json
import random
import tempfile
from dataclasses import replace
from fractions import Fraction

import reference_engine as ref
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from payoff_probe import (
    compiled_implements,
    compiled_payoff,
    compiled_verdict,
    expost_game,
    expost_slices,
    slices_game,
)
from test_auditor import reference_chain
from test_equilibrium import scans
from test_goldens import oracle_row

from revaudit.auditor import (
    AuditReport,
    BreakPoint,
    ProofChainRecord,
    _rule_scf,
    audit_revelation_principle,
    direct_game,
    is_truthfully_implementable,
    misreport_gains,
)
from revaudit.cli import main
from revaudit.core import (
    CostModel,
    Mechanism,
    Outcome,
    SocialChoiceFunction,
    TypeSpace,
    UtilityTable,
    rational_str,
)
from revaudit.equilibrium import (
    BayesianGame,
    Deviation,
    EquilibriumVerdict,
    NormalFormGame,
    PureStrategy,
    StrategyProfile,
    _equilibrium_plans,
    _profile,
    _rule,
    find_all_pure_bne,
)
from revaudit.labor import (
    BID_HIGH,
    BID_ZERO,
    DEFAULT_PRIOR_HIGH,
    HIRING_RULE,
    SEPARATING_PROFILE,
    TYPE_HIGH,
    TYPE_LOW,
    LaborParams,
    build_scenario,
    case_matrices,
    check_separating_equilibrium,
    check_truthful_reporting,
)
from revaudit.serialize import (
    audit_report_to_jsonable,
    json_dumps,
    separating_report_to_jsonable,
    truthfulness_report_to_jsonable,
)

PRIMES = (7919, 104723, 999983, 1000003, 2147483647)
# No shrinking: with these wide rationals a failing example took minutes and
# gigabytes to shrink, so a failure is reported as first found.
SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)


def rationals(low=-(10**6)):
    return st.builds(Fraction, st.integers(low, 10**6), st.sampled_from(PRIMES))


@st.composite
def games(draw, misreportable=False):
    """A random game; with `misreportable`, some agent has two types and
    there are two outcomes or more, so some misreport can move the outcome."""
    agents = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 2)) for _ in range(agents)]
    if misreportable and max(sizes) == 1:
        sizes[draw(st.integers(0, agents - 1))] = 2
    types_of = tuple(tuple(f"t{k}" for k in range(n)) for n in sizes)
    actions_of = tuple(
        tuple(f"a{k}" for k in range(draw(st.integers(1, 3 if agents < 3 else 2))))
        for _ in range(agents)
    )
    priors = []
    for ts in types_of:
        weights = [draw(st.integers(1, 10**4)) for _ in ts]
        priors.append({t: Fraction(w, sum(weights)) for t, w in zip(ts, weights)})
    outcomes = [Outcome(f"x{k}") for k in range(draw(st.integers(1 + misreportable, 3)))]
    outcome_of = {
        p: outcomes[draw(st.integers(0, len(outcomes) - 1))]
        for p in itertools.product(*actions_of)
    }
    utility = {
        (i, x.label, t): draw(rationals())
        for i in range(agents) for x in outcomes for t in types_of[i]
    }
    strategic = {
        (i, a, t): draw(rationals(low=0))
        for i in range(agents) for a in actions_of[i] for t in types_of[i]
    }
    return BayesianGame(
        Mechanism(actions_of, outcome_of),
        TypeSpace(types_of, tuple(priors)),
        UtilityTable(utility),
        CostModel(strategic=strategic),
    )


def rescaled(game, k):
    return BayesianGame(
        game.mechanism,
        game.type_space,
        UtilityTable({key: k * v for key, v in game.utilities.table.items()}),
        CostModel(strategic={key: k * v for key, v in game.costs.strategic.items()}),
    )


def shifted(game, shift):
    utility = {(i, x, t): v + shift[(i, t)] for (i, x, t), v in game.utilities.table.items()}
    return BayesianGame(game.mechanism, game.type_space, UtilityTable(utility), game.costs)


def and_cost_free(game, other):
    """The two games, then their cost-free copies: a property of profits
    holds for utilities too, which are the profits of the cost-free game."""
    return (game, other), (ref.cost_free(game), ref.cost_free(other))


def scaled_verdict(verdict, k):
    if verdict.witness is None:
        return verdict
    w = verdict.witness
    return EquilibriumVerdict(Deviation(w.agent, w.type_label, w.action, k * w.gain))


@SETTINGS
@given(games(), rationals(low=1))
def test_scaling_utilities_and_costs_scales_only_the_gains(game, k):
    profiles = ref.profiles(game)
    for game, other in and_cost_free(game, rescaled(game, k)):
        assert find_all_pure_bne(other) == find_all_pure_bne(game)
        for profile in profiles:
            verdict = compiled_verdict(game, profile)
            assert compiled_verdict(other, profile) == scaled_verdict(verdict, k)
            for agent, types in enumerate(game.type_space.types_of):
                for t in types:
                    assert compiled_payoff(other, profile, agent, t) == (
                        k * compiled_payoff(game, profile, agent, t)
                    )


@SETTINGS
@given(games(), st.data())
def test_a_constant_per_agent_and_type_changes_no_verdict(game, data):
    shift = {
        (i, t): data.draw(rationals())
        for i, types in enumerate(game.type_space.types_of) for t in types
    }
    profiles = ref.profiles(game)
    for game, other in and_cost_free(game, shifted(game, shift)):
        assert find_all_pure_bne(other) == find_all_pure_bne(game)
        for profile in profiles:
            assert compiled_verdict(other, profile) == compiled_verdict(game, profile)
            for agent, types in enumerate(game.type_space.types_of):
                for t in types:
                    assert compiled_payoff(other, profile, agent, t) == (
                        compiled_payoff(game, profile, agent, t) + shift[(agent, t)]
                    )


@SETTINGS
@given(games())
def test_with_every_cost_zero_each_equilibrium_rule_is_truthful(game):
    # Myerson (1979): a type reporting another gets what that type's
    # equilibrium action gets, which the equilibrium says is no better.
    free = ref.cost_free(game)
    for profile in find_all_pure_bne(free):
        direct = direct_game(free, ref.induced_scf(free, profile))
        assert is_truthfully_implementable(direct).is_equilibrium


def played_labels(game, profile):
    """The outcome label a profile realizes at each type profile, by brute force."""
    rule = ref.induced_scf(game, profile)
    return [rule.outcome_of[theta].label for theta in game.type_space.profiles()]


@SETTINGS
@given(games())
def test_the_rule_of_each_equilibrium_plan_is_the_rule_its_labels_play(game):
    # The engine plays a plan out on outcome positions (`_rule`); the oracle
    # reads labels. Its play-out against a rule (`_implements`) is compared
    # over every profile, those that play the rule and those that do not.
    profiles = ref.profiles(game)
    played = [played_labels(game, p) for p in profiles]
    for game in (game, ref.cost_free(game)):
        plans = _equilibrium_plans(game)
        assert [_profile(game, plan) for plan in plans] == find_all_pure_bne(game)
        for plan in plans:
            induced = ref.induced_scf(game, _profile(game, plan))
            assert _rule_scf(game, _rule(game, plan)) == induced
            verdicts = [compiled_implements(game, p, induced) for p in profiles]
            expected = played_labels(game, _profile(game, plan))
            assert verdicts == [rule == expected for rule in played]


def with_misreport_costs(game, data):
    """The game with random non-negative misreport costs drawn from `data`."""
    ts = game.type_space
    misreport = {
        (i, t, r): data.draw(rationals(low=0))
        for i, types in enumerate(ts.types_of) for t in types for r in types if r != t
    }
    return BayesianGame(
        game.mechanism, ts, game.utilities, CostModel(game.costs.strategic, misreport)
    )


@st.composite
def rules_a_report_moves(draw, game):
    """A random rule over the game's outcomes in which the report of some
    two-type agent moves the outcome at some type profile, so that some
    misreport changes what the agent gets. The game must have a two-type
    agent and two outcomes or more, as `games(misreportable=True)` draws."""
    ts = game.type_space
    outcomes = [Outcome(x) for x in sorted({x for _, x, _ in game.utilities.table})]
    table = {theta: draw(st.sampled_from(outcomes)) for theta in ts.profiles()}
    agent = draw(st.sampled_from([i for i, types in enumerate(ts.types_of) if len(types) == 2]))
    theta = draw(st.sampled_from(ts.profiles()))
    mimic = list(theta)
    mimic[agent] = next(t for t in ts.types_of[agent] if t != theta[agent])
    table[tuple(mimic)] = draw(st.sampled_from([x for x in outcomes if x != table[theta]]))
    return SocialChoiceFunction(ts.types_of, table)


@SETTINGS
@given(games(misreportable=True), st.data())
def test_the_audit_judges_truth_telling_as_the_engines_do(game, data):
    # The audit and `is_truthfully_implementable` read truth-telling from the
    # compiled direct game; the reference engine computes its profits by
    # label. The drawn rule lets some misreport move the outcome. Even so,
    # truth-telling seldom fails at the drawn prices, so the check runs
    # again with every price divided by a large prime, where it often fails
    # and the prices size the witness.
    game = with_misreport_costs(game, data)
    ts = game.type_space
    rule = data.draw(rules_a_report_moves(game))
    profile = data.draw(st.sampled_from(ref.profiles(game)))
    cut = data.draw(st.sampled_from(PRIMES))
    cheap = {key: v / cut for key, v in game.costs.misreport.items()}
    cheap = BayesianGame(game.mechanism, ts, game.utilities, CostModel(game.costs.strategic, cheap))
    truthful = StrategyProfile.from_maps({t: t for t in types} for types in ts.types_of)
    for priced in (game, cheap):
        direct = direct_game(priced, rule)
        report = audit_revelation_principle(priced, profile, direct)
        expected = ref.is_bayesian_nash(direct, truthful)
        assert is_truthfully_implementable(direct) == expected
        assert EquilibriumVerdict(report.truthful_witness) == expected


@SETTINGS
@given(games(misreportable=True), st.data())
def test_the_cost_free_gains_judge_any_schedule_as_the_engine_does(game, data):
    # The gains are read once, from the direct game at the drawn schedule;
    # truth-telling holds under another schedule when no gain exceeds its
    # price there. The engine judges each schedule's own direct game: with
    # every price at its gain (where truth holds, weakly), with one positive
    # gain priced below it, and at a fresh random schedule.
    game = with_misreport_costs(game, data)
    rule = data.draw(rules_a_report_moves(game))
    gains = misreport_gains(direct_game(game, rule))
    at_gain = {key: max(gain, Fraction(0)) for key, gain in gains.items()}
    schedules = [at_gain, with_misreport_costs(game, data).costs.misreport]
    positive = [key for key, gain in gains.items() if gain > 0]
    if positive:
        key = data.draw(st.sampled_from(positive))
        schedules.append({**at_gain, key: gains[key] * data.draw(unit_fractions())})
    for schedule in schedules:
        costs = CostModel(game.costs.strategic, schedule)
        priced = BayesianGame(game.mechanism, game.type_space, game.utilities, costs)
        expected = is_truthfully_implementable(direct_game(priced, rule)).is_equilibrium
        assert all(gain <= schedule.get(key, 0) for key, gain in gains.items()) == expected


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_expost_payoffs_are_utility_minus_strategic_cost(agents, seed):
    # A reference game, priced with random misreport costs, and the direct
    # game of a random rule over its outcomes, which charges those costs as
    # report prices. The engine reads each payoff from the compiled tables;
    # the oracle looks it up by label.
    priced, rule = ref.random_priced_game(random.Random(seed), agents)
    ts = priced.type_space
    for played in (priced, direct_game(priced, rule)):
        for theta in ts.profiles():
            assert expost_game(played, theta).payoffs == ref.expost_payoffs(played, theta)


@st.composite
def normal_forms(draw):
    """A normal-form game of 1..3 agents with 1..3 actions each, and int
    payoffs from 0 to 2, so that ties and weak dominance are common."""
    agents = draw(st.integers(1, 3))
    actions_of = tuple(
        tuple(f"a{k}" for k in range(draw(st.integers(1, 3)))) for _ in range(agents)
    )
    payoffs = {
        p: tuple(draw(st.integers(0, 2)) for _ in range(agents))
        for p in itertools.product(*actions_of)
    }
    return NormalFormGame(actions_of, payoffs)


@settings(SETTINGS, max_examples=200)
@given(normal_forms())
def test_the_nash_and_dominance_scans_match_brute_force(nf):
    nash, dominant = scans(nf.actions_of, nf.payoffs)
    assert nash == ref.pure_nash(nf)
    assert dominant == [ref.dominant_action(nf, i) for i in range(len(nf.actions_of))]


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_an_expost_game_is_the_game_its_payoffs_declare(agents, seed):
    # The same games as in test_expost_payoffs_are_utility_minus_strategic_cost.
    # The scans read the slices, ints on each agent's own scale; brute force
    # on the ex-post game's exact payoffs finds the same profiles and actions.
    priced, rule = ref.random_priced_game(random.Random(seed), agents)
    ts = priced.type_space
    for played in (priced, direct_game(priced, rule)):
        actions_of = played.mechanism.actions_of
        for theta in ts.profiles():
            slices = expost_slices(played, theta)
            nf = slices_game(played, slices)
            payoffs = dict(zip(itertools.product(*actions_of), zip(*slices)))
            nash, dominant = scans(actions_of, payoffs)
            assert nash == ref.pure_nash(nf)
            assert dominant == [ref.dominant_action(nf, i) for i in range(len(actions_of))]


def positive_rationals():
    return st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**3))


def unit_fractions():
    """Rationals strictly between 0 and 1."""
    return st.builds(lambda n, d: Fraction(n, n + d), st.integers(1, 10**3), st.integers(1, 10**3))


@st.composite
def labor_params(draw):
    """Random rational labor parameters. The wage is drawn at either window
    edge, inside the window or anywhere; the misreporting cost at 0, at
    half the wage, below it or above it; the prior often skewed."""
    theta_L = draw(positive_rationals())
    theta_H = theta_L + draw(positive_rationals())
    e_H = draw(positive_rationals())
    lo, hi = 2 * e_H / theta_H, 2 * e_H / theta_L
    w = draw(st.one_of(
        st.sampled_from([lo, hi]),
        unit_fractions().map(lambda k: lo + k * (hi - lo)),
        positive_rationals(),
    ))
    half = w / 2
    c_mis = draw(st.one_of(
        st.sampled_from([Fraction(0), half]),
        unit_fractions().map(lambda k: k * half),
        positive_rationals().map(lambda k: half + k),
    ))
    prior_high = draw(st.one_of(
        st.sampled_from([Fraction(1, 1000), Fraction(999, 1000)]), unit_fractions()
    ))
    return LaborParams(theta_L, theta_H, e_H, w, c_mis, prior_high)


@settings(SETTINGS, max_examples=50)
@given(labor_params())
def test_the_case_matrices_share_what_each_game_scans_alone(params):
    # case_matrices finds each worker's best replies and dominant report once
    # per true type and shares them by the two cases that hold it; brute
    # force on each case's payoffs, looked up by label, gives the same game
    # and the same answers.
    scenario = build_scenario(params)
    reports = scenario.direct.mechanism.actions_of
    for m in case_matrices(scenario):
        nf = NormalFormGame(reports, ref.expost_payoffs(scenario.direct, m.true_types))
        assert m.game == nf
        assert m.dominant == tuple(ref.dominant_action(nf, i) for i in (0, 1))
        assert m.pure_nash == tuple(ref.pure_nash(nf))


@settings(SETTINGS, max_examples=200)
@given(labor_params())
def test_the_labor_verdicts_follow_the_closed_forms(params):
    # Proposition 4 of the source paper and its wage window, derived here
    # from the parameters alone.
    w, c_mis = params.w, params.c_mis
    lo, hi = 2 * params.e_H / params.theta_H, 2 * params.e_H / params.theta_L
    scenario = build_scenario(params)
    separating = check_separating_equilibrium(scenario)
    truthful = check_truthful_reporting(scenario)
    # Weak inequalities keep both window edges; `in_window` is the open interval.
    closed = lo <= w <= hi
    assert separating.separating_is_bne == closed
    assert scenario.audit.chain.equilibrium_inequalities_hold == closed
    assert separating.in_window == (lo < w < hi)
    assert separating.ir_margin == w / 2 - params.e_H / params.theta_H
    # A low type gains w/2 by reporting high, whatever the prior, and pays c_mis.
    below = c_mis < w / 2
    witness = Deviation(0, TYPE_LOW, TYPE_HIGH, w / 2 - c_mis) if below else None
    assert truthful.truthful_witness == witness
    assert truthful.unique_bne_all_report_high == below
    assert scenario.audit.violation == (closed and below)
    if closed:
        assert scenario.audit.chain.break_point == BreakPoint(0, TYPE_LOW, TYPE_HIGH, w / 2)
    # Each bid's profit against the separating opponent: the high bid wins
    # outright over a zero bid and ties with a high one, and costs e_H/theta.
    cost_L, cost_H = params.e_H / params.theta_L, params.e_H / params.theta_H
    expected = [
        (1, TYPE_LOW, TYPE_LOW, w - cost_L, w / 2),
        (2, TYPE_LOW, TYPE_HIGH, w / 2 - cost_L, 0),
        (3, TYPE_HIGH, TYPE_LOW, w - cost_H, w / 2),
        (4, TYPE_HIGH, TYPE_HIGH, w / 2 - cost_H, 0),
    ]
    cases = separating.best_response_cases
    assert [
        (c.case, c.own_type, c.opponent_type, c.payoff_bid_high, c.payoff_bid_zero) for c in cases
    ] == expected
    for c in cases:
        high, zero = c.payoff_bid_high, c.payoff_bid_zero
        assert c.optimal_bid == (None if high == zero else BID_HIGH if high > zero else BID_ZERO)


@SETTINGS
@given(labor_params())
def test_the_separating_report_judges_as_the_reference_engine(params):
    # The report reads the scenario's audit and the bid game's rows the audit
    # kept, and plays a non-equilibrium out on its own; the reference engine
    # judges the bid game by label.
    scenario = build_scenario(params)
    report = check_separating_equilibrium(scenario)
    game = scenario.game
    expected = ref.is_bayesian_nash(game, SEPARATING_PROFILE)
    assert report.bne_witness == expected.witness
    assert report.implements_rule == (ref.induced_scf(game, SEPARATING_PROFILE) == HIRING_RULE)
    assert report.separating_is_bne == scenario.audit.chain.equilibrium_inequalities_hold
    assert report.separating_is_bne == expected.is_equilibrium


@SETTINGS
@given(labor_params(), positive_rationals())
def test_a_labor_scenario_prices_each_cost_as_that_costs_direct_game(params, above):
    # One scenario's cost-free gains judge truth-telling at every cost as the
    # engine judges the direct game built at that cost: at the gain w/2, just
    # below it, at 0 and above it, at the drawn prior and at the even one.
    half = params.w / 2
    costs = (half, half * Fraction(10**6 - 1, 10**6), Fraction(0), half + above)
    for prior_high in (params.prior_high, DEFAULT_PRIOR_HIGH):
        params = replace(params, prior_high=prior_high)
        scenario = build_scenario(params)
        for c in costs:
            direct = build_scenario(replace(params, c_mis=c)).direct
            assert scenario.truthful_at(c) == is_truthfully_implementable(direct).is_equilibrium


@SETTINGS
@given(labor_params(), unit_fractions())
def test_the_break_even_cost_is_half_the_wage(params, prior_high):
    # The threshold of the paper's Proposition 4: a low type gains w/2 by
    # reporting high at every prior, and a high type loses by reporting low,
    # so truth-telling holds exactly from c_mis = w/2 on. At the canonical
    # w = 3/2 that is 3/4, between reproduce-paper's failing 7/10 and its
    # restoring 19/25.
    for params in (params, replace(params, prior_high=prior_high)):
        scenario = build_scenario(params)
        half = params.w / 2
        assert scenario.break_even == half
        for c in (params.c_mis, half, half * Fraction(10**6 - 1, 10**6)):
            assert scenario.truthful_at(c) == (c >= half)


def labor_json(params):
    """Every labor report `analyze` prints but the parameters, as JSON."""
    scenario = build_scenario(params)
    return json_dumps({
        "separating": separating_report_to_jsonable(check_separating_equilibrium(scenario)),
        "truthful": truthfulness_report_to_jsonable(
            check_truthful_reporting(scenario), case_matrices(scenario)
        ),
        "audit": audit_report_to_jsonable(scenario.audit),
    })


@SETTINGS
@given(labor_params(), st.lists(unit_fractions(), min_size=3, max_size=3))
def test_no_labor_report_depends_on_the_prior(params, priors):
    # Against a separating or truthful opponent every deviation gains the
    # same at each opponent type, so the prior weights cancel: the paper's
    # verdicts, witnesses, matrices and break point hold at every prior.
    expected = labor_json(params)
    for prior_high in priors:
        assert labor_json(replace(params, prior_high=prior_high)) == expected


@st.composite
def sweep_grids(draw):
    """A random sweep grid: its fixed parameters, prior_high among them or
    left at its default, its wages and its costs. Wages are drawn at either
    window edge, inside the window, anywhere, at 0 or below it. Costs come
    from a small pool, so a row often repeats one: 0, half of either edge
    wage and a point between (where truth-telling turns for window wages), a
    random cost, and a negative one, which may open a row so that its
    scenario is built at a later cost."""
    theta_L = draw(positive_rationals())
    theta_H = theta_L + draw(positive_rationals())
    e_H = draw(positive_rationals())
    lo, hi = 2 * e_H / theta_H, 2 * e_H / theta_L
    wages = st.one_of(
        st.sampled_from([lo, hi, Fraction(0), -lo]),
        unit_fractions().map(lambda k: lo + k * (hi - lo)),
        positive_rationals(),
    )
    pool = [Fraction(-1), Fraction(0), lo / 2, (lo + hi) / 4, hi / 2, draw(positive_rationals())]
    w_values = draw(st.lists(wages, min_size=1, max_size=4))
    c_mis_values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    prior_high = draw(st.none() | unit_fractions())
    fixed = {"theta_L": theta_L, "theta_H": theta_H, "e_H": e_H}
    if prior_high is not None:
        fixed["prior_high"] = prior_high
    return fixed, w_values, c_mis_values


def main_json(command, cfg, *options):
    """The exit code and printed JSON of a command on a config."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = f"{tmp}/config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        code = main([command, path, *options])
    return code, json.loads(out.getvalue())


def sweep_json(fixed, w_values, c_mis_values):
    """The rows `sweep --format json` prints for a grid."""
    grid = {
        "kind": "sweep",
        "w_values": [rational_str(w) for w in w_values],
        "c_mis_values": [rational_str(c) for c in c_mis_values],
        "fixed": {key: rational_str(v) for key, v in fixed.items()},
    }
    code, rows = main_json("sweep", grid, "--format", "json")
    assert code == 0
    return rows


@settings(SETTINGS, max_examples=60)
@given(sweep_grids())
def test_a_sweep_prints_each_cell_as_its_own_scenario_answers(grid):
    # The sweep shares one scenario and audit across a wage's costs; the
    # oracle builds every valid cell's scenario and reads the engine's
    # verdicts on it, so a verdict carried over from another cost shows.
    fixed, w_values, c_mis_values = grid
    rows = sweep_json(fixed, w_values, c_mis_values)
    assert rows == [oracle_row(w, c, fixed) for w in w_values for c in c_mis_values]


def profile_from_jsonable(data) -> StrategyProfile:
    return StrategyProfile(
        tuple(PureStrategy(e["agent"], tuple((t, a) for t, a in e["choice"])) for e in data)
    )


def deviation_from_jsonable(data) -> Deviation | None:
    if data is None:
        return None
    return Deviation(data["agent"], data["type"], data["action"], Fraction(data["gain"]))


def chain_from_jsonable(data) -> ProofChainRecord:
    bp = data["break_point"]
    return ProofChainRecord(
        vacuous=data["vacuous"],
        equilibrium_inequalities_hold=data["equilibrium_inequalities_hold"],
        mimicry_inequalities_hold=data["mimicry_inequalities_hold"],
        costfree_truthful_inequalities_hold=data["costfree_truthful_inequalities_hold"],
        break_point=None
        if bp is None
        else BreakPoint(bp["agent"], bp["type"], bp["mimicked_type"], Fraction(bp["costfree_gain"])),
    )


def audit_report_from_jsonable(data) -> AuditReport:
    """The report a rendered audit report holds. Its `truthful_is_bne` and
    `violation` are derived from the rest, so they are not read."""
    return AuditReport(
        indirect_equilibrium=profile_from_jsonable(data["indirect_equilibrium"]),
        implemented=data["implemented"],
        truthful_witness=deviation_from_jsonable(data["truthful_witness"]),
        chain=chain_from_jsonable(data["chain"]),
    )


@SETTINGS
@given(games(), st.data())
def test_an_audit_report_reads_back_from_its_json(game, data):
    profile = data.draw(st.sampled_from(ref.profiles(game)))
    direct = direct_game(game, ref.induced_scf(game, profile))
    report = audit_revelation_principle(game, profile, direct)
    rendered = json.loads(json_dumps(audit_report_to_jsonable(report)))
    assert audit_report_from_jsonable(rendered) == report
    assert rendered["truthful_is_bne"] == report.truthful_is_bne
    assert rendered["violation"] == report.violation


# Random games for `analyze` end to end have at most this many profiles, so
# the reference engine's search over all of them stays quick.
ANALYZE_MAX_PROFILES = 64


def reference_selection(game, rule, equilibria):
    """The profile `analyze` audits without a declared one, and its source:
    the first equilibrium that plays the rule out, else the first
    equilibrium, else the first profile."""
    for profile in equilibria:
        if ref.induced_scf(game, profile) == rule:
            return profile, "first equilibrium implementing the rule"
    if equilibria:
        return equilibria[0], "first equilibrium"
    return ref.profiles(game)[0], "first enumerated profile"


def check_generic_analyze(rng: random.Random) -> None:
    """`analyze` a random priced game and rule from `rng`, written as a
    generic config with its rows shuffled, once with a random declared
    profile and once without. Its exit code and JSON must be the reference
    engine's: the audited profile and its source, `implemented`, the
    truthful witness in a direct game built here from the rule and the
    transposed misreport schedule, the proof chain (`reference_chain`), the
    violation, and exit code 2 exactly when there is one."""
    game, rule = ref.random_priced_game(rng, rng.randint(1, 3), ANALYZE_MAX_PROFILES)
    ts, mech = game.type_space, game.mechanism
    prices = {(i, r, t): v for (i, t, r), v in game.costs.misreport.items()}
    direct = BayesianGame(Mechanism(ts.types_of, rule.outcome_of), ts, game.utilities,
                          CostModel(prices))
    truth = StrategyProfile.from_maps({t: t for t in types} for types in ts.types_of)
    witness = ref.is_bayesian_nash(direct, truth).witness
    plan = [[rng.randrange(len(actions)) for _ in types]
            for types, actions in zip(ts.types_of, mech.actions_of)]
    for declared in (plan, None):
        cfg = ref.generic_config(game, rule, declared, rng)
        if declared is None:
            profile, source = reference_selection(game, rule, ref.find_all_pure_bne(game))
        else:
            profile, source = StrategyProfile.from_maps(cfg["profile"]), "declared"
        implemented = (ref.is_bayesian_nash(game, profile).is_equilibrium
                       and ref.induced_scf(game, profile) == rule)
        chain = reference_chain(game, profile, rule)
        expected = AuditReport(profile, implemented, witness, chain)
        code, data = main_json("analyze", cfg)
        assert data.keys() == {"kind", "profile_source", "audit"}
        assert (data["kind"], data["profile_source"]) == ("generic", source)
        assert audit_report_from_jsonable(data["audit"]) == expected
        audit = data["audit"]
        assert (audit["truthful_is_bne"], audit["violation"]) == (witness is None, expected.violation)
        assert code == (2 if expected.violation else 0)


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_generic_analyze_reports_what_the_reference_engine_finds(seed):
    # 40 random configs (SETTINGS), each analyzed with and without a
    # declared profile; CI runs the same check on 500 configs at each of
    # seeds 1 and 2.
    check_generic_analyze(random.Random(seed))


class Renaming:
    """A bijection of type labels, one of action labels and one of outcome
    labels, applied to games, rules, profiles and audit reports. Declared
    orders are kept, so enumeration order is too; the new labels, drawn as
    a permutation, may sort in another order than the old ones."""

    def __init__(self, types, actions, outcomes):
        self.types, self.actions, self.outcomes = types, actions, outcomes

    def labels(self, lists, names):
        return tuple(tuple(names[x] for x in labels) for labels in lists)

    def outcome(self, x):
        return Outcome(self.outcomes[x.label], x.payload)

    def game(self, game):
        ts, mech, costs = game.type_space, game.mechanism, game.costs
        ty, ac, ox = self.types, self.actions, self.outcomes
        return BayesianGame(
            Mechanism(
                self.labels(mech.actions_of, ac),
                {tuple(ac[a] for a in p): self.outcome(x) for p, x in mech.outcome_of.items()},
            ),
            TypeSpace(
                self.labels(ts.types_of, ty),
                tuple({ty[t]: v for t, v in prior.items()} for prior in ts.prior_of),
            ),
            UtilityTable({(i, ox[x], ty[t]): v for (i, x, t), v in game.utilities.table.items()}),
            CostModel(
                {(i, ac[a], ty[t]): v for (i, a, t), v in costs.strategic.items()},
                {(i, ty[t], ty[r]): v for (i, t, r), v in costs.misreport.items()},
            ),
        )

    def rule(self, scf):
        ty = self.types
        return SocialChoiceFunction(
            self.labels(scf.actions_of, ty),
            {tuple(ty[t] for t in theta): self.outcome(x) for theta, x in scf.outcome_of.items()},
        )

    def profile(self, profile):
        ty, ac = self.types, self.actions
        return StrategyProfile.from_maps(
            {ty[t]: ac[a] for t, a in s.choice} for s in profile.strategies
        )

    def report(self, report):
        # In the direct game a deviation's action is a reported type.
        ty, w, bp = self.types, report.truthful_witness, report.chain.break_point
        return replace(
            report,
            indirect_equilibrium=self.profile(report.indirect_equilibrium),
            truthful_witness=w and replace(w, type_label=ty[w.type_label], action=ty[w.action]),
            chain=replace(
                report.chain,
                break_point=bp and replace(
                    bp, type_label=ty[bp.type_label], mimicked_type=ty[bp.mimicked_type]
                ),
            ),
        )


def permuted(game, order):
    """The game with old agent `order[j]` renumbered as agent j."""
    new = {old: j for j, old in enumerate(order)}
    mech, ts, costs = game.mechanism, game.type_space, game.costs
    return BayesianGame(
        Mechanism(
            tuple(mech.actions_of[i] for i in order),
            {tuple(p[i] for i in order): x for p, x in mech.outcome_of.items()},
        ),
        TypeSpace(tuple(ts.types_of[i] for i in order), tuple(ts.prior_of[i] for i in order)),
        UtilityTable({(new[i], x, t): v for (i, x, t), v in game.utilities.table.items()}),
        CostModel(
            {(new[i], a, t): v for (i, a, t), v in costs.strategic.items()},
            {(new[i], t, r): v for (i, t, r), v in costs.misreport.items()},
        ),
    )


def permuted_profile(profile, order):
    return StrategyProfile.from_maps(dict(profile.strategies[i].choice) for i in order)


@SETTINGS
@given(games(), st.data())
def test_permuting_agents_permutes_the_equilibria(game, data):
    order = data.draw(st.permutations(range(game.agent_count)))
    for game, other in and_cost_free(game, permuted(game, order)):
        found = find_all_pure_bne(game)
        others = find_all_pure_bne(other)
        # Enumeration order follows agent order, so only the sets match.
        assert len(others) == len(found)
        assert set(others) == {permuted_profile(p, order) for p in found}


def renaming(data, labels, pool):
    return dict(zip(sorted(labels), data.draw(st.permutations(pool))))


@SETTINGS
@given(games(), st.data())
def test_renaming_labels_renames_every_verdict(game, data):
    game = with_misreport_costs(game, data)
    ts = game.type_space
    rename = Renaming(
        renaming(data, {t for types in ts.types_of for t in types}, ["w", "v", "u"]),
        renaming(data, {a for acts in game.mechanism.actions_of for a in acts}, ["s", "r", "q"]),
        renaming(data, {x for _, x, _ in game.utilities.table}, ["p", "o", "n"]),
    )
    other = rename.game(game)
    for one, renamed in and_cost_free(game, other):
        assert find_all_pure_bne(renamed) == [rename.profile(p) for p in find_all_pure_bne(one)]
    profiles = ref.profiles(game)
    scf = ref.induced_scf(game, data.draw(st.sampled_from(profiles)))
    direct, other_direct = direct_game(game, scf), direct_game(other, rename.rule(scf))
    for profile in profiles:
        report = audit_revelation_principle(game, profile, direct)
        assert audit_revelation_principle(other, rename.profile(profile), other_direct) == (
            rename.report(report)
        )
