"""Single payoffs and single verdicts, read from the compiled engine.

The library reports verdicts and witnesses of the questions its commands
ask, not single payoffs, nor a verdict on any profile. Tests that pin a
payoff or a verdict, or compare the compiled tables with the reference
engine, read it from the engine's own rows, slices and play-outs: the
kernels the commands call.
"""

import itertools
from fractions import Fraction

from revaudit.auditor import direct_game
from revaudit.equilibrium import (
    EquilibriumVerdict,
    NormalFormGame,
    _exact,
    _expost_slice,
    _implements,
    _interim_rows,
    _largest_gain,
    _plan,
)


def compiled_payoff(game, profile, agent, type_label, action=None):
    """Interim expected profit of `agent` at `type_label` under `profile`,
    playing `action` there instead when it is given; opponents keep
    following the profile."""
    plan = _plan(game, profile)
    t = game.type_space.types_of[agent].index(type_label)
    a = plan[agent][t] if action is None else game.mechanism.actions_of[agent].index(action)
    return _exact(game, agent, _interim_rows(game, plan, agent)[t][a])


def expost_slices(game, true_types):
    """Each agent's ex-post profits at its true type, as `_expost_slice`
    gives them: ints on the agent's scale, in the walk's order."""
    types_of = game.type_space.types_of
    return [_expost_slice(game, i, types_of[i].index(t)) for i, t in enumerate(true_types)]


def slices_game(game, slices):
    """The normal-form game in which agent i's payoffs are `slices[i]`, as
    Fractions over the agent's scale, as `case_matrices` builds it."""
    actions_of, scale = game.mechanism.actions_of, game._tables.scale
    columns = [[Fraction(v, s) for v in values] for values, s in zip(slices, scale)]
    return NormalFormGame(actions_of, dict(zip(itertools.product(*actions_of), zip(*columns))))


def expost_game(game, true_types):
    """The complete-information profit game at a realized type profile, built
    from the slices as `case_matrices` builds it."""
    return slices_game(game, expost_slices(game, true_types))


def compiled_verdict(game, profile):
    """Is `profile` an equilibrium? The witness is the largest gain over
    every agent's interim rows, as the audit and the separating check find it."""
    plan = _plan(game, profile)
    rows_of = [_interim_rows(game, plan, i) for i in range(game.agent_count)]
    return EquilibriumVerdict(_largest_gain(game, plan, rows_of))


def compiled_implements(game, profile, scf):
    """Does playing `profile` reproduce the rule `scf` at every type profile?
    The rule is fitted to the game first, by `direct_game`, as every caller
    of `_implements` in the library does, so a rule over other reports is
    refused before any profile is played."""
    rule = direct_game(game, scf).mechanism
    return _implements(game, _plan(game, profile), rule)
