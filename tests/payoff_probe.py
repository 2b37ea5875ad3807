"""Single payoffs, read from the compiled engine.

The library reports verdicts and witnesses, not single payoffs. Tests that
pin a payoff, or compare the compiled tables with the reference engine,
read it from the engine's own rows and slices.
"""

from revaudit.equilibrium import _exact, _expost_game, _expost_slice, _interim_rows, _plan


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


def expost_game(game, true_types):
    """The complete-information profit game at a realized type profile, as
    `case_matrices` builds it from the slices."""
    return _expost_game(game, expost_slices(game, true_types))
