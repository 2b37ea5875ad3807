"""One interim payoff, read from the compiled engine.

The library reports verdicts and witnesses, not single payoffs. Tests that
pin a payoff, or compare the compiled tables with the reference engine,
read it from the engine's own rows.
"""

from revaudit.equilibrium import _exact, _interim_rows, _plan


def compiled_payoff(game, profile, agent, type_label, action=None):
    """Interim expected profit of `agent` at `type_label` under `profile`,
    playing `action` there instead when it is given; opponents keep
    following the profile."""
    plan = _plan(game, profile)
    t = game.type_space.types_of[agent].index(type_label)
    a = plan[agent][t] if action is None else game.mechanism.actions_of[agent].index(action)
    return _exact(game, agent, _interim_rows(game, plan, agent)[t][a])
