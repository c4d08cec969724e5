"""Oracles the tests compare the library against."""

import numpy as np

from qsdctl.errors import AllControlsInfeasibleError, InfeasibleBetaError
from qsdctl.generator import (_control_rates, build_generator,
                              enumerate_markov_controls)
from qsdctl.hjb import evaluate_policy
from qsdctl.models import MarkovControl, ModelSpec


def brute_force_value_opt(model: ModelSpec, beta: float, mode: str,
                          level: int | None = None, cap: int = 10 ** 6
                          ) -> tuple[np.ndarray, MarkovControl]:
    """Optimal discounted value by enumerating every stationary control
    and solving each linear system.  The optimum is taken pointwise at
    the initial state 1 (on these windows the optimal control turns out
    uniform in the initial state; the returned vector is the full value
    of the winning control).

    In min mode, controls whose extinction rate is at or below beta
    price at +infinity and drop out; if that removes all of them the
    refusal names the situation.  In max mode a single infeasible
    control makes the supremum infinite and the whole query is refused.
    """
    level = model.level if level is None else int(level)
    controls = list(enumerate_markov_controls(model, level, cap))

    def value_of(c: MarkovControl):
        gen = build_generator(model, c, level)
        try:
            cost = _control_rates(model, c, level, ("cost",))[1][0]
            return evaluate_policy(gen, cost, beta)
        except InfeasibleBetaError:
            return None

    values = [value_of(c) for c in controls]
    if mode == "max" and any(v is None for v in values):
        bad = controls[[i for i, v in enumerate(values) if v is None][0]]
        raise InfeasibleBetaError(
            f"control {bad.assignment} has extinction rate <= beta={beta:g}; "
            "the maximal discounted value is infinite", beta=beta)
    feasible = [(v, c) for v, c in zip(values, controls) if v is not None]
    if not feasible:
        raise AllControlsInfeasibleError(
            f"no stationary control on 1..{level} has extinction rate above "
            f"beta={beta:g}", beta=beta,
            diagnostic="beta exceeds truncated lambda-star")
    pick = min if mode == "min" else max
    v_best, c_best = pick(feasible, key=lambda vc: vc[0][1])
    return v_best, c_best
