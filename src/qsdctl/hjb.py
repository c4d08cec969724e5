"""Discounted control up to extinction.

The value of a stationary control alpha at discount beta is
v(x) = E_x integral_0^tau exp(beta s) f(X_s, alpha(X_s)) ds, which on
the truncated chain solves the linear system

    (beta I + L_alpha) v = -f,    v(0) = 0,

solvable exactly when beta is below the control's extinction rate
(otherwise the integral is infinite and we refuse).  Positive and
negative beta are both fine.  Below the rate -(beta I + L_alpha) is a
nonsingular M-matrix, and the value comes from its unpivoted banded
LU, the factor solve_qsd uses at shift 0 (qsd._BandedFactor).

policy_iteration runs Howard's scheme: evaluate, then at every state
pick the action optimizing f + L v (ties to the lowest action index),
repeat until the policy is stable.  Each evaluation records the
iterate's extinction rate, so an infeasible discount surfaces as a
structured refusal rather than a numerical explosion.  Every action's
rate and cost formulas are evaluated once per run into an action table
(_ActionTable), and each iterate's generator and cost are gathered from
it, bit for bit what build_generator and the formulas give.  The table
remembers each control's generator and rate, so the rungs of a
discount ladder that share it (asymptotics.limit_theorem_check) solve
each control once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (InfeasibleBetaError, PolicyIterationError, SolverError)
from .generator import (TruncatedGenerator, _action_drift, _action_jumps,
                        _control_generator, _matvec, build_generator)
from .models import MarkovControl, ModelSpec
from .qsd import _BandedFactor, _residual_floor, solve_qsd

__all__ = [
    "ValueSolution", "PolicyIterationTrace", "IterationRecord",
    "TransversalityCheck", "evaluate_policy", "improve_policy",
    "policy_iteration", "hjb_residual", "verify_transversality",
]

@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    policy_changes: int
    value_delta: float      # sup-norm change against the previous value
    delta_up: float         # max of (v_new - v_old); signed
    delta_down: float       # min of (v_new - v_old); signed
    lam: float              # extinction rate of the evaluated policy


@dataclass(frozen=True)
class PolicyIterationTrace:
    records: tuple[IterationRecord, ...]
    termination: str        # "policy-stable" | "max-iter" | "evaluation-diverged"


@dataclass(frozen=True)
class TransversalityCheck:
    ok: bool
    margin: float           # lam(final policy) - beta
    lam: float


@dataclass(frozen=True, eq=False)
class ValueSolution:
    """Solution of one discounted problem: the value on {0..N} with
    v(0) = 0, the stationary policy realizing it, the max-norm defect
    of the optimality equation, and the iteration trace.  For mode=max
    the transversality check of the final policy is attached; the
    sup-norm bound is ||f||_inf times a computed resolvent bound."""

    v: np.ndarray
    policy: MarkovControl
    mode: str
    beta: float
    hjb_residual: float
    trace: PolicyIterationTrace
    sup_bound: float | None = None
    transversality: TransversalityCheck | None = None


def evaluate_policy(gen: TruncatedGenerator, cost: np.ndarray, beta: float,
                    lam: float | None = None,
                    _factor: _BandedFactor | None = None) -> np.ndarray:
    """Expected discounted cost until extinction under one policy.

    cost is the per-state vector on {0..N} with cost[0] = 0.  Refuses
    with InfeasibleBetaError when beta is not strictly below the
    policy's extinction rate (the integral is infinite there).  The
    extinction rate is solved on the spot unless passed in.  The value
    solves M v = f for M = -(beta I + A), a nonsingular M-matrix below
    the rate, by one unpivoted banded LU (qsd._BandedFactor at shift
    beta) and two triangular solves; a pivot that comes out not positive
    within rounding of the rate is a SolverError, never a refusal.
    Post: max-norm residual of the linear system <= 1e-10 (1 + |f|),
    up to the double-precision floor eps |A| |v| that dominates when
    beta sits within a hair of the extinction rate.
    """
    n = gen.level
    f = np.asarray(cost, dtype=float)
    if f.shape != (n + 1,):
        raise SolverError(f"cost vector must live on 0..{n}")
    if f[0] != 0.0:
        raise SolverError("cost at the absorbing state must be 0")
    if np.any(f < 0) or not np.all(np.isfinite(f)):
        raise SolverError("cost must be finite and >= 0")
    if lam is None:
        lam = solve_qsd(gen).lam
    if not beta < lam:
        raise InfeasibleBetaError(
            f"discount beta={beta:g} is not below the extinction rate "
            f"lam={lam:g} of this policy: the discounted cost is infinite",
            beta=beta, lam=lam)
    factor = _factor or _BandedFactor.of(gen, beta)
    v = np.zeros(n + 1)
    v[1:] = factor.solve(f[1:])
    rn = float(np.max(np.abs(f[1:] + beta * v[1:]
                             + _matvec(gen.death, gen.births, v[1:]))))
    contract = 1e-10 * (1.0 + float(np.max(f)))
    if rn > contract + _residual_floor(factor.norm, v):
        raise SolverError(
            f"linear solve residual {rn:.3e} exceeds contract "
            f"{contract:.3e}; system is singular to precision")
    return v


@dataclass(frozen=True, eq=False)
class _ActionTable:
    """Every action's cost (m, level) and jumps (_action_jumps) on
    1..level.  A control's generator and cost are gathered from them,
    build_generator's and _control_rates's to the bit, and its
    generator and extinction rate are kept once solved, so the rungs of
    a discount ladder that share a table solve each control once."""

    costs: np.ndarray
    jumps: np.ndarray
    solved: dict = field(default_factory=dict)

    def cost(self, control: MarkovControl) -> np.ndarray:
        """The control's cost vector on 0..level, cost[0] = 0."""
        level = self.costs.shape[1]
        f = np.zeros(level + 1)
        f[1:] = self.costs[control.assignment, np.arange(level)]
        return f

    def solve(self, control: MarkovControl):
        """The control's generator and extinction rate."""
        if control.assignment not in self.solved:
            gen = _control_generator(self.jumps, control.assignment)
            self.solved[control.assignment] = gen, solve_qsd(gen).lam
        return self.solved[control.assignment]


def _action_table(model: ModelSpec, level: int) -> _ActionTable:
    """The _ActionTable of the window 1..level, each formula evaluated
    once."""
    xs = np.arange(1, level + 1)
    costs = np.array([model._vector(model.cost, "cost", a, xs)
                      for a in range(model.num_actions)])
    return _ActionTable(costs, _action_jumps(model, level))


def _action_scores(table: _ActionTable, v: np.ndarray) -> np.ndarray:
    """scores[a, x-1] = f(x, a) + (L_a v)(x) on the truncated window."""
    return table.costs + _action_drift(table.jumps, v)


def _check_mode(mode: str):
    if mode not in ("min", "max"):
        raise SolverError(f"mode must be 'min' or 'max', got {mode!r}")


def improve_policy(model: ModelSpec, v: np.ndarray, beta: float,
                   mode: str, _table=None) -> MarkovControl:
    """One Howard improvement step: at each state pick the action
    optimizing f + L v.  beta plays no role in the argopt (the beta v
    term is action independent); it is accepted for interface symmetry.
    Ties break to the lowest action index."""
    _check_mode(mode)
    scores = _action_scores(_table or _action_table(model, len(v) - 1), v)
    idx = np.argmin(scores, axis=0) if mode == "min" else np.argmax(scores, axis=0)
    return MarkovControl(tuple(int(i) for i in idx))


def hjb_residual(model: ModelSpec, v: np.ndarray, beta: float,
                 mode: str, _table=None) -> np.ndarray:
    """Pointwise defect beta v(x) + opt_a [f(x,a) + (L_a v)(x)] on
    {1..N}; zero exactly at a solution of the optimality equation."""
    _check_mode(mode)
    scores = _action_scores(_table or _action_table(model, len(v) - 1), v)
    opt = scores.min(axis=0) if mode == "min" else scores.max(axis=0)
    return beta * v[1:] + opt


def _first_evaluable_constant(table: _ActionTable, beta: float):
    """Try constant policies in action order; return the first whose
    extinction rate lies above beta, with its generator and rate."""
    m, level = table.costs.shape
    rates = []
    for a in range(m):
        control = MarkovControl((a,) * level)
        gen, lam = table.solve(control)
        rates.append(lam)
        if beta < lam:
            return control, gen, lam
    raise InfeasibleBetaError(
        f"beta={beta:g} is not below the extinction rate of any constant "
        f"policy (best is {max(rates):g}); the truncated optimum cannot "
        "exceed the discount",
        beta=beta, lam=max(rates),
        diagnostic="beta exceeds truncated lambda-star")


def policy_iteration(model: ModelSpec, beta: float, mode: str,
                     tol: float = 1e-9, max_iter: int = 100,
                     level: int | None = None,
                     _table: _ActionTable | None = None) -> ValueSolution:
    """Howard policy iteration for the discounted problem.

    Starts from the first constant policy, in action order, whose
    extinction rate lies above beta, alternates exact evaluation and
    improvement, and stops when the policy repeats.  The exit residual
    of the optimality equation must come out below tol plus the
    double-precision floor eps |beta I + A| |v| of the final policy.  A
    discount at or above the extinction rate of every constant policy,
    or of an iterate along the way (then carrying the partial trace),
    raises InfeasibleBetaError; in min mode that is strong evidence beta
    exceeds the truncated optimal rate.

    Every rate the run reads comes from one _ActionTable of the window:
    the iterates' generators and costs, the improvement scores and the
    final residual.
    """
    _check_mode(mode)
    level = model.level if level is None else int(level)
    table = _table or _action_table(model, level)
    current, gen, lam = _first_evaluable_constant(table, beta)

    records: list[IterationRecord] = []
    v_prev = None
    v = None
    for it in range(1, max_iter + 1):
        factor = _BandedFactor.of(gen, beta)
        f = table.cost(current)
        v = evaluate_policy(gen, f, beta, lam=lam, _factor=factor)
        if v_prev is None:
            delta_up = delta_down = 0.0
            changes = level
        else:
            diff = v - v_prev
            delta_up = float(diff.max())
            delta_down = float(diff.min())
            changes = sum(
                1 for x, y in zip(current.assignment, previous.assignment)
                if x != y)
        records.append(IterationRecord(
            it, changes, max(abs(delta_up), abs(delta_down)),
            delta_up, delta_down, lam))
        improved = improve_policy(model, v, beta, mode, _table=table)
        if improved == current:
            break
        previous, current = current, improved
        v_prev = v
        gen, lam = table.solve(current)
        if not beta < lam:
            raise InfeasibleBetaError(
                f"iterate policy has extinction rate {lam:g} <= "
                f"beta={beta:g}", beta=beta, lam=lam,
                diagnostic=("beta exceeds truncated lambda-star"
                            if mode == "min"
                            else "beta not below extinction rate"),
                trace=PolicyIterationTrace(tuple(records),
                                           "evaluation-diverged"))
    else:
        raise PolicyIterationError(
            f"policy not stable after {max_iter} iterations",
            trace=PolicyIterationTrace(tuple(records), "max-iter"))

    residual = float(np.max(np.abs(
        hjb_residual(model, v, beta, mode, _table=table))))
    floor = _residual_floor(factor.norm, v)
    if residual > tol + floor:
        raise PolicyIterationError(
            f"stable policy found but optimality residual {residual:.3e} "
            f"exceeds tol {tol:.3e} plus the rounding floor {floor:.3e}",
            trace=PolicyIterationTrace(tuple(records), "policy-stable"))
    # resolvent sup bound: the unit-cost value dominates |v| / |f|
    ones = np.zeros(level + 1)
    ones[1:] = 1.0
    bound_vec = evaluate_policy(gen, ones, beta, lam=lam, _factor=factor)
    sup_bound = float(np.max(bound_vec)) * float(np.max(f))
    transversality = None
    if mode == "max":
        transversality = TransversalityCheck(lam > beta, lam - beta, lam)
    return ValueSolution(
        v=v, policy=current, mode=mode, beta=beta, hjb_residual=residual,
        trace=PolicyIterationTrace(tuple(records), "policy-stable"),
        sup_bound=sup_bound, transversality=transversality)


def verify_transversality(model: ModelSpec, solution: ValueSolution,
                          level: int | None = None) -> TransversalityCheck:
    """Check the final policy's extinction rate stays above beta; this
    is what legitimizes the maximizing value as an honest supremum."""
    level = (len(solution.v) - 1) if level is None else int(level)
    gen = build_generator(model, solution.policy.truncate(level), level)
    lam = solve_qsd(gen).lam
    return TransversalityCheck(lam > solution.beta, lam - solution.beta, lam)
