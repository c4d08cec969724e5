"""Extremal extinction rates and near-frontier behaviour of the
discounted problem.

Three independent routes cross-check each other here:

* brute-force enumeration of every stationary control on a small
  window: rates and profiles by one stacked inverse iteration over the
  living blocks of all controls (equal to solve_qsd's to the bit);
* spectral policy iteration, which improves a control row by row on
  its quasi-stationary profile eta until a Collatz-Wielandt inequality
  certifies that no stationary control has a more extreme rate;
* the scaling limit (lam - beta) * v_beta(x) -> pi(f) eta(x), with
  (pi, eta) the stationary profile pair of a rate-extremal control,
  checked on a geometric ladder of discounts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBetaError, ModelError, SolverError
from .generator import (_action_drift, _action_jumps, _control_assignments,
                        _control_generator, _stacked_band,
                        enumerate_markov_controls)
from .hjb import _action_table, policy_iteration
from .models import MarkovControl, ModelSpec
from .qsd import _EPS, _solve_qsd_stacked, solve_qsd
from .simulate import (HistoryPolicy, MonteCarloEstimate, SimConfig,
                       _envelope_table, discounted_survival_integral,
                       simulate_thinning)

__all__ = [
    "RATE_TOL", "EnumerationResult",
    "brute_force_control_opt", "RateStep",
    "RateOptimum", "optimize_extinction_rate", "LimitCheck",
    "limit_theorem_check", "SpotCheck", "corollary_spot_check",
]

RATE_TOL = 1e-8


def _check_objective(objective: str):
    if objective not in ("max", "min"):
        raise ModelError(f"objective must be 'max' or 'min', got {objective!r}")


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """Exhaustive sweep over stationary controls on a window.  With
    keep_all, every control's rate, quasi-stationary law pi and profile
    eta (rows in enumeration order) come along."""

    objective: str
    lam: float
    control: MarkovControl
    count: int
    lams: np.ndarray | None = None               # per control, enum order
    controls: tuple[MarkovControl, ...] | None = None
    pis: np.ndarray | None = None                # (count, level)
    etas: np.ndarray | None = None               # (count, level)


# states per stacked factor in an enumeration: bounds the memory of one
# chunk of controls (a few arrays of this many states times k_max + 1)
_STACK_STATES = 1 << 15


def brute_force_control_opt(model: ModelSpec, objective: str = "max",
                            level: int | None = None, cap: int = 10 ** 6,
                            tol: float = 1e-10, keep_all: bool = False
                            ) -> EnumerationResult:
    """Extremal extinction rate by solving every stationary control on
    the window.  Ties break to the earliest control in enumeration
    order (all-zeros first).

    Each action's rates are evaluated once on the window and gathered
    per control; the controls' living blocks go in chunks of at most
    _STACK_STATES states into one stacked inverse iteration
    (qsd._solve_qsd_stacked), whose rates are solve_qsd's to the bit.
    """
    _check_objective(objective)
    level = model.level if level is None else int(level)
    # refuses an oversized window before any rate is evaluated
    controls = enumerate_markov_controls(model, level, cap)
    m = model.num_actions
    count = m ** level
    jumps = _action_jumps(model, level)
    lams = np.empty(count)
    pis = etas = None
    if keep_all:
        pis, etas = np.empty((count, level)), np.empty((count, level))
    chunk = max(1, _STACK_STATES // level)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        band = _stacked_band(
            jumps, _control_assignments(m, level, start, stop))
        lam, pi, eta, _ = _solve_qsd_stacked(*band, tol=tol)
        lams[start:stop] = lam
        if keep_all:
            pis[start:stop], etas[start:stop] = pi, eta
    best = int(np.argmax(lams)) if objective == "max" else int(np.argmin(lams))
    control = MarkovControl(
        tuple(_control_assignments(m, level, best, best + 1)[0]))
    return EnumerationResult(
        objective, float(lams[best]), control, count,
        lams if keep_all else None, tuple(controls) if keep_all else None,
        pis, etas)


# ---------------------------------------------------------------------
# spectral policy iteration

@dataclass(frozen=True)
class RateStep:
    lam: float                # extinction rate of the step's control
    control: MarkovControl


@dataclass(frozen=True, eq=False)
class RateOptimum:
    """Outcome of spectral policy iteration.  lam and control come from
    the iteration itself, steps from the controls it solved along its
    path, and slack and floor from its stopping certificate (slack <=
    floor); the enumeration fields are filled only when an independent
    exhaustive sweep was requested, so agreement between the two is a
    genuine cross-check and not a tautology."""

    objective: str
    lam: float
    control: MarkovControl
    steps: tuple[RateStep, ...]
    slack: float              # largest gain of any row switch at the end
    floor: float              # largest rounding floor of those gains
    enumeration_lam: float | None = None
    enumeration_control: MarkovControl | None = None

    @property
    def cross_check_gap(self) -> float | None:
        if self.enumeration_lam is None:
            return None
        return abs(self.lam - self.enumeration_lam)


def optimize_extinction_rate(model: ModelSpec, objective: str = "max",
                             level: int | None = None, *,
                             cross_check: bool = False,
                             cap: int = 10 ** 6) -> RateOptimum:
    """Extremal extinction rate over stationary controls, by spectral
    policy iteration (Howard & Matheson 1972; Protasov 2016).

    The action at state x fixes row x of the generator A, so controls
    are products of rows.  From the best constant control, solve (lam,
    eta) and switch each row x to the action a of largest (max) or
    smallest (min) slack (-A_a eta)(x) - lam eta(x), ties to the lowest
    index, where it beats the current row by more than the rounding
    floor 8 eps (sum_j r_a,j (eta(x) + eta(t_j)) + lam eta(x)).  By
    Collatz-Wielandt no switch moves lam against the objective, and on
    an irreducible window each moves it strictly, so a repeated control
    is a SolverError.  Where no row switches, -A_c eta <= lam eta (max;
    >= for min) for every stationary control c: no control has a larger
    (smaller) rate.  steps runs from the best constant control to the
    last; slack is the largest gain left at the end, floor the largest
    floor of those gains.
    """
    _check_objective(objective)
    level = model.level if level is None else int(level)
    sign = 1.0 if objective == "max" else -1.0
    jumps = _action_jumps(model, level)
    exits = jumps.sum(axis=2)
    rows = np.arange(level)
    consts = [model.constant_control(a, level)
              for a in range(model.num_actions)]
    sols = [solve_qsd(_control_generator(jumps, c.assignment))
            for c in consts]
    pick = int(np.argmax([sign * q.lam for q in sols]))
    control, sol = consts[pick], sols[pick]
    steps: list[RateStep] = []
    while True:
        steps.append(RateStep(sol.lam, control))
        eta = np.concatenate(([0.0], sol.eta))
        drift = _action_drift(jumps, eta)
        # signed so that a positive gain moves lam the objective's way
        slack = sign * (-drift - sol.lam * eta[1:])
        floors = 8 * _EPS * (drift + (2.0 * exits + sol.lam) * eta[1:])
        current = np.asarray(control.assignment)
        gains = slack - slack[current, rows]
        best = np.argmax(gains, axis=0)
        gain, floor = gains[best, rows], floors[best, rows]
        switch = gain > floor
        if not switch.any():
            break
        control = MarkovControl(
            tuple(np.where(switch, best, current).tolist()))
        if control in {s.control for s in steps}:
            raise SolverError(f"spectral policy iteration revisited control "
                              f"{control.assignment}")
        sol = solve_qsd(_control_generator(jumps, control.assignment))
    enum_lam = enum_control = None
    if cross_check:
        res = brute_force_control_opt(model, objective, level, cap)
        enum_lam, enum_control = res.lam, res.control
    return RateOptimum(objective, sol.lam, control, tuple(steps),
                       float(gain.max()), float(floor.max()),
                       enum_lam, enum_control)


# ---------------------------------------------------------------------
# scaling limit at the frontier

@dataclass(frozen=True, eq=False)
class LimitCheck:
    """(lam - beta) v_beta(x) against the stationary product
    pi(f) eta(x) of a rate-extremal control, on a discount ladder."""

    objective: str
    x: int
    lam: float
    betas: np.ndarray
    products: np.ndarray          # (lam - beta_k) * v_{beta_k}(x)
    reference: float              # extremal pi(f) eta(x) at the frontier
    gap: float                    # |last finite product - reference|
    converged: bool
    inconclusive: bool            # reference below resolution

    def as_dict(self) -> dict:
        return {
            "objective": self.objective, "x": self.x, "lam": self.lam,
            "betas": self.betas.tolist(), "products": self.products.tolist(),
            "reference": self.reference, "gap": self.gap,
            "converged": self.converged, "inconclusive": self.inconclusive,
        }


def limit_theorem_check(model: ModelSpec, objective: str = "max", x: int = 1,
                        level: int | None = None, *,
                        beta0: float | None = None, num_betas: int = 8,
                        rate_tol: float = RATE_TOL, rel_tol: float = 5e-2,
                        cap: int = 10 ** 6) -> LimitCheck:
    """Check the frontier scaling of the optimal discounted value.

    The reference is computed by enumeration: among controls whose rate
    ties the extremal rate within rate_tol, take the extremal value of
    pi(f) eta(x) (smallest for the min problem, largest for the max
    problem; the ladder products must approach it from the matching
    side).  The ladder is beta_k = lam - 2^(-k) (lam - beta0).  A rung
    whose policy iteration loses feasibility mid-flight is recorded as
    NaN and skipped.  converged means the last finite product lands
    within rel_tol of the reference and no farther than the first rung;
    inconclusive flags a reference too small to resolve at rate_tol
    against the cost scale.
    """
    _check_objective(objective)
    level = model.level if level is None else int(level)
    if not 1 <= x <= level:
        raise ModelError(f"x must lie in 1..{level}")
    hjb_mode = "min" if objective == "max" else "max"
    enum = brute_force_control_opt(model, objective, level, cap, keep_all=True)
    lam = enum.lam

    # one table of rates for the reference and every rung, so each
    # control the rungs solve is solved once.  f(x, c(x)) for every
    # control: every pair (action, state) occurs in one, so the sup over
    # controls is the sup of the cost table
    table = _action_table(model, level)
    costs = table.costs
    xs = np.arange(1, level + 1)
    f_sup = max(0.0, float(costs.max()))
    side = []
    for i in np.flatnonzero(abs(enum.lams - lam) <= rate_tol):
        f = costs[enum.controls[i].assignment, xs - 1]
        side.append(float(enum.pis[i] @ f) * float(enum.etas[i, x - 1]))
    reference = min(side) if hjb_mode == "min" else max(side)
    inconclusive = reference < rate_tol * f_sup

    if beta0 is None:
        beta0 = lam - 0.5 * (1.0 + abs(lam))
    if not beta0 < lam:
        raise ModelError(f"beta0={beta0:g} must lie below the rate {lam:g}")
    gap0 = lam - beta0
    betas = lam - gap0 * 0.5 ** np.arange(1, num_betas + 1)
    products = np.full(num_betas, np.nan)
    for k, beta in enumerate(betas):
        try:
            sol = policy_iteration(model, float(beta), hjb_mode, level=level,
                                   _table=table)
        except InfeasibleBetaError:
            continue
        products[k] = (lam - beta) * float(sol.v[x])

    finite = np.nonzero(np.isfinite(products))[0]
    if finite.size == 0:
        gap = float("inf")
        converged = False
    else:
        errs = np.abs(products[finite] - reference)
        gap = float(errs[-1])
        converged = bool(gap <= rel_tol * (abs(reference) + 1e-12)
                         and gap <= float(errs[0]) + 1e-12)
    return LimitCheck(objective, x, lam, betas, products, reference, gap,
                      converged, inconclusive)


# ---------------------------------------------------------------------
# history rules cannot beat the maximizing stationary value

@dataclass(frozen=True, eq=False)
class SpotCheck:
    ok: bool
    estimate: MonteCarloEstimate  # MC discounted survival time of the rule
    bound: float                  # unit-cost v_beta(x), max mode
    slack: float                  # bound + 3 stderr - estimate
    beta: float
    x: int
    policy_name: str


def corollary_spot_check(model: ModelSpec, policy: HistoryPolicy, x: int,
                         beta: float, config: SimConfig,
                         level: int | None = None) -> SpotCheck:
    """Monte Carlo sanity check of the verification bound: no history
    rule may beat the maximizing stationary value.

    The cost is overridden to 1, so the discounted cost of a path is
    its discounted survival time, computable in closed form piecewise.
    The rule is simulated by thinning (the only simulator that admits
    history dependence) and its estimate must stay below the max-mode
    unit-cost value at x, within three standard errors.
    """
    level = model.level if level is None else int(level)
    if not 1 <= x <= level:
        raise ModelError(f"x must lie in 1..{level}")
    unit = model.with_unit_cost()
    sol = policy_iteration(unit, beta, "max", level=level)
    bound = float(sol.v[x])
    run_cfg = SimConfig(config.seed, 1, config.horizon, config.state_cap)
    envelopes = _envelope_table(model)
    vals = np.empty(config.samples)
    for i in range(config.samples):
        traj = simulate_thinning(model, policy, x, run_cfg, stream_index=i,
                                 _tables=envelopes)
        vals[i] = discounted_survival_integral(traj, beta)
    est = MonteCarloEstimate.from_values(vals)
    ok = est.value <= bound + 3.0 * est.stderr
    return SpotCheck(ok, est, bound, bound + 3.0 * est.stderr - est.value,
                     beta, x, policy.name)
