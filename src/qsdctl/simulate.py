"""Exact stochastic simulation and Monte Carlo estimators.

Two simulators produce statistically identical paths for stationary
controls:

* simulate_markov draws competing exponentials (total rate b + d,
  birth with probability b/(b+d), progeny size from the action's law);
* simulate_thinning drives the chain from dominating proposal rates
  (b_bar * n upward, the declared envelope d_bar(n) downward) and
  accepts a proposal by comparing a uniform mark against the actual
  rate at the proposal instant.  Only the thinning route supports
  history-dependent decision rules, because the rule is consulted at
  every proposal time with the past trajectory only.

Randomness: one counter-based Philox stream per trajectory index,
derived from (seed, index).  Identical (model, control, seed, config)
yield bit-identical trajectories, and estimators reduce over a
preallocated per-index array with numpy's pairwise summation, so
results do not depend on scheduling.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (EnvelopeViolationError, InfiniteVarianceWarning,
                     LowConfidenceWarning, ModelError, SimulationError,
                     ZeroSurvivorsError)
from .generator import _control_rates, build_generator
from .models import MarkovControl, ModelSpec

__all__ = [
    "SimConfig", "Trajectory", "History", "HistoryPolicy",
    "MonteCarloEstimate", "EmpiricalLaw", "simulate_markov",
    "simulate_thinning", "estimate_survival", "estimate_conditional_law",
    "estimate_cost", "discounted_weight", "discounted_survival_integral",
]

TERMINAL_ABSORBED = "absorbed"
TERMINAL_HORIZON = "horizon-reached"
TERMINAL_CAP = "state-cap-reached"


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration.  horizon None means run every
    trajectory to absorption; state_cap flags runaway growth."""

    seed: int
    samples: int = 1
    horizon: float | None = None
    state_cap: int = 100_000

    def __post_init__(self):
        if self.samples < 1:
            raise SimulationError("samples must be >= 1")
        if self.horizon is not None and not self.horizon >= 0:
            raise SimulationError("horizon must be >= 0")
        if self.state_cap < 1:
            raise SimulationError("state_cap must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """A piecewise-constant path: the initial state and the accepted
    jumps as (time, new state), in strictly increasing time order, up
    to the time the simulator stopped it (None: at the last jump)."""

    initial: int
    jumps: tuple[tuple[float, int], ...]
    terminal: str  # absorbed | horizon-reached | state-cap-reached
    stop_time: float | None = None

    @property
    def final_state(self) -> int:
        return self.jumps[-1][1] if self.jumps else self.initial

    @property
    def final_time(self) -> float:
        return self.jumps[-1][0] if self.jumps else 0.0

    @property
    def extinction_time(self) -> float | None:
        if self.terminal == TERMINAL_ABSORBED:
            return 0.0 if not self.jumps else self.jumps[-1][0]
        return None

    def state_at(self, t: float) -> int:
        """State at time t (right-continuous)."""
        if t < 0:
            raise SimulationError("time must be >= 0")
        i = bisect_right(self.jumps, (t, float("inf")))
        return self.initial if i == 0 else self.jumps[i - 1][1]

    def peak_state(self, up_to: float | None = None) -> int:
        peak = self.initial
        for t, s in self.jumps:
            if up_to is not None and t > up_to:
                break
            peak = max(peak, s)
        return peak


@dataclass(frozen=True)
class History:
    """Read-only view of the past handed to a decision rule: the start
    state and the jumps strictly before the current instant."""

    initial: int
    jumps: tuple[tuple[float, int], ...]

    @property
    def current_state(self) -> int:
        return self.jumps[-1][1] if self.jumps else self.initial

    @property
    def jump_count(self) -> int:
        return len(self.jumps)

    @property
    def peak_state(self) -> int:
        return max([self.initial] + [s for _, s in self.jumps])


@dataclass(frozen=True)
class HistoryPolicy:
    """A deterministic decision rule (time, past) -> action index.

    Only deterministic functionals of the past are supported; rules
    that randomize on their own are not representable here (they would
    need a filtration richer than the driving noise) and are not
    silently approximated.
    """

    name: str
    rule: Callable[[float, History], int]


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    n: int
    ci95: tuple[float, float]

    @classmethod
    def from_values(cls, values: np.ndarray) -> "MonteCarloEstimate":
        values = np.asarray(values, dtype=float)
        n = values.size
        mean = float(values.mean())
        sd = float(values.std(ddof=1)) if n > 1 else 0.0
        se = sd / math.sqrt(n)
        return cls(mean, se, n, (mean - 1.96 * se, mean + 1.96 * se))


@dataclass(frozen=True, eq=False)
class EmpiricalLaw:
    """Empirical conditional law over surviving states."""

    states: np.ndarray
    probs: np.ndarray
    survivors: int
    low_confidence: bool

    def prob_of(self, state: int) -> float:
        hit = np.nonzero(self.states == state)[0]
        return float(self.probs[hit[0]]) if hit.size else 0.0

    def as_vector(self, level: int) -> np.ndarray:
        """Dense vector on {1..level}; mass above level is dropped."""
        out = np.zeros(level)
        for s, p in zip(self.states, self.probs):
            if 1 <= s <= level:
                out[s - 1] += p
        return out


def _stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one trajectory index."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), int(index)))))


class _RateTable:
    """Lazy per-state cache of a rate function, doubling as needed."""

    def __init__(self, fill: Callable[[int], np.ndarray], initial: int = 1024):
        self._fill = fill
        self._values = fill(initial)

    def get(self, n: int) -> float:
        if n >= self._values.size:
            grow = max(2 * self._values.size, n + 1)
            self._values = self._fill(grow)
        return float(self._values[n])


def _markov_tables(model: ModelSpec, control: MarkovControl):
    """(birth, death, cost) tables under a stationary control; states
    above the control's range reuse its top action."""
    def table(role):
        return _RateTable(
            lambda size: _control_rates(model, control, size - 1, (role,))[1][0])
    return table("birth"), table("death"), table("cost")


def simulate_markov(model: ModelSpec, control: MarkovControl, x0: int,
                    config: SimConfig, stream_index: int = 0,
                    _tables=None) -> Trajectory:
    """One exact path under a stationary control (competing
    exponentials).  Runs until absorption, the horizon, or the state
    cap, whichever comes first."""
    if x0 < 0:
        raise SimulationError("initial state must be >= 0")
    if x0 > config.state_cap:
        raise SimulationError("initial state exceeds the state cap")
    control.check(model.num_actions)
    if x0 == 0:
        return Trajectory(0, (), TERMINAL_ABSORBED, 0.0)
    rng = _stream(config.seed, stream_index)
    births, deaths, _ = _tables or _markov_tables(model, control)
    cdfs = {a: model.progeny.cdf(a) for a in set(control.assignment)}
    horizon = config.horizon
    t = 0.0
    n = x0
    jumps: list[tuple[float, int]] = []
    while True:
        b = births.get(n)
        d = deaths.get(n)
        total = b + d
        if total == 0.0:
            if horizon is None:
                raise SimulationError(
                    f"all rates vanish at state {n}: the path is frozen and "
                    "will never absorb")
            return Trajectory(x0, tuple(jumps), TERMINAL_HORIZON, horizon)
        t_next = t + rng.exponential(1.0 / total)
        if horizon is not None and t_next > horizon:
            return Trajectory(x0, tuple(jumps), TERMINAL_HORIZON, horizon)
        t = t_next
        if b > 0.0 and rng.random() * total < b:
            cdf = cdfs[control.action_at(n)]
            k = int(np.searchsorted(cdf, rng.random(), side="right")) + 1
            n += min(k, cdf.size)
        else:
            n -= 1
        jumps.append((t, n))
        if n == 0:
            return Trajectory(x0, tuple(jumps), TERMINAL_ABSORBED, t)
        if n > config.state_cap:
            return Trajectory(x0, tuple(jumps), TERMINAL_CAP, t)


def simulate_thinning(model: ModelSpec, policy: HistoryPolicy, x0: int,
                      config: SimConfig, stream_index: int = 0) -> Trajectory:
    """One exact path under a history-dependent rule, by thinning.

    Proposals arrive at the envelope rates b_bar * n (up) and d_bar(n)
    (down).  At each proposal instant the rule is consulted with the
    past only; a uniform mark on the envelope decides acceptance and,
    for births, the progeny size through the cumulative law.  An actual
    rate above its envelope is an EnvelopeViolationError.
    """
    if x0 < 0:
        raise SimulationError("initial state must be >= 0")
    if x0 > config.state_cap:
        raise SimulationError("initial state exceeds the state cap")
    if x0 == 0:
        return Trajectory(0, (), TERMINAL_ABSORBED, 0.0)
    rng = _stream(config.seed, stream_index)
    m = model.num_actions

    def fill_env(role):
        def fill(size):
            return model.envelope_tables(size - 1)[role]
        return fill
    benv_t = _RateTable(fill_env(0))
    denv_t = _RateTable(fill_env(1))
    cdfs = [model.progeny.cdf(a) for a in range(m)]
    horizon = config.horizon
    t = 0.0
    n = x0
    jumps: list[tuple[float, int]] = []
    while True:
        benv = benv_t.get(n)
        denv = denv_t.get(n)
        total = benv + denv
        if total == 0.0:
            if horizon is None:
                raise SimulationError(
                    f"both envelopes vanish at state {n}: the path is frozen")
            return Trajectory(x0, tuple(jumps), TERMINAL_HORIZON, horizon)
        t_next = t + rng.exponential(1.0 / total)
        if horizon is not None and t_next > horizon:
            return Trajectory(x0, tuple(jumps), TERMINAL_HORIZON, horizon)
        t = t_next
        action = policy.rule(t, History(x0, tuple(jumps)))
        if not 0 <= action < m:
            raise SimulationError(
                f"decision rule returned action {action}, valid range is "
                f"0..{m - 1}")
        birth_proposal = rng.random() * total < benv
        if birth_proposal:
            mark = rng.random() * benv
            b = model.birth_rate(n, action)
            if b > benv * (1 + 1e-9):
                raise EnvelopeViolationError(
                    f"birth rate {b:g} exceeds envelope {benv:g} at state "
                    f"{n} under action {model.controls.names[action]}")
            if mark < b:
                cdf = cdfs[action]
                k = int(np.searchsorted(cdf * b, mark, side="right")) + 1
                n += min(k, cdf.size)
            else:
                continue
        else:
            mark = rng.random() * denv
            d = model.death_rate(n, action)
            if d > denv * (1 + 1e-9):
                raise EnvelopeViolationError(
                    f"death rate {d:g} exceeds envelope {denv:g} at state "
                    f"{n} under action {model.controls.names[action]}")
            if mark < d:
                n -= 1
            else:
                continue
        jumps.append((t, n))
        if n == 0:
            return Trajectory(x0, tuple(jumps), TERMINAL_ABSORBED, t)
        if n > config.state_cap:
            return Trajectory(x0, tuple(jumps), TERMINAL_CAP, t)


# ---------------------------------------------------------------------
# estimators

def estimate_survival(model: ModelSpec, control: MarkovControl, x: int,
                      times: Sequence[float], config: SimConfig
                      ) -> list[MonteCarloEstimate]:
    """P_x(t < tau) at each requested time, from config.samples paths.
    Paths that hit the state cap count as surviving (they are alive)."""
    ts = [float(t) for t in times]
    if any(t < 0 for t in ts):
        raise SimulationError("times must be >= 0")
    horizon = max(ts) if ts else 0.0
    run_cfg = SimConfig(config.seed, 1, horizon, config.state_cap)
    tables = _markov_tables(model, control)
    alive = np.empty((config.samples, len(ts)))
    for i in range(config.samples):
        traj = simulate_markov(model, control, x, run_cfg, stream_index=i,
                               _tables=tables)
        tau = traj.extinction_time
        for j, t in enumerate(ts):
            alive[i, j] = 1.0 if (tau is None or tau > t) else 0.0
    return [MonteCarloEstimate.from_values(alive[:, j]) for j in range(len(ts))]


def estimate_conditional_law(model: ModelSpec, control: MarkovControl,
                             x: int, t: float, config: SimConfig
                             ) -> EmpiricalLaw:
    """Empirical law of the state at time t conditioned on survival.
    Raises ZeroSurvivorsError when every path is absorbed by t; flags
    low confidence under 100 survivors."""
    if t < 0:
        raise SimulationError("t must be >= 0")
    run_cfg = SimConfig(config.seed, 1, float(t), config.state_cap)
    tables = _markov_tables(model, control)
    counts: dict[int, int] = {}
    for i in range(config.samples):
        traj = simulate_markov(model, control, x, run_cfg, stream_index=i,
                               _tables=tables)
        s = traj.state_at(t)
        if s >= 1:
            counts[s] = counts.get(s, 0) + 1
    survivors = sum(counts.values())
    if survivors == 0:
        raise ZeroSurvivorsError(
            f"no surviving path among {config.samples} by time {t:g}; "
            "the conditional law is not estimable at this horizon")
    low = survivors < 100
    if low:
        warnings.warn(
            f"conditional law rests on only {survivors} survivors",
            LowConfidenceWarning)
    states = np.array(sorted(counts))
    probs = np.array([counts[s] for s in states], dtype=float) / survivors
    return EmpiricalLaw(states, probs, survivors, low)


def discounted_weight(beta: float, t1: float, t2: float) -> float:
    """integral_t1^t2 exp(beta s) ds, stable for small beta."""
    if t2 < t1:
        raise SimulationError("need t2 >= t1")
    if beta == 0.0:
        return t2 - t1
    return math.exp(beta * t1) * math.expm1(beta * (t2 - t1)) / beta


def _discounted_path_integral(traj: Trajectory, beta: float,
                              rate: Callable[[int], float]) -> float:
    """integral exp(beta s) rate(X_s) 1{X_s >= 1} ds along one path up
    to its stop, in closed form over the constant pieces."""
    stop = traj.final_time if traj.stop_time is None else traj.stop_time
    t_prev = 0.0
    state = traj.initial
    total = 0.0
    for t, s in traj.jumps + ((stop, 0),):
        if state >= 1:
            total += rate(state) * discounted_weight(beta, t_prev, t)
        t_prev, state = t, s
    return total


def discounted_survival_integral(traj: Trajectory, beta: float) -> float:
    """integral exp(beta s) 1{X_s >= 1} ds along one path.  For a path
    that was stopped while alive this is the integral up to the stop."""
    return _discounted_path_integral(traj, beta, lambda _: 1.0)


def estimate_cost(model: ModelSpec, control: MarkovControl, x: int,
                  beta: float, config: SimConfig,
                  check_discount: bool = True) -> MonteCarloEstimate:
    """Expected discounted cost until extinction under a stationary
    control, accumulated in closed form over the constant pieces of
    each path.

    When check_discount is on, the control's extinction rate is solved
    on the truncation given by the control's own range and a discount
    at or above it triggers InfiniteVarianceWarning (the estimator
    stays defined pathwise but its variance need not exist).
    """
    if check_discount:
        from .qsd import solve_qsd
        lam = solve_qsd(build_generator(model, control, control.level)).lam
        if not beta < lam:
            warnings.warn(
                f"beta={beta:g} is not below the extinction rate "
                f"{lam:g} estimated at level {control.level}; the cost "
                "estimator may have infinite variance", InfiniteVarianceWarning)
    tables = _markov_tables(model, control)
    costs = tables[2]
    values = np.empty(config.samples)
    run_cfg = SimConfig(config.seed, 1, config.horizon, config.state_cap)
    for i in range(config.samples):
        traj = simulate_markov(model, control, x, run_cfg, stream_index=i,
                               _tables=tables)
        values[i] = _discounted_path_integral(traj, beta, costs.get)
    return MonteCarloEstimate.from_values(values)
