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

Both cost O(1) per event.  Rates come from per-state tables held as
Python lists, built once per run when the caller shares them.  The
rule sees a History view over the simulator's own jump list, whose
current state, jump count and running peak are updated as jumps are
accepted; reading its jumps copies them, O(jumps).  The actual rates
are evaluated once per (state, action) along a thinning path.

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
from typing import Callable, Mapping, Sequence

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


class History:
    """Read-only view of the past handed to a decision rule: the start
    state and the jumps strictly before the current instant.

    The simulator hands its rule a view over its own growing jump list
    (the first jump_count entries), with current_state and peak_state
    kept up to date as jumps are accepted, so a rule that reads only
    those, or the jump count, costs O(1).  Reading jumps copies them
    into a tuple, O(jump_count).  A view a rule keeps goes on showing
    the past at its own instant, whatever the path does later.
    """

    __slots__ = ("_initial", "_jumps", "_count", "_current", "_peak")

    def __init__(self, initial: int, jumps: Sequence[tuple[float, int]]):
        jumps = tuple(jumps)
        self._initial = initial
        self._jumps = jumps
        self._count = len(jumps)
        self._current = jumps[-1][1] if jumps else initial
        self._peak = max([initial] + [s for _, s in jumps])

    @classmethod
    def _view(cls, initial: int, jumps: list, count: int, current: int,
              peak: int) -> "History":
        """A view over the first count entries of a list that only
        grows; current and peak are the state and running maximum
        after them."""
        h = cls.__new__(cls)
        h._initial = initial
        h._jumps = jumps
        h._count = count
        h._current = current
        h._peak = peak
        return h

    @property
    def initial(self) -> int:
        return self._initial

    @property
    def jumps(self) -> tuple[tuple[float, int], ...]:
        return tuple(self._jumps[:self._count])

    @property
    def current_state(self) -> int:
        return self._current

    @property
    def jump_count(self) -> int:
        return self._count

    @property
    def peak_state(self) -> int:
        return self._peak

    def __eq__(self, other):
        if not isinstance(other, History):
            return NotImplemented
        return (self.initial, self.jumps) == (other.initial, other.jumps)

    def __hash__(self):
        return hash((self.initial, self.jumps))

    def __repr__(self):
        return f"History(initial={self.initial!r}, jumps={self.jumps!r})"


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
    """Lazy per-state rates as Python lists indexed by state: fill(size)
    gives one array per rate on 0..size-1, refilled at double the size
    as states grow.  cdfs[a] is action a's progeny cdf as a list."""

    def __init__(self, fill: Callable[[int], Sequence[np.ndarray]],
                 cdfs: Mapping[int, list[float]], initial: int):
        self._fill = fill
        self.rows = [row.tolist() for row in fill(initial)]
        self.cdfs = cdfs

    def cover(self, n: int) -> list[list[float]]:
        """The rows, grown to reach state n."""
        size = len(self.rows[0])
        if n >= size:
            self.rows = [row.tolist()
                         for row in self._fill(max(2 * size, n + 1))]
        return self.rows


def _markov_tables(model: ModelSpec, control: MarkovControl,
                   size: int = 1024) -> _RateTable:
    """(birth, death, cost) rows on 0..size-1 under a stationary
    control, with the cdfs of the actions it uses; states above the
    control's range reuse its top action."""
    return _RateTable(lambda size: [
        _control_rates(model, control, size - 1, (role,))[1][0]
        for role in ("birth", "death", "cost")],
        {a: model.progeny.cdf(a).tolist() for a in set(control.assignment)},
        size)


def _envelope_table(model: ModelSpec, size: int = 1024) -> _RateTable:
    """(b_bar * n, d_bar(n)) rows on 0..size-1: the thinning proposal
    rates, with every action's cdf."""
    return _RateTable(lambda size: model.envelope_tables(size - 1),
                      [model.progeny.cdf(a).tolist()
                       for a in range(model.num_actions)], size)


def simulate_markov(model: ModelSpec, control: MarkovControl, x0: int,
                    config: SimConfig, stream_index: int = 0,
                    _tables: _RateTable | None = None) -> Trajectory:
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
    exponential, uniform = rng.exponential, rng.random
    # a path of its own sizes its table from the start state
    table = _tables or _markov_tables(model, control, 2 * x0 + 2)
    births, deaths, _ = table.cover(x0)
    size = len(births)
    assignment = control.assignment
    top = len(assignment)
    cdfs = table.cdfs
    k_max = model.progeny.k_max
    horizon = math.inf if config.horizon is None else config.horizon
    cap = config.state_cap
    t = 0.0
    n = x0
    jumps: list[tuple[float, int]] = []
    append = jumps.append
    while True:
        if n >= size:
            births, deaths, _ = table.cover(n)
            size = len(births)
        b = births[n]
        total = b + deaths[n]
        if total == 0.0:
            if config.horizon is None:
                raise SimulationError(
                    f"all rates vanish at state {n}: the path is frozen and "
                    "will never absorb")
            return Trajectory(x0, tuple(jumps), TERMINAL_HORIZON, horizon)
        t_next = t + exponential(1.0 / total)
        if t_next > horizon:
            return Trajectory(x0, tuple(jumps), TERMINAL_HORIZON, horizon)
        t = t_next
        if b > 0.0 and uniform() * total < b:
            cdf = cdfs[assignment[(n if n < top else top) - 1]]
            k = bisect_right(cdf, uniform()) + 1
            n += k if k < k_max else k_max
        else:
            n -= 1
        append((t, n))
        if n == 0:
            return Trajectory(x0, tuple(jumps), TERMINAL_ABSORBED, t)
        if n > cap:
            return Trajectory(x0, tuple(jumps), TERMINAL_CAP, t)


def _checked_rate(model: ModelSpec, role: str, n: int, action: int,
                  envelope: float) -> float:
    """The actual rate of one move, which must stay under its envelope."""
    rate = (model.birth_rate if role == "birth" else model.death_rate)(
        n, action)
    if rate > envelope * (1 + 1e-9):
        raise EnvelopeViolationError(
            f"{role} rate {rate:g} exceeds envelope {envelope:g} at state "
            f"{n} under action {model.controls.names[action]}")
    return rate


def simulate_thinning(model: ModelSpec, policy: HistoryPolicy, x0: int,
                      config: SimConfig, stream_index: int = 0,
                      _tables: _RateTable | None = None) -> Trajectory:
    """One exact path under a history-dependent rule, by thinning.

    Proposals arrive at the envelope rates b_bar * n (up) and d_bar(n)
    (down).  At each proposal instant the rule is consulted with the
    past only; a uniform mark on the envelope decides acceptance and,
    for births, the progeny size through the cumulative law.  An actual
    rate above its envelope is an EnvelopeViolationError.  Each actual
    rate is evaluated once per (state, action) along the path.
    """
    if x0 < 0:
        raise SimulationError("initial state must be >= 0")
    if x0 > config.state_cap:
        raise SimulationError("initial state exceeds the state cap")
    if x0 == 0:
        return Trajectory(0, (), TERMINAL_ABSORBED, 0.0)
    rng = _stream(config.seed, stream_index)
    exponential, uniform, rule = rng.exponential, rng.random, policy.rule
    m = model.num_actions
    table = _tables or _envelope_table(model, 2 * x0 + 2)
    benvs, denvs = table.cover(x0)
    size = len(benvs)
    cdfs = table.cdfs
    k_max = model.progeny.k_max
    # per action, state -> (birth rate, cdf scaled by it) / death rate
    birth_memo: list[dict] = [{} for _ in range(m)]
    death_memo: list[dict] = [{} for _ in range(m)]
    horizon = math.inf if config.horizon is None else config.horizon
    cap = config.state_cap
    t = 0.0
    n = peak = x0
    count = 0
    jumps: list[tuple[float, int]] = []
    append = jumps.append
    view = History._view
    history = view(x0, jumps, 0, n, peak)
    benv = benvs[n]
    denv = denvs[n]
    while True:
        total = benv + denv
        if total == 0.0:
            if config.horizon is None:
                raise SimulationError(
                    f"both envelopes vanish at state {n}: the path is frozen")
            return Trajectory(x0, tuple(jumps), TERMINAL_HORIZON, horizon)
        t_next = t + exponential(1.0 / total)
        if t_next > horizon:
            return Trajectory(x0, tuple(jumps), TERMINAL_HORIZON, horizon)
        t = t_next
        action = rule(t, history)
        if not 0 <= action < m:
            raise SimulationError(
                f"decision rule returned action {action}, valid range is "
                f"0..{m - 1}")
        if uniform() * total < benv:
            mark = uniform() * benv
            memo = birth_memo[action].get(n)
            if memo is None:
                b = _checked_rate(model, "birth", n, action, benv)
                memo = birth_memo[action][n] = (
                    b, [c * b for c in cdfs[action]])
            if not mark < memo[0]:
                continue
            k = bisect_right(memo[1], mark) + 1
            n += k if k < k_max else k_max
        else:
            mark = uniform() * denv
            d = death_memo[action].get(n)
            if d is None:
                d = death_memo[action][n] = _checked_rate(
                    model, "death", n, action, denv)
            if not mark < d:
                continue
            n -= 1
        append((t, n))
        if n == 0:
            return Trajectory(x0, tuple(jumps), TERMINAL_ABSORBED, t)
        if n > cap:
            return Trajectory(x0, tuple(jumps), TERMINAL_CAP, t)
        if n > peak:
            peak = n
        count += 1
        history = view(x0, jumps, count, n, peak)
        if n >= size:
            benvs, denvs = table.cover(n)
            size = len(benvs)
        benv = benvs[n]
        denv = denvs[n]


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
    values = np.empty(config.samples)
    run_cfg = SimConfig(config.seed, 1, config.horizon, config.state_cap)
    for i in range(config.samples):
        traj = simulate_markov(model, control, x, run_cfg, stream_index=i,
                               _tables=tables)
        values[i] = _discounted_path_integral(
            traj, beta, lambda s: tables.cover(s)[2][s])
    return MonteCarloEstimate.from_values(values)
