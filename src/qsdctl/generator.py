"""Truncated generators, stored as their band.

The chain is cut at a level N.  From state x it dies to x-1 or gives
birth up to x+k_max, and every birth that would land at or above N is
lumped onto N, so no mass leaves the window {0..N}.  A lumped birth
from N itself is a self-loop, which carries no information in a
generator and is dropped, so the outflow at N is the death rate alone.
State 0 is absorbing.

A generator holds only this band, O(N k_max) numbers.  The solvers read
it through the banded products A v and p A below and qsd's banded
factor; the dense matrix is built only when asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import CapExceededError, ModelError
from .models import MarkovControl, ModelSpec

__all__ = ["TruncatedGenerator", "build_generator",
           "enumerate_markov_controls"]


@dataclass(frozen=True, eq=False)
class TruncatedGenerator:
    """Generator on {0..N} stored as its band: death[x-1] = d(x), the
    rate x -> x-1, and births[x-1, j-1] the rate x -> x+j, lumped at N
    and zero past it.  The dense matrix (off-diagonal entries the jump
    rates, a diagonal that makes every row sum to zero, row 0 zero) is a
    view built from the band on first use and then kept."""

    level: int
    death: np.ndarray    # (N,)
    births: np.ndarray   # (N, k), k the largest jump any state takes

    @cached_property
    def exits(self) -> np.ndarray:
        """Exit rates of the living states, the diagonal negated."""
        return _exit_rates(self.death, self.births)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (N+1, N+1) generator."""
        n = self.level
        q = np.zeros((n + 1, n + 1))
        xs = np.arange(1, n + 1)
        q[xs, xs - 1] = self.death
        q[xs, xs] = -self.exits
        for j in range(1, self.births.shape[1] + 1):
            q[xs[:-j], xs[:-j] + j] = self.births[:-j, j - 1]
        return q

    @property
    def active(self) -> np.ndarray:
        """Restriction of matrix to the living states {1..N} (a view)."""
        return self.matrix[1:, 1:]

    def max_exit_rate(self) -> float:
        return float(self.exits.max())

    def uniformization_rate(self) -> float:
        """Rate strictly dominating every exit rate (1% headroom)."""
        r = self.max_exit_rate()
        return 1.01 * r if r > 0 else 1.0


# The band of one living block is death (N,) and births (N, k); a stack
# of blocks of one size is death (B, N) and births (B, N, k).  Every
# function below takes either, works along the last axes, and sums in
# the same order whatever k, so a zero column of births changes nothing.

def _exit_rates(death: np.ndarray, births: np.ndarray) -> np.ndarray:
    """d(x) + b_1(x) + ... + b_k(x), summed left to right."""
    out = death.copy()
    for j in range(births.shape[-1]):
        out += births[..., j]
    return out


def _matvec(death: np.ndarray, births: np.ndarray,
            v: np.ndarray) -> np.ndarray:
    """A v, A the living block of the band."""
    out = -_exit_rates(death, births) * v
    out[..., 1:] += death[..., 1:] * v[..., :-1]
    for j in range(1, births.shape[-1] + 1):
        out[..., :-j] += births[..., :-j, j - 1] * v[..., j:]
    return out


def _vecmat(death: np.ndarray, births: np.ndarray,
            p: np.ndarray) -> np.ndarray:
    """p A, A the living block of the band."""
    out = -_exit_rates(death, births) * p
    out[..., :-1] += death[..., 1:] * p[..., 1:]
    for j in range(1, births.shape[-1] + 1):
        out[..., j:] += births[..., :-j, j - 1] * p[..., :-j]
    return out


def _control_rates(model: ModelSpec, control: MarkovControl, level: int,
                   roles: tuple[str, ...]):
    """Rates on 0..level under a stationary control: the action at each
    state 1..level, and one row per role ("birth", "death", "cost")
    with state 0 clamped to zero.  Each action's formula is evaluated
    only at the states that use it; states above the control's range
    reuse its top action."""
    xs = np.arange(1, level + 1)
    actions = np.asarray(control.assignment)[np.minimum(xs, control.level) - 1]
    rates = np.zeros((len(roles), level + 1))
    for a in set(control.assignment[:level]):
        at = actions == a
        for row, role in zip(rates, roles):
            row[1:][at] = model._vector(getattr(model, role), role, a, xs[at])
    return actions, rates


def _jump_rates(birth: np.ndarray, death: np.ndarray,
                pmf: np.ndarray) -> np.ndarray:
    """Every jump out of the living states 1..n, n = len(birth): row x-1
    is (d(x), b(x) p_1, ..., b(x) p_k_max), a death, then a birth of
    each progeny size (targets from _jump_targets).  pmf is one progeny
    law of shape (k_max,) or one per state, (n, k_max)."""
    return np.concatenate((death[:, None], birth[:, None] * pmf), axis=1)


def _jump_targets(n: int, k_max: int, level: int) -> np.ndarray:
    """The targets of _jump_rates's rows for the states 1..n: row x-1 is
    (x-1, min(x+1, level), ..., min(x+k_max, level)), births lumped onto
    the level when they would land above it."""
    steps = np.arange(k_max + 1)
    steps[0] = -1
    return np.minimum(np.arange(1, n + 1)[:, None] + steps, level)


def _lump(rates: np.ndarray):
    """The band of the window {0..N} from _jump_rates's rows on 1..N
    (last two axes (N, k_max + 1), any leading axes kept): death holds
    d(1..N) and births[..., x-1, j-1] the rate x -> x+j, j up to
    min(k_max, N - 1).  Births that would land above N are lumped onto
    N, summed in table order, and a birth from N itself is a self-loop
    and dropped."""
    n, k_max = rates.shape[-2], rates.shape[-1] - 1
    k = min(k_max, n - 1)
    room = np.arange(n - 1, -1, -1)[:, None]       # N - x for x = 1..N
    births = np.where(np.arange(1, k + 1) <= room, rates[..., 1:k + 1], 0.0)
    # each of the top k states sends every jump of size room or more to
    # N; a running sum from zero adds them in table order
    top = np.arange(n - 1 - k, n - 1)
    tail = np.where(np.arange(k_max + 1) >= room[top], rates[..., top, :], 0.0)
    births[..., top, n - 2 - top] = np.cumsum(tail, axis=-1)[..., -1]
    return np.ascontiguousarray(rates[..., 0]), births


def build_generator(model: ModelSpec, control: MarkovControl,
                    level: int | None = None) -> TruncatedGenerator:
    """Assemble the generator at the given truncation level under a
    stationary control.  The control must cover 1..level; longer
    controls are truncated.  Raises ModelError on a negative or
    non-finite rate, naming the offending state and action.
    """
    n = model.level if level is None else int(level)
    if n < 1:
        raise ModelError("truncation level must be >= 1")
    if control.level < n:
        raise ModelError(
            f"control covers states 1..{control.level}, need 1..{n}")
    control.check(model.num_actions)

    actions, (birth, death) = _control_rates(model, control, n,
                                             ("birth", "death"))
    return _generator(*_lump(_jump_rates(birth[1:], death[1:],
                                         model.progeny.tables[actions])))


def _generator(death: np.ndarray, births: np.ndarray) -> TruncatedGenerator:
    """The generator of one lumped band, its births cut to the largest
    jump taken: none on pure death."""
    taken = np.flatnonzero(births.any(axis=0))
    k = int(taken[-1]) + 1 if taken.size else 0
    return TruncatedGenerator(len(death), death,
                              np.ascontiguousarray(births[:, :k]))


def _action_jumps(model: ModelSpec, level: int) -> np.ndarray:
    """_jump_rates's rows on 1..level under every action: (m, level,
    k_max + 1), each action's formulas evaluated once on the whole
    window.  Raises ModelError on a negative or non-finite rate, naming
    the first in action order, then state order."""
    xs = np.arange(1, level + 1)
    return np.array([
        _jump_rates(model._vector(model.birth, "birth", a, xs),
                    model._vector(model.death, "death", a, xs),
                    model.progeny.pmf(a))
        for a in range(model.num_actions)])


def _action_drift(jumps: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(L_a v)(x) = sum_j r_a,j (v(t_j) - v(x)) on 1..level under every
    action a: (m, level), for jumps from _action_jumps and v on
    0..level."""
    level = jumps.shape[1]
    targets = _jump_targets(level, jumps.shape[2] - 1, level)
    return (jumps * (v[targets] - v[1:, None])).sum(axis=2)


def _control_assignments(num_actions: int, level: int, start: int,
                         stop: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic enumeration of controls
    on 1..level (the order of enumerate_markov_controls), as action
    indices: (stop - start, level)."""
    place = num_actions ** np.arange(level - 1, -1, -1)
    return np.arange(start, stop)[:, None] // place % num_actions


def _stacked_band(jumps: np.ndarray, assignments: np.ndarray):
    """The bands of many controls, death (B, N) and births (B, N, k) as
    _lump lays them out, each control's rates gathered row by row from
    _action_jumps's table; one control's assignment (N,) gives its band
    alone."""
    return _lump(jumps[assignments, np.arange(assignments.shape[-1])])


def _control_generator(jumps: np.ndarray, assignment) -> TruncatedGenerator:
    """build_generator's generator of the control with these actions on
    1..level, gathered from _action_jumps's table instead of evaluating
    a formula: the same rates, so the same band to the bit."""
    return _generator(*_stacked_band(jumps, np.asarray(assignment)))


def enumerate_markov_controls(model: ModelSpec, level: int,
                              cap: int = 10 ** 6) -> Iterator[MarkovControl]:
    """All m^level stationary controls on 1..level in lexicographic
    order, (0,...,0) first.  Refuses when m^level exceeds cap."""
    m = model.num_actions
    if level < 1:
        raise ModelError("level must be >= 1")
    total = m ** level
    if total > cap:
        raise CapExceededError(
            f"enumeration of {m}^{level} = {total} controls exceeds cap {cap}")
    return (MarkovControl(t) for t in itertools.product(range(m), repeat=level))
