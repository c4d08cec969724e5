"""Truncated generator matrices.

The chain is cut at a level N.  Rows are the usual jump rates except
that every birth that would land at or above N is lumped onto column N,
so no probability mass leaves the window {0..N}.  A lumped birth from
state N itself would be a self-loop; self-loops carry no information in
a generator, so that mass cancels against the diagonal and the
effective outflow at N is the death rate alone.  Row 0 is identically
zero (absorbing).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapExceededError, ModelError
from .models import MarkovControl, ModelSpec

__all__ = ["TruncatedGenerator", "build_generator",
           "enumerate_markov_controls"]


@dataclass(frozen=True, eq=False)
class TruncatedGenerator:
    """Dense generator on {0..N}.  Off-diagonal entries are jump rates,
    the diagonal makes every row sum to zero, and row 0 is zero."""

    level: int
    matrix: np.ndarray  # (N+1, N+1), float64

    @property
    def active(self) -> np.ndarray:
        """Restriction to the living states {1..N} (a view)."""
        return self.matrix[1:, 1:]

    def max_exit_rate(self) -> float:
        return float(np.max(-np.diag(self.matrix)))

    def uniformization_rate(self) -> float:
        """Rate strictly dominating every exit rate (1% headroom)."""
        r = self.max_exit_rate()
        return 1.01 * r if r > 0 else 1.0


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


def _jump_table(birth: np.ndarray, death: np.ndarray, pmf: np.ndarray,
                level: int):
    """Every jump out of the living states 1..n, n = len(birth) <= level.

    Row x-1 of targets is (x-1, min(x+1, level), ..., min(x+k_max,
    level)) and the same row of rates is (d(x), b(x) p_1, ..., b(x)
    p_k_max): a death, then a birth of each progeny size, lumped onto
    the level when it would land above it.  pmf is one progeny law of
    shape (k_max,) or one per state, (n, k_max).
    """
    targets = _jump_targets(len(birth), pmf.shape[-1], level)
    rates = np.concatenate((death[:, None], birth[:, None] * pmf), axis=1)
    return targets, rates


def _jump_targets(n: int, k_max: int, level: int) -> np.ndarray:
    """The targets of _jump_table's rows for the states 1..n."""
    steps = np.arange(k_max + 1)
    steps[0] = -1
    return np.minimum(np.arange(1, n + 1)[:, None] + steps, level)


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
    targets, rates = _jump_table(birth[1:], death[1:],
                                 model.progeny.tables[actions], n)
    # scatter row by row in table order, summing births lumped together
    xs = np.arange(1, n + 1)
    cells = xs[:, None] * (n + 1) + targets
    q = np.bincount(cells.ravel(), weights=rates.ravel(),
                    minlength=(n + 1) ** 2).reshape(n + 1, n + 1)
    q[xs, xs] = 0.0  # a lumped self-loop at N carries no information
    q[xs, xs] = -q[1:].sum(axis=1)
    return TruncatedGenerator(n, q)


def _action_jumps(model: ModelSpec, level: int) -> np.ndarray:
    """_jump_table's rates on 1..level under every action: (m, level,
    k_max + 1), each action's formulas evaluated once on the whole
    window.  Raises ModelError on a negative or non-finite rate, naming
    the first in action order, then state order."""
    xs = np.arange(1, level + 1)
    return np.array([
        _jump_table(model._vector(model.birth, "birth", a, xs),
                    model._vector(model.death, "death", a, xs),
                    model.progeny.pmf(a), level)[1]
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
    """The living blocks of many controls, as build_generator would
    lay them out: death (B, N) holds d(1), ..., d(N) per control and
    births (B, N, k) the rates from state x+1 up j states at [b, x, j-1],
    k = min(k_max, N - 1).  jumps comes from _action_jumps and each
    control's rates are gathered from it row by row.  Births that would
    land above N are lumped onto N, summed in bincount's order, and a
    birth from N itself is a self-loop and dropped."""
    n = assignments.shape[1]
    k_max = jumps.shape[2] - 1
    rates = jumps[assignments, np.arange(n)]
    death = np.ascontiguousarray(rates[:, :, 0])
    births = rates[:, :, 1:min(k_max, n - 1) + 1].copy()
    births[:, n - 1] = 0.0
    for r in range(1, min(k_max, n)):
        # state N - r: progeny sizes r..k_max all land on N
        lumped = rates[:, n - 1 - r, r].copy()
        for j in range(r + 1, k_max + 1):
            lumped += rates[:, n - 1 - r, j]
        births[:, n - 1 - r, r - 1] = lumped
        births[:, n - 1 - r, r:] = 0.0
    return death, births


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
