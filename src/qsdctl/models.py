"""Controlled branching-chain models.

A model is a population chain on {0, 1, 2, ...} with absorbing state 0.
From state n >= 1 under action a it jumps up by k with rate
b(n,a) * p_k(a) (a birth with progeny size k) and down by one with rate
d(n,a) (a single death).  Running cost f(n,a) accrues until absorption.
State 0 is a trap: all rates and the cost vanish there by construction,
so model files may write e.g. ``cost = 1`` to mean "1 on every living
state".

The standing assumptions under which the theory operates (linear birth
domination, a declared death envelope, bounded progeny mean, a
superlinear death floor, and positivity of up/down jumps) are checked
by validate_hypotheses on a finite window.  The checks are advisory:
solvers proceed regardless, they only warn.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ModelError
from .expressions import RateExpr

__all__ = [
    "Action", "ControlSet", "ProgenyDist", "HypothesisConstants",
    "ModelSpec", "MarkovControl", "ClauseResult", "HypothesisReport",
    "validate_hypotheses",
]

_TOL = 1e-12


@dataclass(frozen=True)
class Action:
    name: str
    params: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class ControlSet:
    """Ordered, finite action set.  Order matters: ties in optimization
    break toward the lowest index."""

    actions: tuple[Action, ...]

    def __post_init__(self):
        if not self.actions:
            raise ModelError("a model needs at least one action")
        names = [a.name for a in self.actions]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate action names: {names}")

    @property
    def size(self) -> int:
        return len(self.actions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.actions)

    def index(self, name: str) -> int:
        for i, a in enumerate(self.actions):
            if a.name == name:
                return i
        raise ModelError(f"no action named {name!r}")


@dataclass(frozen=True, eq=False)
class ProgenyDist:
    """Progeny-size law per action on {1, ..., k_max}.

    Either an explicit table or a truncated-and-renormalized geometric
    family.  The law does not depend on the current state; it may
    depend on the action.
    """

    kind: str                 # "table" | "geometric"
    k_max: int
    tables: np.ndarray        # shape (num_actions, k_max), rows sum to 1

    def __post_init__(self):
        if self.kind not in ("table", "geometric"):
            raise ModelError(f"unknown progeny kind {self.kind!r}")
        if self.k_max < 1:
            raise ModelError("k_max must be >= 1")
        t = np.asarray(self.tables, dtype=float)
        if t.ndim != 2 or t.shape[1] != self.k_max:
            raise ModelError("progeny table must be (num_actions, k_max)")
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise ModelError("progeny probabilities must be finite and >= 0")
        sums = t.sum(axis=1)
        if np.any(sums <= 0):
            raise ModelError("progeny law has zero total mass for an action")
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ModelError(
                f"progeny probabilities must sum to 1 (got {sums})")
        object.__setattr__(self, "tables", t / sums[:, None])

    @classmethod
    def from_table(cls, probs, num_actions: int) -> "ProgenyDist":
        row = np.asarray(probs, dtype=float)
        return cls("table", row.size, np.tile(row, (num_actions, 1)))

    @classmethod
    def geometric(cls, ratios, k_max: int) -> "ProgenyDist":
        """p_k proportional to (1-r) r^(k-1) on 1..k_max, renormalized.
        One ratio in (0,1) per action."""
        rs = np.asarray(ratios, dtype=float)
        if np.any(rs <= 0) or np.any(rs >= 1):
            raise ModelError("geometric ratio must lie strictly in (0, 1)")
        k = np.arange(k_max)
        rows = (1 - rs)[:, None] * rs[:, None] ** k[None, :]
        rows /= rows.sum(axis=1, keepdims=True)
        return cls("geometric", k_max, rows)

    def pmf(self, action: int) -> np.ndarray:
        return self.tables[action]

    def cdf(self, action: int) -> np.ndarray:
        return np.cumsum(self.tables[action])

    def mean(self, action: int) -> float:
        return float(self.tables[action] @ np.arange(1, self.k_max + 1))


@dataclass(frozen=True, eq=False)
class HypothesisConstants:
    """Declared constants for the standing assumptions.

    b_bar:  birth rates are claimed <= b_bar * n
    m_bound: progeny means are claimed <= m_bound
    d_bar:  death-rate envelope, an expression in n alone
    d_lower, epsilon: optional superlinear death floor
    d(n,.) >= d_lower * n^(1+epsilon)
    """

    b_bar: float
    m_bound: float
    d_bar: RateExpr
    d_lower: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if not (self.b_bar > 0 and np.isfinite(self.b_bar)):
            raise ModelError("b_bar must be a positive finite number")
        if not (self.m_bound >= 1 and np.isfinite(self.m_bound)):
            raise ModelError("m_bound must be >= 1 (progeny sizes start at 1)")
        bad = self.d_bar.variables() - {"n"}
        if bad:
            raise ModelError(
                f"d_bar may only depend on n, found {sorted(bad)}")
        if (self.d_lower is None) != (self.epsilon is None):
            raise ModelError("declare d_lower and epsilon together or not at all")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ModelError("epsilon must be > 0")
        if self.d_lower is not None and not self.d_lower > 0:
            raise ModelError("d_lower must be > 0")


@dataclass(frozen=True)
class MarkovControl:
    """A stationary control: one action index per state 1..level.
    States above the covered range reuse the top entry (relevant only
    to untruncated simulation)."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        if not self.assignment:
            raise ModelError("empty control")
        object.__setattr__(self, "assignment",
                           tuple(int(a) for a in self.assignment))

    @property
    def level(self) -> int:
        return len(self.assignment)

    def action_at(self, x: int) -> int:
        if x < 1:
            raise ModelError(f"control queried at state {x}")
        return self.assignment[min(x, len(self.assignment)) - 1]

    def check(self, num_actions: int):
        bad = [a for a in self.assignment if a < 0 or a >= num_actions]
        if bad:
            raise ModelError(
                f"control uses action index {bad[0]} outside 0..{num_actions - 1}")

    def truncate(self, level: int) -> "MarkovControl":
        if level > len(self.assignment):
            raise ModelError(
                f"control covers 1..{len(self.assignment)}, need 1..{level}")
        return MarkovControl(self.assignment[:level])


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A complete model: actions, rate formulas, progeny law, declared
    constants, and the default truncation level from its source file."""

    name: str
    controls: ControlSet
    birth: RateExpr
    death: RateExpr
    cost: RateExpr
    progeny: ProgenyDist
    constants: HypothesisConstants
    level: int = 100

    def __post_init__(self):
        if self.progeny.tables.shape[0] != self.controls.size:
            raise ModelError("progeny table rows must match the action count")
        if self.level < 1:
            raise ModelError("truncation level must be >= 1")

    # -- scalar rate evaluation -------------------------------------
    @property
    def num_actions(self) -> int:
        return self.controls.size

    def _env(self, action: int, n):
        env = dict(self.controls.actions[action].params)
        env["n"] = n
        return env

    def _rate(self, expr: RateExpr, role: str, n: int, action: int,
              allow_zero=True) -> float:
        if n == 0:
            return 0.0
        v = float(expr.evaluate(self._env(action, float(n))))
        if not math.isfinite(v) or v < 0:
            name = self.controls.actions[action].name
            raise ModelError(
                f"{role} rate is {v!r} at state {n} under action {name}")
        return v

    def birth_rate(self, n: int, action: int) -> float:
        return self._rate(self.birth, "birth", n, action)

    def death_rate(self, n: int, action: int) -> float:
        return self._rate(self.death, "death", n, action)

    def cost_rate(self, n: int, action: int) -> float:
        return self._rate(self.cost, "cost", n, action)

    def death_bound(self, n: int) -> float:
        if n == 0:
            return 0.0
        v = float(self.constants.d_bar.evaluate({"n": float(n)}))
        if not np.isfinite(v) or v < 0:
            raise ModelError(f"death envelope d_bar is {v!r} at state {n}")
        return v

    # -- vectorized tables ------------------------------------------
    def _vector(self, expr: RateExpr, role: str, action: int,
                states: np.ndarray) -> np.ndarray:
        """Evaluate expr at the given living states (all >= 1)."""
        ns = np.asarray(states, dtype=float)
        vals = np.asarray(expr.evaluate(self._env(action, ns)), dtype=float)
        if vals.shape != ns.shape:  # a formula constant in n
            vals = np.full(ns.shape, vals)
        bad = ~np.isfinite(vals) | (vals < 0)
        if bad.any():
            i = int(np.argmax(bad))
            name = self.controls.actions[action].name
            raise ModelError(
                f"{role} rate is {float(vals[i])!r} at state {int(ns[i])} "
                f"under action {name}")
        return vals

    def rate_tables(self, action: int, n_max: int):
        """(birth, death, cost) arrays indexed by state 0..n_max, with
        the state-0 clamp applied."""
        ns = np.arange(1, n_max + 1)
        return tuple(
            np.concatenate(([0.0], self._vector(getattr(self, role), role,
                                                action, ns)))
            for role in ("birth", "death", "cost"))

    def envelope_tables(self, n_max: int):
        """Declared bounds (b_bar * n, d_bar(n)) indexed by state."""
        ns = np.arange(n_max + 1, dtype=float)
        benv = self.constants.b_bar * ns
        denv = np.zeros(n_max + 1)
        if n_max >= 1:
            vals = np.asarray(
                self.constants.d_bar.evaluate({"n": ns[1:]}), dtype=float)
            denv[1:] = np.broadcast_to(vals, ns[1:].shape)
        if np.any(~np.isfinite(denv)) or np.any(denv < 0):
            raise ModelError("death envelope d_bar must be finite and >= 0")
        return benv, denv

    # -- conveniences -------------------------------------------------
    def constant_control(self, action: int, level: int | None = None) -> MarkovControl:
        level = self.level if level is None else level
        if not 0 <= action < self.num_actions:
            raise ModelError(f"no action with index {action}")
        return MarkovControl((action,) * level)

    def with_unit_cost(self) -> "ModelSpec":
        from .expressions import Lit
        return dataclasses.replace(self, cost=RateExpr(Lit(1.0)))


# ---------------------------------------------------------------------
# standing-assumption checks

CLAUSE_BIRTH_LINEAR = "birth-linear-bound"
CLAUSE_DEATH_ENVELOPE = "death-upper-bound"
CLAUSE_PROGENY_MEAN = "progeny-mean-bound"
CLAUSE_DEATH_FLOOR = "death-superlinear-lower"
CLAUSE_JUMP_POSITIVITY = "positive-jump-rates"

_SURROGATE_NOTE = ("finite surrogate: checks strict positivity of up and "
                   "down jump rates on the window only, not reachability "
                   "on the whole state space")


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    status: str                       # "pass" | "fail" | "not-checkable"
    witness: tuple[int, str, float] | None = None  # (state, action, margin)
    note: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    clauses: tuple[ClauseResult, ...]
    n_check: int

    def clause(self, name: str) -> ClauseResult:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(name)

    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.clauses)

    def as_dict(self) -> dict:
        return {
            "n_check": self.n_check,
            "clauses": [
                {"clause": c.clause, "status": c.status,
                 "witness": list(c.witness) if c.witness else None,
                 "note": c.note}
                for c in self.clauses
            ],
        }


def _worst(margins: np.ndarray, names, offset: int):
    """Largest violation over a (num_actions, n) margin grid; margin > 0
    means violated.  Returns (margin, witness)."""
    a, i = np.unravel_index(int(np.argmax(margins)), margins.shape)
    return float(margins[a, i]), (int(i) + offset, names[a], float(margins[a, i]))


def validate_hypotheses(model: ModelSpec, n_check: int | None = None) -> HypothesisReport:
    """Check the declared standing assumptions on the window 1..n_check.

    Never raises for a failed assumption and never blocks a solver; the
    report carries a pass/fail/not-checkable status per clause with a
    concrete (state, action, margin) witness where margin > 0 measures
    the worst violation found.
    """
    n_check = model.level if n_check is None else int(n_check)
    if n_check < 1:
        raise ModelError("n_check must be >= 1")
    names = model.controls.names
    m = model.num_actions
    ns = np.arange(1, n_check + 1, dtype=float)

    births = np.array([model.rate_tables(a, n_check)[0][1:] for a in range(m)])
    deaths = np.array([model.rate_tables(a, n_check)[1][1:] for a in range(m)])
    _, denv = model.envelope_tables(n_check)
    c = model.constants
    clauses = []

    def verdict(margin, scale):
        return "pass" if margin <= _TOL * (1.0 + scale) else "fail"

    # birth rates dominated by b_bar * n
    bound = c.b_bar * ns[None, :]
    margin, witness = _worst(births - bound, names, 1)
    clauses.append(ClauseResult(
        CLAUSE_BIRTH_LINEAR, verdict(margin, bound.max()), witness))

    # death rates dominated by the declared envelope
    margin, witness = _worst(deaths - denv[None, 1:], names, 1)
    clauses.append(ClauseResult(
        CLAUSE_DEATH_ENVELOPE, verdict(margin, denv.max()), witness))

    # progeny means dominated by m_bound
    means = np.array([[model.progeny.mean(a)] for a in range(m)])
    margin, witness = _worst(means - c.m_bound, names, 0)
    clauses.append(ClauseResult(
        CLAUSE_PROGENY_MEAN, verdict(margin, c.m_bound), witness,
        note="progeny law is state independent"))

    # superlinear death floor
    if c.epsilon is None:
        clauses.append(ClauseResult(
            CLAUSE_DEATH_FLOOR, "not-checkable", None,
            note="d_lower/epsilon not declared"))
    else:
        floor = c.d_lower * ns ** (1.0 + c.epsilon)
        margin, witness = _worst(floor[None, :] - deaths, names, 1)
        clauses.append(ClauseResult(
            CLAUSE_DEATH_FLOOR, verdict(margin, floor.max()), witness))

    # up/down jump positivity on the window (finite reachability surrogate)
    up = births * np.array([[model.progeny.pmf(a).max() for a in range(m)]]).T
    down = deaths.copy()
    down[:, 0] = np.inf  # leaving state 1 downward is absorption, not mixing
    weakest = np.minimum(up, down)
    a, i = np.unravel_index(int(np.argmin(weakest)), weakest.shape)
    worst = float(weakest[a, i])
    status = "pass" if worst > 0 else "fail"
    clauses.append(ClauseResult(
        CLAUSE_JUMP_POSITIVITY, status,
        (int(i) + 1, names[a], worst), note=_SURROGATE_NOTE))

    return HypothesisReport(tuple(clauses), n_check)
