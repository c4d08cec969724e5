"""Reference answers computed apart from qsdctl's solvers.

Only the model's rate formulas are taken from qsdctl (`birth_rate`,
`death_rate`, `cost_rate`, `progeny.pmf`).  Everything built on them
is written here a second time and solved by dense linear algebra or in
closed form:

* the truncated generator, assembled row by row with births of size
  k >= N - x lumped onto the window edge N;
* extinction rates and quasi-stationary vectors from a dense
  eigendecomposition, survival curves and laws from `expm`;
* discounted values by dense LU, optimal values, refusals and
  extremal rates by enumerating every stationary control;
* the optimality-equation residual of a returned value;
* exact laws of history rules, through a two-phase chain whose second
  phase starts when the rule switches;
* closed forms for pure death and for the linear chain (Kendall);
* Monte Carlo acceptance intervals that stay valid when every sample
  agrees, so a zero standard error never makes an interval empty:
  exact binomial intervals for proportions, floored standard errors for
  means.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math

import numpy as np
import scipy.linalg

# Monte Carlo checks fail a correct estimator with probability about
# ALPHA_MC: z = 6 standard errors for means, exact binomial intervals of
# the same level for proportions.  A seed on which a check fails then
# points at the program, not at chance.
Z_MC = 6.0
ALPHA_MC = 2e-9

# ---------------------------------------------------------------------
# generators

def action_rows(model, action: int, level: int) -> np.ndarray:
    """Generator rows for states 1..level under one action, columns
    0..level.  A birth of size k from x lands on x + k when that is
    below level and on level otherwise; at level itself a birth would
    be a self-loop and is dropped."""
    pk = np.asarray(model.progeny.pmf(action), dtype=float)
    rows = np.zeros((level, level + 1))
    for x in range(1, level + 1):
        row = rows[x - 1]
        row[x - 1] = model.death_rate(x, action)
        b = model.birth_rate(x, action)
        if b > 0 and x < level:
            inside = min(level - x - 1, pk.size)   # sizes landing below level
            row[x + 1:x + 1 + inside] = b * pk[:inside]
            row[level] += b * pk[inside:].sum()
        row[x] = -row.sum()
    return rows


class Chain:
    """All actions' generator rows and cost rates on one window."""

    def __init__(self, model, level: int):
        self.model = model
        self.level = level
        m = model.num_actions
        self.rows = np.array([action_rows(model, a, level) for a in range(m)])
        self.costs = np.array([[model.cost_rate(x, a)
                                for x in range(1, level + 1)]
                               for a in range(m)])

    def matrix(self, assignment) -> np.ndarray:
        """Full (level+1)^2 generator; state x uses assignment[x-1]."""
        a = np.asarray(assignment)
        q = np.zeros((self.level + 1, self.level + 1))
        q[1:] = self.rows[a, np.arange(self.level)]
        return q

    def active(self, assignment) -> np.ndarray:
        return self.matrix(assignment)[1:, 1:]

    def cost(self, assignment) -> np.ndarray:
        return self.costs[np.asarray(assignment), np.arange(self.level)]

    def constant(self, action: int) -> tuple[int, ...]:
        return (action,) * self.level


def rate(active: np.ndarray) -> float:
    """Extinction rate: minus the rightmost eigenvalue."""
    return -float(np.max(scipy.linalg.eigvals(active).real))


def qsd_vectors(active: np.ndarray):
    """(lam, pi, eta) from one dense two-sided eigendecomposition, with
    pi summing to one and pi . eta = 1."""
    w, vl, vr = scipy.linalg.eig(active, left=True, right=True)
    i = int(np.argmax(w.real))
    pi = np.abs(vl[:, i].real)
    pi /= pi.sum()
    eta = np.abs(vr[:, i].real)
    eta /= float(pi @ eta)
    return -float(w[i].real), pi, eta


def survival(active: np.ndarray, times) -> np.ndarray:
    """P_x(t < tau) for every state x (columns) at each time (rows)."""
    ones = np.ones(active.shape[0])
    return np.array([scipy.linalg.expm(t * active) @ ones for t in times])


def forward(active: np.ndarray, mu0: np.ndarray, t: float) -> np.ndarray:
    """Unnormalised law at time t started from mu0."""
    return mu0 @ scipy.linalg.expm(t * active)


def value(active: np.ndarray, cost: np.ndarray, beta: float) -> np.ndarray:
    """Discounted cost on states 1..N by one dense LU solve."""
    n = active.shape[0]
    return scipy.linalg.solve(beta * np.eye(n) + active, -cost)


def hjb_residual(chain: Chain, v: np.ndarray, beta: float, mode: str
                 ) -> float:
    """Max-norm defect of beta v + opt_a [f_a + L_a v] on 1..N for a
    value v given on 0..N."""
    scores = chain.costs + chain.rows @ v
    opt = scores.min(axis=0) if mode == "min" else scores.max(axis=0)
    return float(np.max(np.abs(beta * v[1:] + opt)))


def residual_scale(chain: Chain, v: np.ndarray) -> float:
    """Rounding scale of an evaluation of L v: eps |L|_inf |v|_inf."""
    norm = float(np.max(np.abs(chain.rows).sum(axis=2)))
    return float(np.finfo(float).eps) * norm * (1.0 + float(np.max(np.abs(v))))


class Enumeration:
    """Every stationary control of a window, with its rate; values at
    a discount are solved on demand and cached."""

    def __init__(self, chain: Chain):
        self.chain = chain
        m = chain.model.num_actions
        self.controls = list(itertools.product(range(m), repeat=chain.level))
        self.lams = np.array([rate(chain.active(c)) for c in self.controls])
        self._values: dict[float, list] = {}

    def extremal(self, objective: str) -> float:
        return float(self.lams.max() if objective == "max"
                     else self.lams.min())

    def values(self, beta: float) -> list:
        """Value vector on 1..N per control, None where beta is not
        below the control's rate."""
        if beta not in self._values:
            self._values[beta] = [
                value(self.chain.active(c), self.chain.cost(c), beta)
                if beta < lam else None
                for c, lam in zip(self.controls, self.lams)]
        return self._values[beta]

    def optimum(self, beta: float, mode: str):
        """Pointwise optimal value on 1..N, or None when the problem
        is refused: in max mode when any control is infeasible (the
        supremum is infinite), in min mode when every control is."""
        vals = self.values(beta)
        if mode == "max" and any(v is None for v in vals):
            return None
        finite = [v for v in vals if v is not None]
        if not finite:
            return None
        stack = np.array(finite)
        return stack.min(axis=0) if mode == "min" else stack.max(axis=0)


# ---------------------------------------------------------------------
# history rules as two-phase chains

def phased_active(chain: Chain, first: int, second: int, switches) -> np.ndarray:
    """Living block of a chain on (phase, state): phase 0 runs action
    `first`, phase 1 runs `second`, and a jump x -> y made in phase 0
    moves to phase 1 when switches(x, y) is true.  Index p N + x - 1."""
    n = chain.level
    a = np.zeros((2 * n, 2 * n))
    r0 = chain.rows[first]
    a[n:, n:] = chain.rows[second][:, 1:]
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if y == x:
                a[x - 1, x - 1] = r0[x - 1, x]
            elif r0[x - 1, y] != 0.0:
                col = n + y - 1 if switches(x, y) else y - 1
                a[x - 1, col] += r0[x - 1, y]
    return a


def rule_start(n: int, x0: int, phase: int) -> np.ndarray:
    e = np.zeros(2 * n)
    e[phase * n + x0 - 1] = 1.0
    return e


def switch_rule(chain: Chain, before: int, after: int, x0: int):
    """(active, start) for `after` from the first jump on."""
    return (phased_active(chain, before, after, lambda x, y: True),
            rule_start(chain.level, x0, 0))


def peak_rule(chain: Chain, threshold: int, low: int, high: int, x0: int):
    """(active, start) for `high` once the running maximum reaches the
    threshold."""
    return (phased_active(chain, low, high, lambda x, y: y >= threshold),
            rule_start(chain.level, x0, 1 if x0 >= threshold else 0))


def time_rule_survival(chain: Chain, t_switch: float, early: int, late: int,
                       x0: int, times) -> np.ndarray:
    """P_x0(t < tau) under `early` before t_switch and `late` after."""
    a_e = chain.active(chain.constant(early))
    a_l = chain.active(chain.constant(late))
    start = np.zeros(chain.level)
    start[x0 - 1] = 1.0
    at_switch = forward(a_e, start, t_switch)
    out = []
    for t in times:
        mu = (forward(a_e, start, t) if t <= t_switch
              else forward(a_l, at_switch, t - t_switch))
        out.append(float(mu.sum()))
    return np.array(out)


def start_survival(active: np.ndarray, start: np.ndarray, times) -> np.ndarray:
    return np.array([float(forward(active, start, t).sum()) for t in times])


def start_discounted_survival(active: np.ndarray, start: np.ndarray,
                              beta: float) -> float:
    """E integral_0^tau exp(beta s) ds from the start distribution."""
    ones = np.ones(active.shape[0])
    return float(start @ value(active, ones, beta))


# ---------------------------------------------------------------------
# closed forms

def pure_death_survival(x: int, t: float) -> float:
    """Unit-rate pure death: each of x individuals is alive at t with
    probability exp(-t)."""
    return 1.0 - (1.0 - math.exp(-t)) ** x


def kendall_survival(x: int, t: float, birth: float = 2.0,
                     death: float = 3.0) -> float:
    """Linear birth-death chain (Kendall 1948): one individual's line is
    extinct by t with probability
    d (1 - e^{-(d-b)t}) / (d - b e^{-(d-b)t}), lines are independent."""
    e = math.exp(-(death - birth) * t)
    p0 = death * (1.0 - e) / (death - birth * e)
    return 1.0 - p0 ** x


def linear_moments(x0: int, t: float, birth: float = 2.0,
                   death: float = 3.0) -> tuple[float, float]:
    """Mean and variance of the linear birth-death population at t."""
    g = birth - death
    e = math.exp(g * t)
    return x0 * e, x0 * (birth + death) / g * e * (e - 1.0)


# ---------------------------------------------------------------------
# Monte Carlo intervals

def _binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), summed in log space."""
    if k < 0:
        return 0.0
    if k >= n or p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    lc = math.lgamma(n + 1)
    return min(1.0, sum(
        math.exp(lc - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                 + i * lp + (n - i) * lq) for i in range(k + 1)))


@functools.lru_cache(maxsize=None)
def clopper_pearson(successes: int, n: int) -> tuple[float, float]:
    """Exact two-sided binomial interval at level ALPHA_MC; it stays
    valid when successes is 0 or n and when p is tiny."""
    def bisect(above):
        """Smallest p in [0, 1] with above(p) true, above monotone."""
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        return 0.5 * (lo + hi)
    k, tail = successes, ALPHA_MC / 2
    # lower: P(X >= k | p) = tail; upper: P(X <= k | p) = tail
    lower = 0.0 if k == 0 else bisect(
        lambda p: 1.0 - _binomial_cdf(k - 1, n, p) >= tail)
    upper = 1.0 if k == n else bisect(
        lambda p: _binomial_cdf(k, n, p) <= tail)
    return lower, upper


def proportion_ok(successes: int, n: int, p_exact: float) -> bool:
    lo, hi = clopper_pearson(successes, n)
    return lo - 1e-12 <= p_exact <= hi + 1e-12


def mean_ok(mean: float, stderr: float, n: int, exact: float) -> bool:
    """|mean - exact| within Z_MC standard errors, where the standard
    error is floored at |exact| / sqrt(n) so that samples that all
    agree still leave an interval of that width."""
    se = max(stderr, abs(exact) / math.sqrt(n))
    return abs(mean - exact) <= Z_MC * se


def ks_agree(a, b, alpha: float = 1e-9) -> bool:
    """Two-sample Kolmogorov-Smirnov test at level alpha with the
    asymptotic critical value sqrt(-ln(alpha/2)/2) sqrt((n+m)/(nm))."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    d = np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                      - np.searchsorted(b, grid, side="right") / b.size))
    crit = math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt(
        (a.size + b.size) / (a.size * b.size))
    return bool(d <= crit)


# ---------------------------------------------------------------------
# paths

def path_integral(initial: int, jumps, beta: float, stop: float | None
                  ) -> float:
    """integral exp(beta s) 1{X_s >= 1} ds along a piecewise-constant
    path, up to absorption or to the stop time of a path still alive."""
    def piece(t1, t2):
        if beta == 0.0:
            return t2 - t1
        return (math.exp(beta * t2) - math.exp(beta * t1)) / beta
    total, t_prev, state = 0.0, 0.0, initial
    for t, s in jumps:
        if state >= 1:
            total += piece(t_prev, t)
        t_prev, state = t, s
    if state >= 1 and stop is not None:
        total += piece(t_prev, stop)
    return total


def path_valid(traj, k_max: int, horizon: float | None) -> bool:
    """Jump times increase, every jump is one death or a birth of 1 to
    k_max, the path ends where its terminal label says it does."""
    state, t_prev = traj.initial, 0.0
    for t, s in traj.jumps:
        step = s - state
        if not (t > t_prev and (step == -1 or 1 <= step <= k_max)):
            return False
        if horizon is not None and t > horizon:
            return False
        state, t_prev = s, t
    if traj.terminal == "absorbed":
        return state == 0
    if traj.terminal == "horizon-reached":
        return state >= 1 and horizon is not None
    return traj.terminal == "state-cap-reached"


def fingerprint(*parts) -> str:
    """Digest of a result's exact bits, for replay identity."""
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
