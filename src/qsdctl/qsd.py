"""Quasi-stationary analysis of a truncated chain.

Everything here works on the restriction of the generator to the living
states {1..N}.  The quasi-stationary triple (pi, lam, eta) satisfies

    pi  : left eigenvector,  pi L = -lam pi,   sum pi = 1
    eta : right eigenvector, L eta = -lam eta, pi . eta = 1

so that starting from pi the survival probability is exactly
exp(-lam t) and the conditional law never moves, while for a fixed
start x the rescaled survival exp(lam t) P_x(t < tau) converges to
eta(x).

The triple comes from two-sided inverse iteration on M = -L restricted
to the living states, which converges at the ratio lam_1/lam_2 of the
two smallest rates whatever the size of the exit rates.  M is factored
once per solve, without pivoting, into banded factors built only from
jump and absorption rates (in the manner of Grassmann, Taksar & Heyman,
Oper. Res. 33(5), 1985), so every solve adds positive terms and pi
stays accurate entry by entry far into its tail.  One window is
eliminated state by state in Python floats.  An enumeration of controls
factors the living blocks of all of them as one stacked band, state x
of every block in one numpy step with the same arithmetic, and iterates
on the stack (_solve_qsd_stacked), with solve_qsd's arithmetic and
stopping rule block by block.

Transient solves apply exp(tL) as a trapezoid sum over a parabolic
contour of the resolvent (Weideman & Trefethen, Math. Comp. 76, 2007),
each node one complex banded solve, so their cost does not grow with
the exit rates or the horizon.  Each sum certifies itself by agreeing
with the next node count; where it cannot (strongly non-normal blocks,
such as pure death on a wide window) the step is uniformized instead
(P = I + L/Lam with Lam just above the largest exit rate), with
log-space Poisson weights so stiff models and long horizons do not
underflow.

scipy's LAPACK is imported by _lapack on the first factorization, not
with this module, so code that never factors never loads scipy.linalg.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ModelError, NonConvergenceError, SolverError, ThresholdNotFoundError
from .generator import (TruncatedGenerator, _jump_rates, _jump_targets,
                        _matvec, _vecmat, build_generator)
from .models import MarkovControl, ModelSpec, validate_hypotheses, CLAUSE_DEATH_FLOOR

__all__ = [
    "QsdSolution", "solve_qsd", "ConditionalEvolution", "conditional_evolution",
    "ConvergenceDiagnostics", "eta_limit_check", "LyapunovThreshold",
    "lyapunov_threshold", "TruncationSweep", "truncation_sweep",
    "total_variation",
]


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """TV distance between two vectors of point masses, zero-padding the
    shorter one."""
    n = max(len(p), len(q))
    a = np.zeros(n)
    b = np.zeros(n)
    a[: len(p)] = p
    b[: len(q)] = q
    return 0.5 * float(np.abs(a - b).sum())


@dataclass(frozen=True, eq=False)
class QsdSolution:
    """Quasi-stationary triple on the living states 1..N.

    pi sums to one, eta is scaled so pi . eta = 1, and lam is the
    absorption rate of the conditioned chain.  The residuals are the
    max-norm defects of the two eigen identities measured on the
    returned (finally scaled) vectors; residual_floor is the rounding
    level 8 eps |A| (1 + |eta|) of those defects, which replaces the
    solve's tol as their bound when it is the larger.  iterations counts
    inverse-iteration steps, each one banded solve per side.  Entries
    of pi below 1e-300 are not resolved and are returned as 0.
    """

    level: int
    lam: float
    pi: np.ndarray             # index 0 <-> state 1
    eta: np.ndarray
    residual_left: float
    residual_right: float
    iterations: int
    residual_floor: float
    reducible_warning: bool = False

    def pi_full(self) -> np.ndarray:
        out = np.zeros(self.level + 1)
        out[1:] = self.pi
        return out

    def eta_full(self) -> np.ndarray:
        out = np.zeros(self.level + 1)
        out[1:] = self.eta
        return out


def _check_absorbing_reachable(death: np.ndarray):
    """Refuse a zero death rate.  death holds d(1), ..., d(N) on its last
    axis, one row per living block; the first zero, in row order, is
    named."""
    dead = death <= 0
    if dead.any():
        x = int(np.argmax(dead.ravel())) % death.shape[-1] + 1
        raise ModelError(
            f"state {x} has zero death rate: extinction is unreachable "
            "from it, so no quasi-stationary distribution exists")


_EPS = float(np.finfo(float).eps)
_UNRESOLVED = 1e-300  # entries of pi below this are returned as 0


def _residual_floor(norm_a: float, x: np.ndarray) -> float:
    """Smallest residual measurable in double arithmetic: evaluating
    rhs - A x rounds at eps |A| |x| even for the exact solution, which
    dominates a fixed tolerance once |A| |x| is large: a wide window
    (exit rates grow with the state) or a value near the frontier (|x|
    blows up like 1/(lam - beta))."""
    return 8 * _EPS * norm_a * (1.0 + float(abs(x).max()))


# scipy's LAPACK routines, bound by _lapack on the first factorization
dtbtrs = zgbtrf = zgbtrs = None


def _lapack():
    """Bind dtbtrs, zgbtrf and zgbtrs.  Importing scipy.linalg is most of
    the cost of importing qsdctl, so it waits for the first factor; the
    solves then read the module globals as if imported at the top."""
    global dtbtrs, zgbtrf, zgbtrs
    if zgbtrs is None:
        from scipy.linalg.lapack import dtbtrs, zgbtrf, zgbtrs


@dataclass(frozen=True, eq=False)
class _BandedFactor:
    """M = -(A + shift I) = L U for the living block A, without pivoting.

    L is unit lower bidiagonal and U upper with k_max super-diagonals,
    both in LAPACK band storage.  The factor is built GTH-style from the
    off-diagonal rates and the absorption rates only, each lowered by
    the shift: eliminating state x folds its jumps into state x+1 (the
    one state that dies into it), and each pivot is the updated
    absorption rate plus the magnitudes left in its row.  solve_qsd
    factors at shift 0 and evaluate_policy at the discount beta.

    For shift <= 0 every update adds magnitudes, so L and U carry the
    sign pattern of M exactly and each triangular solve with a positive
    right-hand side is a sum of positive terms, accurate entrywise in
    relative terms however small the entries get.  For shift > 0 the
    shifted absorption rates may be negative and the updates subtract;
    while shift is below the extinction rate, M is a nonsingular
    M-matrix with positive pivots.  A diagonal scaling makes it
    diagonally dominant and leaves the unpivoted LU otherwise the same,
    so the factor is backward stable without refinement (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    ch. 9).  The elimination stops with SolverError at the first pivot
    that is not positive and finite, before dividing by it.
    """

    lower: np.ndarray   # (2, N): row 1 holds L[x+1, x]
    upper: np.ndarray   # (k_max + 1, N): row k_max holds the pivots
    norm: float         # max absolute row sum of A + shift I
    norms: np.ndarray   # (N,): absolute row sums of A + shift I
    tops: list[int]     # states (0-based) that no state up to them leaves
                        # upwards: U has nothing right of the diagonal

    @classmethod
    def of(cls, gen: TruncatedGenerator, shift: float = 0.0
           ) -> "_BandedFactor":
        return cls.from_band(gen.death, gen.births, shift)

    @classmethod
    def from_band(cls, death: np.ndarray, births: np.ndarray,
                  shift: float = 0.0) -> "_BandedFactor":
        """Factor the living block of a band (death[x-1] = d(x) and
        births[x-1, j-1] the rate x -> x+j, zero past the block), or of
        a stack of them ((B, N) and (B, N, k)) laid end to end as one
        block-diagonal band: a block's first state dies into 0, so
        nothing couples the blocks, and each block's part of the factor
        is the one its band alone gives."""
        _lapack()
        if births.min(initial=0.0) < 0 or death.min(initial=0.0) < 0:
            raise SolverError("band has a negative rate: not a generator")
        k = births.shape[-1]
        # a block's first state dies into 0: its death rate is absorbed
        blocks = death.reshape(-1, death.shape[-1])
        absorb = np.zeros_like(blocks)
        absorb[:, 0] = blocks[:, 0]
        inner = blocks - absorb
        n = blocks.size
        walk = _eliminate if len(blocks) == 1 else _eliminate_blocks
        mults, pivots, rest, norms, tops = walk(
            inner, absorb - shift, births.reshape(blocks.shape + (k,)), shift)
        # both bands column-major, as LAPACK reads them, so no solve
        # copies them
        lower = np.ones((n, 2)).T
        lower[1, :-1] = mults[1:]
        upper = np.zeros((n, k + 1)).T
        upper[k] = pivots
        # a band may be wider than its window: no U[x, x+j] with j >= n
        for j in range(1, min(k + 1, n)):
            upper[k - j, j:] = -rest[:n - j, j - 1]
        return cls(lower, upper, float(norms.max()), norms, tops)

    # dtbtrs(ab, b, uplo, trans, diag, overwrite_b), positional: parsing
    # keywords costs half as much again as a solve on a small window
    def solve(self, v: np.ndarray) -> np.ndarray:
        """M^-1 v."""
        y = dtbtrs(self.lower, v, "L", "N", "U")[0]
        return dtbtrs(self.upper, y, "U", "N", "N", 1)[0]

    def solve_transposed(self, v: np.ndarray) -> np.ndarray:
        """M^-T v."""
        y = dtbtrs(self.upper, v, "U", "T", "N")[0]
        return dtbtrs(self.lower, y, "L", "T", "U", 1)[0]

    def class_top(self, x: int) -> int:
        """The highest state (0-based) of state x's communicating class.

        Deaths reach every lower state, so the classes are intervals and
        y tops its class when no state up to y jumps above y.  The
        elimination only adds magnitudes, so that is when row y of U has
        nothing right of the diagonal.
        """
        return self.tops[bisect_left(self.tops, x)]


def _singular(pivot: float, x: int, shift: float) -> SolverError:
    return SolverError(
        f"pivot {pivot:.3e} at state {x} is not positive and finite: "
        f"-(A + {shift:g} I) is singular to precision on this window")


# The elimination of _BandedFactor.from_band.  inner holds each block's
# death rates with the first, into 0, zeroed, and shifted the absorption
# rates lowered by the shift, both (B, N); births is (B, N, k).  Each
# returns, in stack order, -g per state (state 1's dummy, then L below
# the diagonal), the pivots, the updated rows (B N, k) with row[j-1] the
# magnitude of U[x, x+j], the norms and the class tops.

def _eliminate(inner, shifted, births, shift: float):
    """One block, state by state: Python floats beat numpy calls on rows
    this short.  kept is the shifted absorption rate of the updated row;
    a row's norm is its shifted exit rate in magnitude plus its jump
    rates.  State 1 dies into 0, which folds nothing into it: a zero
    row with pivot 1."""
    k = births.shape[-1]
    rows = births[0].tolist()
    prev, pivot, kept = [0.0] * k, 1.0, 0.0
    pivots, mults, norms, tops = [], [], [], []
    for x, (dx, ax, row) in enumerate(zip(
            inner.ravel().tolist(), shifted.ravel().tolist(), rows), 1):
        jumps = dx + sum(row)
        norms.append(abs(ax + jumps) + jumps)
        g = dx / pivot
        for j in range(k - 1):
            row[j] += g * prev[j + 1]
        kept = ax + g * kept
        up = sum(row)
        pivot = kept + up
        if not 0.0 < pivot < math.inf:
            raise _singular(pivot, x, shift)
        pivots.append(pivot)
        mults.append(-g)
        if up == 0.0:
            tops.append(x - 1)
        prev = row
    return (mults, pivots, np.array(rows).reshape(len(rows), k),
            np.array(norms), tops)


def _eliminate_blocks(inner, shifted, births, shift: float):
    """_eliminate on every block of a stack at once: step x eliminates
    state x of all blocks with _eliminate's operations in its order,
    and the sums over the birth columns run left to right from zero as
    Python's sum does, so each block's part is its own walk's to the
    bit.  A block whose pivot fails runs on to the last step; then the
    first failure in stack order raises, the one a walk of the whole
    stack would meet first."""
    nb, size, k = births.shape
    # state-major with a zero column first: rows[x, j] holds the rate up
    # j of state x+1 in every block
    rows = np.zeros((size, k + 1, nb))
    rows[:, 1:] = births.transpose(1, 2, 0)
    dx, ax = inner.T, shifted.T
    jumps = dx + np.add.accumulate(rows, axis=1)[:, -1]
    norms = abs(ax + jumps) + jumps
    g, ups, pivots = np.empty((3, size, nb))
    prev, pivot, kept = np.zeros((k + 1, nb)), 1.0, 0.0
    with np.errstate(all="ignore"):
        for x in range(size):
            row = rows[x]
            g[x] = dx[x] / pivot
            row[1:k] += g[x] * prev[2:]
            kept = ax[x] + g[x] * kept
            ups[x] = np.add.accumulate(row, axis=0)[-1]
            pivot = pivots[x] = kept + ups[x]
            prev = row
    failed = ~((pivots > 0.0) & (pivots < math.inf)).T
    if failed.any():
        x = int(np.argmax(failed))
        raise _singular(float(pivots.T.flat[x]), x + 1, shift)
    return ((-g).T.ravel(), pivots.T.ravel(),
            rows[:, 1:].transpose(2, 0, 1).reshape(nb * size, k),
            norms.T.ravel(),
            np.flatnonzero((ups == 0.0).T).tolist())


def solve_qsd(gen: TruncatedGenerator, tol: float = 1e-10,
              max_iter: int = 10_000) -> QsdSolution:
    """Two-sided inverse iteration on M = -A, A the living block.

    Each step solves M eta' = eta and M^T pi' = pi against one banded
    factorization (see _BandedFactor), rescales pi to sum 1 and eta to
    max 1, and takes lam from the two-sided Rayleigh quotient.  Both
    iterates stay positive, so nothing is clamped.  Stops once lam has
    settled (relative change below tol), every entry of eta and every
    entry of pi above 1e-300 has settled to tol relative, and both eigen
    residuals, measured at the final scaling pi . eta = 1, are below
    max(tol, floor) with floor = 8 eps |A| (1 + |eta|) the rounding level
    of the residual itself (recorded as residual_floor).  Entries of pi
    below 1e-300 are not resolved and come back as 0.  Raises
    NonConvergenceError after max_iter steps.

    On a reducible window pi lives on the states up to the top of the
    class that attains lam, and the entries above it only decay (by
    half a step on pure death, until they pass 1e-300).  Once lam and
    eta have settled and pi has not, that class is read off the factor
    as the one holding the peak of pi * eta; the states above it are
    left out of the stop and come back as exact zeros.
    """
    _check_absorbing_reachable(gen.death)
    factor = _BandedFactor.of(gen)
    n = gen.level
    pi = np.full(n, 1.0 / n)
    eta = np.ones(n)
    lam_prev = math.inf
    support = None  # pi vanishes above the first `support` states
    for iterations in range(1, max_iter + 1):
        eta_next = factor.solve(eta)
        pi_next = factor.solve_transposed(pi)
        lam = float(pi_next @ eta) / float(pi_next @ eta_next)
        pi_next /= pi_next.sum()
        eta_next /= eta_next.max()
        settled = (abs(lam - lam_prev) <= tol * lam
                   and (abs(eta_next - eta) <= tol * eta_next).all())
        if settled:
            pi_settled = ((abs(pi_next - pi) <= tol * pi_next)
                          | (pi_next <= _UNRESOLVED))
            settled = pi_settled.all()
            if not settled:
                if support is None:
                    support = 1 + factor.class_top(
                        int(np.argmax(pi_next * eta_next)))
                if support < n:
                    settled = pi_settled[:support].all()
        pi, eta, lam_prev = pi_next, eta_next, lam
        if not settled:
            continue
        if support is not None and support < n:
            pi[support:] = 0.0
            pi /= pi.sum()
        eta_s = eta / float(pi @ eta)
        res_l, res_r = map(float, _residuals(gen.death, gen.births, pi,
                                             eta_s, lam))
        floor = _residual_floor(factor.norm, eta_s)
        if max(res_l, res_r) <= max(tol, floor):
            pi[pi < _UNRESOLVED] = 0.0
            births = factor.upper.shape[0] > 1
            return QsdSolution(
                level=n, lam=lam, pi=pi, eta=eta_s,
                residual_left=res_l, residual_right=res_r,
                iterations=iterations, residual_floor=floor,
                reducible_warning=births and bool((pi == 0.0).any()))
    raise NonConvergenceError(
        f"inverse iteration did not reach tol={tol} in {max_iter} iterations")


def _residuals(death: np.ndarray, births: np.ndarray, pi: np.ndarray,
               eta: np.ndarray, lam) -> tuple:
    """max |pi A + lam pi| and max |A eta + lam eta| along the last axis,
    for one block of a band or a stack of them: solve_qsd and
    _solve_qsd_stacked stop on these, so both stop on the same step."""
    return (abs(_vecmat(death, births, pi) + lam * pi).max(axis=-1),
            abs(_matvec(death, births, eta) + lam * eta).max(axis=-1))


def _blocks_of(band: np.ndarray, keep: np.ndarray, size: int) -> np.ndarray:
    """The columns of blocks `keep` of a column-major band whose columns
    run in blocks of `size` states, column-major again."""
    rows = band.shape[0]
    return band.T.reshape(-1, size, rows)[keep].reshape(-1, rows).T


def _solve_qsd_stacked(death: np.ndarray, births: np.ndarray,
                       tol: float = 1e-10, max_iter: int = 10_000):
    """solve_qsd on many living blocks of one size N at once.

    Row b of death holds block b's death rates d(1), ..., d(N), and
    births[b, x, j-1] its rate from state x+1 up j states, lumped at N
    already.  The stack is factored once as one block-diagonal band
    (_BandedFactor.from_band), and the two-sided inverse iteration runs
    on all of it, with every reduction taken per block: stacked matmul
    for the dot products, sum and max along the rows, per-block norms
    and class tops.  Each block stops on solve_qsd's rule, the support
    rule of reducible windows included, and leaves the stack; the
    residuals come from the banded products solve_qsd uses.  So lam,
    pi, eta and the iteration counts are solve_qsd's, to the bit on the
    platforms the tests run on.  One generator alone is faster through
    solve_qsd, in about half the time on windows of 5 to 7 states.

    Returns lam (B,), pi (B, N), eta (B, N) and iterations (B,).
    Raises ModelError on a zero death rate, naming the first in block
    order, and NonConvergenceError when a block needs more than
    max_iter steps.
    """
    _check_absorbing_reachable(death)
    nb, n = death.shape
    factor = _BandedFactor.from_band(death, births)
    norms = factor.norms.reshape(nb, n).max(axis=1)
    tops = np.array(factor.tops)
    states = np.arange(n)

    lam_out = np.empty(nb)
    pi_out = np.empty((nb, n))
    eta_out = np.empty((nb, n))
    iters_out = np.empty(nb, dtype=int)
    live = np.arange(nb)         # the blocks still iterating, in stack order
    support = np.zeros(nb, dtype=int)   # 0 until the support rule reads it
    pi = np.full((nb, n), 1.0 / n)
    eta = np.ones((nb, n))
    lam_prev = np.full(nb, math.inf)
    for iterations in range(1, max_iter + 1):
        eta_next = factor.solve(eta.ravel()).reshape(-1, n)
        pi_next = factor.solve_transposed(pi.ravel()).reshape(-1, n)
        lam = (np.matmul(pi_next[:, None, :], eta[:, :, None])[:, 0, 0]
               / np.matmul(pi_next[:, None, :], eta_next[:, :, None])[:, 0, 0])
        pi_next /= pi_next.sum(axis=1)[:, None]
        eta_next /= eta_next.max(axis=1)[:, None]
        settled = np.flatnonzero(
            (abs(lam - lam_prev) <= tol * lam)
            & (abs(eta_next - eta) <= tol * eta_next).all(axis=1))
        if settled.size:
            p = pi_next[settled]
            pi_settled = (abs(p - pi[settled]) <= tol * p) | (p <= _UNRESOLVED)
            ok = pi_settled.all(axis=1)
            if not ok.all():
                late = np.flatnonzero(~ok)
                b = live[settled[late]]
                fresh = support[b] == 0
                if fresh.any():
                    i, b0 = late[fresh], b[fresh] * n
                    x = b0 + np.argmax(p[i] * eta_next[settled[i]], axis=1)
                    support[b[fresh]] = 1 + tops[np.searchsorted(tops, x)] - b0
                top = support[b][:, None]
                ok[late] = (top[:, 0] < n) & (
                    pi_settled[late] | (states >= top)).all(axis=1)
            settled = settled[ok]
        pi, eta, lam_prev = pi_next, eta_next, lam
        if not settled.size:
            continue
        b = live[settled]
        for i in settled[(support[b] > 0) & (support[b] < n)]:
            pi[i, support[live[i]]:] = 0.0
            pi[i] /= pi[i].sum()
        p, e = pi[settled], eta[settled]
        e /= np.matmul(p[:, None, :], e[:, :, None])[:, 0]
        res_l, res_r = _residuals(death[b], births[b], p, e,
                                  lam[settled, None])
        floor = 8 * _EPS * norms[b] * (1.0 + abs(e).max(axis=1))
        done = np.maximum(res_l, res_r) <= np.maximum(tol, floor)
        if not done.any():
            continue
        p[p < _UNRESOLVED] = 0.0
        b = b[done]
        lam_out[b], pi_out[b], eta_out[b] = lam[settled[done]], p[done], e[done]
        iters_out[b] = iterations
        keep = np.ones(len(live), dtype=bool)
        keep[settled[done]] = False
        if not keep.any():
            return lam_out, pi_out, eta_out, iters_out
        live, pi, eta, lam_prev = live[keep], pi[keep], eta[keep], lam[keep]
        # only the bands are read from here on
        factor = dataclasses.replace(
            factor, lower=_blocks_of(factor.lower, keep, n),
            upper=_blocks_of(factor.upper, keep, n))
    raise NonConvergenceError(
        f"inverse iteration did not reach tol={tol} in {max_iter} iterations")


# ---------------------------------------------------------------------
# transient solves

# exp(tA) v = (1/2 pi i) int e^z (z I - tA)^-1 v dz along a contour that
# opens to the left around the spectrum of tA.  The nodes are those of
# the parabola of Trefethen, Weideman & Schmelzer (BIT 46, 2006) for a
# 2q-point trapezoid rule, z(u) = s - m u^2 + i c u at u = +-1/2, +-3/2,
# ..., which converges like 2.85^-2q.  A is real, so the nodes below the
# axis are the conjugates of those above and only q solves are made.
# s, m and c sit on a 2^-20 grid, so every node and its derivative are
# exact in binary: a node rounded off the parabola costs eps |z| of its
# term, and the terms run to e^s |v|.  That rounding floor is about
# 1e-12 of |v| at q = 40 and 1e-11 at q = 48, so no count past 40 can
# meet the tolerance, 1e-12 of the result: relative, since a step that
# keeps e^-30 of v must still be right to the digits the caller rescales
# (eta_limit_check multiplies by e^(lam t)), and tighter than the 1e-12
# absolute closed-form checks on a substochastic exp(tA).
_CONTOUR_TOL = 1e-12
_NODES_FIRST, _NODES_STEP, _NODES_CAP = 16, 8, 40


def _contour_nodes(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z_k above the axis and weights w_k such that exp(tA) v is
    2 Re sum_k w_k (z_k I - tA)^-1 v."""
    s, m, c = (round(x * 2.0 ** 20) / 2.0 ** 20 for x in (
        0.2618 * q, 0.2388 * math.pi ** 2 / q, 0.5 * math.pi))
    u = np.arange(q) + 0.5
    z = s - m * u * u + 1j * (c * u)
    return z, np.exp(z) * (1j * c - 2.0 * m * u) / (2j * math.pi)


_LOG_TINY = -745.0  # below exp() underflow


def _uniformized_action(a: np.ndarray, v: np.ndarray, t: float,
                        lam_unif: float, transpose: bool = False) -> np.ndarray:
    """exp(t A) v (or exp(t A^T) v) through the subordinated chain.

    Poisson weights are accumulated in log space, so this stays exact
    for stiff generators where Lam * t runs to the hundreds of
    thousands.  Cost: one dense mat-vec per series term.
    """
    if t < 0:
        raise SolverError("transient solve needs t >= 0")
    if t == 0:
        return v.copy()
    n = a.shape[0]
    p = np.eye(n) + (a.T if transpose else a) / lam_unif
    mean = lam_unif * t
    log_mean = math.log(mean)
    k_hi = int(mean + 40.0 * math.sqrt(mean + 10.0) + 30.0)
    acc = np.zeros_like(v)
    term = v.copy()
    covered = 0.0
    k = 0
    while k <= k_hi:
        logw = k * log_mean - mean - math.lgamma(k + 1)
        if logw > _LOG_TINY:
            w = math.exp(logw)
            acc += w * term
            covered += w
            if covered >= 1.0 - 1e-14 and k > mean:
                break
        term = p @ term
        k += 1
    return acc


class _Transient:
    """exp(tA) v and exp(tA^T) v on one generator's living block A.

    Each action is the contour sum above, one complex banded LU
    (zgbtrf) and solve (zgbtrs) per node: A has one sub-diagonal and
    k_max super-diagonals, and A^T is stored the other way round, so
    a law that cannot reach a state gets an exact zero there.  The sum
    certifies itself: q starts at 16 and grows by 8 until two
    consecutive sums agree to 1e-12 of the result, in the norm it lives
    in (sup norm for survival, total mass for laws).  It gives up once
    their gap stops shrinking, or past q = 40, where the rounding of the
    sum alone passes the tolerance; that step is then uniformized as
    before, the only other method.  The rounding scales with |v|, so a
    step that keeps too little of v to be resolved falls back too.
    Non-normal blocks need the fallback: on pure death at N = 1000 the
    sums are off by up to 1e94.  exp(tA) is entrywise nonnegative, so a
    certified sum is clipped at 0.

    The dense block and the uniformization rate are read only on a first
    fallback.  Each sum factors its nodes as it goes and drops them.
    """

    def __init__(self, gen: TruncatedGenerator):
        _lapack()
        self.gen = gen
        n, k = gen.births.shape
        # diagonals -1, 0, 1, ..., k of the living block
        self.diags = [gen.death[1:], -gen.exits,
                      *(gen.births[:n - j, j - 1] for j in range(1, k + 1))]

    @cached_property
    def dense(self) -> np.ndarray:
        return np.ascontiguousarray(self.gen.active)

    @cached_property
    def lam_unif(self) -> float:
        return self.gen.uniformization_rate()

    def action(self, v: np.ndarray, t: float,
               transpose: bool = False) -> np.ndarray:
        if t < 0:
            raise SolverError("transient solve needs t >= 0")
        if t == 0:
            return v.copy()
        out = self._certified(v, t, transpose)
        if out is None:
            return _uniformized_action(self.dense, v, t, self.lam_unif,
                                       transpose)
        return np.maximum(out, 0.0, out=out)

    def _certified(self, v: np.ndarray, t: float,
                   transpose: bool) -> np.ndarray | None:
        order = 1 if transpose else math.inf
        prev, gap_prev = None, math.inf
        for q in range(_NODES_FIRST, _NODES_CAP + 1, _NODES_STEP):
            cur = self._sum(v, t, transpose, q)
            if prev is not None:
                gap = float(np.linalg.norm(cur - prev, order))
                if gap <= _CONTOUR_TOL * float(np.linalg.norm(cur, order)):
                    return cur
                if not gap < gap_prev:
                    return None
                gap_prev = gap
            prev = cur
        return None

    def _sum(self, v: np.ndarray, t: float, transpose: bool,
             q: int) -> np.ndarray:
        """2 Re sum_k w_k (z_k I - tA)^-1 v over q nodes (A^T when
        transposed)."""
        n, k = self.gen.level, len(self.diags) - 2
        kl, ku = (k, 1) if transpose else (1, k)
        # -tA in LAPACK band storage, column-major so zgbtrf works in place
        shifted = np.zeros((2 * kl + ku + 1, n), complex, order="F")
        for j, d in enumerate(self.diags, -1):
            j = -j if transpose else j
            shifted[kl + ku - j, max(j, 0):n + min(j, 0)] = -t * d
        rhs = v.astype(complex).reshape(-1, 1)
        acc = np.zeros(n, complex)
        for z, w in zip(*_contour_nodes(q)):
            m = shifted.copy(order="F")
            m[kl + ku] += z
            lu, piv, _ = zgbtrf(m, kl, ku, overwrite_ab=1)
            acc += w * zgbtrs(lu, kl, ku, rhs, piv)[0][:, 0]
        return 2.0 * acc.real


def _profile(transient: _Transient, times: Sequence[float]) -> np.ndarray:
    ts = [float(t) for t in times]
    if any(t < 0 for t in ts) or ts != sorted(ts):
        raise SolverError("times must be non-decreasing and >= 0")
    v = np.ones(transient.gen.level)
    out = np.empty((len(ts), len(v)))
    prev = 0.0
    for i, t in enumerate(ts):
        v = transient.action(v, t - prev)
        out[i] = v
        prev = t
    return out


def survival_profile(gen: TruncatedGenerator, times: Sequence[float]) -> np.ndarray:
    """P_x(t < tau) for every living state x at each requested time,
    chaining exp((t_i - t_(i-1)) A) from the all-ones vector (each step
    a certified contour sum, or uniformized; see _Transient).  Shape
    (len(times), N)."""
    return _profile(_Transient(gen), times)


@dataclass(frozen=True, eq=False)
class ConditionalEvolution:
    """Law of the chain conditioned on survival at each output time,
    plus the unconditional survival probability (mass) remaining."""

    times: tuple[float, ...]
    laws: np.ndarray       # (steps, N) rows summing to 1
    survival: np.ndarray   # (steps,) probability of not yet being absorbed


def conditional_evolution(gen: TruncatedGenerator, mu0: np.ndarray,
                          t: float, steps: int = 1) -> ConditionalEvolution:
    """Push a distribution on {1..N} forward and renormalize at
    times j t/steps, j = 1..steps.

    The forward equation is driven by the adjoint of the living block:
    each step is exp(dt A^T), a certified contour sum or uniformized
    (see _Transient).  Mass is renormalized after every step and
    tracked in log space, so long horizons report survival accurately
    instead of underflowing; a single step that loses all representable
    mass is an error.
    """
    if steps < 1:
        raise SolverError("steps must be >= 1")
    if t < 0:
        raise SolverError("t must be >= 0")
    n = gen.level
    mu = np.asarray(mu0, dtype=float).copy()
    if mu.shape != (n,):
        raise SolverError(f"mu0 must live on the {n} active states")
    if np.any(mu < 0) or mu.sum() <= 0:
        raise SolverError("mu0 must be a nonnegative vector with mass")
    mu /= mu.sum()
    transient = _Transient(gen)
    dt = t / steps
    laws = np.empty((steps, n))
    survival = np.empty(steps)
    log_mass = 0.0
    for j in range(steps):
        mu = transient.action(mu, dt, transpose=True)
        mass = float(mu.sum())
        if not mass > 0:
            raise SolverError(
                f"surviving mass underflowed at time {(j + 1) * dt:g}; "
                "use more steps or a shorter horizon")
        mu /= mass
        log_mass += math.log(mass)
        laws[j] = mu
        survival[j] = math.exp(log_mass)
    times = tuple((j + 1) * dt for j in range(steps))
    return ConditionalEvolution(times, laws, survival)


@dataclass(frozen=True, eq=False)
class ConvergenceDiagnostics:
    """How fast the chain forgets its start.

    eta_deviation[i] = max_x | exp(lam t_i) P_x(t_i < tau) - eta(x) |,
    tv_to_pi maps a probe start x to the TV distance between the
    conditional law started at x and pi at each time, and
    fitted_decay_rate is the slope of log eta_deviation against time.
    """

    times: tuple[float, ...]
    eta_deviation: tuple[float, ...]
    tv_to_pi: Mapping[int, tuple[float, ...]]
    fitted_decay_rate: float


def eta_limit_check(gen: TruncatedGenerator, qsd: QsdSolution,
                    times: Sequence[float],
                    tv_probes: Sequence[int] = ()) -> ConvergenceDiagnostics:
    """Measure convergence of the rescaled survival profile to eta.

    For each time t the deviation max_x |exp(lam t) P_x(t<tau) - eta(x)|
    is reported; under the standing assumptions it decays exponentially
    and the fitted rate approximates the spectral gap.  Optional probe
    states additionally track the TV distance of the conditional law
    to pi.  The profile and the probes go through one set of transient
    solves (see _Transient), which reads the band once for all of them.
    """
    ts = sorted(float(t) for t in times)
    if not ts:
        raise SolverError("need at least one time")
    transient = _Transient(gen)
    prof = _profile(transient, ts)
    dev = tuple(
        float(np.max(np.abs(math.exp(qsd.lam * t) * prof[i] - qsd.eta)))
        for i, t in enumerate(ts))
    tv: dict[int, tuple[float, ...]] = {}
    for x in tv_probes:
        x = int(x)
        if not 1 <= x <= gen.level:
            raise SolverError(f"probe state {x} outside 1..{gen.level}")
        delta = np.zeros(gen.level)
        delta[x - 1] = 1.0
        tvs = []
        mu = delta
        prev = 0.0
        for t in ts:
            mu = transient.action(mu, t - prev, transpose=True)
            mass = float(mu.sum())
            if not mass > 0:
                raise SolverError(
                    f"no surviving mass from probe {x} at time {t:g}")
            mu = mu / mass
            tvs.append(total_variation(mu, qsd.pi))
            prev = t
        tv[x] = tuple(tvs)
    # least-squares slope of log(dev) on t; positive number = decay rate
    pos = [(t, d) for t, d in zip(ts, dev) if d > 0]
    if len(pos) >= 2:
        tt = np.array([p[0] for p in pos])
        ld = np.log([p[1] for p in pos])
        slope = float(np.polyfit(tt, ld, 1)[0])
        rate = -slope
    else:
        rate = math.inf
    return ConvergenceDiagnostics(tuple(ts), dev, tv, rate)


# ---------------------------------------------------------------------
# Lyapunov drift threshold

def _psi_values(n_max: int, epsilon: float) -> np.ndarray:
    """psi(x) = sum_{y<=x} y^-(1+epsilon/2), psi(0) = 0; bounded in x."""
    out = np.zeros(n_max + 1)
    ys = np.arange(1, n_max + 1, dtype=float)
    out[1:] = np.cumsum(ys ** (-(1.0 + 0.5 * epsilon)))
    return out


@dataclass(frozen=True)
class LyapunovThreshold:
    x_threshold: int
    margin: float        # max over [x_threshold, n_check] of the drift; <= 0
    n_check: int
    lam: float
    epsilon: float


def lyapunov_threshold(model: ModelSpec, lam: float,
                       n_check: int | None = None) -> LyapunovThreshold:
    """Smallest x at which the bounded test function psi has uniformly
    negative lam-shifted drift on [x, n_check] under every action.

    Requires the model to declare the superlinear death floor and to
    pass it on the window; otherwise psi is not a valid certificate and
    this refuses with ModelError.
    """
    n_check = model.level if n_check is None else int(n_check)
    c = model.constants
    if c.epsilon is None:
        raise ModelError(
            "drift threshold needs declared d_lower/epsilon constants")
    report = validate_hypotheses(model, n_check)
    floor = report.clause(CLAUSE_DEATH_FLOOR)
    if floor.status != "pass":
        raise ModelError(
            "drift threshold needs the superlinear death floor to hold "
            f"on 1..{n_check}; check failed with witness {floor.witness}")
    # no jump from 1..n_check is lumped on a window k_max states wider
    wide = n_check + model.progeny.k_max
    psi = _psi_values(wide, c.epsilon)
    targets = _jump_targets(n_check, model.progeny.k_max, wide)
    worst = np.full(n_check, -np.inf)
    for a in range(model.num_actions):
        b, d, _ = model.rate_tables(a, n_check)
        rates = _jump_rates(b[1:], d[1:], model.progeny.pmf(a))
        drift = ((rates * (psi[targets] - psi[1:n_check + 1, None])).sum(axis=1)
                 + lam * psi[1:n_check + 1])
        worst = np.maximum(worst, drift)
    bad = np.flatnonzero(worst > 0)
    if bad.size and bad[-1] == n_check - 1:
        raise ThresholdNotFoundError(
            f"drift stays positive up to the window edge {n_check}; "
            "no usable threshold found")
    x_thr = int(bad[-1]) + 2 if bad.size else 1
    margin = float(np.max(worst[x_thr - 1:]))
    return LyapunovThreshold(x_thr, margin, n_check, lam, c.epsilon)


# ---------------------------------------------------------------------
# truncation sweep

@dataclass(frozen=True)
class SweepRow:
    level: int
    lam: float
    lam_gap_to_largest: float
    tv_to_largest: float


@dataclass(frozen=True)
class TruncationSweep:
    rows: tuple[SweepRow, ...]


def truncation_sweep(model: ModelSpec, control: MarkovControl,
                     levels: Sequence[int], tol: float = 1e-10) -> TruncationSweep:
    """Solve the QSD at each level and report drift of (lam, pi) against
    the largest level.  Purely diagnostic: nothing is asserted."""
    lv = sorted(int(x) for x in levels)
    if not lv:
        raise ModelError("need at least one level")
    sols = {}
    for n in lv:
        sols[n] = solve_qsd(build_generator(model, control.truncate(n), n),
                            tol=tol)
    top = sols[lv[-1]]
    rows = tuple(
        SweepRow(n, sols[n].lam, abs(sols[n].lam - top.lam),
                 total_variation(sols[n].pi, top.pi))
        for n in lv)
    return TruncationSweep(rows)
