"""The three workloads: seeded request lists and the checks on them.

A request is one user-level call into qsdctl, wrapped in a closure
with its inputs already made.  Requests come in groups; a group's
check sees every outcome of one round of the group and returns a
verdict per request.  Checks compare against `oracles` (computed apart
from qsdctl) or against a property the method must have, never against
stored output.

The make-up of each round is fixed; the seed moves starts, times,
discounts and simulation seeds inside fixed ranges, so the work per
round hardly depends on it.  Why each workload exists:

* spectral: QSD triples, survival curves, conditional laws and a
  truncation sweep on single-action windows of 50 to 200 states.
  Time sits in generator and qsd; a banded or shift-invert QSD solver
  shows here, simulator work should move nothing.
* control: policy iteration at seeded discounts (negative, inside,
  near and past the frontier), rate continuation with cross-check,
  frontier ladders and two enumeration sweeps.  Time sits in hjb,
  asymptotics and generator, with hundreds of tiny QSD solves, so
  per-call overhead in qsd shows here.
* montecarlo: estimators on simulate_markov, thinning under history
  rules, a corollary spot check and the CLI simulate command.  The CLI
  runs of 100 short culling paths weigh per-path cost, a few long
  linear paths weigh per-event cost.  One group (horizon_integral)
  checks a known fault and fails every time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles as orc
from qsdctl import (InfeasibleBetaError, SimConfig, brute_force_control_opt,
                    build_generator, conditional_evolution,
                    corollary_spot_check, discounted_survival_integral,
                    estimate_conditional_law, estimate_cost,
                    estimate_survival, limit_theorem_check,
                    optimize_extinction_rate, policies, policy_iteration,
                    simulate_markov, simulate_thinning, solve_qsd,
                    survival_profile, truncation_sweep)
from qsdctl.cli import main as cli_main

WORKLOADS = ("spectral", "control", "montecarlo")

Outcome = tuple  # (value, exception or None)


@dataclass
class Group:
    """Requests of one kind and the check that judges them."""

    name: str
    calls: list[Callable[[], Any]]
    check: Callable[[list[Outcome]], list[bool]]
    # value -> digest; every round must reproduce the first round's bits
    replay: Callable[[Any], str] | None = None
    # a check that fails every time because of a fault in qsdctl
    known_fault: bool = False
    _first: list | None = field(default=None, repr=False)

    def verdicts(self, outcomes: list[Outcome]) -> list[bool]:
        oks = [bool(v) for v in self.check(outcomes)]
        if len(oks) != len(outcomes):
            raise RuntimeError(f"check of {self.name} returned {len(oks)} "
                               f"verdicts for {len(outcomes)} requests")
        if self.replay is not None:
            prints = [None if err else self.replay(val)
                      for val, err in outcomes]
            if self._first is None:
                self._first = prints
            oks = [ok and p is not None and p == f
                   for ok, p, f in zip(oks, prints, self._first)]
        return oks


def each(judge: Callable[[int, Any], bool]):
    """Check that judges every successful request on its own."""
    def check(outcomes):
        return [err is None and bool(judge(i, val))
                for i, (val, err) in enumerate(outcomes)]
    return check


def jointly(judge: Callable[[list], bool]):
    """Check that judges the values of a group together (a law from
    many paths): all requests pass or all fail."""
    def check(outcomes):
        if any(err is not None for _, err in outcomes):
            return [False] * len(outcomes)
        ok = bool(judge([val for val, _ in outcomes]))
        return [ok] * len(outcomes)
    return check


def close(a, b, atol: float, rtol: float = 0.0) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def uniform(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def build(workload: str, models: dict, seed: int, out_dir: Path) -> list[Group]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "spectral":
        return spectral(models, rng)
    if workload == "control":
        return control(models, rng)
    return montecarlo(models, rng, out_dir)


# ---------------------------------------------------------------------
# spectral

# More than half of the requests are these unseeded solves, so the
# median request latency is one of them and does not move with the seed.
QSD_WINDOWS = (("logistic", 50), ("logistic", 70), ("linear", 80),
               ("linear", 120), ("pure_death", 200), ("geometric", 80),
               ("geometric_k1", 80), ("geometric_k1", 120))
SWEEP = ("logistic", (24, 32, 40))


def spectral(models: dict, rng) -> list[Group]:
    chains: dict[tuple, orc.Chain] = {}

    def chain(name, level):
        key = (name, level)
        if key not in chains:
            chains[key] = orc.Chain(models[name], level)
        return chains[key]

    def generator(name, level):
        m = models[name]
        return build_generator(m, m.constant_control(0, level), level)

    # --- QSD triples: dense eigensolve, identities, closed forms
    def triple_call(name, level):
        def call():
            gen = generator(name, level)
            return gen, solve_qsd(gen)
        return call

    def judge_triple(i, val):
        name, level = QSD_WINDOWS[i]
        gen, sol = val
        c = chain(name, level)
        q = c.matrix(c.constant(0))
        a = q[1:, 1:]
        scale = max(1.0, float(np.max(np.abs(a))))
        lam = orc.rate(a)
        ok = (close(gen.matrix, q, 0.0, 1e-13)
              and abs(sol.lam - lam) <= 1e-8 * max(1.0, lam)
              and bool(np.all(sol.pi >= 0)) and bool(np.all(sol.eta >= 0))
              and abs(sol.pi.sum() - 1.0) <= 1e-12
              and abs(float(sol.pi @ sol.eta) - 1.0) <= 1e-9
              and float(np.max(np.abs(sol.pi @ a + sol.lam * sol.pi)))
              <= 1e-10 * scale
              and float(np.max(np.abs(a @ sol.eta + sol.lam * sol.eta)))
              <= 1e-10 * scale)
        if name == "pure_death":
            xs = np.arange(1, level + 1)
            ok = ok and abs(sol.lam - 1.0) <= 1e-10 and \
                abs(sol.pi[0] - 1.0) <= 1e-9 and close(sol.eta, xs, 0.0, 1e-8)
        return ok

    triples = Group("qsd_triple",
                    [triple_call(n, lv) for n, lv in QSD_WINDOWS],
                    each(judge_triple))

    # --- survival curves: expm, Kendall, pure-death closed form,
    # and exp(-lam t) from the profile
    curve_specs = []
    for name, level in (("logistic", 50), ("linear", 120),
                        ("pure_death", 200), ("geometric", 80)):
        times = tuple(sorted(uniform(rng, 0.1, 2.0) for _ in range(3)))
        curve_specs.append((name, level, times))

    def curve_call(name, level, times):
        return lambda: survival_profile(generator(name, level), times)

    def judge_curve(i, prof):
        name, level, times = curve_specs[i]
        a = chain(name, level).active(chain(name, level).constant(0))
        lam, pi, _ = orc.qsd_vectors(a)
        ok = prof.shape == (len(times), level) and close(
            pi @ prof.T, [math.exp(-lam * t) for t in times], 0.0, 1e-8)
        if name == "pure_death":
            exact = [[orc.pure_death_survival(x, t)
                      for x in range(1, level + 1)] for t in times]
            return ok and close(prof, exact, 1e-10)
        if name == "linear":
            # Kendall's form is for the untruncated chain; from x <= 20
            # the window edge at 120 is out of reach
            exact = [[orc.kendall_survival(x, t) for x in range(1, 21)]
                     for t in times]
            ok = ok and close(prof[:, :20], exact, 1e-9)
        return ok and close(prof, orc.survival(a, times), 1e-8)

    curves = Group("survival_curve",
                   [curve_call(*s) for s in curve_specs], each(judge_curve))

    # --- conditional laws: expm forward solve; from the profile the law
    # stays put and survival is exp(-lam t)
    law_specs = []
    x_start = int(rng.integers(1, 11))
    law_specs.append(("logistic", 50, ("point", x_start),
                      uniform(rng, 0.5, 2.0), 3))
    weights = rng.random(20)
    law_specs.append(("geometric", 80, ("weights", tuple(weights)),
                      uniform(rng, 0.5, 2.0), 2))
    law_specs.append(("logistic", 70, ("profile",),
                      uniform(rng, 0.5, 2.0), 2))

    def start_vector(name, level, spec):
        if spec[0] == "profile":
            c = chain(name, level)
            return orc.qsd_vectors(c.active(c.constant(0)))[1]
        mu = np.zeros(level)
        if spec[0] == "point":
            mu[spec[1] - 1] = 1.0
        else:
            mu[:len(spec[1])] = spec[1]
        return mu

    law_inputs = [(n, lv, start_vector(n, lv, s), t, steps)
                  for n, lv, s, t, steps in law_specs]

    def law_call(name, level, mu0, t, steps):
        return lambda: conditional_evolution(generator(name, level), mu0,
                                             t, steps)

    def judge_law(i, evo):
        name, level, mu0, t, steps = law_inputs[i]
        c = chain(name, level)
        a = c.active(c.constant(0))
        mu = mu0 / mu0.sum()
        ok = len(evo.times) == steps
        for j in range(steps):
            tj = (j + 1) * t / steps
            ok = ok and abs(evo.times[j] - tj) <= 1e-12 * (1 + tj)
            exact = orc.forward(a, mu, tj)
            mass = float(exact.sum())
            ok = ok and abs(evo.survival[j] - mass) <= 1e-8 * mass \
                and close(evo.laws[j], exact / mass, 1e-8)
        if law_specs[i][2][0] == "profile":
            lam, pi, _ = orc.qsd_vectors(a)
            ok = ok and close(evo.survival,
                              [math.exp(-lam * tj) for tj in evo.times],
                              0.0, 1e-8) \
                and all(0.5 * np.abs(law - pi).sum() <= 1e-8
                        for law in evo.laws)
        return ok

    laws = Group("conditional_law", [law_call(*s) for s in law_inputs],
                 each(judge_law))

    # --- truncation sweep: one dense eigensolve per level
    name, levels = SWEEP

    def sweep_call():
        m = models[name]
        return truncation_sweep(m, m.constant_control(0, levels[-1]), levels)

    def judge_sweep(_, sweep):
        vecs = {}
        for lv in levels:
            c = chain(name, lv)
            vecs[lv] = orc.qsd_vectors(c.active(c.constant(0)))
        lam_top, pi_top, _ = vecs[levels[-1]]
        ok = [r.level for r in sweep.rows] == list(levels)
        for r in sweep.rows:
            lam, pi, _ = vecs[r.level]
            padded = np.zeros(levels[-1])
            padded[:r.level] = pi
            ok = ok and abs(r.lam - lam) <= 1e-8 * max(1.0, lam) \
                and abs(r.lam_gap_to_largest - abs(lam - lam_top)) <= 2e-8 \
                and abs(r.tv_to_largest
                        - 0.5 * np.abs(padded - pi_top).sum()) <= 1e-7
        return ok

    sweeps = Group("truncation_sweep", [sweep_call], each(judge_sweep))
    return [triples, curves, laws, sweeps]


# ---------------------------------------------------------------------
# control

# Draws of the nine seeded discounts per enumerable model.  The median
# request is one of these small policy iterations, whose cost moves with
# the discount; more draws make that median move less with the seed.
PI_DRAWS = 3


def control(models: dict, rng) -> list[Group]:
    culling = models["culling"]
    enums: dict[tuple, orc.Enumeration] = {}

    def enum(name, level):
        key = (name, level)
        if key not in enums:
            enums[key] = orc.Enumeration(orc.Chain(models[name], level))
        return enums[key]

    # --- policy iteration on enumerable windows; discounts placed
    # against the enumerated extremal rates
    def discounts(en):
        lo, hi = en.extremal("min"), en.extremal("max")
        near = lambda: 10 ** uniform(rng, -4, -2)
        return [("min", -uniform(rng, 0.1, 1.0)),
                ("max", -uniform(rng, 0.1, 1.0)),
                ("min", lo * uniform(rng, 0.2, 0.8)),
                ("max", lo * uniform(rng, 0.2, 0.8)),
                ("min", lo + (hi - lo) * uniform(rng, 0.2, 0.8)),
                ("min", hi - near()),        # near the frontier
                ("max", lo - near()),
                ("min", hi + uniform(rng, 0.01, 0.3)),   # past it: refused
                ("max", lo + uniform(rng, 0.01, 0.3))]

    def pi_call(model, level, mode, beta):
        return lambda: policy_iteration(model, beta, mode, level=level)

    def certified(chain, sol, mode, beta) -> bool:
        """Optimality residual, the policy's own value by dense LU, and
        a rate above the discount."""
        policy = sol.policy.assignment
        a = chain.active(policy)
        v_lu = orc.value(a, chain.cost(policy), beta)
        return (sol.v[0] == 0.0
                and close(sol.v[1:], v_lu, 1e-9, 1e-8)
                and orc.hjb_residual(chain, sol.v, beta, mode)
                <= 1e-9 + 16 * orc.residual_scale(chain, sol.v)
                and orc.rate(a) > beta)

    def enum_group(gname, name, level):
        en = enum(name, level)
        specs = [s for _ in range(PI_DRAWS) for s in discounts(en)]
        model = models[name]

        def judge(i, outcome):
            sol, err = outcome
            mode, beta = specs[i]
            best = en.optimum(beta, mode)
            if best is None:
                return isinstance(err, InfeasibleBetaError)
            return err is None and certified(en.chain, sol, mode, beta) \
                and close(sol.v[1:], best, 1e-9, 1e-8)

        def check(outcomes):
            return [judge(i, o) for i, o in enumerate(outcomes)]
        return Group(gname, [pi_call(model, level, m, b) for m, b in specs],
                     check)

    # --- policy iteration on a window too large to enumerate: the
    # optimality residual certifies the answer
    window = 30
    wchain = orc.Chain(culling, window)
    lam_keep = orc.rate(wchain.active(wchain.constant(0)))
    # No near-frontier discount here: policy_iteration's final residual
    # test is absolute (1e-9) and fails there on this window.
    wspecs = [("min", -uniform(rng, 0.1, 1.0)),
              ("max", -uniform(rng, 0.1, 1.0)),
              ("min", lam_keep * uniform(rng, 0.2, 0.8)),
              ("max", lam_keep * uniform(rng, 0.2, 0.8))]

    def judge_window(i, sol):
        mode, beta = wspecs[i]
        return certified(wchain, sol, mode, beta)

    pi_window = Group("pi_window",
                      [pi_call(culling, window, m, b) for m, b in wspecs],
                      each(judge_window))

    # --- rate continuation, cross-checked by its own enumeration
    rspecs = [("culling", 6, "max"), ("culling", 6, "min"),
              ("three_action", 4, "max")]

    def rate_call(name, level, objective):
        return lambda: optimize_extinction_rate(
            models[name], objective, level, cross_check=True)

    def judge_rate(i, res):
        name, level, objective = rspecs[i]
        en = enum(name, level)
        ext = en.extremal(objective)
        return (abs(res.lam - ext) <= 1e-9 * max(1.0, ext)
                and abs(orc.rate(en.chain.active(res.control.assignment))
                        - ext) <= 1e-9 * max(1.0, ext)
                and abs(res.enumeration_lam - ext) <= 1e-9 * max(1.0, ext)
                and res.cross_check_gap <= 1e-9 and len(res.steps) >= 1)

    rate_opt = Group("rate_opt", [rate_call(*s) for s in rspecs],
                     each(judge_rate))

    # --- frontier ladders: rungs re-solved by enumeration
    lspecs = [(objective, int(rng.integers(1, 4)))
              for objective in ("max", "min")]

    def ladder_call(objective, x):
        return lambda: limit_theorem_check(culling, objective, x, 6)

    def judge_ladder(i, chk):
        objective, x = lspecs[i]
        en = enum("culling", 6)
        hjb_mode = "min" if objective == "max" else "max"
        lam = en.extremal(objective)
        side = []
        for c, lam_c in zip(en.controls, en.lams):
            if abs(lam_c - lam) <= 1e-8:
                _, pi, eta = orc.qsd_vectors(en.chain.active(c))
                side.append(float(pi @ en.chain.cost(c)) * float(eta[x - 1]))
        reference = min(side) if hjb_mode == "min" else max(side)
        ok = (abs(chk.lam - lam) <= 1e-9
              and abs(chk.reference - reference) <= 1e-7 * abs(reference))
        errs = []
        for beta, product in zip(chk.betas, chk.products):
            best = en.optimum(float(beta), hjb_mode)
            if best is None:
                ok = ok and not np.isfinite(product)
                continue
            exact = (lam - beta) * float(best[x - 1])
            ok = ok and abs(product - exact) <= 1e-7 * abs(exact)
            errs.append(abs(exact - reference))
        converged = bool(errs) and errs[-1] <= 5e-2 * (abs(reference) + 1e-12) \
            and errs[-1] <= errs[0] + 1e-12
        return ok and chk.converged == converged

    ladders = Group("limit_ladder", [ladder_call(*s) for s in lspecs],
                    each(judge_ladder))

    # --- enumeration sweeps of a few hundred controls
    especs = [("culling", 7, "max"), ("three_action", 5, "min")]

    def enum_call(name, level, objective):
        return lambda: brute_force_control_opt(models[name], objective, level)

    def judge_enum(i, res):
        name, level, objective = especs[i]
        en = enum(name, level)
        ext = en.extremal(objective)
        return (res.count == len(en.controls)
                and abs(res.lam - ext) <= 1e-9 * max(1.0, ext)
                and abs(orc.rate(en.chain.active(res.control.assignment))
                        - ext) <= 1e-9 * max(1.0, ext))

    sweeps = Group("enumerate", [enum_call(*s) for s in especs],
                   each(judge_enum))

    return [enum_group("pi_culling", "culling", 6),
            enum_group("pi_three_action", "three_action", 5),
            pi_window, rate_opt, ladders, sweeps]


# ---------------------------------------------------------------------
# montecarlo

# Inputs of the known-fault group do not depend on the workload seed:
# its requests fail on every run, so the failed share never moves.
HORIZON_SEED = 2016
HORIZON = 0.05
HORIZON_PATHS = 2
HORIZON_BETA = 0.5


def trajectory_digest(traj) -> str:
    return orc.fingerprint(traj.initial, traj.jumps, traj.terminal)


def survival_ok(taus, times, exact) -> bool:
    """Empirical survival of the extinction times at each time lies in
    the exact binomial interval around the exact value."""
    return all(orc.proportion_ok(int(np.sum(taus > t)), len(taus), p)
               for t, p in zip(times, exact))


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue()


def montecarlo(models: dict, rng, out_dir: Path) -> list[Group]:
    culling = models["culling"]
    linear = models["linear"]
    keep, cull = 0, 1
    # culling paths live on the untruncated chain; at 40 states the
    # window edge is out of their reach
    cchain = orc.Chain(culling, 40)
    seeds = iter(int(s) for s in rng.integers(1, 2 ** 31 - 1, size=16))
    groups: list[Group] = []
    law_times = (0.3, 0.8, 1.5)

    # --- estimators on simulate_markov
    sx = int(rng.integers(3, 7))
    stimes = tuple(sorted(uniform(rng, 0.2, 2.0) for _ in range(3)))
    ctimes = tuple(sorted(uniform(rng, 0.2, 2.0) for _ in range(3)))
    lin_ctl = linear.constant_control(0)
    keep_ctl = culling.constant_control(keep)
    cull_ctl = culling.constant_control(cull)
    surv_specs = [(linear, lin_ctl, sx, stimes, SimConfig(next(seeds), 400),
                   [orc.kendall_survival(sx, t) for t in stimes]),
                  (culling, keep_ctl, 3, ctimes, SimConfig(next(seeds), 400),
                   orc.survival(cchain.active(cchain.constant(keep)),
                                ctimes)[:, 2])]

    def judge_surv(i, ests):
        _, _, _, times, cfg, exact = surv_specs[i]
        return len(ests) == len(times) and all(
            orc.proportion_ok(round(e.value * cfg.samples), cfg.samples, p)
            for e, p in zip(ests, exact))

    groups.append(Group(
        "estimate_survival",
        [(lambda s=s: estimate_survival(*s[:5])) for s in surv_specs],
        each(judge_surv)))

    t_law = uniform(rng, 0.3, 1.0)
    law_cfg = SimConfig(next(seeds), 400)
    a_keep = cchain.active(cchain.constant(keep))
    start3 = np.zeros(cchain.level)
    start3[2] = 1.0
    law_exact = orc.forward(a_keep, start3, t_law)

    def judge_law(_, law):
        mass = float(law_exact.sum())
        ok = orc.proportion_ok(law.survivors, law_cfg.samples, mass) \
            and abs(law.probs.sum() - 1.0) <= 1e-12
        for s in range(1, 16):
            count = round(law.prob_of(s) * law.survivors)
            ok = ok and orc.proportion_ok(count, law.survivors,
                                          law_exact[s - 1] / mass)
        return ok

    groups.append(Group(
        "estimate_law",
        [lambda: estimate_conditional_law(culling, keep_ctl, 3, t_law,
                                          law_cfg)],
        each(judge_law)))

    cx = int(rng.integers(2, 5))
    cbeta = uniform(rng, -0.5, 0.3)
    cost_cfg = SimConfig(next(seeds), 400)
    a_cull = cchain.active(cchain.constant(cull))
    cost_exact = float(orc.value(a_cull, cchain.cost(cchain.constant(cull)),
                                 cbeta)[cx - 1])
    groups.append(Group(
        "estimate_cost",
        [lambda: estimate_cost(culling, cull_ctl, cx, cbeta, cost_cfg)],
        each(lambda _, e: orc.mean_ok(e.value, e.stderr, e.n, cost_exact))))

    # --- single paths, each one request: thinning under the three
    # history rules and the Markov simulator.  Their laws are checked on
    # the CLI runs of the same rules below, 100 paths each; keeping the
    # single paths few makes the median request one of the larger ones.
    t_switch = round(uniform(rng, 0.2, 0.6), 3)
    rules = [policies.peak_threshold(5, keep, cull),
             policies.switch_after_first_jump(cull, keep),
             policies.time_threshold(t_switch, keep, cull)]
    path_cfg = SimConfig(next(seeds))
    path_calls = (
        [(lambda i=i: simulate_thinning(culling, rules[i % 3], 3, path_cfg,
                                        stream_index=i))
         for i in range(9)]
        + [(lambda i=i: simulate_markov(culling, cull_ctl, 3, path_cfg,
                                        stream_index=i))
           for i in range(9, 11)])
    groups.append(Group("short_paths", path_calls,
                        each(lambda _, t: orc.path_valid(t, 1, None)),
                        replay=trajectory_digest))

    # --- long linear paths, thousands of jumps each.  The 15 Markov
    # paths sit in the middle of the request list, so the median request
    # is the middle one of them, an average over many similar paths.
    x_long = int(rng.integers(790, 811))
    long_cfg = SimConfig(next(seeds), horizon=1.0)
    mean, var = orc.linear_moments(x_long, 1.0)
    long_rules = [policies.peak_threshold(x_long + 50, 0, 0),
                  policies.time_threshold(0.5, 0, 0)]
    long_calls = (
        [(lambda i=i: simulate_thinning(linear, long_rules[i % 2], x_long,
                                        long_cfg, stream_index=i))
         for i in range(4)]
        + [(lambda i=i: simulate_markov(linear, lin_ctl, x_long, long_cfg,
                                        stream_index=i))
           for i in range(4, 19)])

    def judge_long(trajs):
        """Each path, and the mean of each simulator's paths, lie within
        seven standard deviations of the exact law at the horizon."""
        sd = math.sqrt(var)
        finals = [t.final_state for t in trajs]
        return all(orc.path_valid(t, 1, 1.0) for t in trajs) and \
            all(abs(f - mean) <= 7.0 * sd for f in finals) and \
            all(abs(statistics.fmean(fs) - mean)
                <= 7.0 * sd / math.sqrt(len(fs))
                for fs in (finals[:4], finals[4:]))

    groups.append(Group("long_paths", long_calls, jointly(judge_long),
                        replay=trajectory_digest))

    # --- corollary spot check: the bound by enumeration, the estimate
    # against the rule's exact discounted survival
    spot_x = int(rng.integers(1, 4))
    spot_beta = uniform(rng, 0.1, 0.35)
    spot_cfg = SimConfig(next(seeds), 200)
    spot_en = orc.Enumeration(orc.Chain(culling.with_unit_cost(), 6))
    spot_bound = float(spot_en.optimum(spot_beta, "max")[spot_x - 1])
    spot_exact = orc.start_discounted_survival(
        *orc.peak_rule(cchain, 5, keep, cull, spot_x), spot_beta)

    def judge_spot(_, sc):
        est = sc.estimate
        return (abs(sc.bound - spot_bound) <= 1e-9 * spot_bound
                and orc.mean_ok(est.value, est.stderr, est.n, spot_exact)
                and sc.ok == (est.value <= sc.bound + 3.0 * est.stderr))

    groups.append(Group(
        "spot_check",
        [lambda: corollary_spot_check(culling,
                                      policies.peak_threshold(5, keep, cull),
                                      spot_x, spot_beta, spot_cfg)],
        each(judge_spot)))

    # --- the CLI simulate command under a control and under each rule;
    # the same argv every round, so every round replays the first.  The
    # all-cull control (Markov simulator) and the constant-cull rule
    # (thinning) must agree in law.
    cli_seed = next(seeds)
    cli_paths = 100
    cull_exact = orc.survival(a_cull, law_times)[:, 2]
    cli_specs = [
        (["--control", "cull"], cull_exact),
        (["--rule", "constant:cull"], cull_exact),
        (["--rule", "peak:5,keep,cull", "--paths"],
         orc.start_survival(*orc.peak_rule(cchain, 5, keep, cull, 3),
                            law_times)),
        (["--rule", "switch:cull,keep"],
         orc.start_survival(*orc.switch_rule(cchain, cull, keep, 3),
                            law_times)),
        (["--rule", f"time:{t_switch},keep,cull"],
         orc.time_rule_survival(cchain, t_switch, keep, cull, 3, law_times)),
    ]
    cli_argvs = [["simulate", "culling", "--x0", "3", "--seed", str(cli_seed),
                  "--samples", str(cli_paths), "--out",
                  str(out_dir / f"simulate-{i}")] + extra
                 for i, (extra, _) in enumerate(cli_specs)]

    def cli_call(argv):
        out = Path(argv[argv.index("--out") + 1])
        return lambda: run_cli(argv) + (out,)

    def cli_taus(out: Path) -> np.ndarray:
        with open(out / "summary.csv", newline="") as fh:
            return np.array([math.inf if r["extinction_time_s"] == ""
                             else float(r["extinction_time_s"])
                             for r in csv.DictReader(fh)])

    def judge_cli(i, result):
        rc, _, out = result
        if rc != 0:
            return False
        man = json.loads((out / "manifest.json").read_text())
        ok = man["seed"] == cli_seed and man["argv"][1:] == cli_argvs[i]
        for path, digest in man["outputs"].items():
            ok = ok and orc.file_digest(path) == digest
        taus = cli_taus(out)
        return ok and len(taus) == cli_paths and \
            survival_ok(taus, law_times, cli_specs[i][1])

    def check_cli(outcomes):
        oks = each(judge_cli)(outcomes)
        if oks[0] and oks[1]:
            agree = orc.ks_agree(cli_taus(outcomes[0][0][2]),
                                 cli_taus(outcomes[1][0][2]))
            oks[0] = oks[1] = agree
        return oks

    def cli_digest(result):
        """Exit code, printed summary and the output hashes the
        manifest records."""
        rc, stdout, out = result
        man = json.loads((out / "manifest.json").read_text())
        return orc.fingerprint(rc, stdout, sorted(man["outputs"].items()))

    groups.append(Group("cli_simulate", [cli_call(a) for a in cli_argvs],
                        check_cli, replay=cli_digest))

    # --- known fault: discounted_survival_integral drops the piece from
    # the last jump to the horizon of a path stopped alive
    hcfg = SimConfig(HORIZON_SEED, horizon=HORIZON)
    paths: dict[int, Any] = {}

    def horizon_path(i):
        paths[i] = simulate_thinning(culling, policies.constant(keep), 3,
                                     hcfg, stream_index=i)
        return paths[i]

    groups.append(Group(
        "horizon_path",
        [(lambda i=i: horizon_path(i)) for i in range(HORIZON_PATHS)],
        each(lambda _, t: orc.path_valid(t, 1, HORIZON)),
        replay=trajectory_digest))

    def judge_integral(i, got):
        traj = paths[i]
        stop = HORIZON if traj.terminal == "horizon-reached" else None
        exact = orc.path_integral(traj.initial, traj.jumps, HORIZON_BETA,
                                  stop)
        return abs(got - exact) <= 1e-12 * (1.0 + exact)

    groups.append(Group(
        "horizon_integral",
        [(lambda i=i: discounted_survival_integral(paths[i], HORIZON_BETA))
         for i in range(HORIZON_PATHS)],
        each(judge_integral), known_fault=True))
    return groups

