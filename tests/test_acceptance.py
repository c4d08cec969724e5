"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is a single test and prints exactly one PASS/FAIL line with
its headline numbers before asserting.  Tolerances are stated inline.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from qsdctl import policies
from qsdctl.asymptotics import (corollary_spot_check, limit_theorem_check,
                                optimize_extinction_rate)
from qsdctl.cli import main
from qsdctl.errors import InfeasibleBetaError
from qsdctl.generator import build_generator
from qsdctl.hjb import evaluate_policy, policy_iteration
from qsdctl.manifest import file_sha256
from qsdctl.qsd import (conditional_evolution, eta_limit_check, solve_qsd,
                        survival_profile, total_variation)
from qsdctl.simulate import SimConfig, simulate_markov, simulate_thinning

from oracles import brute_force_value_opt


def report(num: int, ok: bool, text: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    return ok


def unit_cost(level):
    f = np.ones(level + 1)
    f[0] = 0.0
    return f


def test_criterion_01_qsd_certificate(logistic_gen, logistic_qsd):
    """Quasi-stationary triple on the bundled logistic model: the
    solver's rate agrees with a dense eigendecomposition to 1e-8 and
    the defining identities hold to 1e-10 at the returned scaling."""
    a = logistic_gen.active
    w, vl = scipy.linalg.eig(a, left=True, right=False)
    lam_dense = -float(np.max(w.real))
    sol = logistic_qsd
    scale = float(np.max(np.abs(a)))
    checks = [
        abs(sol.lam - lam_dense) <= 1e-8,
        abs(sol.pi.sum() - 1.0) <= 1e-12,
        abs(float(sol.pi @ sol.eta) - 1.0) <= 1e-9,
        bool(np.all(sol.pi >= 0.0)) and bool(np.all(sol.eta >= 0.0)),
        float(np.max(np.abs(sol.pi @ a + sol.lam * sol.pi))) <= 1e-10 * scale,
        float(np.max(np.abs(a @ sol.eta + sol.lam * sol.eta))) <= 1e-10 * scale,
    ]
    ok = all(checks)
    assert report(
        1, ok,
        f"qsd certificate (lambda={sol.lam:.12f}, dense gap "
        f"{abs(sol.lam - lam_dense):.2e}, residuals "
        f"{sol.residual_left:.1e}/{sol.residual_right:.1e})"), checks


def test_criterion_02_exponential_survival_from_profile(culling):
    """Started from the stationary profile, survival is exactly
    exp(-lam t) (rel 1e-8 at each grid time) and the conditional law
    does not move (TV <= 1e-8)."""
    gen = build_generator(culling, culling.constant_control(1), 6)
    sol = solve_qsd(gen)
    times = [0.4, 0.9, 1.7, 3.0]
    worst_rel = 0.0
    worst_tv = 0.0
    for t in times:
        evo = conditional_evolution(gen, sol.pi, t, steps=1)
        worst_rel = max(worst_rel,
                        abs(evo.survival[-1] - math.exp(-sol.lam * t))
                        / math.exp(-sol.lam * t))
        worst_tv = max(worst_tv, total_variation(evo.laws[-1], sol.pi))
    ok = worst_rel <= 1e-8 and worst_tv <= 1e-8
    assert report(
        2, ok,
        f"exp(-lambda t) survival from the stationary profile "
        f"(worst rel {worst_rel:.2e}, worst TV {worst_tv:.2e})")


def test_criterion_03_eta_limit(culling):
    """exp(lam t) P_x(t < tau) converges to eta uniformly on the
    window: deviations decay monotonically to <= 1e-6 by t=6 and the
    fitted decay rate matches the spectral gap within 10 percent."""
    gen = build_generator(culling, culling.constant_control(0), 6)
    sol = solve_qsd(gen)
    diag = eta_limit_check(gen, sol, [1.0, 2.0, 4.0, 6.0])
    dev = diag.eta_deviation
    w = np.sort(scipy.linalg.eigvals(gen.active).real)[::-1]
    gap = float(w[0] - w[1])
    ok = (all(a > b for a, b in zip(dev, dev[1:]))
          and dev[-1] <= 1e-6
          and abs(diag.fitted_decay_rate - gap) <= 0.1 * gap)
    assert report(
        3, ok,
        f"eta limit (final deviation {dev[-1]:.2e}, fitted rate "
        f"{diag.fitted_decay_rate:.4f} vs gap {gap:.4f})")


def test_criterion_04_conditional_law_forgets_start(culling):
    """The conditioned chain forgets its start: TV distance to the
    stationary profile decays monotonically from every probe state to
    <= 1e-6 by t=6."""
    gen = build_generator(culling, culling.constant_control(0), 6)
    sol = solve_qsd(gen)
    diag = eta_limit_check(gen, sol, [1.0, 2.0, 4.0, 6.0],
                           tv_probes=[1, 3, 6])
    finals = []
    ok = True
    for x, tvs in diag.tv_to_pi.items():
        ok = ok and all(a > b for a, b in zip(tvs, tvs[1:]))
        ok = ok and tvs[-1] <= 1e-6
        finals.append(tvs[-1])
    assert report(
        4, ok,
        f"conditional law -> stationary profile (final TV from probes "
        f"{max(finals):.2e})")


def test_criterion_05_closed_forms(pure_death, pd_gen, pd_qsd):
    """Unit-rate pure death: rate 1 (1e-10), point-mass profile at 1
    (1e-9), linear eta (rel 1e-8), exact two-individual survival curve
    (1e-12), and discounted values 1/(1-beta), 2/(1-beta)-1/(2-beta)
    (rel 1e-11) plus mean extinction time 11/6 from three."""
    t = 1.3
    surv = survival_profile(pd_gen, [t])[0, 1]
    v = evaluate_policy(pd_gen, unit_cost(200), 0.5, lam=1.0)
    v0 = evaluate_policy(pd_gen, unit_cost(200), 0.0, lam=1.0)
    checks = [
        abs(pd_qsd.lam - 1.0) <= 1e-10,
        abs(pd_qsd.pi[0] - 1.0) <= 1e-9,
        float(np.max(np.abs(pd_qsd.eta / np.arange(1, 201) - 1.0))) <= 1e-8,
        abs(surv - (2 * math.exp(-t) - math.exp(-2 * t))) <= 1e-12,
        abs(v[1] - 2.0) <= 2e-11,
        abs(v[2] - (4.0 - 1.0 / 1.5)) <= 2e-11 * (4 - 1 / 1.5),
        abs(v0[3] - 11.0 / 6.0) <= 2e-11,
    ]
    ok = all(checks)
    assert report(
        5, ok,
        f"pure-death closed forms (lambda err {abs(pd_qsd.lam - 1):.1e}, "
        f"survival err {abs(surv - 2 * math.exp(-t) + math.exp(-2 * t)):.1e}, "
        f"value errs {abs(v[1] - 2):.1e}/{abs(v0[3] - 11 / 6):.1e})"), checks


def test_criterion_06_hjb_certificate_and_refusal(culling):
    """Discounted solve: optimality residual <= 1e-9, agreement with
    exhaustive enumeration to 1e-9, and discounts at or above the
    extinction rate are refused with the named diagnostic."""
    sol = policy_iteration(culling, 0.4, "min")
    v_enum, c_enum = brute_force_value_opt(culling, 0.4, "min")
    agree = float(np.max(np.abs(sol.v - v_enum)))
    refused_pi = False
    try:
        policy_iteration(culling, 0.95, "min")
    except InfeasibleBetaError as e:
        refused_pi = (e.diagnostic == "beta exceeds truncated lambda-star")
    refused_eval = False
    gen = build_generator(culling, culling.constant_control(1), 6)
    lam = solve_qsd(gen).lam
    try:
        evaluate_policy(gen, unit_cost(6), lam, lam=lam)
    except InfeasibleBetaError:
        refused_eval = True
    ok = (sol.hjb_residual <= 1e-9 and agree <= 1e-9
          and c_enum == sol.policy and refused_pi and refused_eval)
    assert report(
        6, ok,
        f"hjb certificate (residual {sol.hjb_residual:.1e}, enumeration "
        f"gap {agree:.1e}, refusals {'on' if refused_pi else 'MISSING'})")


def test_criterion_07_policy_improvement_dominates(culling):
    """Howard iteration improves monotonically and its optimum
    dominates every constant policy pointwise (1e-10 slack): below the
    constants in min mode, above them in max mode."""
    beta = 0.3
    consts = []
    for a in range(2):
        gen = build_generator(culling, culling.constant_control(a), 6)
        f = np.zeros(7)
        for x in range(1, 7):
            f[x] = culling.cost_rate(x, a)
        consts.append(evaluate_policy(gen, f, beta))
    sol_min = policy_iteration(culling, beta, "min")
    sol_max = policy_iteration(culling, beta, "max")
    mono_min = all(r.delta_up <= 1e-9 for r in sol_min.trace.records[1:])
    mono_max = all(r.delta_down >= -1e-9 for r in sol_max.trace.records[1:])
    dominates = (
        all(np.all(sol_min.v <= c + 1e-10) for c in consts)
        and all(np.all(sol_max.v >= c - 1e-10) for c in consts))
    ok = mono_min and mono_max and dominates
    assert report(
        7, ok,
        f"policy improvement (monotone {'yes' if mono_min and mono_max else 'NO'}, "
        f"dominates both constants {'yes' if dominates else 'NO'})")


def test_criterion_08_spectral_policy_iteration_vs_enumeration(culling):
    """Spectral policy iteration reproduces the enumerated extremal rates
    exactly (gap 0 within 1e-12): largest 0.9290248887341586 at
    all-cull, smallest 0.474608065007655 at all-keep."""
    opt_max = optimize_extinction_rate(culling, "max", cross_check=True)
    opt_min = optimize_extinction_rate(culling, "min", cross_check=True)
    checks = [
        abs(opt_max.lam - 0.9290248887341586) <= 1e-9,
        abs(opt_min.lam - 0.474608065007655) <= 1e-9,
        opt_max.control.assignment == (1,) * 6,
        opt_min.control.assignment == (0,) * 6,
        opt_max.cross_check_gap <= 1e-12,
        opt_min.cross_check_gap <= 1e-12,
    ]
    ok = all(checks)
    assert report(
        8, ok,
        f"spectral policy iteration (max {opt_max.lam:.12f} gap "
        f"{opt_max.cross_check_gap:.1e}, min {opt_min.lam:.12f} gap "
        f"{opt_min.cross_check_gap:.1e})"), checks


def test_criterion_09_frontier_limit_and_bound(culling):
    """Near the frontier, (lam - beta) v_beta(x) approaches the
    stationary product of a rate-extremal control (within 5e-2
    relative by the eighth rung, both objectives), and no history rule
    beats the maximizing stationary value in Monte Carlo."""
    chk_max = limit_theorem_check(culling, "max", x=1)
    chk_min = limit_theorem_check(culling, "min", x=1)
    spot = corollary_spot_check(
        culling, policies.peak_threshold(5, 0, 1), x=2, beta=0.3,
        config=SimConfig(seed=71, samples=400))
    ok = (chk_max.converged and chk_min.converged
          and not chk_max.inconclusive and not chk_min.inconclusive
          and spot.ok)
    assert report(
        9, ok,
        f"frontier limit (max gap {chk_max.gap:.2e} of ref "
        f"{chk_max.reference:.4f}, min gap {chk_min.gap:.2e}; spot check "
        f"slack {spot.slack:.3f})")


def test_criterion_10_simulators_and_replay(culling, tmp_path):
    """The two simulators agree in law (two-sample KS on extinction
    times, p > 1e-3), and replaying a CLI invocation reproduces every
    output hash recorded in its manifest bit for bit."""
    control = culling.constant_control(1)
    rule = policies.markov_as_history(control)
    n = 500
    t_markov = np.array(
        [simulate_markov(culling, control, 3, SimConfig(seed=81),
                         stream_index=i).extinction_time for i in range(n)])
    t_thin = np.array(
        [simulate_thinning(culling, rule, 3, SimConfig(seed=82),
                           stream_index=i).extinction_time
         for i in range(n)])
    ks = scipy.stats.ks_2samp(t_markov, t_thin)

    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    argv = ["simulate", "culling", "--x0", "3", "--seed", "17",
            "--samples", "30", "--control", "cull", "--paths"]
    with contextlib.redirect_stdout(io.StringIO()):
        rc1 = main(argv + ["--out", str(out1)])
        rc2 = main(argv + ["--out", str(out2)])
    man = json.loads((out1 / "manifest.json").read_text())
    replay_ok = rc1 == 0 and rc2 == 0 and man["seed"] == 17
    for path, digest in man["outputs"].items():
        name = path.rsplit("/", 1)[-1]
        replay_ok = replay_ok and file_sha256(out2 / name) == digest
    ok = ks.pvalue > 1e-3 and replay_ok
    assert report(
        10, ok,
        f"simulators agree and replay is exact (KS p={ks.pvalue:.3f}, "
        f"{len(man['outputs'])} output hashes reproduced)")
