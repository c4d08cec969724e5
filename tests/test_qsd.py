import math
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdctl.errors import (ModelError, NonConvergenceError, SolverError,
                           ThresholdNotFoundError)
from qsdctl.expressions import parse_rate_expression as rx
from qsdctl.generator import build_generator
from qsdctl.hjb import evaluate_policy
from qsdctl.models import (Action, ControlSet, HypothesisConstants,
                           MarkovControl, ModelSpec, ProgenyDist)
from qsdctl.qsd import (_Transient, _uniformized_action,
                        conditional_evolution, eta_limit_check,
                        lyapunov_threshold, solve_qsd, survival_profile,
                        total_variation, truncation_sweep)

from test_models import make_model

# eigen-solved rates of the bundled models, frozen for regression; the
# dense-eigendecomposition cross-checks below keep them honest
LOGISTIC_LAM_200 = 1.148765241261827
GEOMETRIC_LAM_100 = 0.7362339585924322
CULLING_LAM_KEEP = 0.474608065007655
CULLING_LAM_CULL = 0.9290248887341586


def dense_triple(active):
    """Oracle: quasi-stationary triple by full eigendecomposition."""
    w, vl, vr = scipy.linalg.eig(active, left=True, right=True)
    i = int(np.argmax(w.real))
    lam = -float(w[i].real)
    pi = vl[:, i].real
    pi = np.abs(pi) / np.abs(pi).sum()
    eta = np.abs(vr[:, i].real)
    eta = eta / float(pi @ eta)
    return lam, pi, eta


class TestPureDeathClosedForms:
    def test_rate_is_one(self, pd_qsd):
        assert pd_qsd.lam == pytest.approx(1.0, abs=1e-10)

    def test_profile_is_point_mass_at_one(self, pd_qsd):
        assert pd_qsd.pi[0] == pytest.approx(1.0, abs=1e-9)
        assert pd_qsd.pi[1:].sum() == pytest.approx(0.0, abs=1e-9)

    def test_survival_shape_is_linear(self, pd_qsd):
        np.testing.assert_allclose(pd_qsd.eta, np.arange(1, 201),
                                   rtol=1e-8, atol=1e-8)

    def test_residuals_meet_contract(self, pd_qsd):
        assert pd_qsd.residual_left <= 1e-10
        assert pd_qsd.residual_right <= 1e-10

    def test_no_reducibility_flag_without_births(self, pd_qsd):
        assert not pd_qsd.reducible_warning


class TestAgainstDenseEig:
    def test_culling_all_controls(self, culling):
        for assignment in [(0,) * 6, (1,) * 6, (0, 1, 0, 1, 0, 1)]:
            gen = build_generator(culling, MarkovControl(assignment), 6)
            sol = solve_qsd(gen)
            lam, pi, eta = dense_triple(gen.active)
            assert sol.lam == pytest.approx(lam, abs=1e-9)
            assert total_variation(sol.pi, pi) < 1e-8
            np.testing.assert_allclose(sol.eta, eta, atol=1e-8)

    def test_geometric(self, geometric_gen, geometric_qsd):
        lam, pi, eta = dense_triple(geometric_gen.active)
        assert geometric_qsd.lam == pytest.approx(lam, abs=1e-8)
        assert total_variation(geometric_qsd.pi, pi) < 1e-7

    def test_logistic(self, logistic_gen, logistic_qsd):
        lam, _, _ = dense_triple(logistic_gen.active)
        assert logistic_qsd.lam == pytest.approx(lam, abs=1e-8)


class TestRegressionRates:
    def test_logistic_frozen(self, logistic_qsd):
        assert logistic_qsd.lam == pytest.approx(LOGISTIC_LAM_200, abs=1e-9)

    def test_geometric_frozen(self, geometric_qsd):
        assert geometric_qsd.lam == pytest.approx(GEOMETRIC_LAM_100, abs=1e-9)

    def test_linear_rate_is_death_minus_birth(self, linear):
        gen = build_generator(linear, linear.constant_control(0), 100)
        sol = solve_qsd(gen)
        assert sol.lam == pytest.approx(1.0, abs=1e-9)

    def test_culling_constants(self, culling):
        for a, expect in ((0, CULLING_LAM_KEEP), (1, CULLING_LAM_CULL)):
            gen = build_generator(culling, culling.constant_control(a), 6)
            assert solve_qsd(gen).lam == pytest.approx(expect, abs=1e-9)


class TestDefiningRelations:
    def test_triple_identities(self, culling, geometric_gen, geometric_qsd):
        gen = build_generator(culling, culling.constant_control(1), 6)
        for g, sol in ((gen, solve_qsd(gen)), (geometric_gen, geometric_qsd)):
            a = g.active
            assert sol.pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert float(sol.pi @ sol.eta) == pytest.approx(1.0, rel=1e-10)
            assert np.max(np.abs(sol.pi @ a + sol.lam * sol.pi)) <= 1e-10
            assert np.max(np.abs(a @ sol.eta + sol.lam * sol.eta)) <= 1e-10
            assert np.all(sol.pi >= 0)
            assert np.all(sol.eta >= 0)

    def test_logistic_underflow_flag(self, logistic_qsd):
        # the stationary profile genuinely underflows in the far tail
        assert logistic_qsd.reducible_warning
        assert logistic_qsd.pi[-1] == 0.0
        assert logistic_qsd.pi[:20].sum() > 0.999

    def test_zero_death_rejected(self):
        # states 1..5 cannot die, so extinction is unreachable from them
        m = make_model(death="max(0, n - 5)", d_bar="n",
                       d_lower=None, epsilon=None)
        with pytest.raises(ModelError, match="zero death rate"):
            solve_qsd(build_generator(m, m.constant_control(0, 8), 8))

    def test_iteration_cap(self, culling):
        gen = build_generator(culling, culling.constant_control(0), 6)
        with pytest.raises(NonConvergenceError):
            solve_qsd(gen, tol=1e-13, max_iter=2)


class TestTailAccuracy:
    # references from a 60-digit inverse iteration on the same window;
    # the profile falls by ~280 decades across it
    @pytest.mark.parametrize("x, ref", [
        (51, 7.260646e-55), (101, 3.5017584e-134),
        (151, 1.9407827e-224), (181, 3.4491752e-282)])
    def test_logistic_far_tail(self, logistic_qsd, x, ref):
        assert logistic_qsd.pi[x - 1] == pytest.approx(ref, rel=1e-6)


class TestWideWindows:
    # eps |A| |eta| passes the absolute 1e-10 from N ~ 1000 on: the
    # stop must take the rounding floor instead of running to max_iter
    @pytest.mark.parametrize("level", [1000, 2000])
    def test_logistic_converges_fast(self, logistic, level):
        gen = build_generator(logistic, logistic.constant_control(0, level),
                              level)
        start = time.perf_counter()
        sol = solve_qsd(gen)
        assert time.perf_counter() - start < 1.0
        assert max(sol.residual_left, sol.residual_right) <= max(
            1e-10, sol.residual_floor)
        assert sol.residual_floor > 1e-10
        if level == 1000:
            lam = -float(np.max(scipy.linalg.eigvals(gen.active).real))
            assert sol.lam == pytest.approx(lam, rel=1e-8)

    def test_band_alone_on_wide_windows(self, logistic, logistic_gen,
                                        logistic_qsd, culling):
        # a dense 100001-state generator would take 80 GB: the solves run
        # on the band and never build it.  Far from the edge the wide
        # window agrees with a narrow one
        n = 100_000
        gen = build_generator(logistic, logistic.constant_control(0, n), n)
        sol = solve_qsd(gen)
        assert sol.lam == pytest.approx(logistic_qsd.lam, rel=1e-10)
        assert max(sol.residual_left, sol.residual_right) <= max(
            1e-10, sol.residual_floor)
        np.testing.assert_allclose(sol.eta[:50], logistic_qsd.eta[:50],
                                   rtol=1e-9)
        cost = np.ones(n + 1)
        cost[0] = 0.0
        beta = 0.5 * sol.lam
        v = evaluate_policy(gen, cost, beta, lam=sol.lam)
        narrow = evaluate_policy(logistic_gen, cost[:201], beta,
                                 lam=logistic_qsd.lam)
        np.testing.assert_allclose(v[:50], narrow[:50], rtol=1e-9)
        assert "matrix" not in gen.__dict__

        gen = build_generator(culling, culling.constant_control(0, 10_000),
                              10_000)
        prof = survival_profile(gen, [1.0])
        narrow = survival_profile(
            build_generator(culling, culling.constant_control(0, 50), 50),
            [1.0])
        np.testing.assert_allclose(prof[0, :20], narrow[0, :20], rtol=1e-10)
        assert "matrix" not in gen.__dict__


class TestTransient:
    def test_survival_matches_expm(self, culling):
        gen = build_generator(culling, MarkovControl((1, 0, 1, 0, 1, 0)), 6)
        times = [0.3, 0.9, 2.1]
        prof = survival_profile(gen, times)
        for i, t in enumerate(times):
            ref = scipy.linalg.expm(gen.active * t) @ np.ones(6)
            np.testing.assert_allclose(prof[i], ref, atol=1e-12)

    def test_pure_death_survival_closed_form(self, pd_gen):
        # from state 2: two independent unit-rate lifetimes
        t = 1.3
        prof = survival_profile(pd_gen, [t])
        expect = 2 * math.exp(-t) - math.exp(-2 * t)
        assert prof[0, 1] == pytest.approx(expect, abs=1e-12)

    def test_times_validated(self, pd_gen):
        with pytest.raises(SolverError):
            survival_profile(pd_gen, [2.0, 1.0])
        with pytest.raises(SolverError):
            survival_profile(pd_gen, [-1.0])

    def test_conditional_law_is_binomial(self, pd_gen):
        # pure death from 3: alive individuals ~ Binomial(3, e^-t) given >= 1
        t = 0.7
        mu0 = np.zeros(200)
        mu0[2] = 1.0
        evo = conditional_evolution(pd_gen, mu0, t, steps=1)
        p = math.exp(-t)
        ref = np.array([3 * p * (1 - p) ** 2, 3 * p ** 2 * (1 - p), p ** 3])
        ref /= ref.sum()
        np.testing.assert_allclose(evo.laws[-1][:3], ref, atol=1e-12)
        assert evo.laws[-1][3:].sum() == 0.0
        assert evo.survival[-1] == pytest.approx(1 - (1 - p) ** 3, abs=1e-12)

    def test_multistep_matches_single_step(self, culling):
        gen = build_generator(culling, culling.constant_control(0), 6)
        mu0 = np.full(6, 1 / 6)
        one = conditional_evolution(gen, mu0, 2.0, steps=1)
        many = conditional_evolution(gen, mu0, 2.0, steps=8)
        np.testing.assert_allclose(many.laws[-1], one.laws[-1], atol=1e-10)
        assert many.survival[-1] == pytest.approx(one.survival[-1], rel=1e-10)

    def test_long_horizon_survival_no_underflow(self, culling):
        # e^(-lam t) with lam*t ~ 1400 underflows double precision; the
        # log-space mass tracking must survive it
        gen = build_generator(culling, culling.constant_control(1), 6)
        mu0 = np.zeros(6)
        mu0[0] = 1.0
        evo = conditional_evolution(gen, mu0, 1500.0, steps=200)
        assert evo.survival[-1] == 0.0 or evo.survival[-1] < 1e-290
        assert evo.laws[-1].sum() == pytest.approx(1.0, abs=1e-9)


class TestEtaLimit:
    def test_deviation_decays_and_rate_is_gap(self, culling):
        gen = build_generator(culling, culling.constant_control(0), 6)
        sol = solve_qsd(gen)
        diag = eta_limit_check(gen, sol, [1.0, 2.0, 4.0, 6.0],
                               tv_probes=[1, 5])
        dev = diag.eta_deviation
        assert all(a > b for a, b in zip(dev, dev[1:]))
        assert dev[-1] < 1e-6
        for probe in (1, 5):
            tvs = diag.tv_to_pi[probe]
            assert tvs[-1] < 1e-7
        # the fitted decay rate approximates the spectral gap
        w = np.sort(scipy.linalg.eigvals(gen.active).real)[::-1]
        gap = float(w[0] - w[1])
        assert diag.fitted_decay_rate == pytest.approx(gap, rel=0.05)


class TestLyapunovThreshold:
    def test_logistic_threshold(self, logistic, logistic_qsd):
        thr = lyapunov_threshold(logistic, logistic_qsd.lam)
        assert thr.x_threshold == 6
        assert thr.margin < 0
        assert thr.n_check == 200

    def test_requires_declared_floor(self, linear):
        with pytest.raises(ModelError, match="d_lower/epsilon"):
            lyapunov_threshold(linear, 1.0)

    def test_requires_floor_to_hold(self, pure_death):
        # pure death declares a floor that fails its own check
        with pytest.raises(ModelError, match="floor"):
            lyapunov_threshold(pure_death, 1.0)

    def test_window_too_small(self, logistic):
        with pytest.raises(ThresholdNotFoundError):
            lyapunov_threshold(logistic, 1.148765241261827, n_check=4)


class TestSweepAndTV:
    def test_total_variation_pads(self):
        assert total_variation(np.array([1.0]), np.array([0.5, 0.5])) == 0.5
        assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_truncation_sweep_converges(self, logistic):
        control = logistic.constant_control(0, 120)
        sweep = truncation_sweep(logistic, control, [30, 60, 120])
        rows = sweep.rows
        assert [r.level for r in rows] == [30, 60, 120]
        assert rows[-1].lam_gap_to_largest == 0.0
        assert rows[-1].tv_to_largest == 0.0
        assert rows[0].lam_gap_to_largest >= rows[1].lam_gap_to_largest
        # 30 states already hold the bulk: lam is stable to many digits
        assert rows[0].lam_gap_to_largest < 1e-8


# random-chain property: the returned triple satisfies its defining
# identities whatever the rates

@settings(max_examples=25, deadline=None)
@given(
    level=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_qsd_identities_random_chain(level, seed):
    rng = np.random.default_rng(seed)
    b_coef = float(rng.uniform(0.0, 3.0))
    d_coef = float(rng.uniform(0.5, 3.0))
    k_max = int(rng.integers(1, 4))
    probs = rng.dirichlet(np.ones(k_max))
    m = ModelSpec(
        name="rand", controls=ControlSet((Action("a", {}),)),
        birth=rx(f"{b_coef!r} * n"), death=rx(f"{d_coef!r} * n"), cost=rx("1"),
        progeny=ProgenyDist.from_table(probs, 1),
        constants=HypothesisConstants(
            b_bar=b_coef + 1e-6, m_bound=float(k_max),
            d_bar=rx(f"{d_coef!r} * n")),
        level=level)
    gen = build_generator(m, m.constant_control(0, level), level)
    sol = solve_qsd(gen)
    a = gen.active
    assert sol.lam > 0
    assert sol.pi.sum() == pytest.approx(1.0, abs=1e-10)
    scale = max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(sol.pi @ a + sol.lam * sol.pi)) <= 1e-10 * scale
    assert np.max(np.abs(a @ sol.eta + sol.lam * sol.eta)) <= 1e-10 * scale


# random multi-action models under mixed controls, shared with the
# value-solve properties in test_hjb; births everywhere keep the chain
# irreducible

MIXED_CONTROL_CHAINS = dict(
    level=st.integers(min_value=2, max_value=40),
    k_max=st.integers(min_value=1, max_value=6),
    actions=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)


def mixed_control_generator(level, k_max, actions, seed):
    rng = np.random.default_rng(seed)
    b_coef = float(rng.uniform(0.1, 3.0))
    d_pow = float(rng.uniform(1.0, 2.0))
    scales = rng.uniform(0.5, 2.0, size=(actions, 2))
    m = ModelSpec(
        name="rand",
        controls=ControlSet(tuple(
            Action(f"a{i}", {"sb": sb, "sd": sd})
            for i, (sb, sd) in enumerate(scales))),
        birth=rx(f"sb * {b_coef!r} * n"), death=rx(f"sd * n^{d_pow!r}"),
        cost=rx("1"),
        progeny=ProgenyDist("table", k_max,
                            rng.dirichlet(np.ones(k_max), size=actions)),
        constants=HypothesisConstants(
            b_bar=2 * b_coef, m_bound=float(k_max),
            d_bar=rx(f"2 * n^{d_pow!r}")),
        level=level)
    control = MarkovControl(tuple(rng.integers(0, actions, size=level)))
    return build_generator(m, control, level)


# inverse iteration against a dense eigensolve; both vectors must come
# out strictly positive

@settings(max_examples=40, deadline=None)
@given(**MIXED_CONTROL_CHAINS)
def test_matches_dense_eig_under_mixed_controls(level, k_max, actions, seed):
    gen = mixed_control_generator(level, k_max, actions, seed)
    sol = solve_qsd(gen)
    lam, pi, eta = dense_triple(gen.active)
    assert abs(sol.lam - lam) <= 1e-9 * max(1.0, lam)
    assert total_variation(sol.pi, pi) <= 1e-8
    np.testing.assert_allclose(sol.eta, eta, rtol=0, atol=1e-8)
    assert np.all(sol.pi > 0) and np.all(sol.eta > 0)


class TestPureDeathStop:
    def test_point_mass_in_few_steps(self, pd_gen):
        # pi(2..) only halves each step; it is a structural zero, so the
        # stop must not wait for it to pass 1e-300
        sol = solve_qsd(pd_gen)
        assert sol.iterations < 50
        expect = np.zeros(200)
        expect[0] = 1.0
        assert np.array_equal(sol.pi, expect)


# transient solves: a certified contour sum of the banded resolvent,
# uniformized where the certificate fails


def kendall_survival(x, t, birth=2.0, death=3.0):
    """Linear birth-death (the bundled `linear`): each of x lines dies
    out by t with probability d (1 - e) / (d - b e), e = e^-(d-b)t."""
    e = math.exp(-(death - birth) * t)
    return 1.0 - (death * (1.0 - e) / (death - birth * e)) ** x


@settings(max_examples=30, deadline=None)
@given(**MIXED_CONTROL_CHAINS)
def test_transients_match_expm_under_mixed_controls(level, k_max, actions,
                                                    seed):
    gen = mixed_control_generator(level, k_max, actions, seed)
    a = gen.active
    mu0 = np.random.default_rng(seed).random(level)
    mu = mu0 / mu0.sum()
    for t in (0.05, 0.4, 1.1, 2.5):
        e = scipy.linalg.expm(t * a)
        # survival: sup norm, |v| = 1
        prof = survival_profile(gen, [t])[0]
        np.testing.assert_allclose(prof, e @ np.ones(level), rtol=0,
                                   atol=1e-12)
        # laws: total mass, |mu| = 1
        evo = conditional_evolution(gen, mu0, t)
        assert np.abs(evo.laws[0] * evo.survival[0] - mu @ e).sum() <= 1e-12
    # equal steps chain to the same answers
    evo = conditional_evolution(gen, mu0, 2.0, steps=4)
    for j, tj in enumerate(evo.times):
        exact = mu @ scipy.linalg.expm(tj * a)
        assert evo.survival[j] == pytest.approx(exact.sum(), rel=1e-10)
        np.testing.assert_allclose(evo.laws[j], exact / exact.sum(),
                                   rtol=0, atol=1e-10)


class TestTransientPaths:
    # pure_death 200 and linear 400 are far from normal: their sums need
    # q = 32-40, at the rounding floor, so some of these steps certify
    # and the rest are uniformized; the closed form holds either way
    @pytest.mark.parametrize("t", [0.7, 1.3, 2.0])
    def test_pure_death_closed_form(self, pd_gen, t):
        xs = np.arange(1, 201)
        prof = survival_profile(pd_gen, [t])[0]
        np.testing.assert_allclose(prof, 1 - (1 - math.exp(-t)) ** xs,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [0.7, 1.3, 2.0])
    def test_linear_400_closed_form(self, linear, t):
        gen = build_generator(linear, linear.constant_control(0, 400), 400)
        prof = survival_profile(gen, [t])[0]
        # Kendall's form is for the untruncated chain; from x <= 20 the
        # window edge at 400 is out of reach
        exact = [kendall_survival(x, t) for x in range(1, 21)]
        np.testing.assert_allclose(prof[:20], exact, rtol=0, atol=1e-12)

    def test_certificate_raises_q(self, linear):
        # on linear 120 at t = 0.7 sixteen nodes are off by ~1e-9; the
        # certificate goes on to 32 and meets 1e-12
        gen = build_generator(linear, linear.constant_control(0, 120), 120)
        ones = np.ones(120)
        exact = scipy.linalg.expm(0.7 * gen.active) @ ones
        transient = _Transient(gen)
        assert np.abs(transient._sum(ones, 0.7, False, 16)
                      - exact).max() > 1e-10
        certified = transient._certified(ones, 0.7, False)
        assert np.abs(certified - exact).max() <= 1e-12

    def test_non_normal_falls_back_to_uniformization(self, pure_death):
        # pure death at N = 1000 is far from normal: the contour sums
        # never agree, so the action is the uniformized one, bit for bit
        gen = build_generator(pure_death, pure_death.constant_control(0, 1000),
                              1000)
        ones = np.ones(1000)
        assert _Transient(gen)._certified(ones, 1.0, False) is None
        prof = survival_profile(gen, [1.0])[0]
        a = np.ascontiguousarray(gen.active)
        assert np.array_equal(
            prof, _uniformized_action(a, ones, 1.0, gen.uniformization_rate()))
        xs = np.arange(1, 1001)
        np.testing.assert_allclose(prof, 1 - (1 - math.exp(-1.0)) ** xs,
                                   rtol=0, atol=1e-12)

    def test_unreachable_states_are_exact_zeros(self, pd_gen):
        # the transposed band of pure death is upper bidiagonal, so the
        # law from 3 is computed without touching the states above it
        mu0 = np.zeros(200)
        mu0[2] = 1.0
        assert _Transient(pd_gen)._certified(mu0, 1.3, True) is not None
        evo = conditional_evolution(pd_gen, mu0, 1.3)
        assert not evo.laws[0][3:].any()

    @pytest.mark.parametrize("t", [40.0, 60.0])
    def test_long_step_accurate_relative_to_result(self, culling, t):
        # culling 6 under keep (lam ~ 0.4746) keeps about e^-28 of v at
        # t = 60, below the sum's rounding of ~1e-13 |v|: the certificate
        # is measured against the result, so the step is uniformized and
        # stays accurate entry by entry
        gen = build_generator(culling, culling.constant_control(0), 6)
        e = scipy.linalg.expm(t * gen.active)
        ones = np.ones(6)
        assert _Transient(gen)._certified(ones, t, False) is None
        np.testing.assert_allclose(survival_profile(gen, [t])[0], e @ ones,
                                   rtol=1e-10, atol=0)
        mu0 = np.zeros(6)
        mu0[2] = 1.0
        exact = mu0 @ e
        evo = conditional_evolution(gen, mu0, t, steps=1)
        assert evo.survival[0] == pytest.approx(exact.sum(), rel=1e-10)
        np.testing.assert_allclose(evo.laws[0], exact / exact.sum(),
                                   rtol=1e-10, atol=0)
