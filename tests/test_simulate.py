import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdctl import policies
from qsdctl.errors import (EnvelopeViolationError, HypothesisFailureWarning,
                           InfiniteVarianceWarning, LowConfidenceWarning,
                           SimulationError, ZeroSurvivorsError)
from qsdctl.generator import build_generator
from qsdctl.hjb import evaluate_policy
from qsdctl.models import MarkovControl
from qsdctl.simulate import (History, MonteCarloEstimate, SimConfig,
                             Trajectory, discounted_survival_integral,
                             discounted_weight, estimate_conditional_law,
                             estimate_cost, estimate_survival,
                             simulate_markov, simulate_thinning)

from test_models import make_model


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            SimConfig(seed=1, samples=0)
        with pytest.raises(SimulationError):
            SimConfig(seed=1, horizon=-1.0)
        with pytest.raises(SimulationError):
            SimConfig(seed=1, state_cap=0)


class TestTrajectoryView:
    traj = Trajectory(3, ((0.5, 4), (1.25, 3), (2.0, 2)), "horizon-reached")

    def test_state_at(self):
        assert self.traj.state_at(0.0) == 3
        assert self.traj.state_at(0.49) == 3
        assert self.traj.state_at(0.5) == 4       # right-continuous
        assert self.traj.state_at(1.3) == 3
        assert self.traj.state_at(10.0) == 2
        with pytest.raises(SimulationError):
            self.traj.state_at(-0.1)

    def test_summaries(self):
        assert self.traj.final_state == 2
        assert self.traj.final_time == 2.0
        assert self.traj.peak_state() == 4
        assert self.traj.peak_state(up_to=0.4) == 3
        assert self.traj.extinction_time is None

    def test_extinction_time_when_absorbed(self):
        t = Trajectory(1, ((0.7, 0),), "absorbed")
        assert t.extinction_time == 0.7
        assert Trajectory(0, (), "absorbed").extinction_time == 0.0


class TestDeterminism:
    def test_markov_bit_exact_repeat(self, culling):
        cfg = SimConfig(seed=42)
        a = simulate_markov(culling, culling.constant_control(0), 3, cfg)
        b = simulate_markov(culling, culling.constant_control(0), 3, cfg)
        assert a == b

    def test_stream_index_decorrelates(self, culling):
        cfg = SimConfig(seed=42)
        c = culling.constant_control(0)
        a = simulate_markov(culling, c, 3, cfg, stream_index=0)
        b = simulate_markov(culling, c, 3, cfg, stream_index=1)
        assert a != b

    def test_thinning_bit_exact_repeat(self, culling):
        cfg = SimConfig(seed=7)
        rule = policies.time_threshold(0.8, 0, 1)
        a = simulate_thinning(culling, rule, 4, cfg)
        b = simulate_thinning(culling, rule, 4, cfg)
        assert a == b

    def test_seed_changes_path(self, culling):
        c = culling.constant_control(1)
        a = simulate_markov(culling, c, 3, SimConfig(seed=1))
        b = simulate_markov(culling, c, 3, SimConfig(seed=2))
        assert a != b


class TestTerminals:
    def test_start_at_zero(self, culling):
        t = simulate_markov(culling, culling.constant_control(0), 0,
                            SimConfig(seed=0))
        assert t.terminal == "absorbed"
        assert t.jumps == ()
        assert t.extinction_time == 0.0

    def test_horizon(self, culling):
        t = simulate_markov(culling, culling.constant_control(0), 3,
                            SimConfig(seed=3, horizon=0.05))
        assert t.terminal in ("horizon-reached", "absorbed")
        assert all(tt <= 0.05 for tt, _ in t.jumps)

    def test_state_cap(self):
        # strongly supercritical: the path runs away and hits the cap
        m = make_model(birth="5 * n", death="0.1 * n", d_bar="n",
                       d_lower=None, epsilon=None, b_bar=5.0)
        t = simulate_markov(m, m.constant_control(0), 5,
                            SimConfig(seed=11, state_cap=40))
        assert t.terminal == "state-cap-reached"
        assert t.final_state > 40
        assert t.extinction_time is None

    def test_frozen_path_rejected_without_horizon(self):
        m = make_model(birth="0", death="max(0, n - 2)", b_bar=1.0,
                       d_bar="n", d_lower=None, epsilon=None)
        with pytest.raises(SimulationError, match="frozen|vanish"):
            simulate_markov(m, m.constant_control(0), 2, SimConfig(seed=0))
        t = simulate_markov(m, m.constant_control(0), 2,
                            SimConfig(seed=0, horizon=1.5))
        assert t.terminal == "horizon-reached"
        assert t.jumps == ()

    def test_initial_state_validation(self, culling):
        with pytest.raises(SimulationError):
            simulate_markov(culling, culling.constant_control(0), -1,
                            SimConfig(seed=0))
        with pytest.raises(SimulationError):
            simulate_markov(culling, culling.constant_control(0), 50,
                            SimConfig(seed=0, state_cap=10))


class TestAgainstClosedForms:
    # pure death with unit rates: everything is exactly computable

    def test_mean_extinction_from_one(self, pure_death):
        cfg = SimConfig(seed=101)
        times = [simulate_markov(pure_death, pure_death.constant_control(0),
                                 1, cfg, stream_index=i).extinction_time
                 for i in range(4000)]
        est = MonteCarloEstimate.from_values(np.array(times))
        assert abs(est.value - 1.0) < 4 * est.stderr
        assert est.ci95[0] < 1.0 < est.ci95[1]

    def test_mean_extinction_from_three(self, pure_death):
        cfg = SimConfig(seed=202)
        times = np.array(
            [simulate_markov(pure_death, pure_death.constant_control(0),
                             3, cfg, stream_index=i).extinction_time
             for i in range(4000)])
        est = MonteCarloEstimate.from_values(times)
        assert abs(est.value - 11.0 / 6.0) < 4 * est.stderr

    def test_survival_curve_from_two(self, pure_death):
        t = 1.3
        expect = 2 * math.exp(-t) - math.exp(-2 * t)
        ests = estimate_survival(pure_death, pure_death.constant_control(0),
                                 2, [t], SimConfig(seed=5, samples=3000))
        assert abs(ests[0].value - expect) < 4 * max(ests[0].stderr, 1e-3)

    def test_conditional_law_is_binomial(self, pure_death):
        t = 0.7
        law = estimate_conditional_law(
            pure_death, pure_death.constant_control(0), 3, t,
            SimConfig(seed=17, samples=6000))
        p = math.exp(-t)
        ref = np.array([3 * p * (1 - p) ** 2, 3 * p ** 2 * (1 - p), p ** 3])
        ref /= ref.sum()
        vec = law.as_vector(3)
        # TV between empirical and truth shrinks like 1/sqrt(survivors)
        assert 0.5 * np.abs(vec - ref).sum() < 4.0 / math.sqrt(law.survivors)
        assert not law.low_confidence

    def test_discounted_cost_from_one(self, pure_death):
        beta = 0.5
        est = estimate_cost(pure_death, pure_death.constant_control(0), 1,
                            beta, SimConfig(seed=23, samples=4000),
                            check_discount=False)
        assert abs(est.value - 2.0) < 4 * est.stderr

    def test_cost_matches_linear_solver(self, culling):
        control = culling.constant_control(1)
        gen = build_generator(culling, control, 6)
        f = np.ones(7)
        f[0] = 0.0
        v = evaluate_policy(gen, f, 0.2)
        est = estimate_cost(culling, control, 2, 0.2,
                            SimConfig(seed=31, samples=4000),
                            check_discount=False)
        assert abs(est.value - v[2]) < 4 * est.stderr


class TestDiscountedWeight:
    def test_zero_beta_is_length(self):
        assert discounted_weight(0.0, 0.3, 1.1) == pytest.approx(0.8)

    def test_matches_antiderivative(self):
        beta, t1, t2 = 0.7, 0.3, 1.1
        expect = (math.exp(beta * t2) - math.exp(beta * t1)) / beta
        assert discounted_weight(beta, t1, t2) == pytest.approx(
            expect, rel=1e-14)

    def test_tiny_beta_stable(self):
        assert discounted_weight(1e-12, 0.0, 1.0) == pytest.approx(
            1.0, rel=1e-9)

    def test_negative_beta(self):
        beta, t1, t2 = -1.3, 0.5, 2.0
        expect = (math.exp(beta * t2) - math.exp(beta * t1)) / beta
        assert discounted_weight(beta, t1, t2) == pytest.approx(
            expect, rel=1e-13)

    def test_order_validated(self):
        with pytest.raises(SimulationError):
            discounted_weight(0.5, 2.0, 1.0)

    def test_survival_integral(self):
        traj = Trajectory(2, ((1.0, 1), (3.0, 0)), "absorbed")
        beta = 0.25
        expect = (math.exp(beta * 3.0) - 1.0) / beta
        assert discounted_survival_integral(traj, beta) == pytest.approx(
            expect, rel=1e-13)


class TestStoppedAlive:
    # a culling path from 3 leaves within 0.05 with probability about
    # 0.53; stream 0 of seed 5 stays put under both simulators
    HORIZON = 0.05

    def paths(self, culling):
        cfg = SimConfig(seed=5, horizon=self.HORIZON)
        return (simulate_markov(culling, culling.constant_control(0), 3, cfg),
                simulate_thinning(culling, policies.constant(0), 3, cfg))

    def test_stop_time_recorded(self, culling):
        for traj in self.paths(culling):
            assert traj.jumps == ()
            assert traj.terminal == "horizon-reached"
            assert traj.stop_time == self.HORIZON
            assert traj.final_time == 0.0

    @pytest.mark.parametrize("beta", [-0.7, 0.0, 0.4])
    def test_survival_integral_runs_to_the_stop(self, culling, beta):
        expect = (math.expm1(self.HORIZON * beta) / beta if beta
                  else self.HORIZON)
        for traj in self.paths(culling):
            assert discounted_survival_integral(traj, beta) == pytest.approx(
                expect, rel=1e-14)


class TestEstimatorEdges:
    def test_zero_survivors(self, pure_death):
        with pytest.raises(ZeroSurvivorsError):
            estimate_conditional_law(
                pure_death, pure_death.constant_control(0), 1, 40.0,
                SimConfig(seed=3, samples=200))

    def test_low_confidence_warning(self, pure_death):
        with pytest.warns(LowConfidenceWarning):
            law = estimate_conditional_law(
                pure_death, pure_death.constant_control(0), 1, 2.3,
                SimConfig(seed=9, samples=300))
        assert law.low_confidence
        assert 0 < law.survivors < 100

    def test_infinite_variance_warning(self, culling):
        keep = culling.constant_control(0)   # extinction rate 0.4746
        with pytest.warns(InfiniteVarianceWarning):
            est = estimate_cost(culling, keep, 2, 0.6,
                                SimConfig(seed=13, samples=50))
        assert math.isfinite(est.value)

    def test_no_warning_below_rate(self, culling):
        import warnings as w
        keep = culling.constant_control(0)
        with w.catch_warnings():
            w.simplefilter("error")
            estimate_cost(culling, keep, 2, 0.2, SimConfig(seed=13, samples=20))

    def test_horizon_piece_accounted(self, pure_death):
        # E[min(Exp(1), 1/2)] = 1 - exp(-1/2)
        est = estimate_cost(pure_death, pure_death.constant_control(0), 1,
                            0.0, SimConfig(seed=37, samples=4000, horizon=0.5),
                            check_discount=False)
        expect = 1.0 - math.exp(-0.5)
        assert abs(est.value - expect) < 4 * est.stderr

    def test_survival_counts_cap_as_alive(self):
        m = make_model(birth="5 * n", death="0.1 * n", d_bar="n",
                       d_lower=None, epsilon=None, b_bar=5.0)
        ests = estimate_survival(m, m.constant_control(0), 5, [3.0],
                                 SimConfig(seed=2, samples=60, state_cap=50))
        assert ests[0].value > 0.8


class TestThinning:
    def test_agrees_with_markov_in_law(self, culling):
        # same stationary control through both simulators; extinction
        # times must agree in distribution (two-sample KS)
        control = culling.constant_control(1)
        rule = policies.markov_as_history(control)
        n = 600
        t_markov = np.array(
            [simulate_markov(culling, control, 3, SimConfig(seed=51),
                             stream_index=i).extinction_time
             for i in range(n)])
        t_thin = np.array(
            [simulate_thinning(culling, rule, 3, SimConfig(seed=52),
                               stream_index=i).extinction_time
             for i in range(n)])
        stat = scipy.stats.ks_2samp(t_markov, t_thin)
        assert stat.pvalue > 1e-3

    def test_envelope_violation_detected(self):
        # the declared death envelope undercuts the true rate
        m = make_model(d_bar="n", d_lower=None, epsilon=None)
        with pytest.raises(EnvelopeViolationError, match="death rate"):
            simulate_thinning(m, policies.constant(0), 3,
                              SimConfig(seed=1, horizon=50.0))

    def test_birth_envelope_violation(self):
        m = make_model(b_bar=0.5, death="n", d_bar="n",
                       d_lower=None, epsilon=None)
        with pytest.raises(EnvelopeViolationError, match="birth rate"):
            simulate_thinning(m, policies.constant(0), 30,
                              SimConfig(seed=1, horizon=50.0))

    def test_bad_rule_output_rejected(self, culling):
        bad = policies.HistoryPolicy("bad", lambda t, h: 7)
        with pytest.raises(SimulationError, match="decision rule"):
            simulate_thinning(culling, bad, 3, SimConfig(seed=1))

    def test_history_rule_sees_the_past(self, culling):
        # switch-after-first-jump runs keep then cull: the trajectory
        # under seed replay differs from both constants
        cfg = SimConfig(seed=99)
        rule = policies.switch_after_first_jump(0, 1)
        t = simulate_thinning(culling, rule, 4, cfg)
        assert t.terminal == "absorbed"
        t_keep = simulate_thinning(culling, policies.constant(0), 4, cfg)
        # same driving noise: agrees with all-keep up to the first jump,
        # then the rule switches and the paths part ways
        assert t.jumps[0] == t_keep.jumps[0]
        assert t != t_keep


    def test_rates_evaluated_once_per_state_and_action(self, culling,
                                                       monkeypatch):
        calls = []
        for role in ("birth_rate", "death_rate"):
            rate = getattr(type(culling), role)

            def counted(model, n, action, rate=rate, role=role):
                calls.append((role, n, action))
                return rate(model, n, action)
            monkeypatch.setattr(type(culling), role, counted)
        rule = policies.peak_threshold(5, 0, 1)
        for i in range(20):
            calls.clear()
            simulate_thinning(culling, rule, 4, SimConfig(seed=5, horizon=5.0),
                              stream_index=i)
            assert calls
            assert len(calls) == len(set(calls))

    def test_own_tables_sized_from_the_start(self, culling, monkeypatch):
        # a path without shared tables fills states 0..2 x0 + 1 (not a
        # fixed 1024) and doubles from there as it climbs
        model_type = type(culling)
        envelope, vector = model_type.envelope_tables, model_type._vector
        sizes = []

        def envelope_sizes(model, n_max):
            sizes.append(n_max)
            return envelope(model, n_max)

        def vector_sizes(model, expr, role, action, states):
            sizes.append(int(np.max(states)))
            return vector(model, expr, role, action, states)
        monkeypatch.setattr(model_type, "envelope_tables", envelope_sizes)
        monkeypatch.setattr(model_type, "_vector", vector_sizes)
        cfg = SimConfig(seed=5, horizon=0.01)
        simulate_thinning(culling, policies.peak_threshold(5, 0, 1), 4, cfg)
        assert sizes == [9]
        sizes.clear()
        simulate_markov(culling, culling.constant_control(0), 4, cfg)
        assert sizes == [9, 9, 9]

    def test_progeny_cdfs_built_once_per_table(self, culling, monkeypatch):
        # once for all 40 paths, and only for the action the control uses
        calls = []
        progeny_type = type(culling.progeny)
        cdf = progeny_type.cdf

        def counted(progeny, action):
            calls.append(action)
            return cdf(progeny, action)
        monkeypatch.setattr(progeny_type, "cdf", counted)
        estimate_survival(culling, culling.constant_control(0), 3, [1.0],
                          SimConfig(seed=2, samples=40))
        assert calls == [0]

    @pytest.mark.parametrize("argv", [
        ["--rule", "peak:5,0,1"], ["--control", "cull"]])
    def test_cli_builds_tables_once_per_run(self, tmp_path, argv,
                                            monkeypatch):
        from qsdctl import cli, simulate
        builds = []
        for name in ("_envelope_table", "_markov_tables"):
            fn = getattr(simulate, name)

            def counted(*args, fn=fn):
                builds.append(fn)
                return fn(*args)
            monkeypatch.setattr(simulate, name, counted)
            monkeypatch.setattr(cli, name, counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisFailureWarning)
            rc = cli.main(["simulate", "culling", "--x0", "3", "--seed", "1",
                           "--samples", "30", "--out", str(tmp_path)] + argv)
        assert rc == 0
        assert len(builds) == 1


class TestPolicyCatalog:
    h0 = History(3, ())
    h2 = History(3, ((0.2, 4), (0.9, 3)))
    h_tall = History(3, ((0.2, 4), (0.5, 5), (0.9, 4)))

    def test_constant(self):
        p = policies.constant(1)
        assert p.rule(0.0, self.h0) == 1
        assert p.rule(5.0, self.h_tall) == 1

    def test_markov_as_history_uses_current_state(self):
        control = MarkovControl((0, 1, 0, 1))
        p = policies.markov_as_history(control)
        assert p.rule(1.0, self.h0) == control.action_at(3)
        assert p.rule(1.0, self.h2) == control.action_at(3)
        tall = History(3, ((0.1, 9),))   # above range: clamps to the top
        assert p.rule(1.0, tall) == control.action_at(9)

    def test_switch_after_first_jump(self):
        p = policies.switch_after_first_jump(0, 1)
        assert p.rule(0.3, self.h0) == 0
        assert p.rule(0.3, self.h2) == 1

    def test_peak_threshold(self):
        p = policies.peak_threshold(5, low=0, high=1)
        assert p.rule(1.0, self.h0) == 0
        assert p.rule(1.0, self.h2) == 0
        assert p.rule(1.0, self.h_tall) == 1   # peak 5 reached, stays high

    def test_time_threshold(self):
        p = policies.time_threshold(1.0, 0, 1)
        assert p.rule(0.99, self.h0) == 0
        assert p.rule(1.0, self.h0) == 1

    def test_history_views(self):
        assert self.h0.current_state == 3
        assert self.h0.jump_count == 0
        assert self.h0.peak_state == 3
        assert self.h2.current_state == 3
        assert self.h2.jump_count == 2
        assert self.h2.peak_state == 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 30),
       x0=st.integers(min_value=1, max_value=8),
       threshold=st.integers(min_value=1, max_value=10),
       horizon=st.one_of(st.none(), st.floats(min_value=0.1, max_value=5.0)))
def test_history_view_contract(culling, seed, x0, threshold, horizon):
    # at every proposal the O(1) summaries agree with the jumps they
    # summarize, and a view the rule keeps still shows only its past
    kept = []

    def rule(t, h):
        jumps = h.jumps
        assert h.jump_count == len(jumps)
        assert h.current_state == (jumps[-1][1] if jumps else h.initial)
        assert h.peak_state == max([h.initial] + [s for _, s in jumps])
        assert h == History(h.initial, jumps)
        kept.append((t, h, jumps))
        return 1 if h.peak_state >= threshold else h.jump_count % 2
    cfg = SimConfig(seed=seed, horizon=horizon, state_cap=60)
    traj = simulate_thinning(culling, policies.HistoryPolicy("probe", rule),
                             x0, cfg)
    assert len(kept) >= len(traj.jumps)
    for t, h, jumps in kept:
        assert h.initial == x0
        assert h.jumps == jumps
        assert h.jumps == tuple(j for j in traj.jumps if j[0] < t)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 30),
       x0=st.integers(min_value=1, max_value=6),
       horizon=st.one_of(st.none(), st.floats(min_value=0.1, max_value=5.0)))
def test_trajectory_invariants(culling, seed, x0, horizon):
    m = culling
    cfg = SimConfig(seed=seed, horizon=horizon, state_cap=200)
    traj = simulate_markov(m, MarkovControl((0, 1) * 3), x0, cfg)
    k_max = m.progeny.k_max
    times = [t for t, _ in traj.jumps]
    assert times == sorted(times)
    assert all(a < b for a, b in zip(times, times[1:]))
    prev = traj.initial
    for t, s in traj.jumps:
        assert s == prev - 1 or 1 <= s - prev <= k_max
        prev = s
    if traj.terminal == "absorbed":
        assert traj.final_state == 0
        assert traj.extinction_time == traj.final_time
    elif traj.terminal == "horizon-reached":
        assert horizon is not None
        assert traj.final_time <= horizon
        assert traj.final_state >= 1
    else:
        assert traj.final_state > 200
    # no jump at a dead state: 0 is absorbing
    for i, (_, s) in enumerate(traj.jumps[:-1]):
        assert s >= 1


# ---------------------------------------------------------------------
# golden streams: seeded paths must replay bit for bit across versions

def _markov_case(model, control, x0, seed, horizon=None, state_cap=100_000,
                 paths=6):
    def run(models):
        m = models[model]
        c = control if isinstance(control, MarkovControl) else \
            m.constant_control(control)
        cfg = SimConfig(seed=seed, horizon=horizon, state_cap=state_cap)
        return [simulate_markov(m, c, x0, cfg, stream_index=i)
                for i in range(paths)]
    return run


def _thinning_case(model, rule, x0, seed, horizon=None, state_cap=100_000,
                   paths=6):
    def run(models):
        cfg = SimConfig(seed=seed, horizon=horizon, state_cap=state_cap)
        return [simulate_thinning(models[model], rule, x0, cfg, stream_index=i)
                for i in range(paths)]
    return run


MIXED = MarkovControl((0, 1, 1, 0, 1, 0))

GOLDEN_CASES = {
    "markov-culling-keep": _markov_case("culling", 0, 3, 11),
    "markov-culling-cull-horizon": _markov_case("culling", 1, 5, 12,
                                                horizon=0.3),
    "markov-culling-mixed": _markov_case("culling", MIXED, 4, 13,
                                         horizon=2.0),
    "markov-linear-cap": _markov_case("linear", 0, 20, 14, horizon=1.0,
                                      state_cap=24),
    "markov-linear-long": _markov_case("linear", 0, 100, 18, horizon=0.3,
                                       paths=2),
    "markov-logistic": _markov_case("logistic", 0, 10, 15),
    "markov-pure-death": _markov_case("pure_death", 0, 6, 16),
    "markov-geometric-absorb": _markov_case("geometric", 0, 2, 19,
                                            paths=12),
    "markov-geometric-cap": _markov_case("geometric", 0, 11, 17,
                                         horizon=1.0, state_cap=11),
    "thin-culling-constant": _thinning_case("culling", policies.constant(1),
                                            3, 21),
    "thin-culling-markov": _thinning_case(
        "culling", policies.markov_as_history(MIXED), 4, 22, horizon=2.0),
    "thin-culling-switch": _thinning_case(
        "culling", policies.switch_after_first_jump(0, 1), 4, 23),
    "thin-culling-peak": _thinning_case(
        "culling", policies.peak_threshold(5, 0, 1), 3, 24, horizon=3.0),
    "thin-culling-time": _thinning_case(
        "culling", policies.time_threshold(0.3, 0, 1), 3, 25, horizon=0.6),
    "thin-linear-peak-cap": _thinning_case(
        "linear", policies.peak_threshold(21, 0, 0), 20, 26, horizon=1.0,
        state_cap=22),
    "thin-linear-peak-long": _thinning_case(
        "linear", policies.peak_threshold(110, 0, 0), 100, 30, horizon=0.3,
        paths=2),
    "thin-logistic-markov": _thinning_case(
        "logistic", policies.markov_as_history(MarkovControl((0,))), 10, 27),
    "thin-pure-death-switch": _thinning_case(
        "pure_death", policies.switch_after_first_jump(0, 0), 6, 28),
    "thin-geometric-switch": _thinning_case(
        "geometric", policies.switch_after_first_jump(0, 0), 2, 31,
        paths=12),
    "thin-geometric-time-cap": _thinning_case(
        "geometric", policies.time_threshold(0.2, 0, 0), 11, 29,
        horizon=1.0, state_cap=11),
}

# recorded with the simulator loops that read numpy tables and rebuilt
# History at every proposal; a mismatch means the simulated law or the
# random stream changed
GOLDEN_DIGESTS = {
    'markov-culling-cull-horizon':
        'beee4dd1a400749206413a80a0051c6700650782d719250abdfaa2693a90fc2a',
    'markov-culling-keep':
        '7351337be60984ee3dee8ac5a33fca85836b844a85060e3a2caad6222151ca3a',
    'markov-culling-mixed':
        'd09953f6be0f2e1dc011eab8c982f6212b54aeb1f75e686649551b17fab05f8e',
    'markov-geometric-absorb':
        'f89bf0f093e4ee9330406d9373548ac9da489e5447ea0bbf387555ea5f1b288d',
    'markov-geometric-cap':
        '57f836314c99de0a36d95644603429be94be8f9e7b2de4eb42131075a26c9b47',
    'markov-linear-cap':
        '470ffddf2a5f2d290e2ef3ca1850e42a4b285b9bd5dc7a3f2ebfdbee8ccbb219',
    'markov-linear-long':
        '8f8cd7d9fcc0cdbc5076dbfa5fc0e6323083c402fbd7765219f3fbcea9935669',
    'markov-logistic':
        '2bd1113587f8a2f568b65009fd4bbecde28c21e2ce5e4511b2443212b66a78f0',
    'markov-pure-death':
        'd99502d12c2fc9e619df515a9573be42ce229d6fe9db1c77b0ba83f311581ea6',
    'thin-culling-constant':
        '7e7a993f2414104567049d474673b23e37571ac0a6d38e0278e5746f13c7340f',
    'thin-culling-markov':
        'cd72a686a701906c1e249e3599c07e2a41c8d28d401898d489cd20a1a02e8380',
    'thin-culling-peak':
        'd5cf8f4673df9423106d1987af95c1d87c1192d14f4a1e93baddaf16c622e9d9',
    'thin-culling-switch':
        '1cbd1e7185817adbbc3fb99d32f04623d8e868f7a62f8a0bec5b70bc93efcf84',
    'thin-culling-time':
        'ea6c7e187fa56cfda11db628887ab2e85f632109e7d265fd87b587e1ec87cdc3',
    'thin-geometric-switch':
        '4261e5b11096bc3cc00651d806e5cf9abd3c053577f4e3be2b54af0b7699ff63',
    'thin-geometric-time-cap':
        '8edcab4e4e8bee6eec9f782729ad726142f57cff963d393401c774912ed8170c',
    'thin-linear-peak-cap':
        '5f18340c2fc94b95e8f902d0284e1993cb149b136d5f54fa3f389240690509fe',
    'thin-linear-peak-long':
        '2d73caa6539337a2599e67815fa5b4059dfc3174db87f5dc976326e5d6fa85f7',
    'thin-logistic-markov':
        '0f54efb54f368d07d2c39cdb4eceb803e5092e7d4975d806f26183e5f222b308',
    'thin-pure-death-switch':
        '83e6e99c938fb0650b4070c6c02c989de020310616ce66bccfa8a8c44ec9ab3b',
    'cli-culling-peak': {
        'summary.csv':
            '1967beb814c427c86c480cb28b6b2e0708166c5da9df96a42f6a3e897cb60c0e',
        'paths.csv':
            'e9cb4786343bc0059e421a7be1eb5725240de5e689502bb3d8edc267f3a2c81a',
    },
}


def _digest(trajs) -> str:
    h = hashlib.sha256()
    for t in trajs:
        h.update(repr((t.initial, t.jumps, t.terminal, t.stop_time)).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def bundled(culling, linear, logistic, pure_death, geometric):
    return {"culling": culling, "linear": linear, "logistic": logistic,
            "pure_death": pure_death, "geometric": geometric}


class TestGoldenStreams:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_digest(self, bundled, case):
        assert _digest(GOLDEN_CASES[case](bundled)) == GOLDEN_DIGESTS[case]

    def test_cases_cover_every_stop(self, bundled):
        terminals = {t.terminal for run in GOLDEN_CASES.values()
                     for t in run(bundled)}
        assert terminals == {"absorbed", "horizon-reached",
                             "state-cap-reached"}

    def test_cli_peak_rule_outputs(self, tmp_path):
        from qsdctl.cli import main
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisFailureWarning)
            rc = main(["simulate", "culling", "--x0", "3", "--seed", "7",
                       "--samples", "50", "--rule", "peak:5,0,1", "--paths",
                       "--out", str(tmp_path)])
        assert rc == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("summary.csv", "paths.csv")}
        assert got == GOLDEN_DIGESTS["cli-culling-peak"]
