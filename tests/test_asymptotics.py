import numpy as np
import pytest

from qsdctl import policies
from qsdctl.asymptotics import (brute_force_control_opt,
                                brute_force_value_opt, corollary_spot_check,
                                limit_theorem_check,
                                optimize_extinction_rate)
from qsdctl.errors import (AllControlsInfeasibleError,
                           ContinuationStalledError, InfeasibleBetaError,
                           ModelError)
from qsdctl.generator import build_generator
from qsdctl.hjb import policy_iteration
from qsdctl.qsd import solve_qsd
from qsdctl.simulate import SimConfig

CULLING_LAM_MAX = 0.9290248887341586   # all-cull
CULLING_LAM_MIN = 0.474608065007655    # all-keep


class TestEnumeration:
    def test_extremes_and_count(self, culling):
        res_max = brute_force_control_opt(culling, "max")
        assert res_max.count == 64
        assert res_max.lam == pytest.approx(CULLING_LAM_MAX, abs=1e-9)
        assert res_max.control.assignment == (1,) * 6
        res_min = brute_force_control_opt(culling, "min")
        assert res_min.lam == pytest.approx(CULLING_LAM_MIN, abs=1e-9)
        assert res_min.control.assignment == (0,) * 6

    def test_keep_all_exposes_the_sweep(self, culling):
        res = brute_force_control_opt(culling, "max", keep_all=True)
        assert res.lams.shape == (64,)
        assert len(res.controls) == 64
        assert res.controls[0].assignment == (0,) * 6
        assert float(res.lams.max()) == res.lam
        # every mixed control sits strictly between the two constants
        assert res.lams.min() == pytest.approx(CULLING_LAM_MIN, abs=1e-9)

    def test_objective_validated(self, culling):
        with pytest.raises(ModelError):
            brute_force_control_opt(culling, "sup")


class TestValueEnumeration:
    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_matches_policy_iteration(self, culling, mode):
        v_enum, c_enum = brute_force_value_opt(culling, 0.3, mode)
        sol = policy_iteration(culling, 0.3, mode)
        np.testing.assert_allclose(v_enum, sol.v, rtol=1e-9, atol=1e-11)
        assert c_enum == sol.policy

    def test_min_mode_all_infeasible(self, culling):
        with pytest.raises(AllControlsInfeasibleError) as exc:
            brute_force_value_opt(culling, 0.95, "min")
        assert exc.value.diagnostic == "beta exceeds truncated lambda-star"

    def test_max_mode_refuses_on_any_infeasible(self, culling):
        with pytest.raises(InfeasibleBetaError, match="infinite"):
            brute_force_value_opt(culling, 0.6, "max")

    def test_min_mode_skips_infeasible(self, culling):
        # at 0.6 only controls fast enough to beat the discount survive
        v, c = brute_force_value_opt(culling, 0.6, "min")
        sol = policy_iteration(culling, 0.6, "min")
        np.testing.assert_allclose(v, sol.v, rtol=1e-9, atol=1e-11)


class TestContinuation:
    @pytest.mark.parametrize("objective,expect,assignment", [
        ("max", CULLING_LAM_MAX, (1,) * 6),
        ("min", CULLING_LAM_MIN, (0,) * 6),
    ])
    def test_finds_the_extremal_rate(self, culling, objective, expect,
                                     assignment):
        opt = optimize_extinction_rate(culling, objective, cross_check=True)
        assert opt.lam == pytest.approx(expect, abs=1e-9)
        assert opt.control.assignment == assignment
        # the enumeration fields come from an independent sweep
        assert opt.cross_check_gap == 0.0
        assert opt.enumeration_control == opt.control
        assert len(opt.steps) >= 1
        last = opt.steps[-1]
        assert last.lam == opt.lam
        # converged inside the frontier window
        assert last.lam - last.beta <= 1e-2 * (1.0 + abs(last.lam))

    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_step_rate_is_the_rate_of_its_control(self, culling, objective):
        # the rate read off the policy-iteration trace is the one an
        # eigen-solve of the step's control under the model gives
        opt = optimize_extinction_rate(culling, objective)
        for step in opt.steps:
            gen = build_generator(culling, step.control, culling.level)
            assert step.lam == solve_qsd(gen).lam

    def test_no_cross_check_by_default(self, culling):
        opt = optimize_extinction_rate(culling, "max")
        assert opt.enumeration_lam is None
        assert opt.cross_check_gap is None

    def test_betas_never_cross_the_rate(self, culling):
        opt = optimize_extinction_rate(culling, "max")
        for step in opt.steps:
            assert step.beta < step.lam

    def test_stall_reported_with_path(self, culling):
        with pytest.raises(ContinuationStalledError) as exc:
            optimize_extinction_rate(culling, "max", max_steps=1)
        assert len(exc.value.path) <= 1

    def test_objective_validated(self, culling):
        with pytest.raises(ModelError):
            optimize_extinction_rate(culling, "best")


class TestLimitTheorem:
    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_ladder_converges(self, culling, objective):
        chk = limit_theorem_check(culling, objective, x=1)
        assert chk.converged
        assert not chk.inconclusive
        assert chk.betas.shape == (8,)
        assert chk.products.shape == (8,)
        finite = np.isfinite(chk.products)
        assert finite.any()
        errs = np.abs(chk.products[finite] - chk.reference)
        assert errs[-1] <= errs[0]
        assert chk.gap <= 5e-2 * (abs(chk.reference) + 1e-12)
        lam = CULLING_LAM_MAX if objective == "max" else CULLING_LAM_MIN
        assert chk.lam == pytest.approx(lam, abs=1e-9)
        assert np.all(chk.betas < chk.lam)

    def test_other_start_state(self, culling):
        chk = limit_theorem_check(culling, "max", x=3)
        assert chk.converged
        assert chk.x == 3

    def test_x_validated(self, culling):
        with pytest.raises(ModelError):
            limit_theorem_check(culling, "max", x=0)
        with pytest.raises(ModelError):
            limit_theorem_check(culling, "max", x=7)

    def test_beta0_validated(self, culling):
        with pytest.raises(ModelError):
            limit_theorem_check(culling, "max", beta0=2.0)

    def test_as_dict_round_trips(self, culling):
        d = limit_theorem_check(culling, "max").as_dict()
        assert set(d) == {"objective", "x", "lam", "betas", "products",
                          "reference", "gap", "converged", "inconclusive"}
        assert isinstance(d["betas"], list)


class TestSpotCheck:
    def test_history_rule_respects_the_bound(self, culling):
        chk = corollary_spot_check(
            culling, policies.peak_threshold(5, 0, 1), x=2, beta=0.3,
            config=SimConfig(seed=71, samples=400))
        assert chk.ok
        assert chk.slack > 0
        assert chk.bound > 0
        assert chk.estimate.n == 400
        assert chk.policy_name == "peak-threshold-5"
        assert chk.beta == 0.3
        assert chk.x == 2

    def test_time_rule_too(self, culling):
        chk = corollary_spot_check(
            culling, policies.time_threshold(0.5, 1, 0), x=1, beta=0.2,
            config=SimConfig(seed=72, samples=300))
        assert chk.ok

    def test_x_validated(self, culling):
        with pytest.raises(ModelError):
            corollary_spot_check(culling, policies.constant(0), 9, 0.3,
                                 SimConfig(seed=1, samples=10))

    def test_envelope_table_built_once(self, culling, monkeypatch):
        from qsdctl import asymptotics, simulate
        builds = []
        make = simulate._envelope_table

        def counted(model):
            builds.append(model)
            return make(model)
        monkeypatch.setattr(simulate, "_envelope_table", counted)
        monkeypatch.setattr(asymptotics, "_envelope_table", counted)
        corollary_spot_check(culling, policies.peak_threshold(5, 0, 1), x=2,
                             beta=0.3, config=SimConfig(seed=3, samples=40))
        assert builds == [culling]
