import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsdctl import hjb
from qsdctl.errors import (InfeasibleBetaError, MathematicalRefusal,
                           PolicyIterationError, SolverError)
from qsdctl.generator import build_generator
from qsdctl.hjb import (evaluate_policy, hjb_residual, improve_policy,
                        policy_iteration, verify_transversality)
from qsdctl.models import Action, MarkovControl, ModelSpec
from qsdctl.qsd import _BandedFactor, solve_qsd

from test_models import make_model
from test_qsd import MIXED_CONTROL_CHAINS, mixed_control_generator

CULLING_LEVEL = 6


def unit_cost(level):
    f = np.ones(level + 1)
    f[0] = 0.0
    return f


class TestPureDeathClosedForms:
    # unit-rate deaths, unit cost: the discounted value is a sum of
    # rational terms in beta that integrates survival exactly

    @pytest.mark.parametrize("beta", [-1.0, -0.25, 0.0, 0.5, 0.9])
    def test_value_from_one_and_two(self, pd_gen, beta):
        v = evaluate_policy(pd_gen, unit_cost(200), beta, lam=1.0)
        if beta == 0.0:
            v1, v2 = 1.0, 1.5
        else:
            v1 = 1.0 / (1.0 - beta)
            v2 = 2.0 / (1.0 - beta) - 1.0 / (2.0 - beta)
        assert v[0] == 0.0
        assert v[1] == pytest.approx(v1, rel=1e-11)
        assert v[2] == pytest.approx(v2, rel=1e-11)

    def test_mean_extinction_time_from_three(self, pd_gen):
        # beta=0 turns the value into the expected time to absorption
        v = evaluate_policy(pd_gen, unit_cost(200), 0.0, lam=1.0)
        assert v[3] == pytest.approx(11.0 / 6.0, rel=1e-11)

    def test_policy_iteration_single_action(self, pure_death):
        sol = policy_iteration(pure_death, 0.5, "min", level=50)
        assert sol.v[1] == pytest.approx(2.0, rel=1e-10)
        assert sol.v[2] == pytest.approx(4.0 - 1.0 / 1.5, rel=1e-10)
        assert sol.trace.termination == "policy-stable"
        assert len(sol.trace.records) == 1
        assert sol.hjb_residual <= 1e-9


class TestRefusal:
    def test_at_and_above_the_rate(self, pd_gen):
        for beta in (1.0, 1.7):
            with pytest.raises(InfeasibleBetaError) as exc:
                evaluate_policy(pd_gen, unit_cost(200), beta, lam=1.0)
            assert exc.value.beta == beta
            assert exc.value.lam == 1.0
            assert isinstance(exc.value, MathematicalRefusal)
            assert exc.value.diagnostic == "beta not below extinction rate"

    def test_just_below_is_fine(self, pd_gen):
        v = evaluate_policy(pd_gen, unit_cost(200), 0.99, lam=1.0)
        assert v[1] == pytest.approx(100.0, rel=1e-9)

    def test_min_mode_diagnostic_above_lambda_star(self, culling):
        # both constant policies die slower than 0.95; the truncated
        # optimum cannot reach the requested discount
        with pytest.raises(InfeasibleBetaError) as exc:
            policy_iteration(culling, 0.95, "min")
        assert exc.value.diagnostic == "beta exceeds truncated lambda-star"

    def test_cost_vector_validation(self, pd_gen):
        bad = unit_cost(200)
        bad[0] = 3.0
        with pytest.raises(SolverError, match="absorbing"):
            evaluate_policy(pd_gen, bad, 0.0, lam=1.0)
        with pytest.raises(SolverError):
            evaluate_policy(pd_gen, -unit_cost(200), 0.0, lam=1.0)
        with pytest.raises(SolverError):
            evaluate_policy(pd_gen, unit_cost(7), 0.0, lam=1.0)


def brute_force_values(model, beta, level):
    """Oracle: evaluate every stationary policy by its own linear solve,
    skipping infeasible ones."""
    out = {}
    for assignment in itertools.product(range(model.num_actions),
                                        repeat=level):
        control = MarkovControl(assignment)
        gen = build_generator(model, control, level)
        try:
            f = np.zeros(level + 1)
            for x in range(1, level + 1):
                f[x] = model.cost_rate(x, control.action_at(x))
            out[assignment] = evaluate_policy(gen, f, beta)
        except InfeasibleBetaError:
            pass
    return out


class TestOptimality:
    @pytest.mark.parametrize("mode,beta", [("min", 0.3), ("max", 0.3),
                                           ("min", 0.6)])
    def test_matches_exhaustive_enumeration(self, culling, mode, beta):
        sol = policy_iteration(culling, beta, mode)
        table = brute_force_values(culling, beta, CULLING_LEVEL)
        stack = np.stack(list(table.values()))
        best = stack.min(axis=0) if mode == "min" else stack.max(axis=0)
        np.testing.assert_allclose(sol.v, best, rtol=1e-9, atol=1e-11)
        assert sol.v[0] == 0.0
        assert np.all(sol.v[1:] > 0)

    def test_residual_contract(self, culling):
        for mode in ("min", "max"):
            sol = policy_iteration(culling, 0.4, mode)
            res = hjb_residual(culling, sol.v, 0.4, mode)
            assert float(np.max(np.abs(res))) <= 1e-9
            assert sol.hjb_residual == pytest.approx(
                float(np.max(np.abs(res))), abs=1e-15)

    def test_trace_is_monotone(self, culling):
        # Howard iteration improves the value at every state each round
        sol_min = policy_iteration(culling, 0.3, "min")
        for rec in sol_min.trace.records[1:]:
            assert rec.delta_up <= 1e-9
        sol_max = policy_iteration(culling, 0.3, "max")
        for rec in sol_max.trace.records[1:]:
            assert rec.delta_down >= -1e-9

    def test_sup_bound_dominates(self, culling, geometric):
        sol = policy_iteration(culling, 0.3, "min")
        assert sol.sup_bound >= float(np.max(np.abs(sol.v)))
        sol2 = policy_iteration(geometric, 0.2, "min", level=60)
        assert sol2.sup_bound >= float(np.max(np.abs(sol2.v)))

    def test_sup_bound_is_the_unit_cost_value(self, culling, geometric):
        # the bound reuses the final evaluation's factor; a fresh
        # factor of the same generator and beta gives the same bits
        for model, beta, mode, level in ((culling, 0.3, "min", 6),
                                         (culling, -0.5, "max", 30),
                                         (geometric, 0.2, "min", 60)):
            sol = policy_iteration(model, beta, mode, level=level)
            gen = build_generator(model, sol.policy, level)
            bound = evaluate_policy(gen, unit_cost(level), beta)
            f = np.array([model.cost_rate(x, sol.policy.action_at(x))
                          for x in range(1, level + 1)])
            assert sol.sup_bound == float(np.max(bound)) * float(np.max(f))

    def test_each_formula_evaluated_once_per_action(self, culling,
                                                    monkeypatch):
        # every iterate's generator and cost, the bound's included, are
        # gathered from the one table: cost, birth and death once per
        # action, and no generator built from the formulas
        calls = []
        vector = ModelSpec._vector

        def counted(*args):
            calls.append(args)
            return vector(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("a generator was built from the formulas")
        monkeypatch.setattr(ModelSpec, "_vector", counted)
        monkeypatch.setattr(hjb, "build_generator", refuse)
        sweeps = []
        for mode in ("min", "max"):
            calls.clear()
            sweeps.append(len(policy_iteration(culling, 0.3, mode)
                              .trace.records))
            assert len(calls) == 3 * culling.num_actions
        assert max(sweeps) > 1

    def test_one_action_table_per_iteration(self, culling, monkeypatch):
        # every sweep and the final residual read one table of rates
        calls = []
        action_table = hjb._action_table

        def counted(*args):
            calls.append(args)
            return action_table(*args)
        monkeypatch.setattr(hjb, "_action_table", counted)
        sweeps = []
        for mode in ("min", "max"):
            calls.clear()
            sweeps.append(len(policy_iteration(culling, 0.3, mode)
                              .trace.records))
            assert len(calls) == 1
        assert max(sweeps) > 1

    def test_value_monotone_in_beta(self, culling):
        keep = culling.constant_control(1)
        gen = build_generator(culling, keep, CULLING_LEVEL)
        lam = solve_qsd(gen).lam
        vs = [evaluate_policy(gen, unit_cost(CULLING_LEVEL), b, lam=lam)
              for b in (-0.5, 0.0, 0.4, 0.8)]
        for lo, hi in zip(vs, vs[1:]):
            assert np.all(hi[1:] >= lo[1:] - 1e-12)

    def test_transversality_reported_for_max(self, culling):
        sol = policy_iteration(culling, 0.3, "max")
        assert sol.transversality is not None
        assert sol.transversality.ok
        assert sol.transversality.margin > 0
        assert sol.transversality.lam > 0.3
        again = verify_transversality(culling, sol)
        assert again.ok == sol.transversality.ok
        assert again.lam == pytest.approx(sol.transversality.lam, abs=1e-12)

    def test_max_mode_refuses_when_staying_alive_pays(self, culling):
        # at beta=0.6 the maximizer wants the slow-death policy, whose
        # rate 0.4746 lies below beta: the supremum is infinite
        with pytest.raises(InfeasibleBetaError) as exc:
            policy_iteration(culling, 0.6, "max")
        assert exc.value.diagnostic == "beta not below extinction rate"
        assert exc.value.trace is not None
        assert exc.value.trace.termination == "evaluation-diverged"

    def test_no_transversality_for_min(self, culling):
        assert policy_iteration(culling, 0.3, "min").transversality is None

    def test_max_iter_exhausted(self, culling):
        with pytest.raises(PolicyIterationError) as exc:
            policy_iteration(culling, 0.3, "min", max_iter=1)
        assert exc.value.trace.termination == "max-iter"

    def test_mode_validated(self, culling):
        with pytest.raises(SolverError):
            policy_iteration(culling, 0.3, "expectile")


class TestImprovement:
    def test_ties_break_to_lowest_index(self):
        # two actions with identical rates: scores tie at every state
        m = make_model(actions=(Action("a", {}), Action("b", {})), level=5)
        v = np.linspace(0.0, 2.0, 6)
        for mode in ("min", "max"):
            pick = improve_policy(m, v, 0.1, mode)
            assert pick.assignment == (0,) * 5

    def test_greedy_action_is_pointwise(self, culling):
        sol = policy_iteration(culling, 0.5, "min")
        greedy = improve_policy(culling, sol.v, 0.5, "min")
        assert greedy == sol.policy


class TestDenseSolve:
    # evaluate_policy against a plain dense solve of (beta I + A) v = -f

    @staticmethod
    def reference(gen, f, beta):
        a = beta * np.eye(gen.level) + gen.active
        return np.concatenate(([0.0], np.linalg.solve(a, -f[1:])))

    def test_matches_dense(self, culling, geometric_gen, geometric_qsd,
                           logistic):
        gen = build_generator(culling, culling.constant_control(1),
                              CULLING_LEVEL)
        f = unit_cost(CULLING_LEVEL)
        v = evaluate_policy(gen, f, 0.5, lam=solve_qsd(gen).lam)
        np.testing.assert_allclose(v, self.reference(gen, f, 0.5),
                                   rtol=1e-10, atol=1e-12)

        fg = np.zeros(101)
        fg[1:] = np.arange(1, 101, dtype=float)
        v = evaluate_policy(geometric_gen, fg, 0.3, lam=geometric_qsd.lam)
        np.testing.assert_allclose(v, self.reference(geometric_gen, fg, 0.3),
                                   rtol=1e-10, atol=1e-12)

        # the widest window: exit rates reach about 4e6
        wide = build_generator(logistic, logistic.constant_control(0, 2000),
                               2000)
        beta = solve_qsd(wide).lam / 2
        fw = unit_cost(2000)
        v = evaluate_policy(wide, fw, beta)
        np.testing.assert_allclose(v, self.reference(wide, fw, beta),
                                   rtol=1e-10, atol=1e-12)

    def test_negative_beta(self, culling):
        gen = build_generator(culling, culling.constant_control(0),
                              CULLING_LEVEL)
        f = unit_cost(CULLING_LEVEL)
        v = evaluate_policy(gen, f, -0.8, lam=solve_qsd(gen).lam)
        np.testing.assert_allclose(v, self.reference(gen, f, -0.8),
                                   rtol=1e-10, atol=1e-12)


class TestNearFrontier:
    def test_optimality_residual_within_rounding_floor(self, culling):
        # beta 1e-4 below the all-keep rate on 30 states: |v| is large
        # enough that the rounding floor of the residual passes 1e-9
        level = 30
        keep = culling.constant_control(0, level)
        gen = build_generator(culling, keep, level)
        lam = solve_qsd(gen).lam
        assert lam == pytest.approx(0.4736000962896174, rel=1e-9)
        beta = lam - 1e-4
        sol = policy_iteration(culling, beta, "max", level=level)
        assert sol.policy == keep
        f = unit_cost(level)
        expect = np.linalg.solve(beta * np.eye(level) + gen.active, -f[1:])
        np.testing.assert_allclose(sol.v[1:], expect, rtol=1e-8)


# the banded value solve on random multi-action models under mixed
# controls: values against a dense solve, the refusal at and above the
# rate, and the sign of the factor's pivots against the rate

EPS = float(np.finfo(float).eps)


@settings(max_examples=40, deadline=None)
@given(below=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       **MIXED_CONTROL_CHAINS)
def test_value_matches_dense_solve_under_mixed_controls(
        level, k_max, actions, seed, below):
    gen = mixed_control_generator(level, k_max, actions, seed)
    lam = solve_qsd(gen).lam
    f = unit_cost(level)
    for beta in (-5.0 * below, below * lam * (1 - 1e-3)):
        m = beta * np.eye(level) + gen.active
        kappa = np.linalg.cond(m, np.inf)
        # the dense solve of the rounded generator is good to about
        # eps kappa; past that it has no correct digits to compare
        assume(EPS * kappa < 1e-2)
        v = evaluate_policy(gen, f, beta, lam=lam)
        assert v[0] == 0.0 and np.all(v[1:] > 0)
        np.testing.assert_allclose(v[1:], np.linalg.solve(m, -f[1:]),
                                   rtol=8 * EPS * kappa, atol=0)


@settings(max_examples=40, deadline=None)
@given(above=st.floats(min_value=0.0, max_value=1.0), **MIXED_CONTROL_CHAINS)
def test_refusal_at_and_above_the_rate_under_mixed_controls(
        level, k_max, actions, seed, above):
    gen = mixed_control_generator(level, k_max, actions, seed)
    lam = solve_qsd(gen).lam
    beta = lam * (1.0 + above)
    with pytest.raises(InfeasibleBetaError) as exc:
        evaluate_policy(gen, unit_cost(level), beta)
    assert exc.value.lam == lam and exc.value.beta == beta


@settings(max_examples=40, deadline=None)
@given(**MIXED_CONTROL_CHAINS)
def test_pivot_signs_track_the_rate_under_mixed_controls(
        level, k_max, actions, seed):
    # -(beta I + A) is a nonsingular M-matrix exactly when beta < lam,
    # which holds exactly when its unpivoted LU has positive pivots
    gen = mixed_control_generator(level, k_max, actions, seed)
    lam = solve_qsd(gen).lam
    factor = _BandedFactor.of(gen, lam * (1 - 1e-6))
    assert np.all(factor.upper[-1] > 0)
    with pytest.raises(SolverError, match="not positive"):
        _BandedFactor.of(gen, lam * (1 + 1e-6))
