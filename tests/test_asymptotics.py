import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdctl import asymptotics, hjb, policies, qsd
from qsdctl.asymptotics import (brute_force_control_opt,
                                corollary_spot_check, limit_theorem_check,
                                optimize_extinction_rate)
from qsdctl.errors import (AllControlsInfeasibleError, CapExceededError,
                           InfeasibleBetaError, ModelError,
                           NonConvergenceError, SolverError)
from qsdctl.expressions import parse_rate_expression as rx
from qsdctl.generator import (_action_jumps, _control_assignments,
                              _stacked_band, build_generator,
                              enumerate_markov_controls)
from qsdctl.hjb import policy_iteration
from qsdctl.models import (Action, ControlSet, HypothesisConstants,
                           ModelSpec, ProgenyDist)
from qsdctl.qsd import _BandedFactor, _solve_qsd_stacked, solve_qsd
from qsdctl.simulate import SimConfig

from oracles import brute_force_value_opt
from test_models import make_model

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


def _random_model(actions, k_max, level, seed, stop=None):
    """Per-action rates and progeny laws.  Births under action 0 stop at
    state z (zero from z on, everywhere when z = 1; random unless given),
    so many controls have windows that split into classes, and some
    progeny sizes have probability 0."""
    rng = np.random.default_rng(seed)
    tables = rng.dirichlet(np.ones(k_max), size=actions)
    tables[rng.random((actions, k_max)) < 0.3] = 0.0
    tables[:, -1] += tables.sum(axis=1) == 0.0
    tables /= tables.sum(axis=1, keepdims=True)
    stop = int(rng.integers(1, level + 1)) if stop is None else stop
    stops = [stop] + [level + 1] * (actions - 1)
    return ModelSpec(
        name="rand",
        controls=ControlSet(tuple(
            Action(f"a{i}", {"sb": rng.uniform(0.2, 4.0),
                             "sd": rng.uniform(0.3, 2.0),
                             "pd": rng.uniform(1.0, 2.0), "z": z})
            for i, z in enumerate(stops))),
        birth=rx("sb * n * max(min(z - n, 1), 0)"), death=rx("sd * n^pd"),
        cost=rx("1"), progeny=ProgenyDist("table", k_max, tables),
        constants=HypothesisConstants(b_bar=4.0, m_bound=float(k_max),
                                      d_bar=rx("2 * n^2")),
        level=level)


def _stacked(model, level, max_iter=10_000):
    """Every control's (lam, pi, eta, iterations) from one stacked solve."""
    m = model.num_actions
    band = _stacked_band(_action_jumps(model, level),
                         _control_assignments(m, level, 0, m ** level))
    return _solve_qsd_stacked(*band, max_iter=max_iter)


class TestStackedEnumeration:
    @settings(max_examples=25, deadline=None)
    @given(actions=st.integers(min_value=1, max_value=3),
           k_max=st.integers(min_value=1, max_value=6),
           level=st.integers(min_value=2, max_value=7),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    def test_every_control_is_solve_qsd_to_the_bit(self, actions, k_max,
                                                   level, seed):
        model = _random_model(actions, k_max, level, seed)
        controls = list(enumerate_markov_controls(model, level))
        try:
            lams, pis, etas, iterations = _stacked(model, level, 2000)
        except NonConvergenceError:
            # a window splits into classes and one above the bottom class
            # attains the rate: eta dies out below it, slowly, and
            # solve_qsd gives up on that control as well
            with pytest.raises(NonConvergenceError):
                for c in controls:
                    solve_qsd(build_generator(model, c, level), max_iter=2000)
            return
        res = brute_force_control_opt(model, "max", level, keep_all=True)
        np.testing.assert_array_equal(res.lams, lams)
        for i, c in enumerate(controls):
            q = solve_qsd(build_generator(model, c, level))
            assert q.lam == lams[i]
            assert q.iterations == iterations[i]
            np.testing.assert_array_equal(q.pi, pis[i])
            np.testing.assert_array_equal(q.eta, etas[i])
            np.testing.assert_array_equal(q.pi, res.pis[i])
            np.testing.assert_array_equal(q.eta, res.etas[i])

    @settings(max_examples=40, deadline=None)
    @given(blocks=st.integers(min_value=2, max_value=5),
           n=st.integers(min_value=1, max_value=6),
           k=st.integers(min_value=0, max_value=8),
           shift=st.sampled_from([0.0, -0.3, 0.5, 2.0]),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    @example(blocks=2, n=4, k=0, shift=0.0, seed=0)
    @example(blocks=2, n=3, k=5, shift=-0.3, seed=1)
    def test_stacked_factor_is_each_blocks_walk(self, blocks, n, k, shift,
                                                seed):
        # the stack's factor is the walk of each block alone, to the bit:
        # pure death (k = 0), jumps past the block (k >= n) and positive
        # shifts, where some blocks fail a pivot and the stack raises the
        # first failure in stack order with its state numbered so
        rng = np.random.default_rng(seed)
        death = rng.uniform(0.1, 3.0, (blocks, n))
        births = rng.uniform(0.0, 2.0, (blocks, n, k))
        births[rng.random((blocks, n, k)) < 0.4] = 0.0
        for j in range(1, k + 1):
            births[:, max(n - j, 0):, j - 1] = 0.0   # no jump leaves a block
        walks = []
        for b in range(blocks):
            try:
                walks.append(_BandedFactor.from_band(death[b], births[b],
                                                     shift))
            except SolverError as e:
                x = int(re.search(r"at state (\d+) ", str(e)).group(1))
                with pytest.raises(SolverError) as err:
                    _BandedFactor.from_band(death, births, shift)
                assert str(err.value) == str(e).replace(
                    f"at state {x} ", f"at state {b * n + x} ")
                return
        stack = _BandedFactor.from_band(death, births, shift)

        def bits(a):
            return np.ascontiguousarray(a).tobytes()
        assert stack.norm == max(w.norm for w in walks)
        assert stack.tops == [b * n + t for b, w in enumerate(walks)
                              for t in w.tops]
        for b, w in enumerate(walks):
            cols = slice(b * n, (b + 1) * n)
            assert bits(stack.norms[cols]) == bits(w.norms)
            # L's last entry in a block couples it to the next: zero
            assert bits(stack.lower[:, cols][:, :-1]) == bits(w.lower[:, :-1])
            assert stack.lower[1, cols][-1] in (0.0, 1.0)
            # row k - j of U holds U[x - j, x]: the first j columns of a
            # block reach into the block below, and carry zero there
            for j in range(k + 1):
                assert bits(stack.upper[k - j, cols][j:]) == bits(
                    w.upper[k - j, j:])
                assert not stack.upper[k - j, cols][:j].any()

    def test_stacked_factor_raises_the_first_failure_in_stack_order(self):
        # block 0 fails at its state 3, block 1 at its state 1, which
        # the block-parallel elimination meets first
        death = np.array([[3.0, 3.0, 0.5], [0.25, 3.0, 3.0]])
        with pytest.raises(SolverError,
                           match=r"^pivot -5\.000e-01 at state 3 is"):
            _BandedFactor.from_band(death, np.zeros((2, 3, 0)), 1.0)

    def test_stacks_skip_the_state_by_state_walk(self, culling,
                                                 monkeypatch):
        def refuse(*args):
            raise AssertionError("a stack was eliminated state by state")
        monkeypatch.setattr(qsd, "_eliminate", refuse)
        assert brute_force_control_opt(culling, "max").count == 64

    def test_support_rule_fires(self):
        # births stop at state 3 under action 0: on the all-0 control the
        # class {1, 2} attains the rate and pi vanishes above it
        model = _random_model(2, 2, 5, 7, stop=3)
        lams, pis, etas, iterations = _stacked(model, 5)
        q = solve_qsd(build_generator(model, model.constant_control(0, 5), 5))
        assert q.reducible_warning
        np.testing.assert_array_equal(pis[0], q.pi)
        assert iterations[0] == q.iterations and lams[0] == q.lam

    def test_tied_actions_pick_the_first_control(self):
        same = {"kd": 1.5}
        model = make_model(death="kd * n^2", level=5, actions=tuple(
            Action(name, same) for name in ("a", "b", "c")))
        for objective in ("max", "min"):
            res = brute_force_control_opt(model, objective, keep_all=True)
            assert res.control.assignment == (0,) * 5
            assert (res.lams == res.lam).all()

    def test_cap_refused_before_any_rate(self, culling, monkeypatch):
        def no_rates(*args):
            raise AssertionError("a rate was evaluated")
        monkeypatch.setattr(ModelSpec, "_vector", no_rates)
        with pytest.raises(CapExceededError):
            brute_force_control_opt(culling, "max", level=6, cap=63)

    def test_invalid_rate_under_one_action(self):
        # the birth rate of action b is negative at state 3 only
        model = make_model(
            birth="2 * n - bad * 100 * max(min(n - 2, 4 - n), 0)", level=5,
            actions=(Action("a", {"bad": 0}), Action("b", {"bad": 1})))
        with pytest.raises(ModelError,
                           match="birth rate is -94.0 at state 3 under "
                                 "action b"):
            brute_force_control_opt(model, "max")

    def test_zero_death_under_one_action(self):
        model = make_model(
            death="n + n^2 - z * 12 * max(min(n - 2, 4 - n), 0)", level=5,
            actions=(Action("a", {"z": 0}), Action("b", {"z": 1})))
        with pytest.raises(ModelError, match="state 3 has zero death rate"):
            brute_force_control_opt(model, "min")

    @pytest.mark.parametrize("blocks", [1, 3, 7])
    def test_chunks_change_nothing(self, blocks, monkeypatch):
        model = make_model(
            death="kd * n^2", cost="c * n", level=5, progeny=ProgenyDist(
                "table", 3, np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6],
                                      [1.0, 0.0, 0.0]])),
            actions=(Action("a", {"kd": 1.0, "c": 1.0}),
                     Action("b", {"kd": 1.3, "c": 2.0}),
                     Action("c", {"kd": 2.0, "c": 3.0})))
        whole = brute_force_control_opt(model, "max", keep_all=True)
        monkeypatch.setattr(asymptotics, "_STACK_STATES", blocks * 5)
        for objective in ("max", "min"):
            part = brute_force_control_opt(model, objective, keep_all=True)
            np.testing.assert_array_equal(part.lams, whole.lams)
            np.testing.assert_array_equal(part.pis, whole.pis)
            np.testing.assert_array_equal(part.etas, whole.etas)
            best = (np.argmax if objective == "max" else np.argmin)(whole.lams)
            assert part.control == whole.controls[best]
            assert part.lam == whole.lams[best]

    def test_no_generator_per_control(self, culling, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built or solved one control alone")
        monkeypatch.setattr(asymptotics, "_control_generator", refuse)
        monkeypatch.setattr(asymptotics, "solve_qsd", refuse)
        assert brute_force_control_opt(culling, "max").count == 64
        assert limit_theorem_check(culling, "max").converged


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


class TestRateOptimum:
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
        assert last.control == opt.control
        assert 0.0 <= opt.slack <= opt.floor

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

    def test_objective_validated(self, culling):
        with pytest.raises(ModelError):
            optimize_extinction_rate(culling, "best")

    def test_revisited_control_is_a_solver_error(self, culling,
                                                 monkeypatch):
        # a drift that favours keep, then cull, then keep... sends the
        # iteration from all-cull to all-keep and back
        calls = []

        def alternating(jumps, v):
            calls.append(None)
            drift = np.full(jumps.shape[:2], 1e3)
            drift[1 - len(calls) % 2] = 0.0
            return drift

        monkeypatch.setattr(asymptotics, "_action_drift", alternating)
        with pytest.raises(SolverError, match="revisited"):
            optimize_extinction_rate(culling, "max")
        assert len(calls) == 2

    @staticmethod
    def _agrees_with_enumeration(model, objective, rel=0.0):
        opt = optimize_extinction_rate(model, objective)
        lam = brute_force_control_opt(model, objective).lam
        assert abs(opt.lam - lam) <= rel * lam
        assert opt.slack <= opt.floor
        sign = 1.0 if objective == "max" else -1.0
        lams = [step.lam for step in opt.steps]
        assert all(sign * (b - a) >= -rel * lam
                   for a, b in zip(lams, lams[1:]))
        assert len({step.control for step in opt.steps}) == len(lams)

    @pytest.mark.parametrize("objective", ["max", "min"])
    @pytest.mark.parametrize("seed", [*range(40), 62])
    def test_irreducible_draws_match_enumeration(self, seed, objective):
        # births never stop, so every window is irreducible; the discount
        # continuation this replaced stalled on max for seeds 3-7, 15,
        # 17, 18, 23, 25, 33 and 38, and fell short of the optimum on 62
        level = 4 + seed % 4
        model = _random_model(2 + seed % 2, 1 + seed % 3, level, seed,
                              stop=level + 1)
        self._agrees_with_enumeration(model, objective)

    @pytest.mark.parametrize("objective", ["max", "min"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 7, 8, 9, 10])
    def test_reducible_draws_match_enumeration(self, seed, objective):
        # births under action 0 stop at a random state (the first ten
        # seeds whose enumeration converges; seed 6's does not).  A
        # switch in a row above the class that attains lam leaves lam
        # unchanged, so controls tie and their rates differ by rounding:
        # enumeration's argmax and the steps' rates agree to that only
        model = _random_model(2 + seed % 2, 1 + seed % 3, 4 + seed % 4, seed)
        self._agrees_with_enumeration(model, objective, rel=1e-12)


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

    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_rungs_share_one_table(self, culling, objective, monkeypatch):
        # one table of rates for the reference and every rung, and no
        # generator solved twice across the rungs: the constant controls
        # each rung starts from are solved at most once per ladder, and
        # so is every iterate
        tables, solved = [], []
        action_table, solve = hjb._action_table, hjb.solve_qsd

        def counted_table(*args):
            tables.append(args)
            return action_table(*args)

        def counted_solve(gen, *args, **kwargs):
            solved.append((gen.death.tobytes(), gen.births.tobytes()))
            return solve(gen, *args, **kwargs)
        monkeypatch.setattr(asymptotics, "_action_table", counted_table)
        monkeypatch.setattr(hjb, "_action_table", counted_table)
        monkeypatch.setattr(hjb, "solve_qsd", counted_solve)
        chk = limit_theorem_check(culling, objective)
        assert np.isfinite(chk.products).sum() > 1
        assert len(tables) == 1
        assert len(set(solved)) == len(solved)

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
