import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdctl.errors import CapExceededError, ModelError
from qsdctl.expressions import parse_rate_expression as rx
from qsdctl.generator import (_control_assignments, _control_generator,
                              _control_rates, _matvec, _stacked_band,
                              _vecmat, build_generator,
                              enumerate_markov_controls)
from qsdctl.hjb import _action_table, hjb_residual, policy_iteration
from qsdctl.models import (Action, ControlSet, HypothesisConstants,
                           MarkovControl, ModelSpec, ProgenyDist)
from qsdctl.qsd import solve_qsd, survival_profile

from test_asymptotics import _random_model
from test_models import make_model


class TestHandMatrices:
    def test_pure_death_rows(self):
        m = make_model(birth="0", b_bar=1.0, death="n", d_bar="n",
                       d_lower=None, epsilon=None)
        gen = build_generator(m, m.constant_control(0, 3), 3)
        expect = np.array([
            [0.0, 0.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 2.0, -2.0, 0.0],
            [0.0, 0.0, 3.0, -3.0],
        ])
        np.testing.assert_array_equal(gen.matrix, expect)

    def test_logistic_level_3(self):
        # b = 2n, d = n + n^2, single progeny.  At the top state the
        # birth would land outside the window; folding it back onto the
        # top state cancels against the diagonal, leaving pure death.
        m = make_model()
        gen = build_generator(m, m.constant_control(0, 3), 3)
        expect = np.array([
            [0.0, 0.0, 0.0, 0.0],
            [2.0, -4.0, 2.0, 0.0],
            [0.0, 6.0, -10.0, 4.0],
            [0.0, 0.0, 12.0, -12.0],
        ])
        np.testing.assert_array_equal(gen.matrix, expect)

    def test_multi_progeny_lumping(self):
        # progeny 1 or 2 with probability 1/2 each, level 3: from state 2
        # both k=1 and k=2 land at 3 (the second by folding)
        m = make_model(progeny=ProgenyDist.from_table([0.5, 0.5], 1))
        gen = build_generator(m, m.constant_control(0, 3), 3)
        # state 1: b=2 splits 1 to state 2, 1 to state 3
        assert gen.matrix[1, 2] == 1.0 and gen.matrix[1, 3] == 1.0
        # state 2: b=4 -> all of it at 3
        assert gen.matrix[2, 3] == 4.0
        # state 3: births fold onto itself and vanish; only death remains
        assert gen.matrix[3, 2] == 12.0 and gen.matrix[3, 3] == -12.0

    def test_mass_conservation_inside_window(self):
        m = make_model(progeny=ProgenyDist.from_table([0.3, 0.3, 0.4], 1))
        level = 12
        gen = build_generator(m, m.constant_control(0, level), level)
        for x in range(1, level + 1):
            off = gen.matrix[x].sum() - gen.matrix[x, x]
            b = m.birth_rate(x, 0)
            d = m.death_rate(x, 0)
            expected = d if x == level else b + d
            # strictly below the fold everything is kept; at the top
            # only the death outflow survives
            if x < level:
                assert off == pytest.approx(b + d, rel=1e-12)
            else:
                assert off == pytest.approx(d, rel=1e-12)
            assert gen.matrix[x].sum() == pytest.approx(0.0, abs=1e-12 * (1 + expected))


class TestStructure:
    def test_absorbing_row_zero(self, culling):
        gen = build_generator(culling, culling.constant_control(0), 6)
        np.testing.assert_array_equal(gen.matrix[0], np.zeros(7))

    def test_active_view(self, culling):
        gen = build_generator(culling, culling.constant_control(1), 6)
        assert gen.active.shape == (6, 6)
        np.testing.assert_array_equal(gen.active, gen.matrix[1:, 1:])

    def test_mixed_control_rows(self, culling):
        ctrl = MarkovControl((0, 1, 0, 1, 0, 1))
        gen = build_generator(culling, ctrl, 6)
        for x in range(1, 7):
            kd = (1.0, 1.5)[ctrl.action_at(x)]
            assert gen.matrix[x, x - 1] == kd * x ** 2

    def test_matrix_built_on_first_read(self, culling):
        gen = build_generator(culling, culling.constant_control(0), 6)
        solve_qsd(gen)
        survival_profile(gen, [0.5])
        assert "matrix" not in gen.__dict__
        assert gen.active.base is gen.matrix
        assert "matrix" in gen.__dict__

    def test_uniformization_rate_covers_exits(self, culling):
        gen = build_generator(culling, culling.constant_control(1), 6)
        assert gen.uniformization_rate() >= gen.max_exit_rate()
        assert gen.max_exit_rate() == pytest.approx(1.5 * 36 + 0.0)

    def test_control_must_cover_window(self, culling):
        with pytest.raises(ModelError):
            build_generator(culling, MarkovControl((0, 1)), 6)

    def test_control_indices_validated(self, culling):
        with pytest.raises(ModelError):
            build_generator(culling, MarkovControl((7,) * 6), 6)


class TestBandedProducts:
    @settings(max_examples=60, deadline=None)
    @given(actions=st.integers(min_value=1, max_value=3),
           k_max=st.integers(min_value=1, max_value=8),
           level=st.integers(min_value=1, max_value=7),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    @example(actions=2, k_max=3, level=1, seed=0)
    @example(actions=1, k_max=8, level=3, seed=1)
    def test_products_match_the_dense_matrix(self, actions, k_max, level,
                                             seed):
        # A v and p A on a control's band are the products with its
        # dense matrix up to rounding, and each block of the stacked band
        # of all controls (full width, so zero columns where a control's
        # own band is narrower) gives its control's products to the bit.
        # A control's band and cost gathered from the action table are
        # build_generator's and _control_rates's to the bit; the cost
        # moves with the state and the action
        model = dataclasses.replace(_random_model(actions, k_max, level, seed),
                                    cost=rx("sb * n^pd + sd"))
        table = _action_table(model, level)
        count = actions ** level
        rng = np.random.default_rng(seed)
        v, p = rng.standard_normal((2, count, level))
        death, births = _stacked_band(
            table.jumps, _control_assignments(actions, level, 0, count))
        right, left = _matvec(death, births, v), _vecmat(death, births, p)
        eps = np.finfo(float).eps
        controls = list(enumerate_markov_controls(model, level))
        for i in rng.choice(count, size=min(count, 8), replace=False):
            gen = build_generator(model, controls[i], level)
            gathered = _control_generator(table.jumps, controls[i].assignment)
            for built, got in ((gen.death, gathered.death),
                               (gen.births, gathered.births)):
                assert got.shape == built.shape
                assert got.tobytes() == built.tobytes()
            cost = _control_rates(model, controls[i], level, ("cost",))[1][0]
            assert table.cost(controls[i]).tobytes() == cost.tobytes()
            a = gen.active
            av = _matvec(gen.death, gen.births, v[i])
            pa = _vecmat(gen.death, gen.births, p[i])
            np.testing.assert_allclose(
                av, a @ v[i], rtol=0,
                atol=8 * eps * abs(a).sum(axis=1).max() * abs(v[i]).max())
            np.testing.assert_allclose(
                pa, p[i] @ a, rtol=0,
                atol=8 * eps * abs(a).sum(axis=0).max() * abs(p[i]).max())
            np.testing.assert_array_equal(av, right[i])
            np.testing.assert_array_equal(pa, left[i])


class TestEnumeration:
    def test_count_and_order(self, culling):
        controls = list(enumerate_markov_controls(culling, 3))
        assert len(controls) == 8
        assert controls[0].assignment == (0, 0, 0)
        assert controls[-1].assignment == (1, 1, 1)
        assert len(set(c.assignment for c in controls)) == 8

    def test_cap(self, culling):
        with pytest.raises(CapExceededError):
            list(enumerate_markov_controls(culling, 30, cap=10 ** 6))


# random small models: structural invariants of the generator

RANDOM_MODELS = dict(
    level=st.integers(min_value=1, max_value=9),
    b_coef=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    d_pow=st.floats(min_value=1.0, max_value=2.0, allow_nan=False),
    k_max=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)


@settings(max_examples=60, deadline=None)
@given(**RANDOM_MODELS)
def test_generator_invariants(level, b_coef, d_pow, k_max, seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k_max))
    m = ModelSpec(
        name="rand", controls=ControlSet((Action("a", {}),)),
        birth=rx(f"{b_coef!r} * n"), death=rx(f"n^{d_pow!r}"), cost=rx("1"),
        progeny=ProgenyDist.from_table(probs, 1),
        constants=HypothesisConstants(
            b_bar=max(b_coef, 1e-6), m_bound=float(k_max),
            d_bar=rx(f"n^{d_pow!r}")),
        level=level)
    gen = build_generator(m, m.constant_control(0, level), level)
    q = gen.matrix
    # row sums vanish, off-diagonals are nonnegative, absorbing row is 0
    np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-9)
    off = q - np.diag(np.diag(q))
    assert np.all(off >= 0)
    assert np.all(q[0] == 0)
    # sub-diagonal carries exactly the death rates
    for x in range(1, level + 1):
        assert q[x, x - 1] >= m.death_rate(x, 0) - 1e-12
    # nothing reaches below the sub-diagonal
    assert np.all(np.tril(q, -2) == 0)


def reference_generator(model, control, level):
    """Per-state assembly: deaths, then births of each size with the
    ones landing above the level lumped onto it, diagonal last."""
    q = np.zeros((level + 1, level + 1))
    for x in range(1, level + 1):
        a = control.action_at(x)
        q[x, x - 1] += model.death_rate(x, a)
        b = model.birth_rate(x, a)
        for k, p in enumerate(model.progeny.pmf(a), start=1):
            if min(x + k, level) != x:
                q[x, min(x + k, level)] += b * p
        q[x, x] = -q[x].sum()
    return q


@settings(max_examples=60, deadline=None)
@given(**RANDOM_MODELS, actions=st.integers(min_value=1, max_value=3),
       mode=st.sampled_from(["min", "max"]))
def test_generator_matches_reference_under_mixed_controls(
        level, b_coef, d_pow, k_max, seed, actions, mode):
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 2.0, size=(actions, 3))
    m = ModelSpec(
        name="rand",
        controls=ControlSet(tuple(
            Action(f"a{i}", {"sb": sb, "sd": sd, "sf": sf})
            for i, (sb, sd, sf) in enumerate(scales))),
        birth=rx(f"sb * {b_coef!r} * n"), death=rx(f"sd * n^{d_pow!r}"),
        cost=rx("sf * n"),
        progeny=ProgenyDist("table", k_max,
                            rng.dirichlet(np.ones(k_max), size=actions)),
        constants=HypothesisConstants(
            b_bar=max(2 * b_coef, 1e-6), m_bound=float(k_max),
            d_bar=rx(f"2 * n^{d_pow!r}")),
        level=level)
    control = MarkovControl(tuple(rng.integers(0, actions, size=level)))
    np.testing.assert_allclose(
        build_generator(m, control, level).matrix,
        reference_generator(m, control, level), rtol=1e-13, atol=0)

    # the HJB scores use the operator the generator is built from
    beta = -0.5
    sol = policy_iteration(m, beta, mode, level=level)
    q = build_generator(m, sol.policy, level).matrix
    f = np.array([0.0] + [m.cost_rate(x, sol.policy.action_at(x))
                          for x in range(1, level + 1)])
    direct = beta * sol.v[1:] + f[1:] + (q @ sol.v)[1:]
    eps = np.finfo(float).eps
    bound = 8 * eps * np.abs(q).sum(axis=1).max() * (1 + np.abs(sol.v).max())
    np.testing.assert_allclose(hjb_residual(m, sol.v, beta, mode), direct,
                               rtol=0, atol=bound)
