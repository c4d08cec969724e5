import numpy as np
import pytest

from qsdctl.errors import ModelError
from qsdctl.expressions import parse_rate_expression as rx
from qsdctl.models import (Action, ControlSet, HypothesisConstants,
                           MarkovControl, ModelSpec, ProgenyDist,
                           validate_hypotheses)


def make_model(birth="2 * n", death="n + n^2", cost="1", b_bar=2.0,
               m_bound=1.0, d_bar="n + n^2", d_lower=1.0, epsilon=1.0,
               progeny=None, actions=None, level=10):
    controls = ControlSet(actions or (Action("a", {}),))
    return ModelSpec(
        name="inline", controls=controls, birth=rx(birth), death=rx(death),
        cost=rx(cost),
        progeny=progeny or ProgenyDist.from_table([1.0], controls.size),
        constants=HypothesisConstants(
            b_bar=b_bar, m_bound=m_bound, d_bar=rx(d_bar),
            d_lower=d_lower, epsilon=epsilon),
        level=level)


class TestControlSet:
    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            ControlSet(())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelError):
            ControlSet((Action("a", {}), Action("a", {})))

    def test_index(self):
        cs = ControlSet((Action("x", {}), Action("y", {})))
        assert cs.index("y") == 1
        with pytest.raises(ModelError):
            cs.index("z")


class TestProgenyDist:
    def test_table_normalizes_tiny_defect(self):
        p = ProgenyDist.from_table([0.5, 0.5 + 1e-12], 1)
        assert p.pmf(0).sum() == pytest.approx(1.0, abs=1e-12)

    def test_table_rejects_large_defect(self):
        with pytest.raises(ModelError):
            ProgenyDist.from_table([0.5, 0.4], 1)

    def test_table_rejects_negative(self):
        with pytest.raises(ModelError):
            ProgenyDist.from_table([1.1, -0.1], 1)

    def test_geometric_shape_and_mean(self):
        p = ProgenyDist.geometric([0.5], k_max=40)
        pmf = p.pmf(0)
        # successive ratios are exactly r
        np.testing.assert_allclose(pmf[1:] / pmf[:-1], 0.5, rtol=1e-12)
        # truncated mean is below 1/(1-r) = 2 but close
        assert 1.99 < p.mean(0) < 2.0

    def test_geometric_ratio_domain(self):
        with pytest.raises(ModelError):
            ProgenyDist.geometric([1.0], 5)
        with pytest.raises(ModelError):
            ProgenyDist.geometric([0.0], 5)

    def test_cdf_monotone_ends_at_one(self):
        p = ProgenyDist.geometric([0.3, 0.7], k_max=10)
        for a in range(2):
            c = p.cdf(a)
            assert np.all(np.diff(c) >= 0)
            assert c[-1] == pytest.approx(1.0, abs=1e-12)


class TestHypothesisConstants:
    def test_floor_must_come_in_pairs(self):
        with pytest.raises(ModelError):
            HypothesisConstants(1.0, 1.0, rx("n"), d_lower=1.0, epsilon=None)
        with pytest.raises(ModelError):
            HypothesisConstants(1.0, 1.0, rx("n"), d_lower=None, epsilon=1.0)

    def test_d_bar_only_depends_on_n(self):
        with pytest.raises(ModelError):
            HypothesisConstants(1.0, 1.0, rx("kd * n"))

    def test_positive_requirements(self):
        with pytest.raises(ModelError):
            HypothesisConstants(0.0, 1.0, rx("n"))
        with pytest.raises(ModelError):
            HypothesisConstants(1.0, 0.5, rx("n"))   # progeny sizes start at 1
        with pytest.raises(ModelError):
            HypothesisConstants(1.0, 1.0, rx("n"), d_lower=1.0, epsilon=0.0)


class TestMarkovControl:
    def test_clamps_above_range(self):
        c = MarkovControl((0, 1, 1))
        assert c.action_at(1) == 0
        assert c.action_at(3) == 1
        assert c.action_at(50) == 1

    def test_rejects_state_zero(self):
        with pytest.raises(ModelError):
            MarkovControl((0,)).action_at(0)

    def test_check_bounds(self):
        with pytest.raises(ModelError):
            MarkovControl((0, 2)).check(num_actions=2)
        MarkovControl((0, 1)).check(num_actions=2)

    def test_truncate(self):
        c = MarkovControl((0, 1, 0, 1))
        assert c.truncate(2).assignment == (0, 1)
        with pytest.raises(ModelError):
            c.truncate(9)


class TestModelSpec:
    def test_state_zero_is_a_trap(self):
        m = make_model()
        assert m.birth_rate(0, 0) == 0.0
        assert m.death_rate(0, 0) == 0.0
        assert m.cost_rate(0, 0) == 0.0

    def test_negative_rate_names_state_and_action(self):
        m = make_model(death="n - 3", d_lower=None, epsilon=None)
        with pytest.raises(ModelError, match=r"state 2 under action a"):
            m.death_rate(2, 0)

    def test_tables_match_scalar_evaluation(self):
        m = make_model(birth="2 * n", death="n + n^2", cost="n")
        b, d, f = m.rate_tables(0, 12)
        for x in range(13):
            assert b[x] == m.birth_rate(x, 0)
            assert d[x] == m.death_rate(x, 0)
            assert f[x] == m.cost_rate(x, 0)

    def test_rate_error_prints_a_plain_number(self):
        m = make_model(death="3 * n - 15", d_lower=None, epsilon=None)
        with pytest.raises(ModelError) as exc:
            m.rate_tables(0, 10)
        assert str(exc.value) == "death rate is -12.0 at state 1 under action a"

    def test_table_rejects_negative_with_witness(self):
        m = make_model(cost="n - 5")
        with pytest.raises(ModelError, match=r"state 1"):
            m.rate_tables(0, 10)

    def test_action_params_reach_rates(self):
        m = make_model(
            death="kd * n^2", d_bar="2 * n^2",
            actions=(Action("lo", {"kd": 1.0}), Action("hi", {"kd": 2.0})))
        assert m.death_rate(3, 0) == 9.0
        assert m.death_rate(3, 1) == 18.0

    def test_envelope_tables(self):
        m = make_model()
        benv, denv = m.envelope_tables(5)
        np.testing.assert_allclose(benv, 2.0 * np.arange(6))
        assert denv[0] == 0.0
        np.testing.assert_allclose(denv[1:],
                                   [n + n ** 2 for n in range(1, 6)])

    def test_with_unit_cost(self):
        m = make_model(cost="n")
        u = m.with_unit_cost()
        assert u.cost_rate(7, 0) == 1.0
        assert m.cost_rate(7, 0) == 7.0  # original untouched

    def test_progeny_rows_must_match_actions(self):
        with pytest.raises(ModelError):
            make_model(actions=(Action("x", {}), Action("y", {})),
                       progeny=ProgenyDist.from_table([1.0], 1))


class TestValidateHypotheses:
    def test_all_pass(self):
        report = validate_hypotheses(make_model(), 50)
        assert report.all_pass()
        assert report.n_check == 50

    def test_birth_violation_witness(self):
        report = validate_hypotheses(make_model(b_bar=1.0), 50)
        clause = report.clause("birth-linear-bound")
        assert clause.status == "fail"
        state, action, margin = clause.witness
        # worst excess of 2n over 1*n grows with n: witness at the edge
        assert state == 50 and action == "a"
        assert margin == pytest.approx(50.0)

    def test_death_floor_fails_for_linear_death(self):
        report = validate_hypotheses(
            make_model(death="n", d_bar="n", d_lower=1.0, epsilon=1.0), 50)
        clause = report.clause("death-superlinear-lower")
        assert clause.status == "fail"
        assert clause.witness[0] == 50  # worst shortfall at the window edge

    def test_floor_not_checkable_when_undeclared(self):
        report = validate_hypotheses(
            make_model(death="3 * n", d_bar="3 * n",
                       d_lower=None, epsilon=None), 20)
        assert report.clause("death-superlinear-lower").status == "not-checkable"
        assert not report.all_pass()

    def test_jump_positivity_fails_without_births(self):
        report = validate_hypotheses(
            make_model(birth="0", b_bar=1.0, d_bar="n", death="n",
                       d_lower=None, epsilon=None), 20)
        assert report.clause("positive-jump-rates").status == "fail"

    def test_progeny_mean_bound(self):
        p = ProgenyDist.geometric([0.5], 40)   # mean just under 2
        ok = validate_hypotheses(
            make_model(m_bound=2.0, progeny=p), 20)
        assert ok.clause("progeny-mean-bound").status == "pass"
        bad = validate_hypotheses(
            make_model(m_bound=1.5, progeny=p), 20)
        assert bad.clause("progeny-mean-bound").status == "fail"

    def test_as_dict_round_trip(self):
        d = validate_hypotheses(make_model(), 10).as_dict()
        assert {c["clause"] for c in d["clauses"]} == {
            "birth-linear-bound", "death-upper-bound", "progeny-mean-bound",
            "death-superlinear-lower", "positive-jump-rates"}
