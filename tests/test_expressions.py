import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdctl.errors import ExpressionSyntaxError, UnknownIdentifierError
from qsdctl.expressions import parse_rate_expression


def ev(text, **env):
    return parse_rate_expression(text).evaluate(env)


class TestEvaluation:
    def test_arithmetic(self):
        assert ev("2 + 3 * 4") == 14.0
        assert ev("(2 + 3) * 4") == 20.0
        assert ev("7 - 2 - 1") == 4.0          # left associative
        assert ev("8 / 4 / 2") == 1.0
        assert ev("10 / 4") == 2.5

    def test_power_right_associative(self):
        assert ev("2 ^ 3 ^ 2") == 512.0
        assert ev("(2 ^ 3) ^ 2") == 64.0
        assert ev("4 ^ 0.5") == 2.0

    def test_unary_minus(self):
        assert ev("-3 + 5") == 2.0
        assert ev("-(2 + 3)") == -5.0
        assert ev("2 * -3") == -6.0
        # unary binds tighter than * but looser than ^
        assert ev("-2 ^ 2") == -4.0

    def test_variables(self):
        assert ev("2 * n", n=5.0) == 10.0
        assert ev("kd * n^2", kd=1.5, n=2.0) == 6.0

    def test_functions(self):
        assert ev("min(3, 7)") == 3.0
        assert ev("max(3, 7, 5)") == 7.0
        assert ev("min(n, 4, 9)", n=6.0) == 4.0
        assert ev("pow(2, 10)") == 1024.0
        assert ev("pow(n, 1.8)", n=4.0) == pytest.approx(4.0 ** 1.8)

    def test_vectorized_matches_scalar(self):
        e = parse_rate_expression("max(1, n - 2) + min(n, 10) * 0.5 + n^1.5")
        ns = np.arange(1.0, 30.0)
        vec = np.asarray(e.evaluate({"n": ns}))
        scal = np.array([e.evaluate({"n": float(x)}) for x in ns])
        # numpy's simd pow loop and its scalar pow may differ by an ulp
        np.testing.assert_allclose(vec, scal, rtol=4e-16, atol=0)

    def test_scalars_in_float64_arithmetic(self):
        f = np.float64
        assert ev("kd * n^1.8 / 3 - n", kd=1.5, n=7.3) == (
            f(1.5) * f(7.3) ** f(1.8) / f(3) - f(7.3))
        assert ev("pow(n, 0.3) + 1 / n", n=0.7) == (
            f(0.7) ** f(0.3) + f(1) / f(0.7))

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            ev("kd * n", n=2.0)

    def test_variables_reported(self):
        e = parse_rate_expression("min(n, kd) + q0")
        assert e.variables() == {"n", "kd", "q0"}


class TestTotality:
    """IEEE edge cases come back as inf or nan, with no warning, for
    scalars and arrays alike."""

    @pytest.mark.parametrize("text, expected", [
        ("n / 0", math.inf),
        ("-n / 0", -math.inf),
        ("0 / 0", math.nan),
        ("(n - n) / (n - n)", math.nan),
        ("n * 1e300 * 1e300", math.inf),      # product overflows
        ("n ^ 400", math.inf),                # power overflows
        ("pow(0, -n)", math.inf),
        ("(0 - n) ^ 0.5", math.nan),
        ("n / 0 - n / 0", math.nan),
    ])
    def test_no_warning(self, text, expected):
        e = parse_rate_expression(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = e.evaluate({"n": 10.0})
            vector = e.evaluate({"n": np.array([10.0, 10.0])})
        np.testing.assert_array_equal(scalar, expected)
        np.testing.assert_array_equal(vector, [expected] * 2)


class TestSyntaxErrors:
    @pytest.mark.parametrize("bad, offset", [
        ("2 +", 3),
        ("n @ 2", 2),
        ("", 0),
        ("2 2", 2),
        ("min(1,)", 6),
        ("(1 + 2", 6),
        ("min(n)", 0),        # arity is an error at the call site
        ("pow(1, 2, 3)", 0),
    ])
    def test_offset(self, bad, offset):
        with pytest.raises(ExpressionSyntaxError) as ei:
            parse_rate_expression(bad)
        assert ei.value.offset == offset

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse_rate_expression("foo(2, 3)")

    def test_negative_literals_are_negation(self):
        # literals are non-negative; -3 parses as negation applied to 3
        assert ev("0 - 3") == -3.0
        assert ev("-3") == -3.0


class TestPrinter:
    @pytest.mark.parametrize("text", [
        "2 * n",
        "n + n^2",
        "min(n, 3, kd)",
        "-(n + 1) * 3",
        "max(1, n - 2)",
        "kd * n^2",
        "2^n^2",
    ])
    def test_round_trip_fixed_point(self, text):
        printed = str(parse_rate_expression(text))
        assert str(parse_rate_expression(printed)) == printed

    def test_printer_preserves_tree_shape(self):
        # right-nested sums must keep their parentheses, otherwise the
        # reparse yields a different tree even if the value agrees
        e = parse_rate_expression("1 + (2 + n)")
        assert str(e) == "1 + (2 + n)"
        e2 = parse_rate_expression("1 + 2 + n")
        assert str(e2) == "1 + 2 + n"

    def test_power_parens(self):
        assert str(parse_rate_expression("(2^3)^n")) == "(2^3)^n"
        assert str(parse_rate_expression("2^(3^n)")) == "2^3^n"


# random expression trees: printing then reparsing must reproduce the
# printed form exactly and evaluate identically

_names = st.sampled_from(["n", "kd", "q0"])


def _exprs(depth):
    if depth == 0:
        return st.one_of(
            st.floats(min_value=0.0, max_value=9.0,
                      allow_nan=False).map(lambda v: f"{v:g}"),
            _names)
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(sub, st.sampled_from(list("+-*/^")), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        sub.map(lambda s: f"-({s})"),
        st.tuples(sub, sub).map(lambda t: f"min({t[0]}, {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"max({t[0]}, {t[1]})"),
    )


@settings(max_examples=120, deadline=None)
@given(_exprs(3))
def test_round_trip_random(text):
    e = parse_rate_expression(text)
    printed = str(e)
    reparsed = parse_rate_expression(printed)
    # the printed form is a fixed point and reproduces the tree exactly
    assert str(reparsed) == printed
    assert reparsed == e
    env = {"n": 3.0, "kd": 1.5, "q0": 0.25}
    v1 = float(e.evaluate(env))
    v2 = float(reparsed.evaluate(env))
    assert (v1 == v2) or (math.isnan(v1) and math.isnan(v2))
