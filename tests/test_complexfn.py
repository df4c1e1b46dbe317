"""Gamma-family and branch-aware power helpers."""

import cmath
import math
import random
import sys

import mpmath
import pytest

from legshift.complexfn import (
    _POLE_TOL,
    cos_pi,
    cpow,
    gamma,
    gamma_ratio,
    integer_within,
    ln_gamma,
    rgamma,
    sin_pi,
    zsq_minus_one_pow,
)
from legshift.errors import NumericalError, PoleError
from legshift.quadrature import _INTEGER_LAM_TOL


def test_gamma_known_values():
    assert abs(gamma(1.0) - 1.0) < 1e-14
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(gamma(5.0) - 24.0) < 1e-12


def test_gamma_recurrence():
    for w in (0.3 + 0.7j, 2.5, -0.4 + 1.2j, 1.1 - 0.6j):
        assert abs(gamma(w + 1) - w * gamma(w)) <= 1e-13 * abs(gamma(w + 1))


def test_gamma_reflection():
    for w in (0.3, 0.7 + 0.2j, -0.4 + 1.1j):
        lhs = gamma(w) * gamma(1.0 - w)
        rhs = math.pi / sin_pi(w)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_rgamma_exact_zero_at_poles():
    assert rgamma(0.0) == 0.0
    assert rgamma(-1.0) == 0.0
    assert rgamma(-7.0) == 0.0


def test_ln_gamma_pole_raises():
    with pytest.raises(PoleError):
        ln_gamma(-2.0)


def test_sin_cos_pi_exact_at_integers():
    assert sin_pi(3.0) == 0.0
    assert sin_pi(-5.0) == 0.0
    assert cos_pi(2.0) == 1.0
    assert cos_pi(3.0) == -1.0
    assert cos_pi(0.5) == 0.0


def test_sin_pi_shift_periodicity():
    for w in (0.37, 1.91, -0.64):
        assert abs(sin_pi(w - 2.0) - sin_pi(w)) < 1e-15


def test_gamma_ratio_plain():
    val = gamma_ratio([2.5, 0.7], [1.3, 1.9])
    ref = gamma(2.5) * gamma(0.7) / (gamma(1.3) * gamma(1.9))
    assert abs(val - ref) <= 1e-13 * abs(ref)


def test_gamma_ratio_pole_pairing():
    # Gamma(-1+e)/Gamma(-2+e) -> -2 as e -> 0; paired poles cancel finitely
    val = gamma_ratio([-1.0], [-2.0])
    assert abs(val - (-2.0)) < 1e-12


def test_gamma_ratio_unpaired_numerator_pole_is_infinite_free():
    # numerator pole with no denominator partner: ratio diverges -> PoleError
    with pytest.raises(PoleError):
        gamma_ratio([-3.0], [1.5])


def test_gamma_ratio_denominator_pole_gives_zero():
    assert gamma_ratio([1.5], [-3.0]) == 0.0


def test_cpow_principal_branch():
    assert abs(cpow(-1.0 + 0j, 0.5) - 1j) < 1e-15
    assert abs(cpow(4.0, 0.5) - 2.0) < 1e-15
    assert cpow(0.0, 2.0) == 0.0


def test_cpow_zero_base_with_nonpositive_exponent_is_a_pole():
    for s in (-0.7, 1j, -2.0 + 0.5j):
        with pytest.raises(PoleError):
            cpow(0.0, s)


def test_zsq_minus_one_pow_factored_branches():
    # (z-1)^s (z+1)^s stays continuous across Re z < 0 where (z^2-1)^s is not
    z = -2.0 + 1e-12j
    s = 0.5
    val = zsq_minus_one_pow(z, s)
    ref = cpow(z - 1.0, s) * cpow(z + 1.0, s)
    assert val == ref


def test_zsq_minus_one_pow_real_axis():
    assert abs(zsq_minus_one_pow(3.0, 0.5) - math.sqrt(8.0)) < 1e-14


def test_integer_within_tests_each_axis():
    assert integer_within(3.0, _POLE_TOL) == 3
    assert integer_within(-2.0 + 5e-10j, _POLE_TOL) == -2
    assert integer_within(2.5, _POLE_TOL) is None
    assert integer_within(1.0 + 1e-6j, _POLE_TOL) is None
    # the tolerance bounds each axis, not the modulus
    assert integer_within(complex(1.0 + 0.9e-9, 0.9e-9), _POLE_TOL) == 1
    assert integer_within(1.0 + 2e-12, _INTEGER_LAM_TOL) is None


def test_integer_within_keeps_the_sign():
    # a pole test reads n <= 0 from the integer itself
    assert integer_within(0.0, _POLE_TOL) == 0
    assert integer_within(-4.0, _POLE_TOL) == -4
    assert integer_within(2.0, _POLE_TOL) == 2
    assert integer_within(0.5, _POLE_TOL) is None
    assert integer_within(-1.0 + 1e-6j, _POLE_TOL) is None


def test_sin_pi_keeps_relative_accuracy_next_to_integers():
    # the reduction is to the nearest integer, so n +/- 1e-10 loses nothing
    # to the subtraction; rgamma near a pole goes through sin_pi
    for n in range(-3, 4):
        for x in (n - 1e-10, n + 1e-10):
            ref = complex(mpmath.sinpi(x))
            assert abs(sin_pi(x) - ref) <= 1e-15 * abs(ref), x
        assert sin_pi(n + 0.5) == (-1.0) ** n
    ref = complex(mpmath.rgamma(-1e-8))
    assert abs(rgamma(-1e-8) - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize(
    "call",
    [lambda: gamma(200), lambda: rgamma(-200.5), lambda: gamma_ratio([400], [1])],
    ids=("gamma(200)", "rgamma(-200.5)", "gamma_ratio([400],[1])"),
)
def test_gamma_past_double_range_is_a_numerical_error(call):
    with pytest.raises(NumericalError):
        call()


def test_gamma_far_off_the_real_axis_vs_mpmath():
    # sin(pi z) is beyond double range past |Im z| ~ 226, but the reflection
    # needs only its logarithm, so Gamma and 1/Gamma stay in range
    for z in (0.3 + 300j, -0.3 - 400j, -2.7 + 250j):
        ref = complex(mpmath.gamma(z))
        assert abs(gamma(z) - ref) <= 1e-12 * abs(ref), z
        assert abs(rgamma(z) - 1.0 / ref) <= 1e-12 / abs(ref), z
    with pytest.raises(NumericalError):
        sin_pi(0.3 + 300j)


def _real_gamma_points():
    """Seeded real points with |x| <= 30, and points 1e-8 to 1e-6 either side
    of 0, -1, ..., -30."""
    rng = random.Random(2020)
    points = [rng.uniform(-30.0, 30.0) for _ in range(300)]
    points += [-n + s * rng.uniform(1e-8, 1e-6) for n in range(31) for s in (-1.0, 1.0)]
    return points


def test_real_gamma_vs_mpmath_to_a_few_ulps():
    # float arithmetic at real arguments: within 6.4e-16 relative here, where
    # the complex log form was 2.1e-14 off
    with mpmath.workdps(30):
        for x in _real_gamma_points():
            ref = mpmath.gamma(x)
            for value, exact in ((gamma(x), ref), (rgamma(x), 1 / ref), (gamma_ratio([x], []), ref)):
                assert abs(value - complex(exact)) <= 4e-15 * abs(complex(exact)), x


def test_large_real_gamma_vs_mpmath():
    # |x| in (60, 170]: still math.gamma, within 6.5e-16 (the log form: 1.8e-13)
    rng = random.Random(60)
    with mpmath.workdps(30):
        for x in (s * rng.uniform(60.0, 170.0) for _ in range(100) for s in (1.0, -1.0)):
            ref = complex(mpmath.gamma(x))
            assert abs(gamma(x) - ref) <= 4e-15 * abs(ref), x
            assert abs(rgamma(x) - 1.0 / ref) <= 4e-15 / abs(ref), x


def test_gamma_ratio_past_double_range_within_its_log_rounding():
    # past |x| = 171.6 one Gamma leaves double range and the ratio is the exp
    # of a difference of lgamma values, each rounded to eps |lgamma|: within
    # that bound, 0.66 of it at worst here (the complex log form: 1.01)
    rng = random.Random(170)
    eps = sys.float_info.epsilon
    with mpmath.workdps(30):
        for _ in range(200):
            x = rng.choice((1.0, -1.0)) * rng.uniform(170.0, 400.0)
            y = x - rng.uniform(0.5, 3.0)
            ref = complex(mpmath.gamma(x) / mpmath.gamma(y))
            bound = eps * (abs(math.lgamma(x)) + abs(math.lgamma(y)))
            assert abs(gamma_ratio([x], [y]) - ref) <= bound * abs(ref), (x, y)
