"""Gamma-family and branch-aware power helpers."""

import cmath
import math

import mpmath
import pytest

from legshift.complexfn import (
    cos_pi,
    cpow,
    gamma,
    gamma_ratio,
    is_integer,
    is_nonpositive_integer,
    ln_gamma,
    rgamma,
    sin_pi,
    zsq_minus_one_pow,
)
from legshift.errors import PoleError


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


def test_is_integer_tests_each_axis():
    assert is_integer(3.0) and is_integer(-2.0 + 5e-10j)
    assert not is_integer(2.5) and not is_integer(1.0 + 1e-6j)
    # the tolerance bounds each axis, not the modulus
    assert is_integer(complex(1.0 + 0.9e-9, 0.9e-9))
    assert not is_integer(1.0 + 2e-12, 1e-12)


def test_is_nonpositive_integer():
    assert is_nonpositive_integer(0.0)
    assert is_nonpositive_integer(-4.0)
    assert not is_nonpositive_integer(0.5)
    assert not is_nonpositive_integer(1.0 + 1e-6j)
    assert not is_nonpositive_integer(2.0)


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
