"""Hypergeometric kernels: 2F1 continuation and the 3F2 family."""

import cmath
import math
import random

import mpmath
import pytest

from legshift.complexfn import gamma_ratio
from legshift.errors import DegenerateParameterError, DomainError, NumericalError, PoleError
from legshift.hyper import (
    hyp2f1,
    hyp2f1_evaluator,
    hyp3f2_barnes,
    hyp3f2_regularized,
    hyp3f2_series,
)


def _mp_2f1(a, b, c, w):
    return complex(mpmath.hyp2f1(a, b, c, w))


def test_hyp2f1_inside_disk_vs_mpmath():
    cases = [
        (0.5, 1.5, 2.5, 0.3),
        (-0.7, 1.2, 0.9, -0.45),
        (0.3 + 0.2j, 1.1, 2.0 - 0.3j, 0.5 + 0.1j),
    ]
    for a, b, c, w in cases:
        ref = complex(mpmath.hyp2f1(a, b, c, w))
        val = hyp2f1(a, b, c, w)
        assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_hyp2f1_outside_disk_vs_mpmath():
    cases = [
        (0.5, 1.5, 2.5, 3.0 + 0.5j),
        (0.4, 0.9, 1.7, -4.0),
        (0.3, 1.2, 2.1, 0.97),
    ]
    for a, b, c, w in cases:
        ref = complex(mpmath.hyp2f1(a, b, c, complex(w)))
        val = hyp2f1(a, b, c, w)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_hyp2f1_pfaff_image_outside_series_radius():
    # |w/(w-1)| = 0.825 is the smallest image modulus and exceeds the series
    # radius 0.8; ranking the images of w/(w-1) again would map back to w
    w = 0.342 + 0.747j
    cases = [
        (0.5, 1.5, 2.5),
        (-0.7, 1.2, 0.9),
        (0.3 + 0.2j, 1.1, 2.0 - 0.3j),
        (1.25, -0.4, 0.65),
    ]
    for a, b, c in cases:
        ref = _mp_2f1(a, b, c, w)
        assert abs(hyp2f1(a, b, c, w) - ref) <= 1e-13 * abs(ref)


def test_hyp2f1_integer_c_minus_a_minus_b_next_to_one():
    # the 1-w image at integer d = c-a-b averages c +/- i*eps; its two terms
    # must see exactly d and -d, or Gamma(+/-i*eps) amplifies the rounding
    w = 0.9882552891907892 + 0.0019081697160337199j
    a, b, c = 4.086751855247355, 3.5867518552473547, 7.6735037104947095
    ref = _mp_2f1(a, b, c, w)
    assert abs(hyp2f1(a, b, c, w) - ref) <= 1e-9 * abs(ref)
    rng = random.Random(1)
    for _ in range(40):
        a, b = rng.uniform(0.1, 8.0), rng.uniform(0.1, 8.0)
        c = a + b + rng.randint(-2, 2)
        w = 1.0 - rng.uniform(0.0, 0.016) * complex(mpmath.expj(rng.uniform(-3.1, 3.1)))
        ref = _mp_2f1(a, b, c, w)
        assert abs(hyp2f1(a, b, c, w) - ref) <= 1e-9 * abs(ref), (a, b, c, w)


def test_hyp2f1_ode_region_vs_mpmath():
    # near exp(i pi/3) no linear image is small and the equation is
    # Taylor-stepped; each step sums its Taylor terms until they are negligible
    a, b, c, w = 2.8499, 1.212, -1.6646, 0.5043 + 0.8629j
    with mpmath.workdps(30):
        ref = _mp_2f1(a, b, c, w)
    assert abs(hyp2f1(a, b, c, w) - ref) <= 1e-14 * abs(ref)


def test_hyp2f1_at_unit_argument_is_gauss_sum():
    with mpmath.workdps(30):
        ref = _mp_2f1(0.3, 0.2, 1.7, 1.0)
    assert abs(hyp2f1(0.3, 0.2, 1.7, 1.0) - ref) <= 1e-14 * abs(ref)
    for c in (0.5, 0.4):  # Re(c-a-b) = 0 and < 0: the series diverges at 1
        with pytest.raises(DomainError):
            hyp2f1(0.3, 0.2, c, 1.0)


def test_hyp2f1_rejects_non_finite_input():
    nan, inf = float("nan"), float("inf")
    for args in ((0.5, 0.2, 1.3, nan), (0.5, 0.2, 1.3, inf), (nan, 0.2, 1.3, 0.5),
                 (0.5, complex(0.2, inf), 1.3, 0.5), (0.5, 0.2, nan, 0.5)):
        with pytest.raises(DomainError):
            hyp2f1(*args)


def test_hyp2f1_terminating_polynomial_overflow_raises():
    # the degree-60 polynomial at w = 1e8 passes double range: its sum is not finite
    with pytest.raises(NumericalError):
        hyp2f1(-60, 1, 1.5, 1e8)


def test_hyp2f1_cancelling_polynomial_raises():
    # the degree-60 sum at w = 2 cancels to ~1e-17 of its terms; summed
    # plainly it gave -4.1e10 where 2F1 is 0.0845
    with pytest.raises(NumericalError):
        hyp2f1(-60, 1, 1.5, 2.0)


def test_hyp2f1_low_degree_polynomials_keep_their_values():
    # the degree <= 2 polynomials of P at nu = -2, -3 raise no cancellation
    for a, b, c, w in ((-1.0, 2.0, 0.7, -3.5), (-2.0, 3.0, 1.6, -4.0 + 1.0j), (-2.0, 3.0, 2.9, 0.45)):
        ref = complex(mpmath.hyp2f1(a, b, c, w))
        assert abs(hyp2f1(a, b, c, w) - ref) <= 1e-14 * abs(ref)


def test_hyp2f1_polynomial_at_its_zero_returns_it():
    # 1 - w and (1 - w)**2 at w = 1: the bound is held against max(|sum|, 1)
    assert hyp2f1(-1, 1, 1, 1) == 0.0
    assert hyp2f1(-2, 1, 1, 1) == 0.0
    # and at the nearest double to a simple zero of 1 - 3.75w + 2.88w**2
    w0 = float(mpmath.findroot(lambda w: mpmath.hyp2f1(-2, 3, 1.6, w), 0.4))
    assert abs(hyp2f1(-2.0, 3.0, 1.6, w0)) <= 1e-15


def test_hyp2f1_evaluator_reuse_equals_one_shot():
    # one prepared evaluator per parameter set, reused over w values that
    # reach every path; each value must equal a fresh hyp2f1 call exactly
    paths = {
        (0.3, 0.7, 1.45): [
            0.5 + 0.2j,  # series
            -0.9,  # Pfaff image
            0.342 + 0.747j,  # Pfaff image outside the series radius
            0.9 + 0.05j,  # 1 - w
            5.0 + 0.1j,  # 1/w
            -5.0,  # 1/(1-w)
            1.1 + 0.1j,  # 1 - 1/w
            0.5 + 0.8660254j,  # ODE continuation near exp(i pi/3)
            -0.3 + 0.1j,  # series again, after the images grew state
        ],
        (0.3, 0.7, 2.0): [0.9 + 0.05j, 1.1 + 0.1j, 0.4],  # integer c-a-b: eps average
        (0.3, 2.3, 1.45): [5.0 + 0.1j, -5.0, 0.4],  # integer a-b: eps average
        (-3.0, 0.7, 1.45): [5.0 + 0.1j, 0.5, -0.9],  # terminating polynomial
        (1.7, 0.2 + 0.3j, 0.9 - 0.1j): [0.95 + 0.1j, 0.6 - 0.3j, -7.0 + 1.0j],
    }
    for (a, b, c), ws in paths.items():
        ev = hyp2f1_evaluator(a, b, c)
        for _ in range(2):
            for w in ws:
                assert ev(w) == hyp2f1(a, b, c, w)
                assert ev(w) == hyp2f1(b, a, c, w)


def test_hyp2f1_euler_transformation():
    rng = random.Random(7)
    for _ in range(100):
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(-1.5, 1.5)
        c = rng.uniform(0.3, 2.5)
        w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
        lhs = hyp2f1(a, b, c, w)
        rhs = (1.0 - w) ** (c - a - b) * hyp2f1(c - a, c - b, c, w)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_hyp3f2_series_frozen_value():
    # independently frozen with mpmath.hyp3f2(0.5, 1.5, 1, 2, 2.5, 0.3)
    val = hyp3f2_series(0.5, 1.5, 1.0, 2.0, 2.5, 0.3)
    assert abs(val - 1.0506743672046253) < 1e-13


def test_hyp3f2_series_vs_mpmath_complex():
    a1, a2, b1, b2 = 0.8, -0.3, 1.3, 0.6
    w = -0.4 + 0.2j
    ref = complex(mpmath.hyp3f2(a1, a2, 1.0, b1, b2, w))
    val = hyp3f2_series(a1, a2, 1.0, b1, b2, w)
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_hyp3f2_series_terminating():
    # a2 = -2 terminates the series after three terms
    val = hyp3f2_series(1.4, -2.0, 1.0, 0.9, 1.7, 5.0)
    ref = complex(mpmath.hyp3f2(1.4, -2.0, 1.0, 0.9, 1.7, 5.0))
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_hyp3f2_series_at_a_lower_parameter_pole_raises():
    with pytest.raises(DegenerateParameterError):
        hyp3f2_series(0.5, 1.5, 1.0, 0.0, 2.5, 0.3)
    with pytest.raises(DegenerateParameterError):
        hyp3f2_series(-3.0, 1.5, 1.0, 1.2, -1.0, 0.3)  # b2 = -1 before a1 = -3 ends it
    # a numerator that ends the sum first leaves a polynomial
    val = hyp3f2_series(-1.0, 1.5, 1.0, -1.0, 2.5, 0.3)
    assert abs(val - complex(mpmath.hyp3f2(-1, 1.5, 1, -1, 2.5, 0.3))) <= 1e-15


@pytest.mark.parametrize(
    "b1,b2",
    [(0.7, 0.45), (0.0, 0.45), (0.7, -1.0), (-2.0, 0.45), (-1.0, -2.0), (0.0, 0.0)],
)
def test_hyp3f2_regularized_vs_mpmath(b1, b2):
    # the defining sum of 3F2(a1, a2, 1; b1, b2; w) / (Gamma(b1) Gamma(b2)),
    # whose terms below w**n vanish at a lower parameter 1-n
    a1, a2 = 1.3, -1.1
    for w in (-0.4, 0.3 + 0.2j, 0.6):
        ref = mpmath.nsum(
            lambda k: mpmath.rf(a1, k) * mpmath.rf(a2, k) * mpmath.mpc(w) ** k
            * mpmath.rgamma(b1 + k) * mpmath.rgamma(b2 + k),
            [0, mpmath.inf],
        )
        val = hyp3f2_regularized(a1, a2, b1, b2, w)
        assert abs(val - complex(ref)) <= 1e-14 * abs(complex(ref)), w


def _continued_family_box():
    """60 seeded (a1, a2, b1, b2, w) of the family (nu-mu+1, -nu-mu; 1-mu, 1-lam)
    past |w| = 0.9, a quarter each: generic, half-integer nu, a terminating
    a2 = -n, and real w in (0.9, 1)."""
    rng = random.Random(20261018)
    points = []
    for i in range(60):
        nu, mu, lam = rng.uniform(-1.0, 3.0), rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        if i % 4 == 1:
            nu = rng.randint(-1, 3) + 0.5
        a1, a2 = nu - mu + 1.0, -nu - mu
        if i % 4 == 2:
            a2 = -float(rng.randint(0, 3))
            mu = -a2 - nu
            a1 = nu - mu + 1.0
        if i % 4 == 3:
            w = complex(rng.uniform(0.9, 1.0))
        else:
            w = cmath.rect(rng.uniform(0.9, 10.0), rng.uniform(-math.pi, math.pi))
        points.append((a1, a2, 1.0 - mu, 1.0 - lam, w))
    return points


def test_hyp3f2_regularized_continued_past_the_disc_vs_mpmath():
    errs = []
    with mpmath.workdps(30):
        for a1, a2, b1, b2, w in _continued_family_box():
            ref = complex(
                mpmath.hyp3f2(a1, a2, 1, b1, b2, w) * mpmath.rgamma(b1) * mpmath.rgamma(b2)
            )
            val = hyp3f2_regularized(a1, a2, b1, b2, w)
            errs.append(abs(val - ref) / abs(ref))
    assert max(errs) <= 1e-12
    assert sum(e <= 1e-13 for e in errs) >= 0.95 * len(errs)


def test_hyp3f2_regularized_refuses_its_cut():
    for w in (1.0, 1.25, 7.0):
        with pytest.raises(DomainError):
            hyp3f2_regularized(1.2, -0.6, 0.85, 0.3, w)


def test_hyp3f2_barnes_matches_series_in_overlap():
    # the vertical-line continuation and the direct series share an annulus
    nu, mu, lam = 0.6, 0.3, 0.7
    a1, a2, b1, b2 = nu - mu + 1.0, -nu - mu, 1.0 - mu, 1.0 - lam
    for z in (2.5, 2.7, 2.9):
        w = (1.0 - z) / 2.0
        series = hyp3f2_series(a1, a2, 1.0, b1, b2, w)
        barnes = hyp3f2_barnes(a1, a2, 1.0, b1, b2, z) * gamma_ratio(
            [b1, b2], [a1, a2]
        )
        assert abs(series - barnes) <= 1e-10 * abs(series)


def test_hyp3f2_barnes_rejects_wrong_family():
    with pytest.raises(DomainError):
        hyp3f2_barnes(0.5, 1.5, 2.0, 2.0, 2.5, 4.0)  # a3 != 1
    with pytest.raises(DomainError):
        hyp3f2_barnes(0.5, 1.5, 1.0, 2.0, 2.5, 4.0)  # not (nu-mu+1, -nu-mu)


def test_hyp3f2_barnes_rejects_argument_on_its_cut():
    nu, mu, lam = 0.35, 0.15, 0.7
    with pytest.raises(DomainError):
        hyp3f2_barnes(nu - mu + 1.0, -nu - mu, 1.0, 1.0 - mu, 1.0 - lam, -1.5)


def test_hyp3f2_barnes_prefactor_pole():
    # a2 = -nu-mu a nonpositive integer puts a pole in the gamma prefactor
    nu, mu = 1.3, -1.3
    with pytest.raises(PoleError):
        hyp3f2_barnes(nu - mu + 1.0, -nu - mu, 1.0, 1.0 - mu, 0.3, 4.0)
