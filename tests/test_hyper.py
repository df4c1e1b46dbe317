"""Hypergeometric kernels: 2F1 continuation and the 3F2 family."""

import cmath
import math
import random

import mpmath
import pytest

from legshift import hyper
from legshift.complexfn import gamma_ratio
from legshift.errors import DegenerateParameterError, DomainError, NumericalError, PoleError
from legshift.hyper import (
    hyp2f1,
    hyp2f1_evaluator,
    hyp3f2_barnes,
    hyp3f2_regularized,
    hyp3f2_series,
)
from legshift.legendre import legendre_deriv, legendre_p, legendre_q


def _mp_2f1(a, b, c, w):
    return complex(mpmath.hyp2f1(a, b, c, w))


def test_hyp2f1_inside_disk_vs_mpmath():
    cases = [
        (0.5, 1.5, 2.5, 0.3),
        (-0.7, 1.2, 0.9, -0.45),
        (0.3 + 0.2j, 1.1, 2.0 - 0.3j, 0.5 + 0.1j),
        # |1-w| > 1 past the image floor: the Pfaff image's series at w/(w-1)
        (0.5, 1.5, 2.5, -0.35),
        (-0.7, 1.2, 0.9, -0.75),
        (1.25, -0.4, 0.65, -0.35 + 0.3j),
        (0.3 + 0.2j, 1.1, 2.0 - 0.3j, -0.6 - 0.4j),
        (2.2 - 0.5j, 0.4 + 0.3j, 1.3, 0.1 + 0.75j),
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


def test_hyp2f1_ranks_images_by_the_series_they_sum():
    # |w| = 1.035, a-b = -0.0043: the one-series Pfaff image (modulus 0.52)
    # wins over the two-series 1/(1-w) image (0.50), whose terms cancel
    # through Gamma(a-b)
    a, b, c = 0.4978342194663363, 0.5021657805336637, 4.647685565530711
    w = -0.9646614419046884 + 0.3749225114941155j
    ref = _mp_2f1(a, b, c, w)
    assert abs(hyp2f1(a, b, c, w) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("a", [0.35, 1.2 + 0.3j, -0.65])
@pytest.mark.parametrize("c", [1.85, 0.4 - 0.2j])
def test_hyp2f1_quadratic_image_vs_mpmath(a, c):
    # b = a + 1/2 exactly: the series of 2F1(2a, 2a-c+1; c; w/(1+s)**2),
    # s = sqrt(1-w), or its Pfaff image's, next to w = 1, past |w| = 1 and
    # next to the exceptional points exp(+/- i pi/3)
    b = a + 0.5
    for w in (0.5, 0.97, 0.999, -0.9, 0.99 + 0.05j, 3.0 - 2.0j, -20.0 + 1.0j, 0.5 + 0.85j):
        ref = _mp_2f1(a, b, c, w)
        assert abs(hyp2f1(a, b, c, w) - ref) <= 1e-13 * abs(ref), w


def test_hyp2f1_image_that_cancels_gives_way():
    # b = a + 1/2 with large 2a-c+1: the quadratic image's terms grow to
    # 2.6e11 (a = 12.25) and 1.5e5 (a = 5.25) times its value, 4.3e-6 and
    # 3.9e-12 off, and the continuation it would replace takes over
    for a, c, tol in ((12.25, 1.85, 1e-10), (5.25, 1.85, 1e-13)):
        ref = _mp_2f1(a, a + 0.5, c, -0.9)
        assert abs(hyp2f1(a, a + 0.5, c, -0.9) - ref) <= tol * abs(ref)


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


def _count_nudges(monkeypatch):
    """A list that grows by one per ``_Gauss._nudge`` call, a +/- i*eps average."""
    calls = []
    nudge = hyper._Gauss._nudge

    def counted(self, axis):
        calls.append(axis)
        return nudge(self, axis)

    monkeypatch.setattr(hyper._Gauss, "_nudge", counted)
    return calls


def _mp_p(nu, mu):
    return lambda z: mpmath.legenp(nu, mu, z, type=3)


@pytest.mark.parametrize(
    "call,ref",
    [
        # P's a-b = 2 makes the 1/w and 1/(1-w) images degenerate; at
        # w = -4.5 the clean Pfaff image, of modulus 0.82, is admissible
        (lambda: legendre_p(-1.5, 1.6162893475556097, 9.9499408838679),
         lambda: _mp_p(-1.5, 1.6162893475556097)(9.9499408838679)),
        (lambda: legendre_p(-1.5, 1.7095088576453539, 9.70913664467851),
         lambda: _mp_p(-1.5, 1.7095088576453539)(9.70913664467851)),
        (lambda: legendre_deriv(-1.5, -1.962829964270405, 6.536132736052101 + 0.7730898847072327j),
         lambda: mpmath.diff(_mp_p(-1.5, -1.962829964270405),
                             mpmath.mpc(6.536132736052101, 0.7730898847072327))),
    ],
)
def test_hyp2f1_ranks_clean_images_before_degenerate_ones(monkeypatch, call, ref):
    # ranked by modulus plus a penalty, the degenerate 1/(1-w) image took
    # the +/- i*eps average here, 1.6e-11 to 3.6e-11 off
    nudges = _count_nudges(monkeypatch)
    value = call()
    with mpmath.workdps(30):
        ref = complex(ref())
    assert abs(value - ref) <= 1e-14 * abs(ref)
    assert not nudges


def test_hyp2f1_averages_only_where_no_clean_image_is_admissible(monkeypatch):
    # next to w = 1 only the 1-w images are small, and c-a-b = 0
    nudges = _count_nudges(monkeypatch)
    w = 1.0 - 1e-6
    value = hyp2f1(0.5, 1.5, 1.0, w)
    with mpmath.workdps(30):
        ref = _mp_2f1(0.5, 1.5, 1.0, w)
    assert nudges == ["c"]
    assert abs(value - ref) <= 2e-10 * abs(ref)


@pytest.mark.parametrize("x", [0.9, 0.93])
def test_hyp2f1_clean_image_that_cancels_gives_way_to_the_average(monkeypatch, x):
    # Q on the cut, w = 1/x**2: the clean 1/w image is the pair of Ferrers
    # series in x**2, whose terms cancel like (|x|+sqrt(1+x**2))**|nu+1/2|.
    # Taken, it was 4.5e-8 off at x = 0.9, and at 0.93 its degree-13
    # polynomial raised; the cheaper degenerate 1-1/w image is averaged
    nudges = _count_nudges(monkeypatch)
    value = legendre_q(24.0, -2.0, x, boundary_side="+")
    with mpmath.workdps(30):
        ref = complex(mpmath.legenq(24, -2, mpmath.mpc(x, 1e-40), type=3))
    assert nudges == ["c"]
    assert abs(value - ref) <= 1e-9 * abs(ref)


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
    with pytest.raises(TypeError):  # w is checked as a number, not parsed by complex()
        hyp2f1(0.5, 0.2, 1.3, "0.5")


def test_series_keeps_its_term_ratios_from_the_second_sum():
    # a one-shot call sums each series once, and that sum keeps no ratios; an
    # evaluator's second sum keeps them, and later sums reuse them
    series, w = hyper._Series(0.3, 0.7, 1.4), 0.5 + 0.2j
    first = series.sum(w)
    assert series._ratios == []
    assert repr(series.sum(w)) == repr(first)
    ratios = series._ratios
    assert len(ratios) > 10
    assert ratios == [(0.3 + k) * (0.7 + k) / ((1.4 + k) * (1.0 + k)) for k in range(len(ratios))]
    assert repr(series.sum(w)) == repr(first)
    assert repr(series.sum(0.6)) == repr(hyper._Series(0.3, 0.7, 1.4).sum(0.6))
    ev = hyp2f1_evaluator(0.3, 0.7, 1.4)
    ev(0.25)
    assert ev._ratios == []


def test_real_walk_runs_in_floats_with_the_complex_walks_value(monkeypatch):
    # Ferrers Q's odd x**2 series at nu = 14.59, mu = 1.03: at these w its
    # terms cancel and no image is admissible, so the chooser walks the ODE
    walks = []
    walk = hyper._ode_continue
    monkeypatch.setattr(hyper, "_ode_continue", lambda w, *args: walks.append(w) or walk(w, *args))
    a, b, c = -6.283681891565887, 8.810120797563197, 1.5
    for i, w in enumerate((0.52, 0.6, 0.7, 0.78)):
        value = hyp2f1(a, b, c, w)
        assert len(walks) == i + 1 and type(walks[-1]) is float
        assert repr(value) == repr(walk(complex(w), 2, 1.0, 0, hyper._gauss_recurrence(a, b, c)))


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


def test_hyp3f2_rejects_non_finite_input():
    nan, inf = float("nan"), float("inf")
    for args in ((nan, 1, 1, 1.5, 1.5, 0.3), (0.5, 1, 1, 1.5, 1.5, nan),
                 (0.5, 1, complex(1, inf), 1.5, 1.5, 0.3), (0.5, 1, 1, 1.5, inf, 0.3)):
        with pytest.raises(DomainError):
            hyp3f2_series(*args)
    for args in ((nan, 1, 1.5, 1.5, 0.3), (0.5, 1, 1.5, 1.5, nan), (0.5, 1, inf, 1.5, 0.3)):
        with pytest.raises(DomainError):
            hyp3f2_regularized(*args)


@pytest.mark.parametrize(
    "args",
    [
        (-60, 1, 1, 1.5, 1.5, 2.0),  # 0.0232 by mpmath; summed plainly 9.07e8
        (-40, 2.5, 1, 1.5, 1.2, 1.7),  # 9.6e-4; summed plainly -8.15
        (-400, 300, 300, 0.5, 0.5, 0.9),  # -1.9e261; its terms pass double range
    ],
)
def test_hyp3f2_terminating_series_that_cancels_or_overflows_raises(args):
    with pytest.raises(NumericalError):
        hyp3f2_series(*args)


def test_hyp3f2_regularized_taylor_steps_past_double_range_raise():
    # a Taylor coefficient whose modulus passes double range ends the walk
    w = 4.617501539793688 - 8.341337567087303j
    with pytest.raises(NumericalError):
        hyp3f2_regularized(-2.5553632434869167, 395.0049485431934, -0.529 + 1.632j, -11.5, w)


def _wide_parameter(rng):
    """A parameter in [-400, 400]: a nonpositive integer, a small value or a
    large one, a third each."""
    kind = rng.randrange(3)
    if kind == 0:
        return float(-rng.randint(0, 400))
    return rng.uniform(-5.0, 5.0) if kind == 1 else rng.uniform(-400.0, 400.0)


def test_hyper_functions_return_finite_or_raise_a_library_error():
    # 2,000 seeded points, parameters up to +/-400 and |w| <= 10 (the 3F2
    # series inside its disc): a value is finite, or the call raises a
    # legshift error; never nan, inf, or another exception type
    rng = random.Random(20261019)
    bad = []
    for _ in range(2000):
        a1, a2, a3, b1, b2 = (_wide_parameter(rng) for _ in range(5))
        w = cmath.rect(rng.uniform(0.0, 10.0), rng.uniform(-math.pi, math.pi))
        for fn, args in (
            (hyp2f1, (a1, a2, b1, w)),
            (hyp3f2_series, (a1, a2, a3, b1, b2, w * 0.0999)),
            (hyp3f2_regularized, (a1, a2, b1, b2, w)),
        ):
            try:
                value = fn(*args)
            except (DomainError, NumericalError):
                continue
            except Exception as exc:  # any other type is the failure
                bad.append((fn.__name__, args, repr(exc)))
                continue
            if not cmath.isfinite(value):
                bad.append((fn.__name__, args, value))
    assert not bad, bad[:5]


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


@pytest.mark.parametrize(
    "args",
    [
        (-3, -300, 0.0853951 - 0.183062j, -18, 0.4591 - 0.8612j),
        (-11, -241, -14, -5.04326, 1.3533 - 1.97573j),
        (-1, -166, -14, 0.459388 - 0.545105j, -0.0742327 + 1.53803j),
    ],
)
def test_hyp3f2_regularized_with_a_zero_coefficient_is_zero(args):
    # b = 1-n with a1 in {0, -1, ..., 1-n}: (a1)_n (a2)_n / n! = 0, so every
    # term vanishes; summing the shifted polynomial raised NumericalError
    assert hyp3f2_regularized(*args) == 0.0


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


def _hyp2f1_box(box, rng):
    """One seeded (a, b, c, w) of ``box``; a, b, c in (-5, 5) throughout."""
    a, b, c = (rng.uniform(-5.0, 5.0) for _ in range(3))
    disc = cmath.rect(3.0 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
    if box == "general":  # the series, the Pfaff image and the four two-series images
        return a, b, c, disc
    if box == "quadratic":  # b = a + 1/2 exactly
        return a, a + 0.5, c, disc
    if box == "ode":  # within 0.05 of exp(+/- i pi/3), where no image is small
        centre = cmath.exp(rng.choice((1, -1)) * 1j * math.pi / 3.0)
        return a, b, c, centre + cmath.rect(0.05 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
    if box == "one":  # |1-w| = 10**U(-4, -0.5)
        return a, b, c, 1.0 - cmath.rect(10.0 ** rng.uniform(-4.0, -0.5), rng.uniform(-math.pi, math.pi))
    # "integer": integer a-b or c-a-b, the degenerate images and their average
    if rng.random() < 0.5:
        return a, a + rng.randint(-3, 3), c, disc
    return a, b, a + b + rng.randint(-3, 3), disc


def _worst_box_error(box, n):
    rng = random.Random(2026 + n)
    worst = 0.0
    for _ in range(n):
        a, b, c, w = _hyp2f1_box(box, rng)
        with mpmath.workdps(40):
            ref = _mp_2f1(a, b, c, w)
        worst = max(worst, abs(hyp2f1(a, b, c, w) - ref) / abs(ref))
    return worst


@pytest.mark.parametrize("box,n", [("general", 300), ("quadratic", 300), ("ode", 40)])
def test_hyp2f1_seeded_boxes_vs_mpmath(box, n):
    # routes the continuation ranks, against 40-digit mpmath.  The general
    # box held 8.3e-12 at |w| = 1.14, a = -2.75, b = 4.89, c = 3.39, where a
    # two-series image of modulus 0.85 cancelled; that image now gives way
    assert _worst_box_error(box, n) <= 1e-12


# known defects: each bound is the worst of its box when it was set, and may
# only shrink.  Next to w = 1 the 1-w images' terms cancel; at integer a-b or
# c-a-b every small image is degenerate and averaged at +/- i*eps (ROADMAP
# item 5)
@pytest.mark.parametrize("box,n,bound", [("one", 300, 3e-14), ("integer", 60, 1.2e-10)])
def test_hyp2f1_seeded_known_defect_boxes_vs_mpmath(box, n, bound):
    assert _worst_box_error(box, n) <= bound


@pytest.mark.parametrize(
    "f", [hyp2f1, lambda a, b, c, w: hyp2f1_evaluator(a, b, c)(w)], ids=("hyp2f1", "evaluator")
)
def test_hyp2f1_refuses_its_cut_unless_the_caller_gives_a_side(f):
    # at a real w > 1 the value from above or below depended on the image
    # that ran (signed zeros reaching cpow): 174 of these 200 points gave the
    # value from above, 26 from below; each side is the caller's to give
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = (rng.uniform(-3.0, 3.0) for _ in range(3))
        w = rng.uniform(1.05, 10.0)
        with pytest.raises(DomainError):
            f(a, b, c, w)
        for side in (1.0, -1.0):
            with mpmath.workdps(40):
                ref = _mp_2f1(a, b, c, mpmath.mpc(w, side * 1e-60))
            value = f(a, b, c, complex(w, side * 1e-300))
            assert value == hyp2f1(a, b, c, complex(w, side * 1e-300))
            assert abs(value - ref) <= 1e-13 * abs(ref)
    # a polynomial has no cut
    assert abs(f(-2, 3, 1.6, 4.0) - complex(mpmath.hyp2f1(-2, 3, 1.6, 4))) <= 1e-13
