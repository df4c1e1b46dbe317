"""Quadrature layer: segment, semi-infinite, loop, Weyl, kernel reduction."""

import cmath
import math

import pytest

from legshift.complexfn import cpow, gamma, rgamma, sin_pi
from legshift.errors import DomainError, NumericalError
from legshift.quadrature import (
    integrate_loop,
    integrate_segment,
    integrate_semi_infinite,
    integrate_weyl,
    repeated_integral,
    _taylor_coefficients,
)
from legshift.legendre import weighted_evaluator


def _taylor_reference(g, radius, count, n_samples=128):
    # the plain DFT with one complex exponential per (sample, coefficient) pair
    samples = [
        g(radius * cmath.exp(2j * math.pi * j / n_samples)) for j in range(n_samples)
    ]
    coeffs = []
    for k in range(count):
        s = 0.0 + 0.0j
        for j, gj in enumerate(samples):
            s += gj * cmath.exp(-2j * math.pi * j * k / n_samples)
        coeffs.append(s / (n_samples * radius**k))
    return coeffs


def test_taylor_coefficients_match_direct_dft():
    p_upper = weighted_evaluator("p", 0.6, 0.3, -0.15)
    # Hobson's Q carries exp(i pi mu), so Q(conj z) = exp(2 i pi mu) conj(Q(z))
    q_upper = weighted_evaluator("q", 0.6, 0.3, -0.15)
    q_phase = cmath.exp(2j * math.pi * 0.3)
    cases = [
        (lambda t: cmath.exp(t) / (1.0 - 0.5 * t), 0.4, 40, 64, None),
        (lambda t: p_upper(2.4 - t), 0.35, 40, 64, None),
        (lambda t: cpow(1.0 + t, 0.3 + 0.2j), 0.25, 9, 32, None),
        (lambda t: cpow(1.0 + t, 0.3 + 0.2j), 0.25, 24, 32, None),
        (lambda t: p_upper(2.4 - t), 0.35, 32, 32, None),
        (lambda t: cmath.exp(t) / (1.0 - 0.5 * t), 0.4, 64, 64, None),
        (lambda t: p_upper(2.4 - t), 0.35, 70, 128, None),
        # reflected: the samples of the lower half are phi conj(g) of the upper
        (lambda t: p_upper(2.4 - t), 0.35, 32, 32, 1.0),
        (lambda t: p_upper(2.4 - t), 0.35, 70, 128, 1.0),
        (lambda t: q_upper(2.4 - t), 0.35, 32, 32, q_phase),
        (lambda t: q_upper(2.4 - t), 0.35, 40, 64, q_phase),
    ]
    for g, radius, count, n_samples, reflection in cases:
        ref = _taylor_reference(g, radius, count)
        coeffs, n_eval, size = _taylor_coefficients(g, radius, count, reflection)
        # the rule takes the smallest power of two >= max(32, count) samples,
        # and calls g at N/2 + 1 of them when reflected
        assert n_eval == (n_samples if reflection is None else n_samples // 2 + 1)
        assert len(coeffs) == count
        # compare the trapezoid sums c_k radius**k: the rounding of each sum
        # is ~1e-16 of the largest one, and dividing by radius**k amplifies
        # it equally in both computations
        scaled = [c * radius**k for k, c in enumerate(coeffs)]
        scaled_ref = [c * radius**k for k, c in enumerate(ref)]
        tol = 1e-13 * max(abs(c) for c in scaled_ref)
        assert all(abs(c - r) <= tol for c, r in zip(scaled, scaled_ref))
        # mean |g| over the samples bounds |c_k| radius**k
        assert max(abs(c) for c in scaled) <= size * (1.0 + 1e-12)
    assert _taylor_coefficients(lambda t: 1.0, 0.5, 129)[1] == 256


def test_taylor_coefficients_count_the_reflected_evaluations():
    calls = []

    def g(t):
        calls.append(t)
        return cmath.exp(t)

    _taylor_coefficients(g, 0.5, 9, 1.0)
    # j = 0..16 of 32: the upper half of the circle and both real points
    assert len(calls) == 17
    assert all(t.imag >= 0.0 for t in calls)


@pytest.mark.parametrize(
    "lam,c",
    [(600.5, 1.0), (600, 1.0), (1e6 + 0.5, 1.0), (300.5, 100.0), (400, 1.0)],
)
def test_loop_past_the_cauchy_rule_reach_raises_before_sampling(lam, c):
    # radius**k leaves double range in the coefficient division (0.25**600
    # underflows, 25**325 overflows), and 400! is past double range: each
    # raises NumericalError naming the order before g is called once
    calls = []

    def g(t, tc):
        calls.append(t)
        return 1.0 / (2.0 + t)

    with pytest.raises(NumericalError, match="order"):
        integrate_loop(g, c, lam)
    assert calls == []


def test_segment_polynomial():
    res = integrate_segment(lambda t, tc: t * t, 0.0, 1.0)
    assert abs(res.value - 1.0 / 3.0) < 1e-12
    assert res.err_estimate < 1e-9


def test_segment_endpoint_singularity():
    # int_0^1 t^(-1/2) dt = 2, integrable endpoint declared
    res = integrate_segment(
        lambda t, tc: cpow(t, -0.5), 0.0, 1.0, endpoint_exponent_a=-0.5
    )
    assert abs(res.value - 2.0) < 1e-10


def test_segment_both_singular_endpoints():
    # beta integral B(0.3, 0.6)
    res = integrate_segment(
        lambda t, tc: cpow(t, -0.7) * cpow(tc, -0.4),
        0.0,
        1.0,
        endpoint_exponent_a=-0.7,
        endpoint_exponent_b=-0.4,
    )
    ref = gamma(0.3) * gamma(0.6) / gamma(0.9)
    assert abs(res.value - ref) <= 1e-9 * abs(ref)


def test_segment_takes_the_exact_offset_next_to_an_endpoint():
    # B(0.3, 0.45): the integrand takes (1-t)**-0.55 from the rule's exact
    # offset 1 - t, so the nodes that round onto t = 1 keep their digits,
    # the rule converges on a few levels and its estimate bounds the error
    res = integrate_segment(
        lambda t, tc: cpow(t, -0.7) * cpow(tc, -0.55),
        0.0,
        1.0,
        endpoint_exponent_a=-0.7,
        endpoint_exponent_b=-0.55,
    )
    ref = gamma(0.3) * gamma(0.45) / gamma(0.75)
    assert abs(res.value - ref) <= res.err_estimate
    assert res.err_estimate <= 1e-7 * abs(ref)
    assert res.evaluations <= 200


def test_segment_converges_at_exponents_next_to_minus_one():
    # B(0.05, 0.05): the nodes within 64 ulp of t = 1 hold ~10% of the
    # integral; evaluated at the exact offset 1 - t, they let the rule
    # converge within its estimate
    res = integrate_segment(
        lambda t, tc: cpow(t, -0.95) * cpow(tc, -0.95),
        0.0,
        1.0,
        endpoint_exponent_a=-0.95,
        endpoint_exponent_b=-0.95,
    )
    ref = gamma(0.05) ** 2 / gamma(0.1)
    assert abs(res.value - ref) <= res.err_estimate <= 1e-9 * abs(ref)
    assert res.evaluations <= 2000


def test_segment_rejects_nonintegrable_exponent():
    with pytest.raises(DomainError):
        integrate_segment(lambda t, tc: t, 0.0, 1.0, endpoint_exponent_a=-1.2)


def test_semi_infinite_gamma_integral():
    # int_0^inf t^(0.7-1) e^-t dt = Gamma(0.7)
    res = integrate_semi_infinite(
        lambda t, tc: cpow(t, -0.3) * math.exp(-t),
        0.0,
        endpoint_exponent=-0.3,
    )
    ref = gamma(0.7)
    assert abs(res.value - ref) <= 1e-9 * abs(ref)


def test_semi_infinite_power_decay():
    # int_1^inf t^-3 dt = 1/2
    res = integrate_semi_infinite(
        lambda t, tc: t ** -3.0, 1.0, decay_exponent=3.0
    )
    assert abs(res.value - 0.5) < 1e-9


@pytest.mark.parametrize(
    "a, e, p",
    [
        (a, e, p)
        for a in (0.5, 1.0, 3.0)
        for e in (-0.9, -0.5, 0.0, 1.5)
        for p in (1.5, 2.0, 4.0)
        if p - e > 1.0
    ],
)
def test_semi_infinite_power_law_beta_integral(a, e, p):
    # int_a^inf (t-a)^e t^-p dt = a^(e+1-p) B(e+1, p-e-1), (t-a)^e taken
    # from the exact offset a - t; |f| ~ t^(e-p) at infinity
    res = integrate_semi_infinite(
        lambda t, tc: cpow(-tc, e) * t**-p, a, endpoint_exponent=e, decay_exponent=p - e
    )
    ref = a ** (e + 1.0 - p) * gamma(e + 1.0) * gamma(p - e - 1.0) / gamma(p)
    err = abs(res.value - ref)
    assert err <= res.err_estimate and err <= 1e-10 * abs(ref), (err, res.err_estimate)


@pytest.mark.parametrize("e", [-0.75, -0.9, -0.95])
def test_semi_infinite_strong_endpoint_singularity(e):
    # int_0^inf t^e exp(-t) dt = Gamma(e+1); as e nears -1 more of the mass
    # sits next to t = 0, below t = 1e-100 about 1e-100**(e+1) / (e+1)
    res = integrate_semi_infinite(
        lambda t, tc: cpow(t, e) * math.exp(-t), 0.0, endpoint_exponent=e
    )
    ref = gamma(e + 1.0).real
    err = abs(res.value - ref)
    assert err <= res.err_estimate and err <= 1e-9 * ref, (err, res.err_estimate)


def test_non_finite_integrand_raises():
    # a nan or overflowing integrand makes a level's sum of |w f| non-finite,
    # which raises at the end of that level instead of returning nan
    calls = []

    def nan(t, tc):
        calls.append(t)
        return float("nan")

    def overflow(t, tc):
        calls.append(t)
        return 1e200 * 1e200

    for run in (
        lambda: integrate_segment(nan, 0, 1),
        lambda: integrate_segment(overflow, 0, 1),
        lambda: integrate_semi_infinite(nan, 0.0),
    ):
        calls.clear()
        with pytest.raises(NumericalError):
            run()
        assert len(calls) <= 100


_NAN = float("nan")
_G = lambda t, tc: 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_segment(_G, 0.0, _NAN),
        lambda: integrate_segment(_G, math.inf, 1.0),
        lambda: integrate_segment(_G, 0.0, 1.0, endpoint_exponent_b=_NAN),
        lambda: integrate_segment(_G, 0.0, 1.0, target=-1.0),
        lambda: integrate_segment(_G, 0.0, 1.0, target=_NAN),
        lambda: integrate_segment(_G, 0.0, 1.0, target=math.inf),
        lambda: integrate_semi_infinite(_G, _NAN, decay_exponent=2.0),
        lambda: integrate_semi_infinite(_G, 0.0, endpoint_exponent=_NAN),
        lambda: integrate_semi_infinite(_G, 0.0, decay_exponent=math.inf),
        lambda: integrate_semi_infinite(_G, 0.0, decay_exponent=2.0, target=0.0),
        lambda: integrate_loop(_G, 1.0, _NAN),
        lambda: integrate_loop(_G, _NAN, -0.7),
        lambda: integrate_loop(_G, 1.0, 0.4, basepoint_exponent=_NAN),
        lambda: integrate_loop(_G, 1.0, 0.4, target=-1.0),
        lambda: integrate_weyl(_G, _NAN),
        lambda: integrate_weyl(lambda t, tc: cmath.exp(-t), 0.4, c=_NAN),
        lambda: integrate_weyl(lambda t, tc: cmath.exp(-t), -0.6, decay_exponent=_NAN),
        lambda: integrate_weyl(lambda t, tc: cmath.exp(-t), -0.6, target=_NAN),
        lambda: repeated_integral(_G, _NAN, 2),
        lambda: repeated_integral(_G, 0.5, 2, endpoint_exponent=_NAN),
        lambda: repeated_integral(_G, 0.5, 2, target=-1.0),
        lambda: integrate_loop(_G, 1.0, 0.4, reflection=_NAN),
        # c, the analyticity radius and every exponent must be real
        lambda: integrate_loop(_G, 1.0 + 0j, -0.7),
        lambda: integrate_loop(_G, 1.0, 0.3, analyticity_radius=2.0 + 0j),
        lambda: integrate_loop(_G, 1.0, -0.7, basepoint_exponent=0.2 + 0j),
        lambda: integrate_weyl(lambda t, tc: cmath.exp(-t), 0.3, c=0.3 + 0j),
        lambda: integrate_weyl(lambda t, tc: cmath.exp(-t), -0.7, decay_exponent=3.0 + 0j),
        lambda: integrate_segment(_G, 0.0, 1.0, endpoint_exponent_b=0.5j),
        lambda: integrate_semi_infinite(_G, 0.5, endpoint_exponent=0.2 + 0j),
        lambda: integrate_segment(_G, 0.0, 1.0, target=1e-9 + 0j),
        lambda: repeated_integral(_G, 0.5, 2, endpoint_exponent=0.1 + 0j),
    ],
)
def test_quadrature_entry_points_reject_non_finite_or_non_real_arguments(call):
    with pytest.raises(DomainError):
        call()


def test_loop_beta_function():
    # Riemann-Liouville loop of v^(-lam-1) (1-v)^(sigma-1)
    # = Gamma(lam+1) sin(pi(lam+1))/pi B(-lam, sigma)
    lam, sigma = 0.55, 1.3
    res = integrate_loop(lambda v, vc: cpow(vc, sigma - 1.0), 1.0, lam)
    ref = (
        gamma(lam + 1.0)
        * sin_pi(lam + 1.0)
        / math.pi
        * gamma(-lam)
        * gamma(sigma)
        / gamma(sigma - lam)
    )
    assert abs(res.value - ref) <= 1e-8 * abs(ref)


def test_loop_integer_order_picks_taylor_coefficient():
    # lam = n >= 0 gives (-1)^n n! g_n, the derivative (-d/dt)^n g at 0
    g = lambda t, tc: cmath.exp(2.0 * t)
    res = integrate_loop(g, 1.0, 2)
    assert abs(res.value - 2.0 * (2.0 ** 2 / 2.0)) < 1e-12
    res1 = integrate_loop(g, 1.0, 3)
    assert abs(res1.value + 6.0 * 8.0 / 6.0) < 1e-12
    # the estimate is the Cauchy rule's rounding, not 0
    for r, exact in ((res, 4.0), (res1, -8.0)):
        assert 0.0 < r.err_estimate < 1e-11
        assert abs(r.value - exact) <= r.err_estimate


def test_loop_negative_integer_is_the_n_fold_integral():
    # lam = -n: (1/(n-1)!) int_0^1 t^(n-1) e^t dt, the n-fold integral of e^t
    # over (0, 1): e-1, 1, (e-2)/2
    e = math.e
    for n, exact in ((1, e - 1.0), (2, 1.0), (3, (e - 2.0) / 2.0)):
        res = integrate_loop(lambda t, tc: cmath.exp(t), 1.0, -n)
        assert abs(res.value - exact) <= min(res.err_estimate, 1e-13 * exact), n


def test_loop_negative_order_collapses_to_segment():
    # Re lam < 0: plain convergent integral, cross-check against beta form
    lam, sigma = -0.7, 0.45
    res = integrate_loop(
        lambda v, vc: cpow(vc, sigma - 1.0),
        1.0,
        lam,
        basepoint_exponent=sigma - 1.0,
    )
    ref = (
        gamma(lam + 1.0)
        * sin_pi(lam + 1.0)
        / math.pi
        * gamma(-lam)
        * gamma(sigma)
        / gamma(sigma - lam)
    )
    assert abs(res.value - ref) <= 1e-8 * abs(ref)


def test_weyl_exponential_oracle():
    # (1/Gamma(-lam)) int_0^inf t^(-lam-1) e^(-t) dt = 1 for Re lam < 0;
    # the regularized continuation keeps the value 1 for all non-integer lam
    for lam in (-0.6, 0.4, 1.3):
        res = integrate_weyl(
            lambda t, tc: cmath.exp(-t), lam, c=1.0, decay_exponent=None
        )
        assert abs(res.value - 1.0) < 1e-7, lam


def test_weyl_integer_order_is_a_derivative():
    # lam = n >= 0: (-1)^n g^(n)(0), here (5/2)_n 3^(-5/2-n) for
    # g = (3+t)^(-5/2); lam = -n: the n-fold integral to infinity
    g = lambda t, tc: cpow(3.0 + t, -2.5)
    for n in range(4):
        res = integrate_weyl(g, n, c=1.0, analyticity_radius=3.0, decay_exponent=2.5)
        exact = math.prod(2.5 + k for k in range(n)) * 3.0 ** (-2.5 - n)
        assert abs(res.value - exact) <= max(res.err_estimate, 1e-15 * exact), n
    for n in (1, 2):
        res = integrate_weyl(g, -n, c=1.0, analyticity_radius=3.0, decay_exponent=2.5)
        exact = 3.0 ** (n - 2.5) / math.prod(2.5 - k for k in range(1, n + 1))
        assert abs(res.value - exact) <= 1e-10 * exact, n


def test_semi_infinite_tail_joins_the_estimate():
    # int_1^inf t^(-1.1) dt = 10; the nodes stop near 1e100, short by ~1e-9
    res = integrate_semi_infinite(lambda t, tc: t ** -1.1, 1.0, decay_exponent=1.1)
    assert 1e-10 < abs(res.value - 10.0) <= res.err_estimate


def test_repeated_integral_to_one_monomial():
    # double integral over (z,1) of 1: (1-z)^2/2
    z = 0.3
    res = repeated_integral(lambda u, uc: 1.0 + 0.0j, z, 2, "to_one")
    assert abs(res.value - (1.0 - z) ** 2 / 2.0) < 1e-10


def test_repeated_integral_to_infinity_power():
    # n-fold integral to infinity of u^-5: u^(-5+n) / ((4)(3)...) at z
    z = 1.5
    res = repeated_integral(lambda u, uc: u ** -5.0, z, 2, "to_infinity")
    ref = z ** -3.0 / (4.0 * 3.0)
    assert abs(res.value - ref) <= 1e-9 * abs(ref)


def test_repeated_integral_to_infinity_slow_undeclared_decay():
    # 3-fold integral to infinity of u^-4.1: z^-1.1 / (3.1 * 2.1 * 1.1); its
    # Weyl integrand falls like t^-2.1, and no decay is declared
    z = 1.5
    res = repeated_integral(lambda u, uc: u ** -4.1, z, 3, "to_infinity")
    ref = z ** -1.1 / (3.1 * 2.1 * 1.1)
    err = abs(res.value - ref)
    assert err <= res.err_estimate and err <= 1e-9 * ref, (err, res.err_estimate)


def test_repeated_integral_from_one():
    # double integral from 1 of (u-1): (z-1)^3/6
    z = 2.2
    res = repeated_integral(lambda u, uc: -uc, z, 2, "from_one")
    assert abs(res.value - (z - 1.0) ** 3 / 6.0) <= 1e-9


def test_repeated_integral_fold_bounds():
    with pytest.raises(DomainError):
        repeated_integral(lambda u, uc: 1.0, 0.5, 0, "to_one")
    with pytest.raises(DomainError):
        repeated_integral(lambda u, uc: 1.0, 0.5, 9, "to_one")


def test_quadrature_result_arithmetic():
    a = integrate_segment(lambda t, tc: t, 0.0, 1.0)
    b = integrate_segment(lambda t, tc: t * t, 0.0, 1.0)
    s = a + b
    assert abs(s.value - (0.5 + 1.0 / 3.0)) < 1e-10
    assert s.err_estimate >= max(a.err_estimate, b.err_estimate)
    d = a.scaled(2.0)
    assert abs(d.value - 1.0) < 1e-10
