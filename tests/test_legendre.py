"""Cut-plane Legendre, Ferrers, Jacobi evaluators and Whipple images."""

import cmath
import math
import time

import mpmath
import pytest
import scipy.special

from legshift import complexfn, hyper, legendre
from legshift.errors import DomainError, NumericalError, PoleError
from legshift.hyper import hyp2f1
from legshift.legendre import (
    ferrers_p,
    ferrers_q,
    jacobi_evaluator,
    jacobi_p,
    legendre_deriv,
    legendre_evaluator,
    legendre_p,
    legendre_q,
    weighted_evaluator,
    whipple_evaluator,
    whipple_p_to_q,
    whipple_q_to_p,
)
from legshift.shifts import _Powers, _rodrigues_primitive, _weighted, rodrigues_pair


def test_legendre_p_frozen_oracle():
    # independently frozen with mpmath.legenp(0.5, 0.25, 2, type=3)
    val = legendre_p(0.5, 0.25, 2.0)
    assert abs(val - 1.3401424399794666) < 1e-12


def test_legendre_q_frozen_oracle():
    # independently frozen with mpmath.legenq(0.5, 0.25, 2, type=3)
    val = legendre_q(0.5, 0.25, 2.0)
    ref = 0.16465972450030297 * (1.0 + 1.0j)
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_legendre_q_integer_limit():
    # Q_0(2) = (1/2) log 3
    val = legendre_q(0.0, 0.0, 2.0)
    assert abs(val - 0.5 * math.log(3.0)) < 1e-9


def test_legendre_p_vs_mpmath_complex():
    for nu, mu, z in (
        (0.7 + 0.2j, -0.4, 1.8),
        (1.3, 0.6 - 0.1j, 3.0 + 0.5j),
        (-0.3, 0.9, 2.0 - 1.0j),
    ):
        ref = complex(mpmath.legenp(nu, mu, z, type=3))
        val = legendre_p(nu, mu, z)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_legendre_q_vs_mpmath_complex():
    for nu, mu, z in (
        (0.7, 0.3, 2.5),
        (1.1, -0.6, 1.7 + 0.4j),
        (0.4 + 0.3j, 0.2, 6.0),
    ):
        ref = complex(mpmath.legenq(nu, mu, z, type=3))
        val = legendre_q(nu, mu, z)
        assert abs(val - ref) <= 1e-9 * max(abs(ref), 1.0)


def test_legendre_degree_reflection():
    # P_{-nu-1}^mu = P_nu^mu
    for nu, mu, z in ((0.6, 0.3, 2.2), (1.4 + 0.5j, -0.7, 1.6 + 0.2j)):
        a = legendre_p(nu, mu, z)
        b = legendre_p(-nu - 1.0, mu, z)
        assert abs(a - b) <= 1e-12 * abs(a)


def test_legendre_on_cut_requires_side():
    with pytest.raises(DomainError):
        legendre_p(0.5, 0.3, 0.4)
    with pytest.raises(DomainError):
        legendre_q(0.5, 0.3, -2.0)


def test_legendre_branch_point_rejected():
    with pytest.raises(DomainError):
        legendre_p(0.5, 0.3, 1.0, boundary_side="+")


def test_legendre_boundary_sides_differ():
    up = legendre_p(0.5, 0.3, 0.4, boundary_side="+")
    dn = legendre_p(0.5, 0.3, 0.4, boundary_side="-")
    # the two one-sided limits are complex conjugates across the cut
    assert abs(up - dn.conjugate()) <= 1e-10 * abs(up)
    assert abs(up - dn) > 1e-3 * abs(up)


def test_legendre_q_olver_finite_at_pole():
    # nu + mu = -2: plain Q has a Gamma(nu+mu+1) pole, Olver form stays finite
    val = legendre_q(-1.3, -0.7, 2.0, olver=True)
    assert abs(val) < 1e3
    # at (-2, 1) Olver's 1/z**2 series is 1 and its coefficient -1
    for z in (1.3, 3.0, 1.8 + 0.5j):
        ref = -cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)
        assert abs(legendre_q(-2, 1, z, olver=True) - ref) <= 1e-14 * abs(ref)
    # away from poles: olver = exp(-i pi mu) Q / Gamma(nu+mu+1)
    nu, mu, z = 0.6, 0.3, 2.0
    lhs = legendre_q(nu, mu, z, olver=True)
    rhs = (
        complex(mpmath.expjpi(-mu))
        * legendre_q(nu, mu, z)
        / complex(mpmath.gamma(nu + mu + 1.0))
    )
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@pytest.mark.parametrize(
    "nu,mu,z", [(-2, 1, 1.3), (-3, 1, 1.2), (-3, 2, 1.2), (-2, 1, 3.0), (-3, -1, 1.8 + 0.5j)]
)
def test_legendre_q_pole_at_integer_order_raises_on_both_sides(nu, mu, z):
    # nu + mu + 1 in {0, -1, ...} at integer mu: a pole of Gamma(nu+mu+1) that
    # no other factor cancels
    with pytest.raises(PoleError):
        legendre_q(nu, mu, z)
    with pytest.raises(PoleError):
        legendre_deriv(nu, mu, z, order=1, kind="q")
    # mpmath finds no finite limit either; with its default precision cap it
    # spends seconds raising the working precision before the same ValueError
    with pytest.raises(ValueError):
        mpmath.legenq(nu, mu, z, type=3, maxprec=1000)
    # the Olver form is entire
    assert cmath.isfinite(legendre_q(nu, mu, z, olver=True))


@pytest.mark.parametrize("z", [1.3, 3.0, 1.8 + 0.5j])
def test_legendre_q_pole_at_half_integer_order_raises(z):
    # (nu, mu) = (-2.5, 1.5): Olver's Q vanishes (its series' (b)_n is 0),
    # so Hobson's Gamma(nu+mu+1) * 0 has a direction-dependent limit
    with pytest.raises(PoleError, match="nu \\+ mu \\+ 1 = 0"):
        legendre_q(-2.5, 1.5, z)
    assert legendre_q(-2.5, 1.5, z, olver=True) == 0.0


def test_overflow_raises_numerical_error():
    # |P| is beyond double range: the power prefactor overflows in cpow
    with pytest.raises(NumericalError):
        jacobi_p(50.5, 0.2, 0.3, 1e8)
    with pytest.raises(NumericalError):
        legendre_deriv(50.5, 0.2, 1e8)


@pytest.mark.parametrize(
    "f,args",
    [
        (hyp2f1, (300, 300, 0.5, 0.7)),  # 2.8e471 by mpmath
        (legendre_p, (700.5, 0.2, 3.0)),  # 1.5e535
        (legendre_p, (400.5, 0.3, 9.0)),  # 2.7e501
        (legendre_p, (1000.5, 0.2, 1.5)),  # 1.2e417
    ],
)
def test_value_beyond_double_range_raises_naming_the_overflow(f, args):
    # no inf or nan is returned, and a series at its term cap with an
    # overflowed sum is not reported as unconverged
    with pytest.raises(NumericalError, match="overflows") as exc:
        f(*args)
    assert type(exc.value) is NumericalError


def test_ferrers_frozen_oracles():
    # independently frozen with mpmath.legenp/legenq(0.3, 0.1, 0.4, type=2)
    assert abs(ferrers_p(0.3, 0.1, 0.4) - 0.8291858370251634) < 1e-12
    assert abs(ferrers_q(0.3, 0.1, 0.4) - (-0.33955903593160014)) < 1e-12


def test_ferrers_vs_mpmath():
    for nu, mu, x in ((0.8, -0.4, -0.3), (1.6, 0.7, 0.55), (0.25, 0.0, 0.1)):
        ref_p = complex(mpmath.legenp(nu, mu, x, type=2))
        ref_q = complex(mpmath.legenq(nu, mu, x, type=2))
        assert abs(ferrers_p(nu, mu, x) - ref_p) <= 1e-9 * max(abs(ref_p), 1.0)
        assert abs(ferrers_q(nu, mu, x) - ref_q) <= 1e-9 * max(abs(ref_q), 1.0)


@pytest.mark.parametrize("kind", ["ferrers_p", "ferrers_q"])
@pytest.mark.parametrize("order", [1, 2])
def test_ferrers_derivatives_at_zero(kind, order):
    # the odd series' factor x takes the power rule, not x'/x
    for nu, mu in ((1.3, 0.4), (2.3, 1.0), (0.7 + 0.2j, -0.3)):
        f = mpmath.legenp if kind == "ferrers_p" else mpmath.legenq
        with mpmath.workdps(20):
            ref = complex(mpmath.diff(lambda t: f(nu, mu, t, type=2), 0, order))
        val = legendre_deriv(nu, mu, 0.0, order=order, kind=kind)
        assert abs(val - ref) <= 1e-13 * abs(ref), (nu, mu, val, ref)


def test_legendre_p_at_integer_order():
    # the regularized c = 1-mu term; a +/- i*eps average missed by ~1e-10
    for nu, mu, z in ((0.6, 1.0, 1.4), (1.3, 1.0, 1.4), (2.7, 2.0, 3.1 + 0.8j), (-0.4, 2.0, 1.9)):
        ref = complex(mpmath.legenp(nu, mu, z, type=3))
        assert abs(legendre_p(nu, mu, z) - ref) <= 1e-13 * abs(ref), (nu, mu, z)
    # P_nu^m vanishes for integer m > nu >= 0
    assert legendre_p(1.0, 2.0, 1.5) == 0.0


@pytest.mark.parametrize(
    "nu,mu", [(-1.0, 0.0), (-2.0, 0.0), (-3.0, 1.0), (0.3, -2.3), (-1.2, 0.2), (-1.5, -0.5)]
)
def test_ferrers_q_pole_raises(nu, mu):
    # nu+mu+1 in {0, -1, ...}; at (-1.5, -0.5) the limits along nu and
    # along mu differ in sign, so no value is right
    with pytest.raises(PoleError):
        ferrers_q(nu, mu, 0.3)


def test_cancelling_legendre_polynomial_raises():
    # degree 60 at w = 1.85-0.25i: the terms reach far beyond the sum, which
    # a plain sum would return with no correct digit
    with pytest.raises(NumericalError):
        legendre_p(60.0, 0.0, -2.7 + 0.5j)


def test_jacobi_polynomial_by_its_degree_recurrence():
    # the series in (1-z)/2 cancels away from z = 1: at degree 40 and
    # w = 1.25 its terms reach ~1e17 times the sum (it raised), and at the
    # Gauss-Legendre nodes of degree 13 to 30 nearest -1 it raised too
    for n in range(1, 31):
        for x in scipy.special.roots_legendre(n)[0]:
            ref = mpmath.legendre(n, x)
            assert abs(jacobi_p(n, 0, 0, x) - complex(ref)) <= 1e-12, (n, x)
    for n, alpha, beta, z in ((40, 0.5, 0.5, -1.5), (25, 1.3, -0.6, -0.97), (30, -0.4, 2.2, 0.1 + 0.8j)):
        ref = complex(mpmath.jacobi(n, alpha, beta, z))
        assert abs(jacobi_p(n, alpha, beta, z) - ref) <= 1e-13 * abs(ref), (n, z)


def test_terminating_series_at_its_zero_returns_it():
    # the rounding bound is held against max(|sum|, 1), 1 being F(0), so a
    # polynomial at its zero returns a sum that is right to that scale
    assert jacobi_p(1, 0, 0, 0.0) == 0.0
    assert abs(ferrers_p(2, 0, 3**-0.5)) <= 1e-15
    assert abs(legendre_deriv(2, 0, 3**-0.5, kind="ferrers_p") - 3**0.5) <= 1e-14
    # the Gauss-Legendre nodes of degree n are the zeros of P_n
    for n in range(1, 13):
        for x in scipy.special.roots_legendre(n)[0]:
            assert abs(ferrers_p(n, 0, x)) <= 1e-13, (n, x)
            assert abs(jacobi_p(n, 0, 0, x)) <= 1e-14, (n, x)
    # a zero-weight series is left out: here K0 = 1/Gamma(0) and the even
    # series 1 - 2x**2 sits at its zero; the odd term carries the value
    x = 0.5**0.5
    ref = complex(mpmath.legenp(1.5, -0.5, x, type=2))
    assert abs(ferrers_p(1.5, -0.5, x) - ref) <= 1e-14 * abs(ref)


def test_ferrers_past_the_series_reach_raises():
    # past |nu+1/2| = 27.8 the x**2 series lose eps*(|x|+sqrt(1+x**2))**|nu+1/2|;
    # summed silently, Ferrers P at (40.5, 0.3, 0.85) was 2.1e-4 off and
    # Ferrers Q at (60.3, 1, 0.85) 2.3e4
    with pytest.raises(NumericalError):
        ferrers_p(40.5, 0.3, 0.85)
    with pytest.raises(NumericalError):
        ferrers_q(60.3, 1.0, -0.85)
    with pytest.raises(NumericalError):
        legendre_deriv(40.5, 0.3, 0.7, kind="ferrers_q")
    # below |x| = sinh(24.5/|nu+1/2|) the calls return; the tolerance is
    # relative to the larger of |P| and |Q|, as either may sit near a zero
    for nu, mu, x in ((27.0, 0.4, 0.97), (27.0, 0.4, -0.999), (40.5, 0.3, 0.6), (60.5, -1.0, 0.4)):
        ref_p = complex(mpmath.legenp(nu, mu, x, type=2))
        ref_q = complex(mpmath.legenq(nu, mu, x, type=2))
        scale = max(abs(ref_p), abs(ref_q))
        assert abs(ferrers_p(nu, mu, x) - ref_p) <= 1e-6 * scale, (nu, mu, x)
        assert abs(ferrers_q(nu, mu, x) - ref_q) <= 1e-6 * scale, (nu, mu, x)


def test_ferrers_rejects_bad_argument():
    with pytest.raises(DomainError):
        ferrers_p(0.5, 0.3, 1.4)
    with pytest.raises(DomainError):
        ferrers_q(0.5, 0.3, 0.2 + 0.1j)


def test_jacobi_frozen_oracle():
    # independently frozen with mpmath.jacobi(0.5, 0.3, -0.2, 0.7)
    val = jacobi_p(0.5, 0.3, -0.2, 0.7)
    assert abs(val - 1.0579242451856248) < 1e-12


def _mp_jacobi_limit(nu, alpha, beta, z):
    # Gamma(nu+alpha+1)/Gamma(nu+1) rgamma(alpha+1) 2F1(-nu, nu+alpha+beta+1; alpha+1; (1-z)/2)
    # next to the pole: mpmath.jacobi at the exact integer alpha is not the
    # limit (0.3153840091064076 at the first point below)
    with mpmath.workdps(30):
        nu, beta, z = mpmath.mpmathify(nu), mpmath.mpmathify(beta), mpmath.mpmathify(z)
        alpha = alpha + mpmath.mpf("1e-25")
        return complex(
            mpmath.gamma(nu + alpha + 1) / mpmath.gamma(nu + 1) * mpmath.rgamma(alpha + 1)
            * mpmath.hyp2f1(-nu, nu + alpha + beta + 1, alpha + 1, (1 - z) / 2)
        )


@pytest.mark.parametrize(
    "nu,alpha,beta,z,frozen",
    [
        (0.6, -1.0, 0.3, 0.3, -0.3706636511688288),
        (2.5, -2.0, 0.3, 0.4, 0.17896673966270168),
        (1.7, -1.0, -0.4, 2.5 + 0.5j, 1.4577751949181366 + 0.6674820212620433j),
    ],
)
def test_jacobi_at_a_pole_of_gamma_alpha_plus_one_is_the_limit(nu, alpha, beta, z, frozen):
    # alpha + 1 = 1-n: the series' 1/Gamma(alpha+1) takes the regularized
    # limit (DLMF 15.2.3_5), as P's 1/Gamma(1-mu) does
    ref = _mp_jacobi_limit(nu, alpha, beta, z)
    assert abs(ref - frozen) <= 1e-15 * abs(frozen)
    assert abs(jacobi_p(nu, alpha, beta, z) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("z", [0.3, -0.7, 2.5 + 0.5j])
def test_jacobi_at_integer_degree_where_a_numerator_ends_the_series_first(z):
    # alpha + beta <= -2 sends integer degrees to the series; where -nu ends
    # it before c = alpha + 1 is reached, Gamma(nu+alpha+1)'s pole pairs
    # Gamma(alpha+1)'s and the polynomial is finite
    assert jacobi_p(0, -1, -1, z) == 1.0
    assert jacobi_p(1, -2, 0, z) == -1.0


@pytest.mark.parametrize(
    "f", [jacobi_p, lambda nu, a, b, z: jacobi_evaluator(nu, a, b)(z)], ids=("jacobi_p", "evaluator")
)
def test_jacobi_refuses_its_cut_unless_the_caller_gives_a_side(f):
    # jacobi_p(0.5, 0.3, 0.2, -9.0) was the conjugate of mpmath.jacobi, while
    # at -2.0 it matched: the side hung on the image that ran
    for z in (-9.0, -2.0, -1.5):
        with pytest.raises(DomainError):
            f(0.5, 0.3, 0.2, z)
        for side in (1.0, -1.0):
            with mpmath.workdps(30):
                ref = complex(mpmath.jacobi(0.5, 0.3, 0.2, mpmath.mpc(z, side * 1e-60)))
            assert abs(f(0.5, 0.3, 0.2, complex(z, side * 1e-300)) - ref) <= 1e-13 * abs(ref)
    # a polynomial has no cut: by the degree recurrence, and by a series that
    # a numerator ends (alpha + beta = -2)
    for n, alpha, beta in ((3, 0.3, 0.2), (1, -2.0, 0.0)):
        ref = complex(mpmath.jacobi(n, alpha, beta, -9.0))
        assert abs(f(n, alpha, beta, -9.0) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize(
    "call,v",
    [
        (lambda v: weighted_evaluator("q", 0.7, 0.4, 0.0)(v), 0.5),
        (lambda v: weighted_evaluator("q", 2.3, -0.6, 0.2)(v, 1.0 - v), -0.8),
        (lambda v: whipple_evaluator("p", 0.7, 0.4, -0.85)(v), 0.5),
        (lambda v: rodrigues_pair(0.5, 0.3, 0.2, v), -9.0),
    ],
    ids=("weighted_q", "weighted_q_vc", "whipple_p", "rodrigues_pair"),
)
def test_term_lists_refuse_a_2f1_argument_on_its_cut(call, v):
    # Q's term in 1/v**2 at a real v in (-1, 1), the Whipple image of P
    # (Olver's Q's term in 1/y**2) at a real y in (0, 1), Jacobi's term in
    # (1-v)/2 at v < -1: weighted_evaluator("q", 0.7, 0.4, 0.0)(0.5) was
    # -0.226 - 1.288i, the side its image took
    with pytest.raises(DomainError):
        call(v)


def test_weighted_q_takes_the_side_the_caller_gives():
    for side, boundary_side in ((1.0, "+"), (-1.0, "-")):
        value = weighted_evaluator("q", 0.7, 0.4, 0.0)(complex(0.5, side * 1e-300))
        ref = legendre_q(0.7, 0.4, 0.5, boundary_side=boundary_side)
        assert abs(value - ref) <= 1e-13 * abs(ref)


def _mp_jacobi_diff(nu, alpha, beta, z, k):
    with mpmath.workdps(30):
        return complex(mpmath.diff(lambda t: mpmath.jacobi(nu, alpha, beta, t), z, k))


@pytest.mark.parametrize("nu", [0, 1, 2, 3, 4, 5, 20, 3.0000001, 2.7])
def test_jacobi_derivatives_at_integer_and_other_degrees(nu):
    # order k at an integer degree n is (n+alpha+beta+1)_k / 2**k times the
    # polynomial at (n-k, alpha+k, beta+k) (DLMF 18.9.15); the recurrence
    # once returned the value at every order, so the result jumped as nu
    # crossed 3 (-0.5482 at nu = 3, -0.6923 at 3.0000001 for order 1)
    for alpha, beta, z in ((0.5, 0.25, 0.3), (1.1, -0.4, -0.7), (0.3, 0.2, 0.5 + 0.4j)):
        ev = jacobi_evaluator(nu, alpha, beta)
        for k in (1, 2):
            ref = _mp_jacobi_diff(nu, alpha, beta, z, k)
            assert abs(ev(z, order=k) - ref) <= 1e-12 * max(abs(ref), 1.0), (alpha, beta, z, k)


def test_weighted_jacobi_polynomial_has_no_derivatives():
    # the weight (1-z)**alpha (1+z)**beta is not differentiated by the
    # degree recurrence; the Rodrigues integrand asks for order 0 only
    terms = _weighted("rodrigues", "jacobi", 3, (0.5, 0.25)).terms
    ref = 0.7**0.5 * 1.3**0.25 * jacobi_p(3, 0.5, 0.25, 0.3)
    assert abs(terms(0.3) - ref) <= 1e-14 * abs(ref)
    for order in (1, 2):
        with pytest.raises(DomainError):
            terms(0.3, None, order)


def test_jacobi_matches_scipy_at_integer_degree():
    for n in (1, 2, 3):
        for alpha, beta, z in ((0.3, -0.2, 0.7), (1.1, 0.4, -0.25)):
            ref = scipy.special.eval_jacobi(n, alpha, beta, z)
            val = jacobi_p(n, alpha, beta, z)
            assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_legendre_deriv_matches_finite_difference():
    h = 1e-6
    for kind, z in (("p", 2.3), ("q", 2.3), ("ferrers_p", 0.35), ("ferrers_q", 0.35)):
        nu, mu = 0.7, 0.4
        if kind in ("p", "q"):
            f = lambda t: (legendre_p if kind == "p" else legendre_q)(nu, mu, t)
        else:
            f = lambda t: (ferrers_p if kind == "ferrers_p" else ferrers_q)(nu, mu, t)
        d1 = legendre_deriv(nu, mu, z, order=1, kind=kind)
        fd1 = (f(z + h) - f(z - h)) / (2.0 * h)
        assert abs(d1 - fd1) <= 1e-7 * max(abs(d1), 1.0), kind
        h2 = 1e-4
        d2 = legendre_deriv(nu, mu, z, order=2, kind=kind)
        fd2 = (f(z + h2) - 2.0 * f(z) + f(z - h2)) / (h2 * h2)
        assert abs(d2 - fd2) <= 1e-6 * max(abs(d2), 1.0), kind


def test_legendre_deriv_rejects_bad_order():
    with pytest.raises(DomainError):
        legendre_deriv(0.5, 0.3, 2.0, order=3)
    with pytest.raises(DomainError):
        legendre_deriv(0.5, 0.3, 2.0, kind="x")


def test_whipple_round_trip():
    # the image relations reproduce direct evaluation at y/sqrt(y^2-1); at
    # nu+mu in {0, 1, ...} P's image is Olver's Q, with no pole to cancel
    for nu, mu, y in ((0.6, 0.3, 1.8), (0.9, -0.4, 2.6), (0.3, -0.3, 2.0), (1.2, 0.8, 1.7)):
        arg = y / math.sqrt(y * y - 1.0)
        p_img = whipple_p_to_q(nu, mu, y)
        assert abs(p_img - legendre_p(nu, mu, arg)) <= 1e-10 * abs(p_img)
        q_img = whipple_q_to_p(nu, mu, y)
        assert abs(q_img - legendre_q(nu, mu, arg)) <= 1e-10 * abs(q_img)


def test_whipple_q_raises_next_to_its_pole():
    # Gamma(nu+mu+1) within 1e-9 of a pole, as legendre_q; it returned 6.6e15
    with pytest.raises(PoleError):
        whipple_q_to_p(-1.15, 0.15, 1.7)
    for n in (0, 1, 2):
        for d in (0.0, 5e-10, -5e-10):
            with pytest.raises(PoleError):
                whipple_evaluator("q", -1.15 - n + d, 0.15, 0.3)
    assert cmath.isfinite(whipple_evaluator("q", -1.15 + 2e-9, 0.15, 0.3)(1.7))


def test_whipple_images_refuse_points_off_their_domain():
    # Re y > 0 off (0, 1]: elsewhere y/sqrt(y**2-1) is not the image's argument
    for y in (1.0, 0.5, -2.0 + 0.5j, 0.5j):
        for fn in (whipple_p_to_q, whipple_q_to_p):
            with pytest.raises(DomainError):
                fn(0.6, 0.3, y)


def _weight(kind, v, s):
    # (v^2-1)^s split at the branch points, (1-v^2)^s for the Ferrers kinds
    if kind.startswith("ferrers"):
        return cmath.exp(s * cmath.log(1.0 - v)) * cmath.exp(s * cmath.log(1.0 + v))
    return cmath.exp(s * cmath.log(v - 1.0)) * cmath.exp(s * cmath.log(v + 1.0))


@pytest.mark.parametrize(
    "kind,nu,mu,v",
    [
        ("p", 0.7, 0.3, 1.5),
        ("q", 1.3, 0.4, 1.2),
        ("q", 1.3, 0.4, 1.5),
        ("q", 1.3, 0.4, 5.0),
        ("ferrers_p", 0.45, 0.3, 0.35),
        ("ferrers_q", 1.3, -0.4, -0.2),
        ("p", 0.6, 2.0, 2.2),  # integer mu: the regularized c = 1-mu term
    ],
)
def test_weighted_evaluator_is_weight_times_function(kind, nu, mu, v):
    for s in (mu / 2.0, -mu / 2.0):
        ref = _weight(kind, v, s) * _public(kind, nu, mu, v, 0)
        val = weighted_evaluator(kind, nu, mu, s)(v)
        assert abs(val - ref) <= 1e-13 * abs(ref), (kind, nu, mu, v, s)


def test_weighted_q_at_integer_order():
    # Q's 1/z**2 term has no degeneracy at integer mu: one term, no average
    nu, mu = 0.6, 1.0
    for v in (1.2, 1.7):
        for s in (mu / 2.0, -mu / 2.0):
            ref = _weight("q", v, s) * legendre_q(nu, mu, v)
            val = weighted_evaluator("q", nu, mu, s)(v)
            assert abs(val - ref) <= 1e-13 * abs(ref), (v, s)


def test_weighted_p_lower_smooth_through_branch_point():
    # the weighted form is analytic at v = 1 where the raw product is not
    p_lower = weighted_evaluator("p", 0.7, 0.4, 0.2)
    a = p_lower(1.0 + 1e-8)
    b = p_lower(1.0 - 1e-8)
    assert abs(a - b) <= 1e-6 * abs(a)


def test_weighted_evaluator_rejects_bad_input():
    with pytest.raises(DomainError):
        weighted_evaluator("x", 0.5, 0.3, 0.1)
    with pytest.raises(DomainError):
        weighted_evaluator("p", 0.5, 0.3, float("nan"))
    with pytest.raises(DomainError):
        whipple_evaluator("ferrers_p", 0.5, 0.3, 0.1)


@pytest.mark.parametrize(
    "evaluator,args,finite_at,overflows_at",
    [
        # ~V**2.63: 1e263 at V = 1e100, past double range at 1e120
        (weighted_evaluator, ("p", 1.939, -0.694, 0.347), 1e100, 1e120),
        (whipple_evaluator, ("p", 0.8, 2.9, 1.6), 1e50, 1e55),
    ],
)
def test_weighted_evaluators_raise_past_double_range(evaluator, args, finite_at, overflows_at):
    # as the public functions do; they returned inf+nanj and nan+nanj
    f = evaluator(*args)
    assert cmath.isfinite(f(finite_at))
    with pytest.raises(NumericalError, match="overflows"):
        f(overflows_at)


def test_whipple_evaluator_is_weight_times_function():
    for nu, mu, y in ((0.35, 0.15, 1.7), (0.8, -0.3, 2.3), (1.6, 0.3, 1.2)):
        arg = y / math.sqrt(y * y - 1.0)
        for kind, fn in (("p", legendre_p), ("q", legendre_q)):
            for s in (-(nu + 1.0) / 2.0, nu / 2.0, 0.0):
                ref = (y * y - 1.0) ** s * fn(nu, mu, arg)
                val = whipple_evaluator(kind, nu, mu, s)(y)
                assert abs(val - ref) <= 1e-10 * abs(ref), (kind, nu, mu, y, s)


def _public(kind, nu, mu, z, order):
    if order:
        return legendre_deriv(nu, mu, z, order=order, kind=kind)
    fn = {"p": legendre_p, "q": legendre_q, "ferrers_p": ferrers_p, "ferrers_q": ferrers_q}
    return fn[kind](nu, mu, z)


def test_evaluator_reuse_equals_one_shot():
    # z = 1.05 puts Q's 1/z**2 series at w = 0.91, past the series radius,
    # where its quadratic image sums it
    zs = [1.2 + 0.37 * k + (0.3j if k % 3 == 0 else 0.0) for k in range(20)]
    zs[7], zs[15] = 9.0 - 2.0j, 1.05
    xs = [-0.95 + 0.097 * k for k in range(20)]
    cases = [
        ("p", 0.7, 0.3, zs),
        ("q", 1.3, 0.4, zs),
        ("q", 0.6 + 0.2j, -0.35, zs),
        ("p", 0.6, 2.0, zs),  # integer mu: the regularized c = 1-mu term
        ("q", 0.6, 1.0, zs),  # integer mu: one term, no average
        ("q", -1.5, 0.3, zs),  # nu+3/2 = 0: the 1/z**2 series' c = -m limit
        ("ferrers_p", 0.45, 0.3, xs),
        ("ferrers_q", 1.3, -0.4, xs),
        ("ferrers_p", 0.45, 1.0, xs),  # integer mu
        ("ferrers_q", 0.45, -2.0, xs),  # integer mu
        ("ferrers_p", 4.0, 0.0, xs),  # the even series is a polynomial
    ]
    for kind, nu, mu, points in cases:
        ev = legendre_evaluator(kind, nu, mu)
        for order in (0, 1, 2):
            for z in points:
                assert ev(z, order) == _public(kind, nu, mu, z, order), (kind, nu, mu, z)


def test_jacobi_evaluator_reuse_equals_one_shot():
    for nu, alpha, beta in ((0.6, 0.3, -0.2), (2, -0.35, 0.45), (1.4 + 0.3j, 0.2, 0.1)):
        ev = jacobi_evaluator(nu, alpha, beta)
        for k in range(20):
            z = -0.95 + 0.1 * k + (0.5j if k % 4 == 0 else 0.0)
            assert ev(z) == jacobi_p(nu, alpha, beta, z)


def test_public_functions_reject_non_finite_input():
    nan, inf = float("nan"), float("inf")
    calls = [
        lambda: legendre_p(0.5, 0.2, nan),
        lambda: legendre_p(0.5, 0.2, inf),
        lambda: legendre_p(0.5, complex(0.2, nan), 2.0),
        lambda: legendre_q(nan, 0.2, 2.0),
        lambda: legendre_q(0.5, 0.2, complex(2.0, -inf), olver=True),
        lambda: ferrers_p(0.5, inf, 0.3),
        lambda: ferrers_q(0.5, 0.2, nan),
        lambda: jacobi_p(0.5, 0.3, nan, 0.2),
        lambda: jacobi_p(0.5, 0.3, 0.2, inf),
        lambda: legendre_deriv(0.5, 0.2, nan, order=1, kind="q"),
        lambda: legendre_deriv(nan, 0.2, 0.3, order=2, kind="ferrers_p"),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("arg", [math.nan, math.inf, complex(math.nan, 1.0)], ids=("nan", "inf", "nan+1j"))
@pytest.mark.parametrize(
    "build",
    [
        lambda: hyper.hyp2f1_evaluator(0.5, 0.3, 0.2),
        lambda: hyper.hyp2f1_evaluator(-3, 0.3, 0.2),
        lambda: legendre_evaluator("q", 0.5, 0.3),
        lambda: legendre_evaluator("ferrers_p", 0.5, 0.3),
        lambda: jacobi_evaluator(0.5, 0.3, 0.2),
        lambda: jacobi_evaluator(3, 0.3, 0.2),
    ],
    ids=("hyp2f1", "hyp2f1_polynomial", "legendre_q", "ferrers_p", "jacobi", "jacobi_polynomial"),
)
def test_evaluators_reject_non_finite_arguments(build, arg):
    # as the public functions do; the evaluators ran the 2F1 chooser down to
    # the ODE walker and raised its NumericalError
    with pytest.raises(DomainError, match="non-finite argument"):
        build()(arg)


@pytest.mark.parametrize(
    "call",
    [
        lambda: legendre_p(1e8, 0, 2),
        lambda: legendre_p(2e9, 0, 2),
        lambda: legendre_p(1e308, 0, 2),
        lambda: hyp2f1(-1e8, 1, 1, 0.5),
        lambda: hyp2f1(-1e308, 1, 1, 0.5),
        lambda: jacobi_p(1e308, 0.2, 0.1, 0.5),
    ],
    ids=("P(1e8)", "P(2e9)", "P(1e308)", "2F1(-1e8)", "2F1(-1e308)", "jacobi(1e308)"),
)
def test_huge_integer_degree_is_refused_at_once(call):
    # the terminating sums overflow within a few hundred terms, or their
    # rounding bound n*eps fails up front; none builds n term ratios first
    start = time.perf_counter()
    with pytest.raises(NumericalError):
        call()
    assert time.perf_counter() - start < 1.0


def test_huge_degree_polynomial_stops_once_its_terms_underflow():
    # (1 - 1e-12)**1e7: the terms fall below double range after ~30 of them
    start = time.perf_counter()
    value = hyp2f1(-1e7, 1, 1, 1e-12)
    assert time.perf_counter() - start < 1.0
    assert abs(value - math.exp(1e7 * math.log1p(-1e-12))) <= 1e-15


def _summed_series(monkeypatch):
    """The list of series summed from now on, one entry per sum, counted
    before the sum runs, so a sum that raises is counted too.  Each keeps
    its term ratios from its first sum on, so len(s._ratios) is the most
    terms any of its sums took."""
    summed = []
    plain = hyper._Series.sum

    def counted(self, w, with_size=False):
        if self._ratios is None:
            self._ratios = []
        summed.append(self)
        return plain(self, w, with_size)

    monkeypatch.setattr(hyper._Series, "sum", counted)
    return summed


def test_weighted_ferrers_p_next_to_one_sums_one_series(monkeypatch):
    # one series per evaluation, with and without an exact 1 - x: the one
    # term in (1-x)/2; the pair in x**2 continued past x**2 = 0.8 summed two
    # series per term
    ev = weighted_evaluator("ferrers_p", 0.45, 0.65, -0.325)
    summed = _summed_series(monkeypatch)
    for vc in (None, 0.1):
        ev(0.9, vc)
    assert len(summed) == 2


def test_q_next_to_one_sums_short_series(monkeypatch):
    # the quadratic image's series at |u| ~ 0.97 ran to 1,134 terms; its
    # clean 1-u image sums two of a few dozen
    summed = _summed_series(monkeypatch)
    legendre_evaluator("q", 0.55, 0.35)(1.0001)
    assert summed and max(len(s._ratios) for s in summed) <= 50


@pytest.mark.parametrize(
    "call, series, ratios",
    [
        (lambda: legendre_p(0.4, 0.3, 5.0), 3, 2),
        (lambda: ferrers_q(0.4, 0.3, 0.3), 2, 2),
        (lambda: jacobi_p(2.4, 0.3, 0.2, -0.9), 3, 3),
    ],
    ids=("legendre_p", "ferrers_q", "jacobi_p"),
)
def test_one_shot_set_up_builds_fixed_counts(monkeypatch, call, series, ratios):
    # the series and gamma ratios a one-shot call builds: P at z = 5 and
    # Jacobi's P at z = -0.9 one two-series image each, Ferrers Q its pair
    counts = {"series": 0, "gamma_ratio": 0}
    init, ratio = hyper._Series.__init__, complexfn.gamma_ratio

    def counted_init(self, *args):
        counts["series"] += 1
        init(self, *args)

    def counted_ratio(*args):
        counts["gamma_ratio"] += 1
        return ratio(*args)

    monkeypatch.setattr(hyper._Series, "__init__", counted_init)
    for module in (hyper, legendre):
        monkeypatch.setattr(module, "gamma_ratio", counted_ratio)
    call()
    assert counts == {"series": series, "gamma_ratio": ratios}


_HOBSON = lambda mu: cmath.exp(2j * math.pi * mu)
_REAL = lambda mu: 1.0


@pytest.mark.parametrize(
    "build,centre,radius,phase",
    [
        (lambda mu: weighted_evaluator("p", 0.6, mu, -mu / 2.0), 2.4, 0.35, _REAL),
        (lambda mu: weighted_evaluator("q", 0.6, mu, mu / 2.0), 2.4, 0.35, _HOBSON),
        (lambda mu: legendre._Legendre("olver_q", 0.6, mu).terms, 2.4, 0.35, _REAL),
        (lambda mu: weighted_evaluator("ferrers_p", 0.6, mu, -mu / 2.0), 0.3, 0.15, _REAL),
        (lambda mu: weighted_evaluator("ferrers_q", 0.6, mu, mu / 2.0), 0.3, 0.15, _REAL),
        (lambda mu: whipple_evaluator("p", 0.6, mu, 0.3), 1.8, 0.2, _REAL),
        (lambda mu: whipple_evaluator("q", 0.6, mu, -0.8), 1.8, 0.2, _HOBSON),
        # Jacobi's one term, its degree recurrence and the Rodrigues primitive,
        # mu being alpha
        (lambda mu: _weighted("rodrigues", "jacobi", 1.6, (mu, -0.2)).terms, 0.3, 0.15, _REAL),
        (lambda mu: _weighted("rodrigues", "jacobi", 3.0, (mu, -0.2)).terms, 0.3, 0.15, _REAL),
        (lambda mu: _rodrigues_primitive(0.6, mu, -0.2), 0.3, 0.15, _REAL),
    ],
)
def test_term_lists_report_their_reflection_phase(build, centre, radius, phase):
    # the phase phi is W(conj z) / conj(W(z)) on a circle about a real point,
    # as the Cauchy rule's reflected samples take it; None at a complex mu
    mu = 0.3
    W = build(mu)
    phi = W.reflection()
    assert abs(phi - phase(mu)) <= 1e-15
    for j in range(1, 8):
        z = centre + radius * cmath.exp(2j * math.pi * j / 16)
        assert abs(W(z.conjugate()) - phi * W(z).conjugate()) <= 1e-13 * abs(W(z)), j
    assert build(mu + 0.1j).reflection() is None


# integrand -> (W, side): side +1 for a cut-plane list, measured on (1, inf);
# -1 for a list on (-1, 1), measured below 1 and, far out, along the
# imaginary axis, off the cut of its x**2 series
_END_POWER_CASES = {
    "P mplus": (lambda: _weighted("mplus", "p", 0.6, 0.3).terms, 1),
    "P mminus": (lambda: _weighted("mminus", "p", 0.6, -0.3).terms, 1),
    "Q mplus": (lambda: _weighted("mplus", "q", 0.6, 0.3).terms, 1),
    "Q mminus": (lambda: _weighted("mminus", "q", 0.6, -0.3).terms, 1),
    "Olver Q mplus": (lambda: _weighted("mplus", "olver_q", 0.6, -0.3).terms, 1),
    "Ferrers P mplus": (lambda: _weighted("mplus", "ferrers_p", 0.45, 0.3).terms, -1),
    "Ferrers P mminus": (lambda: _weighted("mminus", "ferrers_p", 1.3, -0.4).terms, -1),
    "Ferrers Q mplus": (lambda: _weighted("mplus", "ferrers_q", 0.45, 0.3).terms, -1),
    # Ferrers Q's second branch leaves power 0, not -Re mu, at mu < 0
    "Ferrers Q mplus, mu < 0": (lambda: _weighted("mplus", "ferrers_q", 0.45, -0.4).terms, -1),
    # P's Whipple image decays like y**-(nu+1-mu), not y**-(nu+1-|Re mu|)
    "Whipple P k3": (lambda: _weighted("k3", "p", 0.8, -0.3).terms, 1),
    "Whipple P p3": (lambda: _weighted("p3", "p", 0.6, -0.25).terms, 1),
    "Whipple Q k3": (lambda: _weighted("k3", "q", 0.8, -0.3).terms, 1),
    "Whipple Q p3": (lambda: _weighted("p3", "q", 0.7, 0.15).terms, 1),
    "Jacobi term": (lambda: _weighted("rodrigues", "jacobi", 1.6, (0.3, -0.2)).terms, -1),
    "Jacobi recurrence": (lambda: _weighted("rodrigues", "jacobi", 3.0, (0.3, -0.2)).terms, -1),
    "Rodrigues primitive": (lambda: _rodrigues_primitive(0.6, 0.3, -0.2), -1),
    "beta kernel": (lambda: _Powers(1.0, -0.3, 0.0), -1),
}


@pytest.mark.parametrize("case", list(_END_POWER_CASES))
def test_integrands_report_their_end_powers(case):
    # the weakest reported power is the slope of log|W| against log|V-1|
    # next to V = 1, and the growth its slope against log|V| far out
    build, side = _END_POWER_CASES[case]
    W = build()
    ones, inf = W.end_powers()
    one = min(e.real for e, _log in ones)

    def log_abs(d, far=False):
        return math.log(abs(W(d * (1j if side < 0 else 1.0)) if far else W(1.0 + side * d, -side * d)))

    near = (log_abs(1e-6) - log_abs(1e-9)) / math.log(1e3)
    far = (log_abs(1e8, True) - log_abs(1e6, True)) / math.log(1e2)
    assert abs(near - one) <= 0.02, (near, one)
    assert abs(far - inf) <= 0.02, (far, inf)
