"""Where each integer and pole tolerance decides (README, "Integer and pole
tests"), and how many integer tests a one-shot call asks."""

import cmath
import sys

import pytest

from legshift import complexfn
from legshift.complexfn import gamma_ratio
from legshift.errors import DegenerateParameterError, PoleError
from legshift.hyper import hyp2f1, hyp3f2_regularized
from legshift.legendre import ferrers_p, ferrers_q, jacobi_p, legendre_p, legendre_q
from legshift.quadrature import integrate_loop
from legshift.shifts import predict_order_shift

# one point inside and one outside each boundary, on both sides of the integer
_INSIDE_1E9, _OUTSIDE_1E9 = (5e-10, -5e-10), (2e-9, -2e-9)


@pytest.mark.parametrize("d", _INSIDE_1E9)
def test_gamma_ratio_pairs_poles_within_1e_9(d):
    with pytest.raises(PoleError):
        gamma_ratio([-2.0 + d], [])
    # the paired limit Gamma(3 + d)/Gamma(3 - d), close to +1
    assert abs(gamma_ratio([-2.0 + d], [-2.0 - d]) - 1.0) < 1e-8


@pytest.mark.parametrize("d", _OUTSIDE_1E9)
def test_gamma_ratio_takes_arguments_past_1e_9_as_they_are(d):
    assert abs(gamma_ratio([-2.0 + d], []) * 2.0 * d - 1.0) < 1e-6
    # the plain quotient, close to -1
    assert abs(gamma_ratio([-2.0 + d], [-2.0 - d]) + 1.0) < 1e-6


def test_2f1_refuses_a_c_pole_within_1e_9_and_sums_one_past_it():
    for d in _INSIDE_1E9:
        with pytest.raises(DegenerateParameterError):
            hyp2f1(0.3, 0.7, -2.0 + d, 0.5)
    for d in _OUTSIDE_1E9:
        assert cmath.isfinite(hyp2f1(0.3, 0.7, -2.0 + d, 0.5))


def test_jacobi_takes_the_degree_recurrence_within_1e_9():
    exact = jacobi_p(3, 0.2, 0.1, 0.5)
    for d in _INSIDE_1E9:
        assert jacobi_p(3.0 + d, 0.2, 0.1, 0.5) == exact
    for d in _OUTSIDE_1E9:
        value = jacobi_p(3.0 + d, 0.2, 0.1, 0.5)
        assert value != exact and abs(value - exact) < 1e-8


def test_hobson_q_pole_at_nu_plus_mu_plus_1_within_1e_9():
    # nu + mu + 1 = -1 + d
    for d in _INSIDE_1E9:
        with pytest.raises(PoleError):
            legendre_q(-2.25 + d, 0.25, 1.5)
    for d in _OUTSIDE_1E9:
        assert cmath.isfinite(legendre_q(-2.25 + d, 0.25, 1.5))


def test_loop_takes_the_integer_route_within_1e_12():
    def g(t, _tc):
        return cmath.exp(t)

    exact = integrate_loop(g, 1.0, 1)
    for d in (5e-13, -5e-13):
        res = integrate_loop(g, 1.0, 1.0 + d)
        assert (res.value, res.evaluations) == (exact.value, exact.evaluations)
    for d in (5e-12, -5e-12):
        res = integrate_loop(g, 1.0, 1.0 + d)
        assert res.value != exact.value and res.evaluations != exact.evaluations


@pytest.mark.parametrize("mu", [0.009, -0.009, -1.009, -0.991])
def test_two_terms_take_the_circle_mean_within_0_01(mu):
    assert set(predict_order_shift(0.35, mu, 0.6, 1.5, "riemann_q_up").terms) == {"limit"}


@pytest.mark.parametrize("mu", [0.011, -0.011, -1.011, -0.989])
def test_two_terms_add_plainly_past_0_01(mu):
    assert set(predict_order_shift(0.35, mu, 0.6, 1.5, "riemann_q_up").terms) == {"p_term", "hyp3f2_term"}


# one-shot calls -> the most integer tests each may ask; the counts before
# the one test were 3, 19, 5, 7, 10, 47, 7 and 12
_BUDGET = [
    ("2F1 series", lambda: hyp2f1(0.3, 0.7, 1.2, 0.5), 0),
    ("2F1 1-w image", lambda: hyp2f1(0.3, 0.7, 1.2, 0.95), 3),
    ("P", lambda: legendre_p(0.7, 0.4, 1.5), 1),
    ("Q", lambda: legendre_q(0.7, 0.4, 1.5), 0),
    ("Ferrers P", lambda: ferrers_p(0.7, 0.4, 0.3), 3),
    ("Ferrers Q", lambda: ferrers_q(0.7, 0.4, 0.95), 14),
    ("Jacobi", lambda: jacobi_p(2.5, 0.2, 0.1, 0.5), 2),
    ("3F2", lambda: hyp3f2_regularized(0.3, 0.6, -2.0, 1.4, 0.5), 1),
    # w = -0.6: the Pfaff image's series, whose c-b = -1.1 and a = -0.7 are tested
    ("P Pfaff image", lambda: legendre_p(0.7, 0.4, 2.2), 3),
    # w = 0.98: the quadratic image's series at u = 0.75
    ("Q quadratic image", lambda: legendre_q(0.7, 0.4, 1.01), 0),
    # w = -4.5, a-b = 2: the clean Pfaff image, not the +/- i*eps average of
    # the degenerate 1/(1-w) image (46 tests, most in the nudged evaluators)
    ("P clean image", lambda: legendre_p(-1.5, 1.6162893475556097, 9.9499408838679), 9),
    # x = 0.9: the one term in (1-x)/2, whose a = -nu is tested (the pair
    # in x**2 continued by its 1-w images asked 15)
    ("Ferrers P next to one", lambda: ferrers_p(0.7, 0.4, 0.9), 1),
    # |u| = 0.97: the quadratic image's clean 1-u image; its series' c-a-b and
    # a-b are tested, and c-a-b once more as a gamma argument
    ("Q quadratic 1-u image", lambda: legendre_q(0.55, 0.35, 1.0001), 3),
]


@pytest.mark.parametrize("name,call,budget", _BUDGET, ids=[b[0] for b in _BUDGET])
def test_one_shot_calls_keep_their_integer_test_budget(name, call, budget):
    code = complexfn.integer_within.__code__
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(previous)
    assert calls <= budget, (name, calls)
