"""Closed-form shift predictions, integer recurrences, Rodrigues pair."""

import cmath
import math
import random

import mpmath
import pytest

from legshift.complexfn import cpow, gamma, zsq_minus_one_pow
from legshift.errors import DomainError, NumericalError, PoleError
from legshift.legendre import ferrers_p, legendre_p, legendre_q
from legshift.shifts import (
    Prediction,
    apply_integer_recurrence,
    hyp3f2_family,
    predict_degree_shift,
    predict_ferrers_shift,
    predict_order_shift,
    _weighted,
    rodrigues_pair,
)
from legshift.verify import get_identity


def test_prediction_valid_property():
    ok = Prediction(1.0 + 0j, {}, (("a", True), ("b", True)))
    bad = Prediction(1.0 + 0j, {}, (("a", True), ("b", False)))
    assert ok.valid and not bad.valid
    assert Prediction(0j).valid  # vacuous


def test_unknown_variants_raise():
    with pytest.raises(DomainError):
        predict_order_shift(0.6, 0.3, 0.7, 2.0, "nope")
    with pytest.raises(DomainError):
        predict_degree_shift(0.6, 0.3, 0.7, 2.0, "nope")
    with pytest.raises(DomainError):
        predict_ferrers_shift(0.6, 0.3, 0.7, 0.4, "nope")


def test_hyp3f2_family_vs_mpmath_both_regimes():
    # the family is 3F2 / (Gamma(b1) Gamma(b2)); at lam = n its first n terms
    # vanish and it is (a1)_n (a2)_n w**n 2F1(a1+n, a2+n; b1+n; w) / Gamma(b1+n)
    nu, mu = 0.6, 0.3
    a1, a2, b1 = nu - mu + 1.0, -nu - mu, 1.0 - mu
    for lam in (0.7, 1.0, 2.0):
        for z in (2.6, 3.4, 3.0 + 1.0j):  # series regime and continued regime
            w = (1.0 - z) / 2.0
            if lam == round(lam):
                n = round(lam)
                ref = (
                    mpmath.rf(a1, n) * mpmath.rf(a2, n) * mpmath.mpc(w) ** n
                    * mpmath.hyp2f1(a1 + n, a2 + n, b1 + n, w) * mpmath.rgamma(b1 + n)
                )
            else:
                b2 = 1.0 - lam
                ref = mpmath.hyp3f2(a1, a2, 1.0, b1, b2, w) * mpmath.rgamma(b1) * mpmath.rgamma(b2)
            ref = complex(ref)
            val = hyp3f2_family(nu, mu, lam, z)
            assert abs(val - ref) <= 1e-13 * abs(ref), (lam, z)


def test_hyp3f2_family_terminating_past_the_disc():
    # -nu-mu = -1 ends the sum, while Gamma(-nu-mu) has a pole
    nu, mu, lam, z = 0.8, 0.2, 0.6, -1.5 + 0.5j
    a1, a2, b1, b2 = nu - mu + 1.0, -nu - mu, 1.0 - mu, 1.0 - lam
    w = (1.0 - z) / 2.0
    with mpmath.workdps(30):
        ref = complex(mpmath.hyp3f2(a1, a2, 1, b1, b2, w) * mpmath.rgamma(b1) * mpmath.rgamma(b2))
    assert abs(hyp3f2_family(nu, mu, lam, z) - ref) <= 1e-13 * abs(ref)


def test_degree_shifts_refuse_unit_argument():
    # y/sqrt(y**2-1) has no value at y = +/-1, and off Re y > 0 or on (0, 1]
    # it is not the argument of the Whipple image the closed forms take
    variants = ("k3_up_p", "k3_up_q", "k3_riemann_q", "p3_down_p", "p3_riemann_q")
    for y in (1.0, -1.0, 0.5, -2.0 + 0.5j):
        for variant in variants:
            with pytest.raises(DomainError):
                predict_degree_shift(0.35, 0.15, 0.55, y, variant)
        with pytest.raises(DomainError):
            apply_integer_recurrence("P3", 0.35, 0.15, y)


def test_conditions_name_failing_predicate():
    pred = predict_order_shift(0.6, 0.3, -0.5, 2.0, "weyl_q_down")
    assert not pred.valid
    failing = [d for d, ok in pred.conditions if not ok]
    assert failing == ["Re lam > 0"]


def test_weyl_p_up_integer_order_drops_q_term():
    # sin(pi lam) = 0 kills the Q term and the relation becomes the
    # two-step raising recurrence
    nu, mu, z = 0.6, 0.3, 2.0
    pred = predict_order_shift(nu, mu, 2.0, z, "weyl_p_up")
    assert pred.terms["q_term"] == 0.0
    rec = apply_integer_recurrence("MPLUS", nu, mu, z, n=2, kind="p")
    assert abs(pred.value - rec.value) <= 1e-12 * abs(rec.value)


def test_weyl_p_up_at_integer_nu_minus_mu_minus_lam():
    # sin(pi(nu-mu-lam)) = 0 divides both terms; their poles cancel and the
    # value is the circle mean in lam, continuous across the integer
    nu, mu, z = 0.35, 0.15, 1.6
    at = predict_order_shift(nu, mu, 1.2, z, "weyl_p_up").value
    below, above = (
        predict_order_shift(nu, mu, 1.2 + d, z, "weyl_p_up").value for d in (-0.0101, 0.0101)
    )
    assert abs((below + above) / 2 - at) <= 1e-4 * abs(at)
    # where Q_nu^(mu+lam) has its pole as well, nothing cancels it
    with pytest.raises(PoleError):
        predict_order_shift(-0.5, 0.25, -0.75, 2.0, "weyl_p_up")


def test_weyl_p_up_is_real_at_real_arguments():
    # the Q term is Olver's Q times Gamma(nu+mu+lam+1), with no phase
    # exp(i pi (mu+lam)) left to meet its inverse in rounding.  The seeded
    # points keep nu-mu-lam over 0.01 from an integer: inside that band the
    # value is a Cauchy mean over complex lam, not the two real terms
    points = [tuple(p.values()) for p in get_identity("WEYL_MPLUS_P").default_grid]
    rng = random.Random(21)
    while len(points) < 20:
        nu, mu, lam, z = rng.uniform(-0.4, 2.5), rng.uniform(-1.5, 1.5), rng.uniform(0.1, 3.0), rng.uniform(1.05, 4.0)
        if abs(nu - mu - lam - round(nu - mu - lam)) > 0.011:
            points.append((nu, mu, lam, z))
    for nu, mu, lam, z in points:
        assert predict_order_shift(nu, mu, lam, z, "weyl_p_up").value.imag == 0.0, (nu, mu, lam, z)


def test_circle_means_are_real_at_real_arguments():
    # next to an integer the two-term forms are a mean over a circle of
    # complex points; at real arguments it has no imaginary rounding left
    # (these three read -1.2e-16i, -6.4e-17i and -4.7e-16i before)
    preds = [
        predict_order_shift(1.043277576725731, -0.5077889813942142, 0.5452304671267133,
                            2.7782641067888463, "weyl_p_up"),
        predict_ferrers_shift(0.35, 0.004, 0.6, 0.3, "lplus_q"),
        predict_order_shift(0.35, 0.0, 0.6, 1.5, "riemann_q_up"),
    ]
    rng = random.Random(22)
    for _ in range(20):
        nu, mu, z, x = rng.uniform(-0.4, 2.5), rng.uniform(-1.5, 1.5), rng.uniform(1.05, 2.9), rng.uniform(-0.9, 0.9)
        # nu-mu-lam within 0.01 of an integer; mu within 0.01 of one, or on it
        lam = nu - mu - round(nu - mu) + rng.randint(1, 2) + rng.uniform(-0.01, 0.01)
        preds.append(predict_order_shift(nu, mu, lam, z, "weyl_p_up"))
        m = rng.randint(-1, 0) + rng.choice((0.0, rng.uniform(-0.01, 0.01)))
        preds.append(predict_ferrers_shift(nu, m, lam, x, "lplus_q"))
        preds.append(predict_order_shift(nu, float(round(m)), lam, z, "riemann_q_up"))
    for pred in preds:
        assert set(pred.terms) == {"limit"}
        assert pred.value.imag == 0.0, pred.value


def test_weyl_minus_coefficient_semigroup():
    # c(nu, mu, l1) c(nu, mu-l1, l2) = c(nu, mu, l1+l2)
    def c(nu, mu, lam):
        return (
            gamma(nu + mu + 1.0)
            * gamma(nu - mu + lam + 1.0)
            / (gamma(nu + mu - lam + 1.0) * gamma(nu - mu + 1.0))
        )

    nu, mu = 0.8 + 0.2j, 0.3
    for l1, l2 in ((0.4, 0.9), (1.2, -0.3)):
        lhs = c(nu, mu, l1) * c(nu, mu - l1, l2)
        rhs = c(nu, mu, l1 + l2)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_riemann_p_down_near_reduces_at_lam_zero():
    nu, mu, z = 0.7, 0.4, 2.3
    pred = predict_order_shift(nu, mu, 0.0, z, "riemann_p_down_near")
    ref = zsq_minus_one_pow(z, mu / 2.0) * legendre_p(nu, mu, z)
    assert abs(pred.value - ref) <= 1e-12 * abs(ref)


def test_riemann_p_down_near_far_overlap():
    # both closed forms are analytic near z = 6 and must agree
    nu, mu, lam = 0.7, 0.4, 0.6
    a = predict_order_shift(nu, mu, lam, 6.0, "riemann_p_down_near").value
    b = predict_order_shift(nu, mu, lam, 6.0, "riemann_p_down_far").value
    assert abs(a - b) <= 1e-13 * abs(a)


def test_ferrers_lminus_reduces_at_lam_zero():
    nu, mu, x = 0.7, 0.4, 0.35
    pred = predict_ferrers_shift(nu, mu, 0.0, x, "lminus_p")
    ref = cpow(1.0 - x, mu / 2.0) * cpow(1.0 + x, mu / 2.0) * ferrers_p(nu, mu, x)
    assert abs(pred.value - ref) <= 1e-12 * abs(ref)


def test_k3_riemann_q_reduces_at_lam_zero():
    nu, mu, y = 0.7, 0.4, 1.9
    pred = predict_degree_shift(nu, mu, 0.0, y, "k3_riemann_q")
    ref = zsq_minus_one_pow(y, -(nu + 1.0) / 2.0) * legendre_q(
        nu, mu, y / math.sqrt(y * y - 1.0)
    )
    assert abs(pred.value - ref) <= 1e-12 * abs(ref)


def test_k3_up_q_integer_matches_recurrence():
    nu, mu, y = 0.7, 0.4, 1.9
    pred = predict_degree_shift(nu, mu, 1.0, y, "k3_up_q")
    rec = apply_integer_recurrence("K3", nu, mu, y, n=1, kind="q")
    assert abs(pred.value - rec.value) <= 1e-12 * abs(rec.value)


# single derivative of each weighted form vs its one-step recurrence;
# signs: the hyperbolic operators advance with +d/dz, the Ferrers raising
# operator with -d/dx, Ferrers lowering with +d/dx
_RECURRENCE_CASES = [
    ("MPLUS", +1.0, lambda nu, mu, t: zsq_minus_one_pow(t, -mu / 2.0) * legendre_p(nu, mu, t), 2.3),
    ("MMINUS", +1.0, lambda nu, mu, t: zsq_minus_one_pow(t, mu / 2.0) * legendre_p(nu, mu, t), 2.3),
    ("K3", +1.0, lambda nu, mu, t: zsq_minus_one_pow(t, -(nu + 1.0) / 2.0) * legendre_q(nu, mu, t / cmath.sqrt(t * t - 1.0)), 2.3),
    ("P3", +1.0, lambda nu, mu, t: zsq_minus_one_pow(t, nu / 2.0) * legendre_q(nu, mu, t / cmath.sqrt(t * t - 1.0)), 2.3),
    ("LPLUS", -1.0, lambda nu, mu, t: cpow(1.0 - t, -mu / 2.0) * cpow(1.0 + t, -mu / 2.0) * ferrers_p(nu, mu, t), 0.35),
    ("LMINUS", +1.0, lambda nu, mu, t: cpow(1.0 - t, mu / 2.0) * cpow(1.0 + t, mu / 2.0) * ferrers_p(nu, mu, t), 0.35),
]


@pytest.mark.parametrize("op_id,sign,weighted,z", _RECURRENCE_CASES)
def test_recurrence_matches_finite_difference(op_id, sign, weighted, z):
    nu, mu = 0.7, 0.4
    h = 1e-6
    kind = "p" if op_id in ("MPLUS", "MMINUS") else "q"
    fd = sign * (weighted(nu, mu, z + h) - weighted(nu, mu, z - h)) / (2.0 * h)
    rec = apply_integer_recurrence(op_id, nu, mu, z, n=1, kind=kind)
    assert abs(fd - rec.value) <= 1e-6 * abs(rec.value)


def test_recurrence_zero_steps_is_identity():
    nu, mu, z = 0.7, 0.4, 2.3
    rec = apply_integer_recurrence("MPLUS", nu, mu, z, n=0, kind="p")
    ref = zsq_minus_one_pow(z, -mu / 2.0) * legendre_p(nu, mu, z)
    assert abs(rec.value - ref) <= 1e-13 * abs(ref)


def test_recurrence_rejects_bad_input():
    with pytest.raises(DomainError):
        apply_integer_recurrence("XPLUS", 0.7, 0.4, 2.3)
    with pytest.raises(DomainError):
        apply_integer_recurrence("MPLUS", 0.7, 0.4, 2.3, n=-1)
    with pytest.raises(DomainError):
        apply_integer_recurrence("MPLUS", 0.7, 0.4, 2.3, n=1.5)
    with pytest.raises(DomainError):
        apply_integer_recurrence("MPLUS", 0.7, 0.4, 2.3, kind="r")
    for op_id in ("LPLUS", "LMINUS"):  # Ferrers operators take a real x
        with pytest.raises(DomainError):
            apply_integer_recurrence(op_id, 0.7, 0.4, 0.3 + 0.4j)


def test_rodrigues_pair_derivative_link():
    # weighted = (-d/dz) primitive at one fold (integer degree 1)
    alpha, beta, z = 0.3, -0.2, 0.7
    h = 1e-6
    w, _p = rodrigues_pair(1, alpha, beta, z)
    fd = -(
        rodrigues_pair(1, alpha, beta, z + h)[1]
        - rodrigues_pair(1, alpha, beta, z - h)[1]
    ) / (2.0 * h)
    assert abs(fd - w) <= 1e-7 * abs(w)


def _weighted_jacobi_points():
    """60 seeded (nu, alpha, beta, v, vc): a third at an integer degree (the
    degree recurrence), a third at alpha + 1 in {0, -1} (the limit of
    ``hyper._c_limit``), and half next to v = 1 with an exact vc = 1 - v."""
    rng = random.Random(26)
    points = []
    for i in range(60):
        nu, alpha, beta = rng.uniform(-0.9, 6.0), rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 2.0)
        if i % 3 == 0:
            nu = float(rng.randint(0, 8))
        elif i % 3 == 1:
            alpha = rng.choice((-1.0, -2.0))
        if i % 2:
            vc = 10.0 ** rng.uniform(-10.0, -2.0)
            points.append((nu, alpha, beta, 1.0 - vc, vc))
        else:
            points.append((nu, alpha, beta, rng.uniform(-0.95, 0.95), None))
    return points


@pytest.mark.parametrize("nu,alpha,beta,v,vc", _weighted_jacobi_points())
def test_weighted_jacobi_is_weight_times_jacobi(nu, alpha, beta, v, vc):
    # the Rodrigues integrand: Jacobi's term list, or its degree recurrence,
    # with (1-v)**alpha (1+v)**beta in its exponents; at alpha + 1 = 1-n the
    # reference is the limit, alpha taken 1e-30 off the integer
    with mpmath.workdps(60):
        x = 1 - mpmath.mpf(vc) if vc is not None else mpmath.mpf(v)
        a = alpha + mpmath.mpf("1e-30") if alpha in (-1.0, -2.0) else mpmath.mpf(alpha)
        jacobi = (
            mpmath.gamma(nu + a + 1) / mpmath.gamma(nu + 1) * mpmath.rgamma(a + 1)
            * mpmath.hyp2f1(-nu, nu + a + beta + 1, a + 1, (1 - x) / 2)
        )
        ref = complex((1 - x) ** alpha * (1 + x) ** beta * jacobi)
    value = _weighted("rodrigues", "jacobi", nu, (alpha, beta)).terms(v, vc)
    assert abs(value - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize(
    "predict,variant,zs",
    [
        (predict_order_shift, "riemann_q_up", (1.5, 2.9)),
        (predict_order_shift, "riemann_p_down_near", (1.6, 4.0, 3.0 + 1.0j)),
        (predict_order_shift, "riemann_p_down_far", (4.0, 6.0)),
        (predict_degree_shift, "k3_riemann_q", (1.6, 4.0)),
        (predict_ferrers_shift, "lplus_q", (0.25, -0.9)),
        (predict_ferrers_shift, "lminus_p", (0.25, -0.9)),
    ],
)
def test_3f2_closed_forms_at_integer_order_raise_only_library_errors(predict, variant, zs):
    # integer lam or mu, and nu = mu or half-integer nu where the far form's
    # denominators vanish, and nu+mu+1 = 0 at integer mu: a value, an invalid
    # prediction or a legshift error
    points = [(0.35, 0.15, lam) for lam in (1.0, 2.0, 3.0)]
    points += [(nu, mu, 0.7) for nu in (0.35, 0.5, 2.0) for mu in (1.0, 2.0)]
    points += [(-1.0, 0.0, 0.7), (-2.0, 1.0, 0.7)]
    for nu, mu, lam in points:
        for z in zs:
            try:
                pred = predict(nu, mu, lam, z, variant)
            except (DomainError, NumericalError):
                continue
            assert not pred.valid or cmath.isfinite(pred.value), (nu, mu, lam, z)


def _mp_weighted(op_id, kind, nu, mu, t):
    """The weighted function each recurrence differentiates (see the
    ``shifts`` module docstring), from mpmath alone."""
    if op_id in ("LPLUS", "LMINUS"):
        s = -mu / 2 if op_id == "LPLUS" else mu / 2
        return (1 - t * t) ** s * mpmath.legenp(nu, mu, t, type=2)
    fn = mpmath.legenp if kind == "p" else mpmath.legenq
    if op_id in ("MPLUS", "MMINUS"):
        s = -mu / 2 if op_id == "MPLUS" else mu / 2
        return (t * t - 1) ** s * fn(nu, mu, t, type=3)
    s = -(nu + 1) / 2 if op_id == "K3" else nu / 2
    return (t * t - 1) ** s * fn(nu, mu, t / mpmath.sqrt(t * t - 1), type=3)


@pytest.mark.parametrize(
    "op_id,kind",
    [(op, k) for op in ("MPLUS", "MMINUS", "P3", "K3") for k in "pq"]
    + [("LPLUS", "p"), ("LMINUS", "p")],
)
def test_integer_recurrence_matches_mpmath_derivative(op_id, kind):
    # the n-th derivative, (-d/dx)**n for LPLUS, against 30-digit
    # mpmath.diff of the weighted function
    sign = -1 if op_id == "LPLUS" else 1
    zs = (-0.7, -0.2, 0.35, 0.85) if op_id.startswith("L") else (1.3, 1.8, 2.5, 3.7)
    points = zip(((0.6, 0.25), (1.3, -0.4), (2.2, 0.7), (-0.3, 0.45)), zs)
    with mpmath.workdps(30):
        for (nu, mu), z in points:
            f = lambda t: _mp_weighted(op_id, kind, mpmath.mpf(nu), mpmath.mpf(mu), t)
            for n in (1, 2, 3):
                ref = sign**n * complex(mpmath.diff(f, mpmath.mpf(z), n))
                rec = apply_integer_recurrence(op_id, nu, mu, z, n=n, kind=kind).value
                assert abs(rec - ref) <= 1e-12 * abs(ref), (nu, mu, z, n)
