"""Ferrers P and Q and their first two derivatives against 30-digit mpmath
(``legenp``/``legenq`` with type=2) at seeded points over nu in (-3, 25] and
x in (-0.98, 0.98), at integer, near-integer, real and complex orders; and
Ferrers P over x in [0, 0.999), where its one term in (1-x)/2 serves.

The error metric is the relative error of each of F, F', F''.  Near a zero
of an oscillating function that metric measures the zero, not the
evaluation, so such points are left out (``_near_a_zero``)."""

import math
import random

import mpmath
import pytest

from legshift.legendre import ferrers_p, ferrers_q, legendre_deriv


def _references(kind, nu, mu, x):
    """[F, F', F''] from mpmath values alone: F' by DLMF 14.10.5,
    (1-x**2) F' = (nu+1) x F - (nu-mu+1) F_{nu+1}, and F'' by Legendre's
    equation."""
    with mpmath.workdps(30):
        nu, mu, x = mpmath.mpmathify(nu), mpmath.mpmathify(mu), mpmath.mpf(x)
        f = mpmath.legenp if kind == "ferrers_p" else mpmath.legenq
        v = f(nu, mu, x, type=2)
        d1 = ((nu + 1) * x * v - (nu - mu + 1) * f(nu + 1, mu, x, type=2)) / (1 - x * x)
        d2 = (2 * x * d1 - (nu * (nu + 1) - mu * mu / (1 - x * x)) * v) / (1 - x * x)
        return [complex(v), complex(d1), complex(d2)]


def _near_a_zero(nu, x, refs):
    """True when F, F' or F'' is below 1/100 of its local envelope.

    Each oscillates like A cos(theta) with d theta/dx ~ k/sqrt(1-x**2),
    k**2 = |nu+1/2|**2 + 1, so A ~ sqrt(|F|**2 + (1-x**2) |F'|**2 / k**2),
    and likewise for F' from (F', F'').  Below A/100 the point lies within
    about 1/300 of a zero spacing of a zero; a few percent of draws do."""
    f0, f1, f2 = (abs(v) for v in refs)
    k2 = abs(nu + 0.5) ** 2 + 1.0
    a0 = math.sqrt(f0 * f0 + (1.0 - x * x) * f1 * f1 / k2)
    a1 = math.sqrt(f1 * f1 + (1.0 - x * x) * f2 * f2 / k2)
    return f0 < 0.01 * a0 or f1 < 0.01 * a1 or f2 < 0.01 * a1 * math.sqrt(k2 / (1.0 - x * x))


def _near_a_pole(nu, mu):
    """Ferrers Q has poles where nu+mu+1 is in {0, -1, ...}; the reference
    also needs degree nu+1."""
    s = complex(nu + mu + 1.0)
    return abs(s.imag) < 1e-3 and s.real < 0.5 and abs(s.real - round(s.real)) < 1e-3


def _points():
    """(kind, nu, mu, x, references): kinds alternate, and the order cycles
    through integer, 1e-8 off an integer, real in (-2, 2), and complex
    (then Re nu <= 8, |Im nu|, |Im mu| <= 1)."""
    rng = random.Random(20261019)
    points = []
    k = 0
    while len(points) < 72:
        kind = ("ferrers_p", "ferrers_q")[k % 2]
        case = (k // 2) % 4
        k += 1
        nu = rng.uniform(-3.0, 25.0)
        if case == 0:
            mu = float(rng.randint(-2, 2))
        elif case == 1:
            mu = rng.randint(-2, 2) + rng.choice((-1e-8, 1e-8))
        elif case == 2:
            mu = rng.uniform(-2.0, 2.0)
        else:
            nu = complex(rng.uniform(-3.0, 8.0), rng.uniform(-1.0, 1.0))
            mu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
        x = rng.uniform(-0.98, 0.98)
        if _near_a_pole(nu, mu):
            continue
        refs = _references(kind, nu, mu, x)
        if not _near_a_zero(nu, x, refs):
            points.append((kind, nu, mu, x, refs))
    return points


def _tolerance(nu, mu, x):
    """Measured over eight seeds of 64 draws, with a margin.

    For |x| <= 0.89 (x**2 <= 0.8) the two series in x**2 are summed
    directly; their terms cancel more as the degree grows: worst 4.4e-13 for
    Re nu <= 5, 1.2e-12 to 12, 3.1e-9 to 25.  Beyond, 2F1 continues them by
    its 1-w image: 1.3e-12, except at integer mu, where c-a-b = -mu is an
    integer and ``hyper`` averages mu +/- i*eps, and 1e-8 off one, where the
    image's gamma ratios cancel: worst 1.7e-6."""
    if abs(x) > 0.89:
        mu = complex(mu)
        near_integer = abs(mu.imag) < 1e-6 and abs(mu.real - round(mu.real)) < 1e-6
        return 1e-5 if near_integer else 1e-11
    re_nu = complex(nu).real
    return 5e-12 if re_nu <= 5.0 else (1e-11 if re_nu <= 12.0 else 2e-8)


@pytest.mark.parametrize("kind,nu,mu,x,refs", _points())
def test_ferrers_and_derivatives_match_mpmath(kind, nu, mu, x, refs):
    tol = _tolerance(nu, mu, x)
    fn = ferrers_p if kind == "ferrers_p" else ferrers_q
    values = [fn(nu, mu, x), legendre_deriv(nu, mu, x, 1, kind), legendre_deriv(nu, mu, x, 2, kind)]
    for order, (val, ref) in enumerate(zip(values, refs)):
        assert abs(val - ref) <= tol * abs(ref), (order, val, ref)


def _p_box():
    """(nu, mu, x, references) for Ferrers P: 24 draws with nu in (-3, 5]
    and 24 with nu in (5, 12], x in [0, 0.999) and mu an integer in [-2, 2]
    or uniform in (-2, 2) with equal odds."""
    rng = random.Random(20261020)
    points = []
    for lo, hi in ((-3.0, 5.0), (5.0, 12.0)):
        drawn = 0
        while drawn < 24:
            nu = rng.uniform(lo, hi)
            mu = float(rng.randint(-2, 2)) if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
            x = rng.uniform(0.0, 0.999)
            refs = _references("ferrers_p", nu, mu, x)
            if not _near_a_zero(nu, x, refs):
                points.append((nu, mu, x, refs))
                drawn += 1
    return points


@pytest.mark.parametrize("nu,mu,x,refs", _p_box())
def test_ferrers_p_and_derivatives_on_the_right_match_mpmath(nu, mu, x, refs):
    # measured over six seeds of 100 draws per degree range: worst 1.2e-13
    # for nu <= 5 (F''), 6.2e-13 for nu <= 12 (F, at x ~ 0.75, where the
    # pair in x**2 gives way to the one term in (1-x)/2).  The pair alone,
    # continued past x**2 = 0.8, was 3.2e-9 (F'' 2e-6) and 5.2e-11 off.
    tol = 1e-12 if nu <= 5.0 else 3e-12
    values = [ferrers_p(nu, mu, x)] + [legendre_deriv(nu, mu, x, k, "ferrers_p") for k in (1, 2)]
    for order, (val, ref) in enumerate(zip(values, refs)):
        assert abs(val - ref) <= tol * abs(ref), (order, val, ref)


# next to x = 1 at integer order: the pair's 1-w image is degenerate there,
# and its mu +/- i*eps average was 6.7e-6, 6.6e-8, 4.4e-8 and 4.9e-8 off,
# the derivatives of the last point 2.1e-7 and 1.4e-5
@pytest.mark.parametrize(
    "nu,mu,x,orders",
    [
        (0.7, -3.0, 0.99, (0,)),
        (0.4, -3.0, 0.95, (0,)),
        (-1.173, 2.0, 0.979, (0,)),
        (-0.6365, -3.0, 0.9387, (0,)),
        (0.47850365662928285, 2.0, 0.9934286916635215, (1, 2)),
    ],
)
def test_ferrers_p_at_integer_order_next_to_one_is_within_1e_13(nu, mu, x, orders):
    refs = _references("ferrers_p", nu, mu, x)
    for order in orders:
        val = legendre_deriv(nu, mu, x, order, "ferrers_p") if order else ferrers_p(nu, mu, x)
        assert abs(val - refs[order]) <= 1e-13 * abs(refs[order]), (order, val, refs[order])
