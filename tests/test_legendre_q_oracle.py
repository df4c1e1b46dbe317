"""Q_nu^mu and its first two derivatives against 30-digit mpmath at seeded
points over nu in [-3, 25], off and on the disc |(1-z)/2| |z|**4 <= 1 next
to z = 1 where a two-term form in (1-z)/2 would cancel, at |z-1| down to
0.001, and inside the unit disc, there for nu up to 80; and at degree 400.5
next to z = 1."""

import cmath
import math
import random

import mpmath
import pytest

from legshift.legendre import legendre_deriv, legendre_q

_TOL = 1e-12


def _points():
    """(nu, mu, z, boundary_side): real z in [1.5, 10], complex z with
    |Im z| <= 3, and both sides of the cut at z in {-1.5, -2, -3.7}.
    Every third degree is a half-integer (nu = -1.5 and -2.5 put the 1/z**2
    series at c = nu + 3/2 = -m) and every second order an integer."""
    rng = random.Random(20241018)
    cut = [(-1.5, "+"), (-1.5, "-"), (-2.0, "+"), (-2.0, "-"), (-3.7, "+"), (-3.7, "-")]
    points = []
    for k in range(24):
        nu = rng.randint(-3, 24) + 0.5 if k % 3 == 0 else rng.uniform(-3.0, 25.0)
        mu = float(rng.randint(-2, 2)) if k % 2 == 0 else rng.uniform(-2.0, 2.0)
        if k < 12:
            z, side = rng.uniform(1.5, 10.0), None
        elif k < 18:
            z, side = complex(rng.uniform(1.5, 10.0), rng.uniform(-3.0, 3.0)), None
        else:
            z, side = cut[k - 18]
        points.append((nu, mu, z, side))
    points += [(-1.5, 0.3, 2.6, None), (-2.5, 1.0, 1.8 - 0.7j, None), (-2.5, -0.4, -2.0, "-")]
    return points


def _references(nu, mu, z, side):
    """[Q, Q', Q''] from mpmath values alone: Q' by DLMF 14.10.6,
    (z**2-1) Q' = (nu-mu+1) Q_{nu+1} - (nu+1) z Q, and Q'' by Legendre's
    equation (numerical differentiation is slow at the degenerate nu)."""
    with mpmath.workdps(30):
        if side is not None:
            z = mpmath.mpc(z, 1e-40 if side == "+" else -1e-40)
        z = mpmath.mpmathify(z)
        q = mpmath.legenq(nu, mu, z, type=3)
        q_up = mpmath.legenq(nu + 1, mu, z, type=3)
        d1 = ((nu - mu + 1) * q_up - (nu + 1) * z * q) / (z * z - 1)
        d2 = (2 * z * d1 - (nu * (nu + 1) - mu * mu / (1 - z * z)) * q) / (1 - z * z)
        return [complex(q), complex(d1), complex(d2)]


def _near_points():
    """(nu, mu, z, boundary_side): 18 points of the disc above with
    Re z > 1 and |z-1| >= 0.05, in turn at integer, near-integer (1e-8 to
    1e-4 off) and other mu; then, for nu in [-3, 5], 6 points with
    |z| < 0.95 and |Im z| >= 0.05 and 6 on both sides of (-0.95, 0.95);
    6 points inside the unit disc for nu in (12, 80]; 6 with
    |z-1| in (0.001, 0.016) at integer mu; and three single points next to
    z = 1, at degrees 60.5 and 400.5 and at mu = 1e-9."""
    rng = random.Random(20261018)
    points = []
    for k in range(30):
        if k < 18:
            nu, mu = rng.uniform(-3.0, 25.0), float(rng.randint(-2, 2))
            if k % 3 == 1:
                mu += rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -4.0)
            elif k % 3 == 2:
                mu = rng.uniform(-2.0, 2.0)
            z, side = 1.0, None
            while abs(z - 1.0) < 0.05 or abs(1.0 - z) / 2.0 * abs(z) ** 4 > 1.0:
                z = complex(rng.uniform(1.0, 1.46), rng.uniform(-0.6, 0.6))
        else:
            nu, mu = rng.uniform(-3.0, 5.0), rng.uniform(-2.0, 2.0)
            if k < 24:
                z, side = 1.0, None
                while abs(z) >= 0.95 or abs(z.imag) < 0.05:
                    z = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            else:
                z, side = rng.uniform(-0.95, 0.95), "+-"[k % 2]
        points.append((nu, mu, z, side))
    for _ in range(6):
        z = 1.0
        while abs(z) >= 0.95 or abs(z.imag) < 0.05:
            z = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
        points.append((rng.uniform(12.0, 80.0), rng.uniform(-2.0, 2.0), z, None))
    for _ in range(6):
        d = cmath.rect(10.0 ** rng.uniform(-3.0, math.log10(0.016)), rng.uniform(-1.5, 1.5))
        points.append((rng.uniform(-3.0, 25.0), float(rng.randint(-2, 2)), 1.0 + d, None))
    points += [(60.5, 0.2, 1.01, None), (400.5, 0.2, 1.01, None), (0.55, 1e-9, 1.001, None)]
    return points


def _near_tolerance(z, side):
    """Measured over 20 seeds of _near_points, with a margin: worst 1.1e-14
    on the disc next to z = 1; 6.6e-13 inside the unit disc and 6.2e-13 at
    |z-1| < 0.016 (both for a derivative); 6.3e-11 on the cut, for Q'' next
    to x = 0, where the product rule of the 1/z**2 map cancels."""
    if side is not None:
        return 1e-10
    if abs(z) < 1.0 or abs(z - 1.0) < 0.05:
        return 5e-12
    return 1e-13


@pytest.mark.parametrize("nu,mu,z,side", _near_points())
def test_q_and_derivatives_match_mpmath_near_one_and_inside_the_unit_disc(nu, mu, z, side):
    tol = _near_tolerance(z, side)
    values = [
        legendre_q(nu, mu, z, boundary_side=side),
        legendre_deriv(nu, mu, z, order=1, kind="q", boundary_side=side),
        legendre_deriv(nu, mu, z, order=2, kind="q", boundary_side=side),
    ]
    for order, (val, ref) in enumerate(zip(values, _references(nu, mu, z, side))):
        assert abs(val - ref) <= tol * abs(ref), (order, val, ref)


@pytest.mark.parametrize("nu,mu,z,side", _points())
def test_q_and_derivatives_match_mpmath_off_the_near_disc(nu, mu, z, side):
    values = [
        legendre_q(nu, mu, z, boundary_side=side),
        legendre_deriv(nu, mu, z, order=1, kind="q", boundary_side=side),
        legendre_deriv(nu, mu, z, order=2, kind="q", boundary_side=side),
    ]
    for order, (val, ref) in enumerate(zip(values, _references(nu, mu, z, side))):
        assert abs(val - ref) <= _TOL * abs(ref), (order, val, ref)


def test_q_next_to_one_at_non_integer_two_mu_is_within_1e_13():
    # u = (z - sqrt(z**2-1))**2 is past its series' reach at z - 1 = 1e-6,
    # so the series in 1/z**2 is continued, its 1 - w taken as
    # (z-1)(z+1)/z**2 (formed from 1/z**2 it was 1.3e-11 off)
    ref = _references(0.3, 0.4, 1.000001, None)[0]
    assert abs(legendre_q(0.3, 0.4, 1.000001) - ref) <= 1e-13 * abs(ref)
