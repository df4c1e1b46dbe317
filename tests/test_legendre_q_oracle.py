"""Q_nu^mu and its first two derivatives against 30-digit mpmath on the side
served by the 1/z**2 form, at seeded points over nu in [-3, 25]: degrees
at which the near form's two terms would cancel."""

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


@pytest.mark.parametrize("nu,mu,z,side", _points())
def test_q_and_derivatives_match_mpmath_off_the_near_disc(nu, mu, z, side):
    values = [
        legendre_q(nu, mu, z, boundary_side=side),
        legendre_deriv(nu, mu, z, order=1, kind="q", boundary_side=side),
        legendre_deriv(nu, mu, z, order=2, kind="q", boundary_side=side),
    ]
    for order, (val, ref) in enumerate(zip(values, _references(nu, mu, z, side))):
        assert abs(val - ref) <= _TOL * abs(ref), (order, val, ref)
