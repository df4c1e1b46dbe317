"""Seeded inputs and the mpmath oracle for the benchmark workloads.

Every generator takes a ``random.Random`` built from the run's seed, so the
same seed gives the same inputs.  The program under test only ever sees the
generated arguments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath

ORACLE_DPS = 20
# relative distance from the oracle above which a returned value is wrong
REL_TOL = 1e-9
# a miss this large is a gross error rather than the accuracy being measured;
# it is verify_identity's default pass tolerance
GATE_REL_TOL = 1e-6

# (module, function) of every call the eval_scatter stream makes
SCATTER_FUNCTIONS = (
    ("legendre", "legendre_p"),
    ("legendre", "legendre_q"),
    ("legendre", "ferrers_p"),
    ("legendre", "ferrers_q"),
    ("legendre", "jacobi_p"),
    ("legendre", "legendre_deriv"),
    ("hyper", "hyp2f1"),
)

# the continuation radii of legshift.hyper at the time this benchmark was
# written; kept here so that a change to them does not move the bins
_SERIES_RADIUS = 0.80
_IMAGE_RADIUS = 0.92


@dataclass(frozen=True)
class Call:
    """One call into legshift: ``module.fn(*args, **kwargs)``."""

    module: str
    fn: str
    args: tuple
    kwargs: tuple = ()  # of (name, value)
    region: str = ""  # hyp2f1 only: series / image / ode


# --- catalog -----------------------------------------------------------------


def _param_key(point):
    return tuple(
        (complex(point[k]).real, complex(point[k]).imag) for k in ("nu", "mu", "lam", "z")
    )


def catalog_points(entries, rng):
    """(identity id, point) for every default-grid point.

    Identities run in a seeded order; the points of one identity keep the
    order ``verify_grid`` uses.
    """
    entries = list(entries)
    rng.shuffle(entries)
    return [(e.id, p) for e in entries for p in sorted(e.default_grid, key=_param_key)]


# --- eval_scatter ------------------------------------------------------------


def _nu_mu(rng, j, integer_mu_values):
    """(nu, mu) for the j-th point of one function: every fourth is degenerate
    (integer order, or 2nu+2 a nonpositive integer) so the +/- i*eps path runs."""
    nu = rng.uniform(-3.0, 25.0)
    mu = rng.uniform(-2.0, 2.0)
    if j % 4 == 0:
        if integer_mu_values and j % 8 == 0:
            mu = float(rng.choice(integer_mu_values))
        else:
            nu = rng.choice((-1.0, -1.5, -2.0, -2.5, -3.0))
    return nu, mu


def _z(rng):
    """z in (1, 10], real or complex off the cut with equal odds."""
    x = 10.0 - 9.0 * rng.random()
    if rng.random() < 0.5:
        return x
    return complex(x, rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 3.0))


def _x(rng):
    x = rng.uniform(-1.0, 1.0)
    return x if -1.0 < x < 1.0 else 0.0


def hyp2f1_region(w) -> str:
    """Which continuation of 2F1 a direct call at w lands in, by geometry."""
    if abs(w) <= _SERIES_RADIUS:
        return "series"
    images = (abs(w / (w - 1.0)), abs(1.0 - w), abs(1.0 / w), abs(1.0 - 1.0 / w), abs(1.0 / (1.0 - w)))
    return "image" if min(images) <= _IMAGE_RADIUS else "ode"


def _hyp2f1_call(rng, j):
    a = rng.uniform(-3.0, 3.0)
    b = rng.uniform(-3.0, 3.0)
    c = rng.uniform(-2.5, 4.0)
    if c < 0.5 and abs(c - round(c)) < 0.1:
        c += 0.25
    kind = ("series", "image", "ode")[j % 3]
    if kind == "series":
        w = cmath.rect(_SERIES_RADIUS * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
    elif kind == "image":
        while True:
            w = cmath.rect(rng.uniform(0.81, 6.0), rng.uniform(-math.pi, math.pi))
            if hyp2f1_region(w) == "image" and abs(w.imag) > 1e-3:
                break
    else:
        centre = cmath.exp(rng.choice((1, -1)) * 1j * math.pi / 3.0)
        w = centre + cmath.rect(0.05 * rng.random(), rng.uniform(-math.pi, math.pi))
    return Call("hyper", "hyp2f1", (a, b, c, w), region=hyp2f1_region(w))


def scatter_call(rng, module, fn, j) -> Call:
    """The j-th eval_scatter call of ``module.fn``."""
    if fn == "hyp2f1":
        return _hyp2f1_call(rng, j)
    if fn == "jacobi_p":
        nu = rng.uniform(-3.0, 25.0)
        return Call(module, fn, (nu, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), _z(rng)))
    if fn == "legendre_deriv":
        kind = ("p", "q", "ferrers_p", "ferrers_q")[j % 4]
        nu, mu = _nu_mu(rng, j // 4, (1, 2) if kind.endswith("p") else (-2, -1, 0, 1, 2))
        arg = _x(rng) if kind.startswith("ferrers") else _z(rng)
        return Call(module, fn, (nu, mu, arg), (("order", rng.choice((1, 2))), ("kind", kind)))
    nu, mu = _nu_mu(rng, j, (1, 2) if fn.endswith("_p") else (-2, -1, 0, 1, 2))
    arg = _x(rng) if fn.startswith("ferrers") else _z(rng)
    return Call(module, fn, (nu, mu, arg))


def scatter_pool(rng, n):
    """n calls in seeded order, an equal share for each function and, within
    a function, fixed shares for each region, kind and degenerate case."""
    per_fn = n // len(SCATTER_FUNCTIONS)
    pool = [scatter_call(rng, module, fn, j) for module, fn in SCATTER_FUNCTIONS for j in range(per_fn)]
    rng.shuffle(pool)
    return pool


# --- oracle ------------------------------------------------------------------


def _legendre_ref(kind, nu, mu, z):
    if kind == "p":
        return mpmath.legenp(nu, mu, z, type=3)
    if kind == "q":
        return mpmath.legenq(nu, mu, z, type=3)
    if kind == "ferrers_p":
        return mpmath.legenp(nu, mu, z, type=2)
    return mpmath.legenq(nu, mu, z, type=2)


def oracle(call: Call) -> complex:
    """High-precision reference value of ``call`` from mpmath."""
    with mpmath.workdps(ORACLE_DPS):
        args = [mpmath.mpmathify(a) for a in call.args]
        if call.fn == "hyp2f1":
            return complex(mpmath.hyp2f1(*args))
        if call.fn == "jacobi_p":
            return complex(mpmath.jacobi(*args))
        if call.fn == "legendre_deriv":
            kw = dict(call.kwargs)
            nu, mu, z = args
            f = lambda t: _legendre_ref(kw["kind"], nu, mu, t)  # noqa: E731
            return complex(mpmath.diff(f, z, kw["order"]))
        kind = {"legendre_p": "p", "legendre_q": "q", "ferrers_p": "ferrers_p", "ferrers_q": "ferrers_q"}[call.fn]
        return complex(_legendre_ref(kind, *args))


def rel_err(value, ref) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


# --- cold_eval ---------------------------------------------------------------

COLD_FUNCTIONS = ("legendre_p", "legendre_q", "ferrers_p", "ferrers_q", "jacobi_p")


def cold_call(rng) -> Call:
    """One ``legshift eval`` request from a moderate box, away from the large
    degrees where the seed commit loses accuracy."""
    fn = rng.choice(COLD_FUNCTIONS)
    nu = rng.uniform(-0.9, 2.5)
    if fn == "jacobi_p":
        return Call("legendre", fn, (nu, rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 2.0), _z(rng)))
    mu = rng.uniform(-1.5, 1.5)
    arg = _x(rng) if fn.startswith("ferrers") else _z(rng)
    return Call("legendre", fn, (nu, mu, arg))
