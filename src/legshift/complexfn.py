"""Complex elementary and gamma-family functions.

Conventions used throughout the package:

* all powers are principal-branch, ``w**s = exp(s*(ln|w| + i*arg w))`` with
  ``arg w`` in (-pi, pi];
* ``(z**2 - 1)**s`` is always evaluated as ``(z-1)**s * (z+1)**s`` so that the
  branch cut lies on (-inf, 1];
* gamma ratios with cancelling poles are evaluated by pairing the poles and
  replacing each pair by its limit via the reflection formula.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, NumericalError, PoleError

__all__ = [
    "check_finite",
    "sin_pi",
    "cos_pi",
    "ln_gamma",
    "gamma",
    "rgamma",
    "gamma_ratio",
    "cpow",
    "zsq_minus_one_pow",
    "is_integer",
    "is_nonpositive_integer",
]

# Lanczos approximation, g = 607/128, 15 coefficients.  Good to ~1e-15
# relative in the right half plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_POLE_TOL = 1e-9


def _as_complex(z) -> complex:
    return complex(z)


def check_finite(*values) -> None:
    """Raise DomainError unless every value is a finite real or complex number.

    Called once at each public entry point, never inside per-node loops.
    """
    for v in values:
        if not cmath.isfinite(v):
            raise DomainError(f"non-finite argument {v!r}")


def real_argument(x, what: str) -> float:
    """Re x for a real x; DomainError naming ``what`` when Im x != 0."""
    x = _as_complex(x)
    if x.imag != 0.0:
        raise DomainError(f"{what} take a real argument, got {x}")
    return x.real


def is_integer(z, tol: float = _POLE_TOL) -> bool:
    """True when z is within tol of an integer on each axis:
    |Im z| <= tol and |Re z - round(Re z)| <= tol."""
    z = _as_complex(z)
    return abs(z.imag) <= tol and abs(z.real - round(z.real)) <= tol


def is_nonpositive_integer(z, tol: float = _POLE_TOL) -> bool:
    """True when z is within tol of 0, -1, -2, ... (the test of ``is_integer``;
    spelled out because the gamma functions call it on every argument)."""
    z = _as_complex(z)
    if abs(z.imag) > tol:
        return False
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= tol


def sin_pi(z) -> complex:
    """sin(pi*z) with argument reduction; exact 0 at integers, exact +/-1 at
    half-integers."""
    z = _as_complex(z)
    # reduce to the nearest integer: r = Re z - n is exact and in [-1/2, 1/2],
    # so a point just off an integer keeps its relative accuracy
    n = round(z.real)
    r = z.real - n
    # sin(pi*(n + r + iy)) = (-1)^n sin(pi*(r + iy))
    sign = -1.0 if n % 2 else 1.0
    if abs(r) == 0.5:
        s, c = math.copysign(1.0, r), 0.0
    else:
        s, c = math.sin(math.pi * r), math.cos(math.pi * r)
    if z.imag == 0.0:
        return complex(sign * s if r else 0.0, 0.0)
    y = math.pi * z.imag
    return complex(sign * s * math.cosh(y), sign * c * math.sinh(y))


def cos_pi(z) -> complex:
    """cos(pi*z) with argument reduction; exact 0 at half-integers."""
    z = _as_complex(z)
    return sin_pi(complex(z.real + 0.5, z.imag))


def _ln_gamma_right(z: complex) -> complex:
    # Lanczos sum, valid for Re z >= 0.5
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (z + (k - 1))
    base = z + _LANCZOS_G - 0.5
    return (z - 0.5) * cmath.log(base) - base + _HALF_LOG_2PI + cmath.log(s)


def ln_gamma(z) -> complex:
    """Log-gamma with exp(ln_gamma(z)) = Gamma(z).

    Lanczos approximation for Re z >= 0.5, reflection elsewhere.  Raises
    PoleError at nonpositive integers.
    """
    z = _as_complex(z)
    if is_nonpositive_integer(z, tol=0.0):
        raise PoleError(f"log-gamma pole at z = {z}")
    if z.real >= 0.5:
        return _ln_gamma_right(z)
    # Gamma(z) = pi / (sin(pi z) Gamma(1-z))
    return cmath.log(math.pi) - cmath.log(sin_pi(z)) - _ln_gamma_right(1.0 - z)


def gamma(z) -> complex:
    """Gamma(z) = exp(ln_gamma(z))."""
    return cmath.exp(ln_gamma(z))


def rgamma(z) -> complex:
    """1/Gamma(z); entire, exactly 0 at nonpositive integers."""
    z = _as_complex(z)
    if is_nonpositive_integer(z, tol=0.0):
        return complex(0.0, 0.0)
    if z.real >= 0.5:
        return cmath.exp(-_ln_gamma_right(z))
    # 1/Gamma(z) = sin(pi z)/pi * Gamma(1-z); stable near the poles
    return sin_pi(z) / math.pi * cmath.exp(_ln_gamma_right(1.0 - z))


def gamma_ratio(numerators, denominators) -> complex:
    """Limiting value of prod Gamma(num_i) / prod Gamma(den_j).

    Arguments within 1e-9 of a nonpositive integer count as poles.  Each
    numerator pole must be matched by a denominator pole; a matched pair
    (a -> -m, b -> -n) is replaced by its common-perturbation limit
    (-1)**(n-m) * Gamma(1-b)/Gamma(1-a) via the reflection formula.  Unmatched
    denominator poles drive the ratio to zero.  Raises PoleError when
    numerator poles outnumber denominator poles.
    """
    num_poles = [complex(a) for a in numerators if is_nonpositive_integer(a)]
    den_poles = [complex(b) for b in denominators if is_nonpositive_integer(b)]
    num_reg = [complex(a) for a in numerators if not is_nonpositive_integer(a)]
    den_reg = [complex(b) for b in denominators if not is_nonpositive_integer(b)]

    if len(num_poles) > len(den_poles):
        raise PoleError(
            "gamma ratio has an uncancelled numerator pole: "
            f"{num_poles[len(den_poles):]}"
        )

    acc = 0.0 + 0.0j
    sign = 1.0
    for a, b in zip(num_poles, den_poles):
        m = round(-a.real)
        n = round(-b.real)
        if (n - m) % 2:
            sign = -sign
        acc += ln_gamma(1.0 - b) - ln_gamma(1.0 - a)
    extra_den_poles = den_poles[len(num_poles):]

    for a in num_reg:
        acc += ln_gamma(a)
    for b in den_reg:
        acc -= ln_gamma(b)
    value = sign * cmath.exp(acc)
    for b in extra_den_poles:
        value *= rgamma(b)  # 0 at an exact pole; tiny near one
    return value


def cpow(w, s) -> complex:
    """Principal-branch power w**s = exp(s * Log w); NumericalError when
    |w**s| is beyond double range, PoleError at w = 0 with Re s <= 0."""
    if s == 0:
        return 1.0 + 0.0j
    if w == 0:
        if complex(s).real <= 0.0:
            raise PoleError(f"0**{s} is singular")
        return complex(0.0, 0.0)
    try:
        return cmath.exp(s * cmath.log(w))
    except OverflowError:
        raise NumericalError(f"{w}**{s} overflows double range") from None


def zsq_minus_one_pow(z, s) -> complex:
    """(z**2 - 1)**s as (z-1)**s * (z+1)**s, cut on (-inf, 1]."""
    return cpow(_as_complex(z) - 1.0, s) * cpow(_as_complex(z) + 1.0, s)
