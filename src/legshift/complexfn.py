"""Complex elementary and gamma-family functions.

Conventions used throughout the package:

* all powers are principal-branch, ``w**s = exp(s*(ln|w| + i*arg w))`` with
  ``arg w`` in (-pi, pi];
* ``(z**2 - 1)**s`` is always evaluated as ``(z-1)**s * (z+1)**s`` so that the
  branch cut lies on (-inf, 1];
* gamma ratios with cancelling poles are evaluated by pairing the poles and
  replacing each pair by its limit via the reflection formula;
* ``integer_within`` is the one integer and pole test, at the named tolerance
  of each decision (README, "Integer and pole tests"); a pole test asks
  Re z <= tol first, as only then can z lie within tol of 0, -1, -2, ...;
* ``gamma``, ``rgamma`` and ``gamma_ratio`` at real arguments off the poles
  stay in float arithmetic: ``math.gamma`` products, or ``math.lgamma`` sums
  with the signs of the Gamma values past double range, so a real ratio is
  exactly real and within a few ulps.  Complex arguments, and ratios with
  an argument at a pole, take the Lanczos log-gamma (``ln_gamma``).
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import DomainError, NumericalError, PoleError

__all__ = [
    "check_finite",
    "finite_result",
    "sin_pi",
    "cos_pi",
    "ln_gamma",
    "gamma",
    "rgamma",
    "gamma_ratio",
    "cpow",
    "zsq_minus_one_pow",
    "integer_within",
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

_GAMMA_POLE_TOL = 0.0  # Gamma's own poles: exact
_POLE_TOL = 1e-9  # poles and integer differences of parameters: degenerate
# the smallest normal double: below it a float gamma product loses digits
_TINY = sys.float_info.min


def check_finite(*values) -> None:
    """Raise DomainError unless every value is a finite real or complex number.

    Called once at each public entry point and by ``legendre._Legendre``
    at every z it is called at, never inside per-node loops;
    ``hyper._Gauss.__call__`` tests the |w| it already forms instead.
    """
    for v in values:
        if not cmath.isfinite(v):
            raise DomainError(f"non-finite argument {v!r}")


def finite_result(value: complex, what: str) -> complex:
    """``value`` when finite; NumericalError naming the overflow of ``what``
    otherwise.  Called once at each public evaluator's return."""
    if not cmath.isfinite(value):
        raise NumericalError(f"{what} overflows double range: got {value!r}")
    return value


def real_argument(x, what: str) -> float:
    """Re x for a real x; DomainError naming ``what`` when Im x != 0."""
    x = complex(x)
    if x.imag != 0.0:
        raise DomainError(f"{what} take a real argument, got {x}")
    return x.real


def integer_within(z, tol: float) -> int | None:
    """The integer n with |Re z - n| <= tol and |Im z| <= tol, each axis
    bounded apart; None when there is none.  z is a real or complex number."""
    if abs(z.imag) > tol:
        return None
    n = round(z.real)
    return n if abs(z.real - n) <= tol else None


def sin_pi(z) -> complex:
    """sin(pi*z) with argument reduction; exact 0 at integers, exact +/-1 at
    half-integers.  NumericalError past double range, at |Im z| > ~226."""
    z = complex(z)
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
    try:
        return complex(sign * s * math.cosh(y), sign * c * math.sinh(y))
    except OverflowError:
        raise NumericalError(f"sin(pi z) overflows double range at z = {z}") from None


def _log_sin_pi(z: complex) -> complex:
    """A logarithm of sin(pi*z), on any branch: the log of ``sin_pi`` where
    that is in range.  Past it, |Im z| > 226, sin(pi r) = (s i/2) e^(-s i pi r)
    to double precision, r = z - n, n = round(Re z), s the sign of Im z."""
    try:
        return cmath.log(sin_pi(z))
    except NumericalError:
        pass
    n = round(z.real)
    s = math.copysign(1.0, z.imag)
    w = math.pi * complex(z.real - n, z.imag)
    # (-1)**n = exp(i pi n), with n taken mod 2
    return complex(math.log(0.5), s * 0.5 * math.pi + (math.pi if n % 2 else 0.0)) - s * 1j * w


def _exp(w: complex, what: str) -> complex:
    """exp(w); NumericalError naming ``what`` past double range."""
    try:
        return cmath.exp(w)
    except OverflowError:
        raise NumericalError(f"{what} overflows double range: exp({w:.6g})") from None


def cos_pi(z) -> complex:
    """cos(pi*z) with argument reduction; exact 0 at half-integers."""
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

    Lanczos approximation for Re z >= 0.5, reflection elsewhere, whose
    sin(pi z) is taken in log form past double range.  Raises PoleError at
    nonpositive integers.
    """
    z = complex(z)
    if z.real <= 0.0 and integer_within(z, _GAMMA_POLE_TOL) is not None:
        raise PoleError(f"log-gamma pole at z = {z}")
    if z.real >= 0.5:
        return _ln_gamma_right(z)
    # Gamma(z) = pi / (sin(pi z) Gamma(1-z))
    return cmath.log(math.pi) - _log_sin_pi(z) - _ln_gamma_right(1.0 - z)


def _real_gamma_product(xs):
    """prod Gamma(x) over real x (complex numbers with zero imaginary part)
    off the poles by ``math.gamma``; None once a factor or a partial product
    leaves the normal double range."""
    p = 1.0
    for x in xs:
        try:
            g = math.gamma(x.real)
        except OverflowError:
            return None
        p *= g
        if not (_TINY <= abs(g) and _TINY <= abs(p) < math.inf):
            return None
    return p


def _real_log_gamma_product(xs):
    """(sum log|Gamma(x)|, sign of prod Gamma(x)) over real x off the poles."""
    log, sign = 0.0, 1.0
    for x in xs:
        x = x.real
        log += math.lgamma(x)
        if x < 0.0 and math.floor(x) % 2:  # Gamma < 0 on (-1, 0), (-3, -2), ...
            sign = -sign
    return log, sign


def _real_gamma_ratio(num, den, what) -> float:
    """prod Gamma(num) / prod Gamma(den) at real arguments off the poles, in
    float arithmetic: the quotient of ``math.gamma`` products while every
    factor and partial product is a normal double, else the exp of the
    ``math.lgamma`` sums with the signs of the Gamma values.  NumericalError
    naming ``what`` past double range."""
    p = _real_gamma_product(num)
    q = None if p is None else _real_gamma_product(den)
    if q is not None:
        value = p / q
        if _TINY <= abs(value) < math.inf:
            return value
    log_p, sign_p = _real_log_gamma_product(num)
    log_q, sign_q = _real_log_gamma_product(den)
    try:
        return sign_p * sign_q * math.exp(log_p - log_q)
    except OverflowError:
        raise NumericalError(f"{what} overflows double range: exp({log_p - log_q:.6g})") from None


def gamma(z) -> complex:
    """Gamma(z); PoleError at nonpositive integers, NumericalError past
    double range.  Real z in floats (``_real_gamma_ratio``), complex z as
    exp(ln_gamma(z))."""
    z = complex(z)
    if z.imag or (z.real <= 0.0 and integer_within(z, _GAMMA_POLE_TOL) is not None):
        return _exp(ln_gamma(z), "Gamma")
    return complex(_real_gamma_ratio((z,), (), "Gamma"))


def rgamma(z) -> complex:
    """1/Gamma(z); entire, exactly 0 at nonpositive integers; NumericalError
    past double range.  Real z in floats, as ``gamma``."""
    z = complex(z)
    if z.real <= 0.0 and integer_within(z, _GAMMA_POLE_TOL) is not None:
        return complex(0.0, 0.0)
    if not z.imag:
        return complex(_real_gamma_ratio((), (z,), "1/Gamma"))
    if z.real >= 0.5:
        return _exp(-_ln_gamma_right(z), "1/Gamma")
    # 1/Gamma(z) = sin(pi z)/pi * Gamma(1-z); stable near the poles
    try:
        return sin_pi(z) / math.pi * cmath.exp(_ln_gamma_right(1.0 - z))
    except (OverflowError, NumericalError):  # a factor is out of range: the log form
        return _exp(_log_sin_pi(z) - cmath.log(math.pi) + _ln_gamma_right(1.0 - z), "1/Gamma")


def gamma_ratio(numerators, denominators) -> complex:
    """Limiting value of prod Gamma(num_i) / prod Gamma(den_j).

    Arguments within _POLE_TOL of 0, -1, -2, ... count as poles.  With no
    pole and every argument real the ratio is taken in floats
    (``_real_gamma_ratio``); otherwise from ``ln_gamma``.  Each numerator
    pole must be matched by a denominator pole; a matched pair
    (a -> -m, b -> -n) is replaced by its common-perturbation limit
    (-1)**(n-m) * Gamma(1-b)/Gamma(1-a) via the reflection formula.  Unmatched
    denominator poles drive the ratio to zero.  Raises PoleError when
    numerator poles outnumber denominator poles, NumericalError past double
    range.
    """
    # with every argument real and off the poles, the float ratio: one pass
    real = True
    for args in (numerators, denominators):
        for z in args:
            if z.imag or z.real <= _POLE_TOL and integer_within(z, _POLE_TOL) is not None:
                real = False
    if real:
        return complex(_real_gamma_ratio(numerators, denominators, "gamma ratio"))
    # each side's regular arguments, and its poles as (argument, integer)
    num_reg, num_poles, den_reg, den_poles = [], [], [], []
    sides = ((numerators, num_reg, num_poles), (denominators, den_reg, den_poles))
    for args, regular, poles in sides:
        for z in args:
            z = complex(z)
            n = integer_within(z, _POLE_TOL) if z.real <= _POLE_TOL else None
            if n is None:
                regular.append(z)
            else:
                poles.append((z, n))

    if len(num_poles) > len(den_poles):
        raise PoleError(
            "gamma ratio has an uncancelled numerator pole: "
            f"{[a for a, _m in num_poles[len(den_poles):]]}"
        )

    acc = 0.0 + 0.0j
    sign = 1.0
    for (a, j), (b, k) in zip(num_poles, den_poles):
        if (k - j) % 2:
            sign = -sign
        acc += ln_gamma(1.0 - b) - ln_gamma(1.0 - a)

    for a in num_reg:
        acc += ln_gamma(a)
    for b in den_reg:
        acc -= ln_gamma(b)
    value = sign * _exp(acc, "gamma ratio")
    for b, _k in den_poles[len(num_poles):]:  # unmatched
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
    return cpow(complex(z) - 1.0, s) * cpow(complex(z) + 1.0, s)
