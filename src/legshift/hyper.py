"""Gauss 2F1 with full-plane continuation, 3F2 series, and the Barnes-type
vertical-line continuation of the 3F2 family appearing in the fractional
order-lowering results.

Continuation strategy for 2F1: the six fractional-linear argument images
(w, w/(w-1), 1-w, 1/w, 1/(1-w), 1-1/w) are ranked by modulus and the best
admissible one is used.  Degenerate connection coefficients (integer c-a-b or
a-b) are handled by evaluating at parameter +/- i*eps and averaging.  Near the
two exceptional points w = exp(+/- i pi/3), where no image is small, the
hypergeometric ODE is Taylor-stepped along a straight path from the origin.

``hyp2f1_evaluator(a, b, c)`` does the parameter-only work once: the
termination and c-pole tests, the degeneracy flags of each image, the
connection-coefficient gamma ratios (on first use of each image), the
sub-evaluators of the Pfaff image and of the +/- i*eps averages, and the
series term ratios.  Calling it then does only w-dependent work; ``hyp2f1``
builds one and calls it once.
"""

from __future__ import annotations

import cmath
import math
import sys

from .complexfn import (
    check_finite,
    cpow,
    gamma_ratio,
    is_integer,
    is_nonpositive_integer,
    ln_gamma,
    rgamma,
    sin_pi,
)
from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    NumericalError,
    PoleError,
)

__all__ = ["hyp2f1", "hyp2f1_evaluator", "hyp3f2_series", "hyp3f2_regularized", "hyp3f2_barnes"]

_EPS_NUDGE = 1e-6
_SERIES_RADIUS = 0.80
_IMAGE_RADIUS = 0.92
_MAX_SERIES_TERMS = 3000
# a terminating polynomial raises once its running rounding bound
# n * eps * sum|term| passes this times max(|sum|, 1), 1 being F(0): a sum
# at its zero is right to that absolute precision.  Measured errors of
# Ferrers polynomials with n <= 12 sit 10 to 300 times below the bound
_POLYNOMIAL_REL_BOUND = 1e-6


def _series_reach(a, b, c):
    """Largest |w| <= 1 where the series of 2F1(a, b; c; w) stops within
    N = 2000 terms: its terms behave like C k**(s-1) |w|**k with
    C = Gamma(c)/(Gamma(a) Gamma(b)) and s = Re(a+b-c).  The rest of the
    cap absorbs a sum much smaller than C, as where the terms alternate."""
    n = 2 * _MAX_SERIES_TERMS // 3
    scale = max((ln_gamma(c) - ln_gamma(a) - ln_gamma(b)).real, 0.0)
    s = (a + b - c).real
    return min(math.exp((math.log(1e-16) - scale - (s - 1.0) * math.log(n)) / n), 1.0)


def _series_2f1(a, b, c, w):
    """Defining Gauss series; stops after 3 consecutive negligible terms.

    A term is negligible when |term| <= 1e-16 |total|.  Since |total| <=
    sum|term|, the running sum of |term| rules most terms out first and
    |total| is taken only for the rest: the same decision, one add a term."""
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    size = 1.0  # sum of |term|
    small = 0
    for k in range(_MAX_SERIES_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * w
        total += term
        t = abs(term)
        size += t
        if t <= 1e-16 * size and t <= 1e-16 * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"2F1 series did not converge for |w| = {abs(w):.3f}"
    )


class _Series:
    """Defining Gauss series of 2F1(a, b; c; w) for fixed (a, b, c).

    From the second sum on, the term ratios r_k = (a+k)(b+k)/((c+k)(1+k))
    are kept and grown on demand, so repeated sums at new w reuse them.  The
    first sum keeps nothing: a one-shot evaluation costs what the plain
    series does.  Both give the same floating-point sequence.
    """

    __slots__ = ("a", "b", "c", "_ratios")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c
        self._ratios = None

    def sum(self, w):
        """The series at w; stops after 3 consecutive negligible terms."""
        a, b, c = self.a, self.b, self.c
        ratios = self._ratios
        if ratios is None:
            self._ratios = []
            return _series_2f1(a, b, c, w)
        n = len(ratios)
        total = 1.0 + 0.0j
        term = 1.0 + 0.0j
        size = 1.0  # sum of |term|, as in _series_2f1
        small = 0
        for k in range(_MAX_SERIES_TERMS):
            if k < n:
                r = ratios[k]
            else:
                r = (a + k) * (b + k) / ((c + k) * (1.0 + k))
                ratios.append(r)
            term *= r * w
            total += term
            t = abs(term)
            size += t
            if t <= 1e-16 * size and t <= 1e-16 * abs(total):
                small += 1
                if small >= 3:
                    return total
            else:
                small = 0
        raise ConvergenceError(
            f"2F1 series did not converge for |w| = {abs(w):.3f}"
        )

    def polynomial(self, w, n):
        """The first n+1 terms: the whole sum when the series terminates at
        w**n.  NumericalError when the sum overflows or cancels past
        ``_POLYNOMIAL_REL_BOUND``."""
        a, b, c = self.a, self.b, self.c
        if self._ratios is None:
            self._ratios = []
        ratios = self._ratios
        ratios.extend(
            (a + k) * (b + k) / ((c + k) * (1.0 + k)) for k in range(len(ratios), n)
        )
        total = 1.0 + 0.0j
        term = 1.0 + 0.0j
        size = 1.0  # sum of |term|
        for r in ratios[:n]:
            term *= r * w
            total += term
            size += abs(term)
        if not cmath.isfinite(total):
            raise NumericalError(
                f"terminating 2F1 polynomial of degree {n} overflows at |w| = {abs(w):.3g}"
            )
        bound = n * sys.float_info.epsilon * size
        if bound > _POLYNOMIAL_REL_BOUND * max(abs(total), 1.0):
            raise NumericalError(
                f"terminating 2F1 polynomial of degree {n} cancels at |w| = {abs(w):.3g}: "
                f"rounding bound {bound:.3g} against a sum of size {abs(total):.3g}"
            )
        return total


def _terminating_index(a, b, c):
    """Index n if the series terminates at w**n before hitting a c-pole."""
    best = None
    for p in (a, b):
        if is_nonpositive_integer(p):
            n = round(-complex(p).real)
            if best is None or n < best:
                best = n
    if best is None:
        return None
    if is_nonpositive_integer(c) and round(-complex(c).real) < best:
        return None  # c pole strikes first
    return best


def _ode_taylor_step(a, b, c, w0, f0, f1, h, n_terms=30):
    """One Taylor step of the hypergeometric ODE from w0 with values (F, F')."""
    A = w0 * (1.0 - w0)
    B = 1.0 - 2.0 * w0
    C = -1.0
    D = c - (a + b + 1.0) * w0
    E = -(a + b + 1.0)
    G = -a * b
    coef = [f0, f1]
    for k in range(n_terms - 2):
        fk = coef[k]
        fk1 = coef[k + 1]
        rhs = (B * (k + 1) * k + D * (k + 1)) * fk1 + (C * k * (k - 1) + E * k + G) * fk
        coef.append(-rhs / (A * (k + 2) * (k + 1)))
    val = 0.0 + 0.0j
    der = 0.0 + 0.0j
    for k in range(n_terms - 1, -1, -1):
        val = val * h + coef[k]
    for k in range(n_terms - 1, 0, -1):
        der = der * h + k * coef[k]
    return val, der


def _ode_continue(series, w_target):
    """Continue 2F1 from the origin to w_target by Taylor-stepping the ODE."""
    a, b, c = series.a, series.b, series.c
    direction = w_target / abs(w_target)
    w = 0.45 * direction
    f = series.sum(w)
    fp = a * b / c * _Series(a + 1.0, b + 1.0, c + 1.0).sum(w)
    for _ in range(400):
        remaining = w_target - w
        if abs(remaining) < 1e-15:
            return f
        dist = min(abs(w), abs(w - 1.0))
        h = min(0.30 * dist, abs(remaining))
        step = h * remaining / abs(remaining)
        f, fp = _ode_taylor_step(a, b, c, w, f, fp, step)
        w = w + step
    raise ConvergenceError("ODE continuation of 2F1 did not reach the target")


# the two series of each linear image: (a, b, c) of the first and second term;
# d = c-a-b is computed once, since a+b-c rounds differently from -d and the
# +/- i*eps average at integer d amplifies the difference by 1/eps
_IMAGE_SERIES = {
    "one_minus": lambda a, b, c, d: (
        (a, b, 1.0 - d), (c - a, c - b, 1.0 + d)
    ),
    "recip": lambda a, b, c, d: (
        (a, a - c + 1.0, a - b + 1.0), (b, b - c + 1.0, b - a + 1.0)
    ),
    "recip_one_minus": lambda a, b, c, d: (
        (a, c - b, a - b + 1.0), (b, c - a, b - a + 1.0)
    ),
    "one_minus_recip": lambda a, b, c, d: (
        (a, a - c + 1.0, 1.0 - d), (c - a, 1.0 - a, 1.0 + d)
    ),
}


class _Gauss(_Series):
    """2F1(a, b; c; w) as a function of w, for (a, b, c) in the given order.

    Everything that depends on the parameters alone is settled here or on
    first use and kept; each call does only w-dependent work.
    """

    __slots__ = ("_n_term", "_c_pole", "_reach", "_degenerate", "_images", "_pfaff", "_nudged")

    def __init__(self, a, b, c):
        super().__init__(a, b, c)
        self._n_term = _terminating_index(a, b, c)
        self._c_pole = self._n_term is None and is_nonpositive_integer(c)
        # built on first use
        self._reach = None  # _series_reach of the parameters
        self._degenerate = None  # image key -> degenerate coefficients
        self._images = None  # image key -> (gamma ratio, series, gamma ratio, series)
        self._pfaff = None
        self._nudged = None  # "a" or "c" -> evaluators at that parameter +/- i*eps

    def series(self, w):
        """The defining series, or the polynomial when it terminates."""
        if self._n_term is not None:
            return self.polynomial(w, self._n_term)
        return self.sum(w)

    def direct(self, w):
        """The defining series wherever it stops within the term cap
        (``_series_reach``), __call__ beyond: for arguments near w = 1 where
        the two terms of the 1-w image would cancel."""
        if abs(w) <= _SERIES_RADIUS:
            return self(w)
        if self._reach is None:
            # a polynomial or a c-pole goes to __call__, which handles both
            plain = self._n_term is None and not self._c_pole
            self._reach = _series_reach(self.a, self.b, self.c) if plain else 0.0
        return self.series(w) if abs(w) <= self._reach else self(w)

    def __call__(self, w):
        w = complex(w)
        if w == 0:
            return 1.0 + 0.0j
        if self._n_term is None:
            if self._c_pole:
                raise DegenerateParameterError(
                    f"2F1 undefined: c = {self.c} is a nonpositive integer and "
                    "the series does not terminate"
                )
            if abs(w) > _SERIES_RADIUS:
                return self._continue(w)
            return self.sum(w)
        return self.polynomial(w, self._n_term)

    def _image(self, key):
        if self._images is None:
            self._images = {}
        img = self._images.get(key)
        if img is None:
            a, b, c = self.a, self.b, self.c
            d = c - a - b
            if key in ("one_minus", "one_minus_recip"):
                g1 = gamma_ratio([c, d], [c - a, c - b])
                g2 = gamma_ratio([c, -d], [a, b])
            else:
                g1 = gamma_ratio([c, b - a], [b, c - a])
                g2 = gamma_ratio([c, a - b], [a, c - b])
            s1, s2 = _IMAGE_SERIES[key](a, b, c, d)
            img = self._images[key] = (g1, _Series(*s1), g2, _Series(*s2))
        return img

    def _nudge(self, axis):
        if self._nudged is None:
            self._nudged = {}
        pair = self._nudged.get(axis)
        if pair is None:
            a, b, c = self.a, self.b, self.c
            pair = self._nudged[axis] = tuple(
                _Gauss(a, b, c + d) if axis == "c" else _Gauss(a + d, b, c)
                for d in (1j * _EPS_NUDGE, -1j * _EPS_NUDGE)
            )
        return pair

    def _continue(self, w):
        a, b, c = self.a, self.b, self.c
        candidates = []  # (modulus, key)
        candidates.append((abs(w / (w - 1.0)), "pfaff"))
        candidates.append((abs(1.0 - w), "one_minus"))
        candidates.append((abs(1.0 / w), "recip"))
        candidates.append((abs(1.0 - 1.0 / w), "one_minus_recip"))
        if w != 1.0:
            candidates.append((abs(1.0 / (1.0 - w)), "recip_one_minus"))
        degenerate = self._degenerate
        if degenerate is None:
            cab_int = is_integer(c - a - b)
            ab_int = is_integer(a - b)
            degenerate = self._degenerate = {
                "one_minus": cab_int,
                "recip": ab_int,
                "recip_one_minus": ab_int,
                "one_minus_recip": cab_int,
                "pfaff": False,
            }
        # penalize images whose connection coefficients are degenerate so that
        # a clean image of comparable size wins
        mod, key = min(
            candidates, key=lambda t: t[0] + (0.05 if degenerate[t[1]] else 0.0)
        )
        if mod > _IMAGE_RADIUS:
            return _ode_continue(self, w)

        if key == "pfaff":
            # the image lies inside the unit disk: sum its series directly,
            # since ranking the images of w/(w-1) again could map back to w
            if self._pfaff is None:
                self._pfaff = _Gauss(a, c - b, c)
            return cpow(1.0 - w, -a) * self._pfaff.series(w / (w - 1.0))

        if degenerate[key]:
            # integer c-a-b: shift c off the lattice; integer a-b: shift a
            plus, minus = self._nudge(
                "c" if key in ("one_minus", "one_minus_recip") else "a"
            )
            return 0.5 * (plus(w) + minus(w))

        g1, s1, g2, s2 = self._image(key)
        if key == "one_minus":
            u = 1.0 - w
            return g1 * s1.sum(u) + g2 * cpow(u, c - a - b) * s2.sum(u)
        if key == "recip":
            u = 1.0 / w
            return g1 * cpow(-w, -a) * s1.sum(u) + g2 * cpow(-w, -b) * s2.sum(u)
        if key == "recip_one_minus":
            u = 1.0 / (1.0 - w)
            return (
                g1 * cpow(1.0 - w, -a) * s1.sum(u)
                + g2 * cpow(1.0 - w, -b) * s2.sum(u)
            )
        # key == "one_minus_recip"
        u = 1.0 - 1.0 / w
        return (
            g1 * cpow(w, -a) * s1.sum(u)
            + g2 * cpow(w, a - c) * cpow(1.0 - w, c - a - b) * s2.sum(u)
        )


def _canonical(a, b, c):
    """_Gauss in the canonical (a, b) order, so results are exactly symmetric."""
    a, b, c = complex(a), complex(b), complex(c)
    if (a.real, a.imag) > (b.real, b.imag):
        a, b = b, a
    return _Gauss(a, b, c)


def hyp2f1_evaluator(a, b, c):
    """w -> 2F1(a, b; c; w) for fixed parameters, continued off |w| < 1.

    The parameter-only work is done once, so reusing the evaluator over many
    w costs only the w-dependent part; values equal ``hyp2f1``'s exactly.
    """
    check_finite(a, b, c)
    return _canonical(a, b, c)


def hyp2f1(a, b, c, w) -> complex:
    """Gauss hypergeometric function 2F1(a, b; c; w), continued off |w| < 1.

    Symmetric in (a, b); the argument must lie off the cut [1, inf) unless it
    carries an explicit imaginary part supplied by the caller.
    """
    check_finite(a, b, c, w)
    return _canonical(a, b, c)(w)


def hyp3f2_series(a1, a2, a3, b1, b2, w, max_terms=100000) -> complex:
    """3F2(a1, a2, a3; b1, b2; w) by its defining series.

    Requires |w| < 1 - 1e-3 unless a numerator parameter terminates the sum.
    DegenerateParameterError when the sum reaches a nonpositive-integer lower
    parameter first; ``hyp3f2_regularized`` has the limit there.
    """
    a1, a2, a3 = complex(a1), complex(a2), complex(a3)
    b1, b2 = complex(b1), complex(b2)
    w = complex(w)

    n_term = None
    for p in (a1, a2, a3):
        if is_nonpositive_integer(p):
            n = round(-p.real)
            if n_term is None or n < n_term:
                n_term = n
    for b in (b1, b2):
        if is_nonpositive_integer(b) and (n_term is None or round(-b.real) < n_term):
            raise DegenerateParameterError(
                f"3F2 undefined: lower parameter {b} is a nonpositive integer "
                "that the sum reaches before any numerator ends it"
            )
    if n_term is None and abs(w) >= 1.0 - 1e-3:
        raise ConvergenceError(
            f"3F2 series diverges: |w| = {abs(w):.4f} and no terminating "
            "numerator parameter"
        )

    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small = 0
    limit = n_term if n_term is not None else max_terms
    for k in range(limit):
        term *= (
            (a1 + k) * (a2 + k) * (a3 + k)
            / ((b1 + k) * (b2 + k) * (1.0 + k))
            * w
        )
        total += term
        if n_term is None:
            if abs(term) <= 1e-16 * abs(total):
                small += 1
                if small >= 3:
                    return total
            else:
                small = 0
    if n_term is None:
        raise ConvergenceError("3F2 series did not meet the tail bound")
    return total


def _c_limit(a, b, c):
    """(n, C, a', b', c') with 2F1(a, b; c; w)/Gamma(c) = C w**n 2F1(a', b'; c'; w)
    at c = 1-n, n >= 1: C = (a)_n (b)_n / n! (DLMF 15.2.3_5).  Elsewhere
    n = 0, C = 1 and the parameters are unchanged: 1/Gamma(c) stays with the
    caller."""
    if not is_nonpositive_integer(c):
        return 0, 1.0, a, b, c
    n = 1 - round(c.real)
    C = 1.0
    for k in range(n):
        C *= (a + k) * (b + k) / (k + 1.0)
    return n, C, a + n, b + n, n + 1.0


def hyp3f2_regularized(a1, a2, b1, b2, w) -> complex:
    """R = 3F2(a1, a2, 1; b1, b2; w) / (Gamma(b1) Gamma(b2)), entire in b1
    and b2, by the series of ``hyp3f2_series``.

    Where b1 or b2 is 1-n, n >= 1, the terms below w**n vanish.  With n the
    largest such and b1 its parameter, R = (a1)_n (a2)_n w**n
    R(a1+n, a2+n; 1, b2+n; w): the shift of ``_c_limit``, whose C is
    (a1)_n (a2)_n / n!, and the shifted 3F2 has b1+n = 1 over its third
    numerator.
    """
    # the lower parameter with the most vanishing terms first
    b1, b2 = sorted(
        (complex(b1), complex(b2)),
        key=lambda b: b.real if is_nonpositive_integer(b) else math.inf,
    )
    n, C, a1, a2, c = _c_limit(complex(a1), complex(a2), b1)
    if n:
        return C * gamma_ratio([c], [b2 + n]) * w**n * hyp3f2_series(a1, a2, 1.0, 1.0, b2 + n, w)
    return hyp3f2_series(a1, a2, 1.0, b1, b2, w) * rgamma(b1) * rgamma(b2)


def _gauss_legendre(n):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], n even, by Newton's method on the three-term recurrence."""
    upper = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x  # P_{k-1}(x), P_k(x)
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (p0 - x * p1) / (1.0 - x * x)
            dx = p1 / dp
            x -= dx
            if abs(dx) <= 1e-16:
                break
        upper.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    rule = [(-x, w) for x, w in upper] + [(x, w) for x, w in reversed(upper)]
    return tuple(x for x, _w in rule), tuple(w for _x, w in rule)


_GAUSS16 = _gauss_legendre(16)


def _barnes_integrand_parts(nu, mu, lam):
    """Gamma-factor ratio of the vertical-line integrand as a function of s."""

    def gamma_ratio_at(s):
        return cmath.exp(
            ln_gamma(nu - mu + s + 1.0)
            + ln_gamma(-nu - mu + s)
            - ln_gamma(-mu + s + 1.0)
            - ln_gamma(-lam + s + 1.0)
        )

    return gamma_ratio_at


def hyp3f2_barnes(a1, a2, a3, b1, b2, z, _depth=0) -> complex:
    """Vertical-line (Mellin-type) continuation of the normalized sum

        Gamma(a1) Gamma(a2) / (Gamma(b1) Gamma(b2)) * 3F2(a1, a2, 1; b1, b2; (1-z)/2)

    for the parameter family a1 = nu-mu+1, a2 = -nu-mu, b1 = 1-mu, b2 = 1-lam.
    Valid for |arg(z-1)| < pi; the straight contour Re s = sigma0 in (-1, 0) is
    corrected by the residues of the parameter-pole sequences lying to its
    right.
    """
    a1, a2, a3 = complex(a1), complex(a2), complex(a3)
    b1, b2 = complex(b1), complex(b2)
    z = complex(z)
    if abs(a3 - 1.0) > 1e-12:
        raise DomainError("third numerator parameter must be 1")
    mu = 1.0 - b1
    nu = a1 + mu - 1.0
    lam = 1.0 - b2
    if abs((-nu - mu) - a2) > 1e-9:
        raise DomainError("parameters are not of the form (nu-mu+1, -nu-mu, 1; 1-mu, 1-lam)")
    if is_nonpositive_integer(a1) or is_nonpositive_integer(a2):
        raise PoleError(
            "normalized 3F2 has a gamma-prefactor pole "
            f"(a1 = {a1}, a2 = {a2})"
        )

    half = (z - 1.0) / 2.0
    if half == 0 or abs(cmath.phase(z - 1.0)) >= math.pi - 1e-12:
        raise DomainError("argument must satisfy |arg(z-1)| < pi")

    if is_integer(2.0 * nu + 1.0, tol=1e-7):
        # half-integer nu makes the two pole sequences collide into double
        # poles; split them by averaging over nu +/- i*eps
        if _depth > 3:
            raise NumericalError("pole sequences stuck in collision")
        d = 1j * _EPS_NUDGE
        vp = hyp3f2_barnes(a1 + d, a2 - d, a3, b1, b2, z, _depth=_depth + 1)
        vm = hyp3f2_barnes(a1 - d, a2 + d, a3, b1, b2, z, _depth=_depth + 1)
        return 0.5 * (vp + vm)

    # parameter poles that lie on the integer lattice coincide with poles of
    # pi/sin(pi s); resolve the double pole by averaging over mu +/- i*eps
    lattice_hit = False
    for head in (nu + mu, mu - nu - 1.0):
        n = 0
        while (head - n).real > -40.0:
            s = head - n
            if abs(s - round(s.real)) < 1e-7:
                lattice_hit = True
            n += 1
    if lattice_hit:
        # shifting mu -> mu - i*d moves a1, a2, b1 together by +i*d
        if _depth > 3:
            raise NumericalError("parameter pole stuck on the sine pole lattice")
        d = 1j * _EPS_NUDGE
        vp = hyp3f2_barnes(a1 + d, a2 + d, a3, b1 + d, b2, z, _depth=_depth + 1)
        vm = hyp3f2_barnes(a1 - d, a2 - d, a3, b1 - d, b2, z, _depth=_depth + 1)
        return 0.5 * (vp + vm)

    # place the line Re s = sigma0 in (-1, 0) away from any nearly-real pole
    near_line_res = [
        (head - n).real
        for head in (nu + mu, mu - nu - 1.0)
        for n in range(int((head.real + 1.5)) + 2)
        if abs((head - n).imag) < 0.3 and -1.2 < (head - n).real < 0.2
    ]
    # the sine factor has poles at every integer; keep clear of 0 and -1 too
    avoid = near_line_res + [0.0, -1.0]
    candidates = [-0.5, -0.25, -0.75, -0.375, -0.625, -0.3, -0.7]
    sigma0 = max(candidates, key=lambda s0: min(abs(r - s0) for r in avoid))
    if min(abs(r - sigma0) for r in avoid) < 0.05:
        raise NumericalError("parameter poles crowd the whole strip (-1, 0)")

    ratio = _barnes_integrand_parts(nu, mu, lam)

    def integrand(s):
        return ratio(s) * (math.pi / sin_pi(s)) * cpow(half, s)

    # decay rate of the integrand along the line
    rate = math.pi - abs(cmath.phase(half))
    if rate < 0.05:
        raise NumericalError("Barnes integrand decays too slowly (arg(z-1) near pi)")
    alpha = (lam - mu - 1.0).real  # polynomial growth exponent of the gamma ratio
    T = (42.0 + 8.0 * max(0.0, alpha)) / rate + 8.0
    nodes, weights = _GAUSS16

    # graded panels: fine near tau = 0 where the integrand varies on the scale
    # of the distance to the nearest pole, coarse in the exponential tail
    edges = [0.0]
    while edges[-1] < T:
        t = edges[-1]
        step = 0.25 if t < 1.0 else (0.5 if t < 3.0 else 2.0)
        edges.append(min(t + step, T))
    edges = [-e for e in reversed(edges)] + edges[1:]

    acc = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        hw = 0.5 * (hi - lo)
        part = 0.0 + 0.0j
        for x, wgt in zip(nodes, weights):
            s = complex(sigma0, mid + hw * x)
            part += wgt * integrand(s)
        acc += hw * part
    # (1/(2 pi i)) * integral over s = sigma0 + i tau of I(s) ds,  ds = i d tau
    line = acc / (2.0 * math.pi)

    # residue corrections for parameter poles right of the line
    res_sum = 0.0 + 0.0j
    for seq in ("A", "B"):
        n = 0
        while True:
            if seq == "A":
                s = nu + mu - n
            else:
                s = mu - nu - 1.0 - n
            if s.real <= sigma0:
                break
            sign = -1.0 if n % 2 else 1.0
            base = sign * math.exp(-math.lgamma(n + 1))
            if seq == "A":
                rest = cmath.exp(
                    ln_gamma(nu - mu + s + 1.0)
                    - ln_gamma(-mu + s + 1.0)
                    - ln_gamma(-lam + s + 1.0)
                )
            else:
                rest = cmath.exp(
                    ln_gamma(-nu - mu + s)
                    - ln_gamma(-mu + s + 1.0)
                    - ln_gamma(-lam + s + 1.0)
                )
            res_sum += base * rest * (math.pi / sin_pi(s)) * cpow(half, s)
            n += 1
            if n > 200:
                raise NumericalError("runaway residue sequence in Barnes evaluation")

    return -(line + res_sum)
