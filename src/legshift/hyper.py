"""Gauss 2F1 with full-plane continuation, and the 3F2 series with its
continuation off the unit disc, as the regularized 3F2 of the fractional
order-lowering results.

Continuation strategy for 2F1: the six fractional-linear argument images
(w, w/(w-1), 1-w, 1/w, 1/(1-w), 1-1/w) are ranked by modulus and the best
admissible one is used.  Degenerate connection coefficients (integer c-a-b or
a-b) are handled by evaluating at parameter +/- i*eps and averaging.  Near the
two exceptional points w = exp(+/- i pi/3), where no image is small, the
hypergeometric ODE is Taylor-stepped along a straight path from the origin.
The regularized 3F2 is continued past |w| = 0.9 by the same Taylor walker
on its own third-order equation, with no +/- i*eps average.

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
)
from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    NumericalError,
)

__all__ = ["hyp2f1", "hyp2f1_evaluator", "hyp3f2_series", "hyp3f2_regularized", "hyp3f2_barnes"]

_EPS_NUDGE = 1e-6
_SERIES_RADIUS = 0.80
_IMAGE_RADIUS = 0.92
_MAX_SERIES_TERMS = 3000
_MAX_3F2_TERMS = 100000
# hyp3f2_regularized sums the series up to this |w| and continues it beyond
_3F2_SERIES_RADIUS = 0.9
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


def _ode_continue(w_target, p, lead, n, recurrence):
    """Continue S(w) = lead w**n + O(w**(n+1)), a solution of a linear
    equation of order p with singular points 0, 1 and infinity, from the
    origin to w_target.

    ``recurrence(w0)`` is the equation's own: it returns ``next(k, f)``, the
    Taylor coefficient f[k] about w0 from f[0], ..., f[k-1]; about 0 that is
    the series' term ratio.  The first step sums the series at |w| = 0.45
    on the ray to w_target, the others go along it, each 0.30 of the way to
    the nearer of 0 and 1.  A step's Taylor sum stops after 3 terms in a row
    with |f_k h**k| k**(p-1) <= 1e-17 sum_j |f_j h**j|; k**(p-1) stands for
    the derivatives carried on.  A ray passing 1 closer than 0.5 before
    w_target gives way to the path through 1 +/- 0.5i: the solution's
    singular part at 1 would carry rounding hundreds of times its value.
    """
    legs = [w_target]
    ray = w_target / abs(w_target)
    if abs(ray.imag) < 0.5 and 0.45 < ray.real < abs(w_target):
        legs.insert(0, complex(1.0, math.copysign(0.5, w_target.imag)))
    w = 0j
    f = [0j] * n + [complex(lead)]  # Taylor coefficients about w
    step = 0.45 * legs[0] / abs(legs[0])
    for _ in range(400):
        h = abs(step)
        size = sum(abs(fj) * h**j for j, fj in enumerate(f))  # of |f_j h**j|
        hk = h ** len(f)
        small = 0
        nxt, append = recurrence(w), f.append
        for k in range(len(f), _MAX_SERIES_TERMS):
            fk = nxt(k, f)
            append(fk)
            t = abs(fk) * hk
            size += t
            hk *= h
            # the unweighted test first, as the cheaper: k**(p-1) >= 1
            if t <= 1e-17 * size and t * k ** (p - 1) <= 1e-17 * size:
                small += 1
                if small == 3:
                    break
            else:
                small = 0
        else:
            raise ConvergenceError(f"Taylor series did not converge at |w| = {abs(w):.3f}")
        # the Taylor polynomial and its derivatives / j! at step, by repeated
        # synthetic division
        coef, f = f, []
        for j in range(p):
            acc = 0j
            for i in range(len(coef) - 1, j - 1, -1):
                acc = coef[i] = acc * step + coef[i]
            f.append(acc)
        w = w + step
        while abs(legs[0] - w) < 1e-15:
            legs.pop(0)
            if not legs:
                return f[0]
        remaining = legs[0] - w
        h = min(0.30 * min(abs(w), abs(w - 1.0)), abs(remaining))
        step = h * remaining / abs(remaining)
    raise ConvergenceError("ODE continuation did not reach the target")


def _gauss_recurrence(a, b, c):
    """Taylor recurrence about w0 of w(1-w)F'' + [c-(a+b+1)w]F' - abF = 0."""
    s = a + b + 1.0

    def about(w0):
        if w0 == 0:  # the series' term ratio
            return lambda k, f: (a + k - 1) * (b + k - 1) / ((c + k - 1) * k) * f[k - 1]
        A, B, D = w0 * (1.0 - w0), 1.0 - 2.0 * w0, c - s * w0
        return lambda k, f: (
            (a + k - 2) * (b + k - 2) * f[k - 2] - (B * (k - 2) + D) * (k - 1) * f[k - 1]
        ) / (A * k * (k - 1))

    return about


def _hyp3f2_recurrence(a1, a2, a3, b1, b2):
    """Taylor recurrence about w0 of the 3F2 equation (DLMF 16.8.3)

        w^2(1-w)F''' + [(b1+b2+1)w - (a1+a2+a3+3)w^2]F''
        + [b1 b2 - (1+a1+a2+a3+a1 a2+a1 a3+a2 a3)w]F' - a1 a2 a3 F = 0.
    """
    beta = b1 + b2 + 1.0
    gamma = a1 + a2 + a3 + 3.0
    delta = 1.0 + a1 + a2 + a3 + a1 * a2 + a1 * a3 + a2 * a3

    def about(w0):
        if w0 == 0:  # the series' term ratio
            return lambda k, f: (
                (a1 + k - 1) * (a2 + k - 1) * (a3 + k - 1) / ((b1 + k - 1) * (b2 + k - 1) * k)
            ) * f[k - 1]
        # the equation's coefficients as polynomials in w - w0
        A0, A1, A2 = w0 * w0 * (1.0 - w0), w0 * (2.0 - 3.0 * w0), 1.0 - 3.0 * w0
        B0, B1 = w0 * (beta - gamma * w0), beta - 2.0 * gamma * w0
        C0 = b1 * b2 - delta * w0
        return lambda k, f: (
            (a1 + k - 3) * (a2 + k - 3) * (a3 + k - 3) * f[k - 3]
            - (k - 2) * ((A2 * (k - 4) + B1) * (k - 3) + C0) * f[k - 2]
            - (k - 1) * (k - 2) * (A1 * (k - 3) + B0) * f[k - 1]
        ) / (A0 * k * (k - 1) * (k - 2))

    return about


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
        if w == 1.0:
            # Gauss's sum, where the series converges
            if (c - a - b).real <= 0.0:
                raise DomainError(f"2F1 diverges at w = 1: Re(c-a-b) = {(c - a - b).real:.6g}")
            return gamma_ratio([c, c - a - b], [c - a, c - b])
        candidates = []  # (modulus, key)
        candidates.append((abs(w / (w - 1.0)), "pfaff"))
        candidates.append((abs(1.0 - w), "one_minus"))
        candidates.append((abs(1.0 / w), "recip"))
        candidates.append((abs(1.0 - 1.0 / w), "one_minus_recip"))
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
            return _ode_continue(w, 2, 1.0, 0, _gauss_recurrence(a, b, c))

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


def hyp3f2_series(a1, a2, a3, b1, b2, w) -> complex:
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
    limit = n_term if n_term is not None else _MAX_3F2_TERMS
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
    and b2, on the plane cut along [1, inf).

    Where b1 or b2 is 1-n, n >= 1, the terms below w**n vanish.  With n the
    largest such and b1 its parameter, R = (a1)_n (a2)_n w**n
    R(a1+n, a2+n; 1, b2+n; w): the shift of ``_c_limit``, whose C is
    (a1)_n (a2)_n / n!, and the shifted 3F2 has b1+n = 1 over its third
    numerator.  ``hyp3f2_series`` sums it where |w| <= 0.9 or a numerator
    terminates it.  Beyond, R is continued by Taylor steps of the 3F2
    equation, which R solves at b1 = 1-n too; DomainError on the cut.
    """
    # the lower parameter with the most vanishing terms first
    b1, b2 = sorted(
        (complex(b1), complex(b2)),
        key=lambda b: b.real if is_nonpositive_integer(b) else math.inf,
    )
    n, C, s1, s2, c = _c_limit(complex(a1), complex(a2), b1)
    terminating = is_nonpositive_integer(s1) or is_nonpositive_integer(s2)
    if terminating or abs(w) <= _3F2_SERIES_RADIUS:
        if n:
            return C * gamma_ratio([c], [b2 + n]) * w**n * hyp3f2_series(s1, s2, 1.0, 1.0, b2 + n, w)
        return hyp3f2_series(s1, s2, 1.0, b1, b2, w) * rgamma(b1) * rgamma(b2)
    w = complex(w)
    if w.imag == 0.0 and w.real >= 1.0:
        raise DomainError(f"3F2 is continued off the cut [1, inf), got w = {w.real}")
    lead = C * gamma_ratio([c], [b2 + n]) if n else rgamma(b1) * rgamma(b2)
    return _ode_continue(w, 3, lead, n, _hyp3f2_recurrence(complex(a1), complex(a2), 1.0, b1, b2))


def hyp3f2_barnes(a1, a2, a3, b1, b2, z) -> complex:
    """Gamma(a1) Gamma(a2) / (Gamma(b1) Gamma(b2)) * 3F2(a1, a2, 1; b1, b2; (1-z)/2)

    for the parameter family a1 = nu-mu+1, a2 = -nu-mu, b1 = 1-mu, b2 = 1-lam,
    and |arg(z-1)| < pi: ``hyp3f2_regularized`` times Gamma(a1) Gamma(a2),
    whose poles raise PoleError.  The name stays because bench/tracing.py
    traces it.
    """
    a1, a2, b1, z = complex(a1), complex(a2), complex(b1), complex(z)
    if abs(a3 - 1.0) > 1e-12 or abs(a1 + a2 + 1.0 - 2.0 * b1) > 1e-9:
        raise DomainError("parameters are not of the form (nu-mu+1, -nu-mu, 1; 1-mu, 1-lam)")
    if z == 1.0 or abs(cmath.phase(z - 1.0)) >= math.pi - 1e-12:
        raise DomainError("argument must satisfy |arg(z-1)| < pi")
    return gamma_ratio([a1, a2], []) * hyp3f2_regularized(a1, a2, b1, b2, (1.0 - z) / 2.0)
