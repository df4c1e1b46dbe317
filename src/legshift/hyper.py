"""Gauss 2F1 with full-plane continuation, and the 3F2 series with its
continuation off the unit disc, as the regularized 3F2 of the fractional
order-lowering results.

One chooser sums 2F1 past |w| = 0.3 (``_Gauss.__call__``).  Its candidates
(``_Gauss._ranked``) are the series at w, where it stops within the term
cap (``_series_reach``), and past their floor in |w| the Pfaff image
w/(w-1) and the two-series images 1-w, 1-1/w, 1/w and 1/(1-w) of modulus
<= 0.92.  Clean ones rank before degenerate ones (integer c-a-b for the
images in 1-w, a-b for the others), each kind by cost: the number of series
over -log of the modulus.  The first clean one whose terms cancel by less
than 1e4 is taken; else the first degenerate one, evaluated at a parameter
+/- i*eps and averaged (ROADMAP item 5); else the clean image that cancels
least.  Where no image is admissible and the series is not taken, as near
w = exp(+/- i pi/3), the hypergeometric ODE is Taylor-stepped along a
straight path from the origin, as is the regularized 3F2's past |w| = 0.9.  Where b = a + 1/2
exactly, as for Legendre's Q, the quadratic image ((1+s)/2)**(-2a)
F(2a, 2a-c+1; c; u), u = w/(1+s)**2, s = sqrt(1-w) (DLMF 15.8(iii)) comes
first wherever the series at u is admissible, by the same chooser at u.

Both functions rest on one defining series of pFq, summed by one loop
(``_Series.sum``).  Real parameters are kept as floats, and so are their
term ratios; at a real w the loop then runs on floats, and so does 2F1's
Taylor walk, with the values complex arithmetic gives, bit for bit.  A sum
that does not terminate stops after 3 terms in a row below 1e-16 of its
total, within a cap of 3,000 terms for 2F1 and of 100,000 for
``hyp3f2_series``, which runs to |w| < 1 - 1e-3.  A sum that a numerator
ends at w**n adds every term through w**n and raises NumericalError where
its rounding bound n*eps*sum|term| passes 1e-6 max(|sum|, 1).  Either kind
raises NumericalError once a term overflows.

``hyp2f1_evaluator(a, b, c)`` does the parameter-only work once, or on first
use: the termination and c-pole tests, the flags of degenerate images, the
connection coefficients of each image, the sub-evaluators of the Pfaff and
quadratic images and of the averages, and from a series' second sum on its
term ratios.  Calling it then does only w-dependent work; ``hyp2f1`` builds
one and calls it once, and so keeps no ratios.
"""

from __future__ import annotations

import cmath
import math
import sys

from .complexfn import (
    _POLE_TOL,
    check_finite,
    cpow,
    finite_result,
    gamma_ratio,
    integer_within,
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
_IMAGE_RADIUS = 0.92
# each image is ranked only past its floor in |w|, where it first pays.  The
# Pfaff image's: nearer 0 it saves too few terms to pay for its power.  The
# images in 1-w: at |w| in (0.55, 0.85) Q's quadratic series took its 1-u
# image where that sums fewer terms, and over 300 seeded points with 2 mu
# within 1e-2 of an integer the worst went from 1.9e-12 to 4.3e-12 (points
# past 1e-13: 3 to 12); a one-shot Q at u = 0.75 asked 3 integer tests, not 0
_IMAGE_FLOOR = {"pfaff": 0.3, "one_minus": 0.8, "one_minus_recip": 0.8}
# a candidate whose sum|term| passes this times |sum| (a rounding bound past
# about 1e-12 relative) gives way to the next
_IMAGE_CANCELLATION = 1e4
_MAX_SERIES_TERMS = 3000
_MAX_3F2_TERMS = 100000
# hyp3f2_regularized sums the series up to this |w| and continues it beyond
_3F2_SERIES_RADIUS = 0.9
# a terminating polynomial raises once its running rounding bound
# n * eps * sum|term| passes this times max(|sum|, 1), 1 being F(0): a sum
# at its zero is right to that absolute precision.  Measured errors of
# Ferrers polynomials with n <= 12 sit 10 to 300 times below the bound
_POLYNOMIAL_REL_BOUND = 1e-6
# past this degree n * eps > _POLYNOMIAL_REL_BOUND, so the bound fails whatever
# the terms, sum|term| being >= max(|sum|, 1): about 4.5e9
_MAX_POLYNOMIAL_DEGREE = _POLYNOMIAL_REL_BOUND / sys.float_info.epsilon


def _series_reach(a, b, c):
    """Largest |w| <= 1 where the series of 2F1(a, b; c; w) stops within
    N = 2000 terms: its terms behave like C k**(s-1) |w|**k with
    C = Gamma(c)/(Gamma(a) Gamma(b)) and s = Re(a+b-c).  The rest of the
    cap absorbs a sum much smaller than C, as where the terms alternate."""
    n = 2 * _MAX_SERIES_TERMS // 3
    # log|Gamma|, from math.lgamma at real parameters
    lg = (lambda x: ln_gamma(x).real) if isinstance(a + b + c, complex) else math.lgamma
    scale = max(lg(c) - lg(a) - lg(b), 0.0)
    s = (a + b - c).real
    return min(math.exp((math.log(1e-16) - scale - (s - 1.0) * math.log(n)) / n), 1.0)


class _Series:
    """Defining series of pFq(upper; lower; w) at fixed parameters,
    2F1(a, b; c) or 3F2(a, b, a3; c, b2).

    The term ratios r_k = (a+k)(b+k)(a3+k) / ((c+k)(b2+k)(1+k)), without
    a3 and b2 for 2F1, are kept from the second sum on and grown on demand,
    so an evaluator's repeated sums at new w reuse them while a series summed
    once, as by a one-shot call, keeps none.  The constructor's one pole test
    per parameter settles the degree ``_n_term`` at which a numerator ends
    the sum, or else the lower pole ``_pole`` that the sum reaches first.
    """

    __slots__ = ("_name", "_params", "_real", "_n_term", "_pole", "_limit", "_ratios")

    def __init__(self, a, b, c, a3=None, b2=None):
        # real parameters are kept as floats, and so are their term ratios
        two = a3 is None
        self._real = not (a.imag or b.imag or c.imag or not two and (a3.imag or b2.imag))
        if self._real:
            a, b, c = a.real, b.real, c.real
            a3, b2 = (None, None) if two else (a3.real, b2.real)
        # the 2F1 images keep |w| <= _IMAGE_RADIUS; hyp3f2_series runs to |w| < 1 - 1e-3
        self._name, cap = ("2F1", _MAX_SERIES_TERMS) if two else ("3F2", _MAX_3F2_TERMS)
        self._params = a, b, c, a3, b2
        n = pole = None
        for p in (a, b) if two else (a, b, a3):
            k = integer_within(p, _POLE_TOL) if p.real <= _POLE_TOL else None
            if k is not None and (n is None or -k < n):
                n = -k
        for p in (c,) if two else (c, b2):
            k = integer_within(p, _POLE_TOL) if p.real <= _POLE_TOL else None
            if k is not None and (n is None or -k < n):
                n, pole = None, p
                break
        self._n_term, self._pole = n, pole
        self._limit = cap if n is None else n
        self._ratios = None  # [] once summed

    def sum(self, w, with_size=False):
        """The series at w, or with ``with_size`` the pair (series,
        sum|term|), whose ratio is how far the sum cancels.

        Unless a numerator ends it, the sum stops after 3 consecutive
        negligible terms, |term| <= 1e-16 |total|.  Since |total| <=
        sum|term|, the running sum of |term| rules most terms out first and
        |total| is taken only for the rest: the same decision, one add a
        term.  One that has not stopped within the term cap raises
        ConvergenceError.

        A sum that a numerator ends at w**n adds every term through w**n,
        stopping early only at a term that has underflowed to 0, after which
        every term is.  It raises NumericalError up front past
        ``_MAX_POLYNOMIAL_DEGREE``, and without ``with_size`` where it
        cancels past ``_POLYNOMIAL_REL_BOUND``.

        Either kind raises NumericalError once a term overflows, and
        DegenerateParameterError at a lower pole the sum reaches first.
        """
        n = self._n_term
        if self._pole is not None:
            raise DegenerateParameterError(
                f"{self._name} undefined: lower parameter {self._pole} is a nonpositive "
                "integer that the sum reaches before any numerator ends it"
            )
        if n is not None and n > _MAX_POLYNOMIAL_DEGREE:
            raise NumericalError(f"{self._name} polynomial of degree {n:.3g} cancels: n*eps > 1e-6")
        a, b, c, a3, b2 = self._params
        ratios = self._ratios  # None at the first sum, which keeps none
        self._ratios = [] if ratios is None else ratios
        cached = len(ratios) if ratios else 0
        if self._real and not w.imag:  # float ratios at a real w: the loop in floats
            w = w.real
            total = term = 1.0
        else:
            total = term = 1.0 + 0.0j
        size = 1.0  # sum of |term|
        small = 0
        try:
            for k in range(self._limit):
                if k < cached:
                    r = ratios[k]
                else:
                    # numerator product / (denominator product * (1+k))
                    if a3 is not None:
                        r = (a + k) * (b + k) * (a3 + k) / ((c + k) * (b2 + k) * (1.0 + k))
                    else:
                        r = (a + k) * (b + k) / ((c + k) * (1.0 + k))
                    if ratios is not None:
                        ratios.append(r)
                term *= r * w
                total += term
                t = abs(term)
                size += t
                if not t > 1e-16 * size:  # negligible against sum|term|, or not finite
                    if n is None and t <= 1e-16 * abs(total):
                        small += 1
                        if small < 3:
                            continue
                        if size < math.inf:
                            return (complex(total), size) if with_size else complex(total)
                    if not 0.0 < t < math.inf:
                        break  # overflowed, or every later term of the polynomial is 0
                small = 0
        except OverflowError:  # abs(term) past double range
            total = complex(math.inf)
        if not cmath.isfinite(total):
            raise NumericalError(f"{self._name} series overflows double range, |w| = {abs(w):.3g}")
        if n is None:
            raise ConvergenceError(f"{self._name} series did not converge for |w| = {abs(w):.3f}")
        if with_size:
            return complex(total), size
        bound = n * sys.float_info.epsilon * size
        if bound > _POLYNOMIAL_REL_BOUND * max(abs(total), 1.0):
            raise NumericalError(
                f"{self._name} polynomial of degree {n} cancels at |w| = {abs(w):.3g}: "
                f"rounding bound {bound:.3g} against a sum of size {abs(total):.3g}"
            )
        return complex(total)


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
    the derivatives carried on; ConvergenceError at the term cap, and
    NumericalError at once where sum_j |f_j h**j| overflows.  A ray passing
    1 closer than 0.5 before w_target gives way to the path through
    1 +/- 0.5i: the solution's singular part at 1 would carry rounding
    hundreds of times its value.  A float w_target with real parameters
    walks in floats, to the complex walk's values bit for bit.
    """
    legs = [w_target]
    ray = w_target / abs(w_target)
    if abs(ray.imag) < 0.5 and 0.45 < ray.real < abs(w_target):
        legs.insert(0, complex(1.0, math.copysign(0.5, w_target.imag)))
    w = 0.0
    f = [0.0] * n + [lead]  # Taylor coefficients about w
    step = 0.45 * legs[0] / abs(legs[0])
    for _ in range(400):
        h = abs(step)
        small = 0
        nxt, append = recurrence(w), f.append
        try:
            size = sum(abs(fj) * h**j for j, fj in enumerate(f))  # of |f_j h**j|
            hk = h ** len(f)
            for k in range(len(f), _MAX_SERIES_TERMS):
                fk = nxt(k, f)
                append(fk)
                t = abs(fk) * hk
                size += t
                hk *= h
                # the unweighted test first, as the cheaper: k**(p-1) >= 1
                if t > 1e-17 * size:
                    small = 0
                elif not size < math.inf:
                    break  # the coefficients have overflowed: no later test passes
                elif t * k ** (p - 1) <= 1e-17 * size:
                    small += 1
                    if small == 3:
                        break
                else:
                    small = 0
        except OverflowError:  # abs() of a coefficient past double range
            small, size = 0, math.inf
        if small < 3:
            if not size < math.inf:
                raise NumericalError(f"Taylor series overflows double range at |w| = {abs(w):.3f}")
            raise ConvergenceError(f"Taylor series did not converge at |w| = {abs(w):.3f}")
        # the Taylor polynomial and its derivatives / j! at step, by repeated
        # synthetic division
        coef, f = f, []
        for j in range(p):
            acc = 0.0
            for i in range(len(coef) - 1, j - 1, -1):
                acc = coef[i] = acc * step + coef[i]
            f.append(acc)
        w = w + step
        while abs(legs[0] - w) < 1e-15:
            legs.pop(0)
            if not legs:
                return complex(f[0])
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


_SERIES_ALONE = ((0.0, "series"),)
# the (a, b, c) of each two-series image's series, from the 2F1's and d = c-a-b
_IMAGE_PARAMS = {
    "one_minus": lambda a, b, c, d: ((a, b, 1.0 - d), (c - a, c - b, 1.0 + d)),
    "recip": lambda a, b, c, d: ((a, a - c + 1.0, a - b + 1.0), (b, b - c + 1.0, b - a + 1.0)),
    "recip_one_minus": lambda a, b, c, d: ((a, c - b, a - b + 1.0), (b, c - a, b - a + 1.0)),
    "one_minus_recip": lambda a, b, c, d: ((a, a - c + 1.0, 1.0 - d), (c - a, 1.0 - a, 1.0 + d)),
}


class _Gauss(_Series):
    """2F1(a, b; c; w) as a function of w, for (a, b, c) in the given order.

    Everything that depends on the parameters alone is settled here or on
    first use and kept; each call does only w-dependent work.
    """

    __slots__ = ("_reach", "_quadratic", "_cab_int", "_ab_int", "_images", "_pfaff", "_nudged")

    def __init__(self, a, b, c):
        super().__init__(a, b, c)
        # built on first use
        self._reach = None  # _series_reach of the parameters
        self._quadratic = None  # _Gauss of the quadratic image where b == a + 1/2, else False
        self._cab_int = self._ab_int = None  # integer c-a-b, integer a-b
        self._images = {}  # image key -> (coefficient, series, coefficient, series)
        self._pfaff = None
        self._nudged = {}  # "a" or "c" -> evaluators at that parameter +/- i*eps

    def __call__(self, w, wc=None):
        """2F1 at w by the chooser of the module docstring; ``wc`` is 1 - w
        when the caller has it exactly, and the images in 1 - w then take it
        in place of 1 - w formed from w.  DomainError at a non-finite w, and
        at a real w > 1, on the cut, unless a numerator ends the series."""
        w = complex(w)
        if w == 0:
            return 1.0 + 0.0j
        m = abs(w)
        if m <= _IMAGE_FLOOR["pfaff"]:
            return self.sum(w)
        if not m < math.inf:  # a NaN part too
            raise DomainError(f"non-finite argument {w!r}")
        if self._n_term is not None or self._pole is not None:
            return self.sum(w)
        if not w.imag and w.real > 1.0:
            # each image, the quadratic one's sqrt(1-w) too, takes a side by a signed zero
            raise DomainError(f"w = {w.real} is on the cut (1, inf) of 2F1: give it an imaginary part")
        one_minus = 1.0 - w if wc is None else wc
        if self._quadratic is not False:
            value = self._quadratic_image(w, one_minus)
            if value is not None:
                return value
        a, b, c = self._params[:3]
        if one_minus == 0:
            # Gauss's sum, where the series converges
            if (c - a - b).real <= 0.0:
                raise DomainError(f"2F1 diverges at w = 1: Re(c-a-b) = {(c - a - b).real:.6g}")
            return gamma_ratio([c, c - a - b], [c - a, c - b])
        ranked = self._ranked(m, abs(one_minus))
        value, taken, average = self._first_clean(ranked, w, one_minus, wc)
        if taken:
            return value
        if average:
            # the image at a parameter +/- i*eps: integer c-a-b shifts c off
            # the lattice, integer a-b shifts a
            pair = self._nudge("c" if average in ("one_minus", "one_minus_recip") else "a")
            return 0.5 * sum(g._candidate(average, w, one_minus, wc)[0] for g in pair)
        if value is not None and any(key != "series" for _, key in ranked):
            return value
        real = self._real and not w.imag  # the walk then runs in floats
        return _ode_continue(w.real if real else w, 2, 1.0, 0, _gauss_recurrence(a, b, c))

    def _first_clean(self, ranked, w, one_minus, wc):
        """(value, True, None) of the first clean candidate in ``ranked`` that
        cancels by at most ``_IMAGE_CANCELLATION``, else (the clean value that
        cancels least or None, False, the first degenerate key or None)."""
        best, ratio, average = None, math.inf, None
        for _, key in ranked:
            if key != "series" and self._degenerate(key):
                average = average or key
                continue
            try:
                value, size = self._candidate(key, w, one_minus, wc)
            except ConvergenceError:  # its series does not stop within the term cap
                continue
            if size <= _IMAGE_CANCELLATION * abs(value):
                return value, True, None
            if best is None or size < ratio * abs(value):
                best, ratio = value, (size / abs(value) if value else math.inf)
        return best, False, average

    def _ranked(self, m, mc):
        """The admissible candidates at |w| = m, |1-w| = mc as (rank, key),
        by rank; a polynomial is the series alone.  A series at modulus r
        stops after about log(eps)/log(r) terms, so the cost is the number of
        series over -log of the modulus, ranked as modulus**(2/count) with
        no log: the Pfaff image before the series where |1-w| > 1, the 1-w
        image where |1-w| < |w|**2."""
        if self._n_term is not None or m <= _IMAGE_FLOOR["pfaff"]:
            return _SERIES_ALONE
        ranked = []
        if m < 1.0:
            if self._reach is None:
                self._reach = _series_reach(*self._params[:3])  # no c here is a pole
            if m < self._reach:
                ranked.append((m * m, "series"))
        if m <= _IMAGE_RADIUS * mc:
            ranked.append(((m / mc) ** 2, "pfaff"))
        if m > _IMAGE_FLOOR["one_minus"]:
            if mc <= _IMAGE_RADIUS:
                ranked.append((mc, "one_minus"))
            if mc <= _IMAGE_RADIUS * m:
                ranked.append((mc / m, "one_minus_recip"))
        if m * _IMAGE_RADIUS >= 1.0:
            ranked.append((1.0 / m, "recip"))
        if mc * _IMAGE_RADIUS >= 1.0:
            ranked.append((1.0 / mc, "recip_one_minus"))
        ranked.sort()
        return ranked

    def _quadratic_image(self, w, one_minus):
        """The quadratic image where b = a + 1/2 exactly: the first clean
        candidate at u that does not cancel, or None.  Off the cut of w
        Re s > 0, so |u| < |w|, and 1 - u = 2s/(1+s).  Only where the series
        at u is admissible: just off the cut (-1, 1) of Legendre's Q, where
        |u| ~ 1, the 1-u image was up to 500 times less accurate than the
        continuation at w."""
        quad = self._quadratic
        if quad is None:
            a, b, c = self._params[:3]
            if b != a + 0.5:
                self._quadratic = False
                return None
            quad = self._quadratic = _canonical(2.0 * a, 2.0 * a - c + 1.0, c)
        s = cmath.sqrt(one_minus)
        t = 1.0 + s
        u, uc = w / (t * t), 2.0 * s / t
        ranked = quad._ranked(abs(u), abs(uc))
        if "series" not in [key for _, key in ranked]:
            return None
        value, taken, _ = quad._first_clean(ranked, u, uc, uc)
        return cpow(0.5 * t, -2.0 * self._params[0]) * value if taken else None

    def _image(self, key):
        """(coefficient, series, coefficient, series) of a two-series image."""
        img = self._images.get(key)
        if img is None:
            a, b, c = self._params[:3]
            # once: a+b-c rounds differently from -d, which the average at
            # integer d would amplify by 1/eps
            d = c - a - b
            if key in ("one_minus", "one_minus_recip"):
                g1, g2 = gamma_ratio([c, d], [c - a, c - b]), gamma_ratio([c, -d], [a, b])
            else:
                g1, g2 = gamma_ratio([c, b - a], [b, c - a]), gamma_ratio([c, a - b], [a, c - b])
            (a1, b1, c1), (a2, b2, c2) = _IMAGE_PARAMS[key](a, b, c, d)
            img = self._images[key] = (g1, _Series(a1, b1, c1), g2, _Series(a2, b2, c2))
        return img

    def _nudge(self, axis):
        """The evaluators at c (axis "c") or a ("a") +/- i*eps."""
        pair = self._nudged.get(axis)
        if pair is None:
            a, b, c = self._params[:3]
            pair = self._nudged[axis] = tuple(
                _Gauss(a, b, c + d) if axis == "c" else _Gauss(a + d, b, c)
                for d in (1j * _EPS_NUDGE, -1j * _EPS_NUDGE)
            )
        return pair

    def _degenerate(self, key):
        """Whether the candidate ``key`` is a degenerate image."""
        if key in ("series", "pfaff"):
            return False
        if self._cab_int is None:
            a, b, c = self._params[:3]
            self._cab_int = integer_within(c - a - b, _POLE_TOL) is not None
            self._ab_int = integer_within(a - b, _POLE_TOL) is not None
        return self._cab_int if key in ("one_minus", "one_minus_recip") else self._ab_int

    def _candidate(self, key, w, one_minus, wc):
        """(value, sum|term|) of the candidate ``key`` at w, each series'
        terms times their factor."""
        if key == "series":
            return self.sum(w, True)
        a, b, c = self._params[:3]
        if key == "pfaff":
            if self._pfaff is None:
                self._pfaff = _Gauss(a, c - b, c)
            # summed directly: ranking the images of w/(w-1) again could map back to w
            value, size = self._pfaff.sum(w / (w - 1.0), True)
            f = cpow(one_minus, -a)
            return f * value, abs(f) * size
        g1, s1, g2, s2 = self._image(key)
        if key == "one_minus":
            u, f1, f2 = one_minus, g1, g2 * cpow(one_minus, c - a - b)
        elif key == "recip":
            u, f1, f2 = 1.0 / w, g1 * cpow(-w, -a), g2 * cpow(-w, -b)
        elif key == "recip_one_minus":
            u, f1, f2 = 1.0 / one_minus, g1 * cpow(one_minus, -a), g2 * cpow(one_minus, -b)
        else:  # "one_minus_recip"
            u = 1.0 - 1.0 / w if wc is None else -wc / w
            f1, f2 = g1 * cpow(w, -a), g2 * cpow(w, a - c) * cpow(one_minus, c - a - b)
        (v1, n1), (v2, n2) = s1.sum(u, True), s2.sum(u, True)
        return f1 * v1 + f2 * v2, abs(f1) * n1 + abs(f2) * n2


def _canonical(a, b, c):
    """_Gauss in the canonical (a, b) order, so results are exactly symmetric."""
    if a.real > b.real or a.real == b.real and a.imag > b.imag:
        a, b = b, a
    return _Gauss(a, b, c)


def hyp2f1_evaluator(a, b, c):
    """w -> 2F1(a, b; c; w) for fixed parameters, continued off |w| < 1.

    The parameter-only work is done once, so reusing the evaluator over many
    w costs only the w-dependent part; values equal ``hyp2f1``'s exactly, and
    at a non-finite w or a real w > 1, on the cut, it raises DomainError.
    """
    check_finite(a, b, c)
    return _canonical(complex(a), complex(b), complex(c))


def hyp2f1(a, b, c, w) -> complex:
    """Gauss hypergeometric function 2F1(a, b; c; w), continued off |w| < 1.

    Symmetric in (a, b).  On the cut (1, inf) the side is the caller's, by
    the sign of an imaginary part; at a real w > 1 it raises DomainError
    unless a numerator ends the series.
    """
    check_finite(a, b, c, w)
    return finite_result(_canonical(complex(a), complex(b), complex(c))(w), "2F1")


def hyp3f2_series(a1, a2, a3, b1, b2, w) -> complex:
    """3F2(a1, a2, a3; b1, b2; w) by its defining series, summed by the
    loop of the 2F1 series (``_Series.sum``) with a term cap of 100,000.

    Requires |w| < 1 - 1e-3 unless a numerator parameter terminates the sum.
    A terminating sum raises NumericalError where its rounding bound fails
    (cancellation), as does any sum that overflows double range.
    DegenerateParameterError when the sum reaches a nonpositive-integer lower
    parameter first; ``hyp3f2_regularized`` has the limit there.
    """
    check_finite(a1, a2, a3, b1, b2, w)
    series = _Series(complex(a1), complex(a2), complex(b1), a3=complex(a3), b2=complex(b2))
    w = complex(w)
    if series._n_term is None and series._pole is None and abs(w) >= 1.0 - 1e-3:
        raise ConvergenceError(
            f"3F2 series diverges: |w| = {abs(w):.4f} and no terminating numerator parameter"
        )
    return finite_result(series.sum(w), "3F2")


def _c_limit(a, b, c):
    """(n, C, a', b', c') with 2F1(a, b; c; w)/Gamma(c) = C w**n 2F1(a', b'; c'; w)
    at c = 1-n, n >= 1: C = (a)_n (b)_n / n! (DLMF 15.2.3_5).  Elsewhere
    n = 0, C = 1 and the parameters are unchanged: 1/Gamma(c) stays with the
    caller."""
    pole = integer_within(c, _POLE_TOL) if c.real <= _POLE_TOL else None
    if pole is None:
        return 0, 1.0, a, b, c
    n = 1 - pole
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
    numerator.  Where a1 or a2 is in {0, -1, ..., 1-n}, C = 0 and R is 0
    everywhere.  The series of ``hyp3f2_series`` sums it where |w| <= 0.9 or
    a numerator terminates it.  Beyond, R is continued by Taylor steps of the
    3F2 equation, which R solves at b1 = 1-n too; DomainError on the cut.
    """
    check_finite(a1, a2, b1, b2, w)
    a1, a2, b1, b2 = complex(a1), complex(a2), complex(b1), complex(b2)
    # the lower parameter with the most vanishing terms first
    lim1, lim2 = _c_limit(a1, a2, b1), _c_limit(a1, a2, b2)
    if lim2[0] and (not lim1[0] or b2.real < b1.real):
        lim1, b1, b2 = lim2, b2, b1
    n, C, s1, s2, c = lim1
    if C == 0.0:  # a1 or a2 in {0, -1, ..., 1-n}: every term vanishes
        return 0j
    # no lower parameter is a pole: b1 + n = 1, and b2 + n >= 1 where b2 is
    # one too; so only s1 or s2 ends the sum (``_n_term``)
    series = _Series(s1, s2, 1 + 0j if n else b1, a3=1 + 0j, b2=b2 + n if n else b2)
    if not (series._n_term is not None or abs(w) <= _3F2_SERIES_RADIUS):
        w = complex(w)
        if w.imag == 0.0 and w.real >= 1.0:
            raise DomainError(f"3F2 is continued off the cut [1, inf), got w = {w.real}")
        lead = C * gamma_ratio([c], [b2 + n]) if n else rgamma(b1) * rgamma(b2)
        recurrence = _hyp3f2_recurrence(a1, a2, 1.0, b1, b2)
        value = _ode_continue(w, 3, lead, n, recurrence)
    elif n:
        try:
            power = w**n
        except OverflowError:
            raise NumericalError(f"w**{n} overflows double range at |w| = {abs(w):.3g}") from None
        value = C * gamma_ratio([c], [b2 + n]) * power * series.sum(complex(w))
    else:
        value = series.sum(complex(w)) * rgamma(b1) * rgamma(b2)
    return finite_result(value, "regularized 3F2")


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
