"""Associated Legendre functions P, Q of complex degree and order, Ferrers
functions on (-1, 1), Jacobi functions of complex degree, and their first two
derivatives.

Conventions:

* branch cut of P and Q on (-inf, 1]; values on the cut are reached with
  ``boundary_side`` "+" or "-" (limit from above or below);
* Q carries the factor exp(i pi mu) relative to the cut-plane function that
  is real for real parameters on (1, inf) ("Hobson phase"); passing
  ``olver=True`` returns exp(-i pi mu) Q / Gamma(nu+mu+1) instead, which is
  entire in both parameters;
* (z**2-1)**s is always split as (z-1)**s (z+1)**s.

Every representation is a short sum of terms

    K * (z-1)**p * (z+1)**q * z**r * 2F1(a, b; c; w(z))

(or (1-x)**p (1+x)**q for Ferrers and Jacobi) with w either (1-z)/2
("half", r = 0), 1/z**2 ("inv") or x**2 ("sq", r = 0 or 1), which makes
first and second derivatives a product-rule exercise.  P is one term in
w = (1-z)/2, and so is Jacobi's P (DLMF 18.5.7).  Q is one term in
w = 1/z**2 on the whole cut plane, with no subtraction (DLMF 14.3.7):

    Q_nu^mu(z) = exp(i pi mu) Gamma(nu+mu+1) * sqrt(pi) / 2**(nu+1)
                 * (z**2-1)**(mu/2) * z**(-nu-mu-1)
                 * 2F1((nu+mu+2)/2, (nu+mu+1)/2; nu+3/2; 1/z**2) / Gamma(nu+3/2).

Olver's Q is the same term without exp(i pi mu) Gamma(nu+mu+1); Hobson's Q
has a pole wherever that Gamma does.  The series' larger parameter is the
smaller plus 1/2 exactly, here and in its two derivative series, so
``hyper`` sums it by its quadratic image: one series in
u = (z - sqrt(z**2-1))**2, |u| < 1/|z|**2 off the cut (-1, 1), or next to
z = 0 that series' Pfaff image, or next to z = +/-1, where 2 mu is not an
integer, its clean 1-u image, two short series in place of one that runs to
about a thousand terms.  So Q takes neither the cancelling 1-w image of a
continuation next to z = 1 nor the cancelling 1/w image inside the unit
disc; the series is continued only within about 1e-4 of z = +/-1 and on the
cut (-1, 1) past |x| ~ 0.85.  Its 1 - w is (z-1)(z+1)/z**2, exact next to
z = 1, where 1 - 1/z**2 is not.

Both Ferrers kinds have the same two series in w = x**2 (DLMF 14.3.11-12,
Euler-transformed to Q's a, b, c): (1-x**2)**(mu/2) times
K0 2F1(b, b-c+1; 1/2; x**2) + K1 x 2F1(a, a-c+1; 3/2; x**2), whose c is never
degenerate; ``_ferrers_terms`` gives K0 and K1.  Ferrers P is also P's one
term in w = (1-x)/2, with the factors (1-x)**p (1+x)**q (DLMF 14.3.1).
``_FerrersP`` ranks the two lists by the cost of ``hyper``'s chooser, the
number of series over -log of their modulus, and takes the first unless
its terms grow more than the other's and 100: the one term serves past
x = 1/3, at large nu past x = 0.75.  P's c = 1-mu, Q's nu+3/2 and Jacobi's
alpha+1 at 1-n, n = 1, 2, ..., take the regularized limit (DLMF 15.2.3_5)
2F1/Gamma(c) -> (a)_n (b)_n / n! * w**n * 2F1(a+n, b+n; n+1; w), still one
term.  Past x**2 = 0.8 the x**2 series is summed while it stops within its
term cap and does not cancel, else continued by its 1-w image, for Ferrers
Q and for Ferrers P at x < 0; at integer mu that image is degenerate
(c-a-b = -mu), so ``hyper._Gauss._nudge`` averages mu +/- i*eps (ROADMAP
item 5).  The two series cancel like (|x|+sqrt(1+x**2))**|nu+1/2|; past
|nu+1/2| = 27.8 a Ferrers call raises NumericalError at
|x| >= sinh(24.5/|nu+1/2|).  Jacobi's P at a degree n = 0, 1, ... is its
polynomial by the degree recurrence (``_JacobiRecurrence``), unless
alpha+beta is an integer <= -2.

``legendre_evaluator(kind, nu, mu)`` and ``jacobi_evaluator(nu, alpha, beta)``
do the parameter-only work once per evaluator: the term coefficients and
the prepared 2F1 of each term.  Calls then do only z-dependent work.  The
public one-shot functions build one evaluator and call it once.

``weighted_evaluator(kind, nu, mu, s)`` is the same term list times
(z**2-1)**s, or (1-x**2)**s for Ferrers: s joins the exponents p and q of
every term, as (1-z)**alpha (1+z)**beta does for a weighted Jacobi list.
The functions of y/sqrt(y**2-1) are term lists too, the Whipple images
(DLMF 14.9(iv)) at degree -mu-1/2 and order -nu-1/2:

    P_nu^mu(y/sqrt(y**2-1)) = sqrt(2/pi) (y**2-1)**(1/4) OlverQ_{-mu-1/2}^{-nu-1/2}(y),
    Q_nu^mu(y/sqrt(y**2-1)) = exp(i pi mu) sqrt(pi/2) Gamma(nu+mu+1)
                                  * (y**2-1)**(1/4) P_{-mu-1/2}^{-nu-1/2}(y),

the image's terms with the constant folded into each K and 1/4 added to the
exponents, for Re y > 0 off (0, 1].  P's image is entire in both parameters;
Q's has the poles of Gamma(nu+mu+1), as Q does.  ``whipple_evaluator(kind,
nu, mu, s)`` is the image times (y**2-1)**s, a weighted evaluator like
``weighted_evaluator``'s; ``whipple_p_to_q`` and ``whipple_q_to_p`` are its
s = 0 values at a checked y.  Olver's Q (``olver=True``) is the same term
list path, the internal kind "olver_q".
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from .complexfn import (
    _POLE_TOL,
    check_finite,
    cos_pi,
    cpow,
    finite_result,
    gamma_ratio,
    integer_within,
    real_argument,
    rgamma,
)
from .errors import DomainError, NumericalError, PoleError
from .hyper import _MAX_POLYNOMIAL_DEGREE, _c_limit, _canonical as _prepared_2f1

__all__ = [
    "legendre_p",
    "legendre_q",
    "ferrers_p",
    "ferrers_q",
    "jacobi_p",
    "legendre_deriv",
    "legendre_evaluator",
    "weighted_evaluator",
    "whipple_evaluator",
    "jacobi_evaluator",
    "whipple_p_to_q",
    "whipple_q_to_p",
]

_CUT_IMAG = 1e-250  # selects the side of the cut without moving the point
# the x**2 series cancel like (|x| + sqrt(1+x**2))**|nu+1/2|; a Ferrers call
# raises where eps times that passes 1e-5, at asinh|x| >= this / |nu+1/2|
_FERRERS_REACH = math.log(1e-5 / sys.float_info.epsilon)
# term phases K/conj(K) within this of each other are one phase: the
# rounding of K's computation
_PHASE_TOL = 8 * sys.float_info.epsilon


# K * (z-1)**p * (z+1)**q * z**r * 2F1(a, b; c; w), with (1-x)**p (1+x)**q
# in a Ferrers list; wmap "half": w = (1-z)/2 (r = 0), "inv": w = 1/z**2,
# "sq": w = x**2 (r = 0 or 1).
# The per-node loops of _TermSum unpack it: a field read by name costs more.
_Term = namedtuple("_Term", "K p q a b c wmap r", defaults=(0.0,))
# cuts as rays (x0, d) = {x0 + d t : t >= 0}: (-inf, 1], and [1, inf), (-inf, -1]
_CUT_PLANE = ((1.0, -1.0),)
_SEGMENT_CUTS = ((1.0, 1.0), (-1.0, -1.0))
_LEFT_CUT = _SEGMENT_CUTS[1:]


def _whole(p):
    """p is a non-negative integer: (z-1)**p is entire."""
    return p.real > -0.5 and integer_within(p, _POLE_TOL) is not None


def _power_cuts(sp, sq):
    """The cuts of (1-z)**sp (1+z)**sq, a ray for each exponent not 0."""
    return tuple(ray for ray, s in zip(_SEGMENT_CUTS, (sp, sq)) if s)


class _TermSum:
    """Sum of _Term values, or of their first or second derivatives, at z;
    NumericalError naming the function ``name`` where the sum is not finite.
    A ``ferrers`` list takes the factors (1-x)**p (1+x)**q; ``cuts`` holds
    the rays of S's cuts.

    Each term's 2F1 is prepared once; the evaluators of its first and second
    w-derivatives are built only when a derivative order asks for them.
    """

    __slots__ = ("_name", "_terms", "_ferrers", "_hyp")

    def __init__(self, terms, name, ferrers=False):
        self._name = name
        # a term with K = 0 adds nothing but the cost and rounding of its series
        terms = [t for t in terms if t.K != 0] or terms[:1]
        self._terms = terms
        self._ferrers = ferrers
        # per term: [F, (coef, F'), (coef, F'')], grown on demand
        self._hyp = [[_prepared_2f1(t.a, t.b, t.c)] for t in terms]

    @property
    def cuts(self):
        """A cut-plane list whose every term is in w = (1-z)/2 with p a
        non-negative integer is analytic across (-1, 1), cut on (-inf, -1]
        alone; any other is cut on (-inf, 1]."""
        if self._ferrers:
            return _SEGMENT_CUTS
        if all(t.wmap == "half" and _whole(t.p) for t in self._terms):
            return _LEFT_CUT
        return _CUT_PLANE

    @staticmethod
    def _derivative(t, hyp, n):
        """(coefficient, evaluator) of the n-th w-derivative of term t's 2F1,
        kept in its list ``hyp``."""
        while len(hyp) <= n:
            a, b, c = t.a, t.b, t.c
            k = float(len(hyp))
            if k == 1.0:
                coef = a * b / c
            else:
                coef = a * (a + 1.0) * b * (b + 1.0) / (c * (c + 1.0))
            # Q's a = b + 1/2 stays exact, as hyper's quadratic image needs
            bk = b + k
            ak = bk + 0.5 if a == b + 0.5 else a + k
            hyp.append((coef, _prepared_2f1(ak, bk, c + k)))
        return hyp[n]

    def reflection(self):
        """The phase phi with S(conj z) = phi conj(S(z)) off the cuts, by the
        Schwarz reflection principle: K/conj(K) where every exponent and 2F1
        parameter is real, so that each term is K times a function real on
        the real axis, and all K share one phase up to sign; else None.  It
        is 1 for P and Jacobi and exp(2i pi mu) for Hobson's Q at real
        parameters."""
        phase = None
        for K, p, q, a, b, c, _wmap, r in self._terms:
            if p.imag or q.imag or r.imag or a.imag or b.imag or c.imag:
                return None
            if K:
                f = K / K.conjugate()
                if phase is None:
                    phase = f
                elif abs(f - phase) > _PHASE_TOL:
                    return None
        # a list whose every K is 0 is 0: any phase serves
        return 1.0 if phase is None else phase

    def end_powers(self):
        """(ones, einf): ones lists every power (z-1)**e of a term next to
        z = 1 as pairs (e, log), sorted by Re e, log True where log(z-1)
        multiplies it; |S| ~ |z|**einf at infinity, the weakest term's.  A
        term in w = (1-z)/2 has its p alone.  In w = 1/z**2 or x**2 the 2F1
        has the powers (1-w)**0 and (1-w)**(c-a-b) at w = 1, so the term has
        p and p + c - a - b, the larger with a logarithm where c - a - b is
        an integer; the 2F1 grows like w**-min(a, b) as w grows."""
        ones, inf = set(), -math.inf
        for _K, p, q, a, b, c, wmap, r in self._terms:
            low = min(a.real, b.real)
            if wmap == "half":
                ones.add((p, False))
                inf = max(inf, (p + q).real - low)
            else:
                s = c - a - b
                lo, hi = (p, p + s) if s.real >= 0.0 else (p + s, p)
                ones.update(((lo, False), (hi, integer_within(s, _POLE_TOL) is not None)))
                inf = max(inf, (p + q + r).real - (2.0 * low if wmap == "sq" else 0.0))
        return tuple(sorted(ones, key=lambda e: (e[0].real, e[1]))), inf

    def __call__(self, z, zc=None, order=0):
        """The order-th derivative (0, 1 or 2) of S at z.  ``zc`` is 1 - z,
        when the caller has it exactly; the factor (z-1)**p or (1-x)**p and
        w = (1-z)/2 are then taken from it, not from z.  The 1 - w of the
        "sq" and "inv" maps is always the product of z-1 and z+1, exact
        next to z = 1 where 1 - w formed from w is not."""
        one_minus = 1.0 - z if zc is None else zc
        if self._ferrers:
            zm, zp, sign = one_minus, 1.0 + z, -1.0
        else:
            zm, zp, sign = z - 1.0 if zc is None else -zc, z + 1.0, 1.0
        total = 0.0 + 0.0j
        for t, hyp in zip(self._terms, self._hyp):
            K, p, q, _a, _b, _c, wmap, r = t
            pf = cpow(zm, p) * cpow(zp, q)
            # u = pf * h with h = z**r; the "inv" map keeps h0 = h
            u, wc = pf, None
            if wmap == "half":
                w = one_minus / 2.0
            elif wmap == "sq":
                if r:
                    u = pf * z
                w, wc = z * z, zm * zp
            else:
                h0 = cpow(z, r)
                u = pf * h0
                w = 1.0 / (z * z)
                wc = zm * zp * w
            F0 = hyp[0](w, wc)
            if not order:
                total += K * (u * F0)
                continue
            # h1, h2 = h', h'' by the power rule (not h'/h, which is r/z);
            # w1, w2 = w', w''
            if wmap == "half":
                h0, h1, h2, w1, w2 = 1.0, 0.0, 0.0, -0.5, 0.0
            elif wmap == "sq":
                h0, h1 = (z, 1.0) if r else (1.0, 0.0)
                h2, w1, w2 = 0.0, 2.0 * z, 2.0
            else:
                h1 = r * h0 / z
                h2, w1, w2 = (r - 1.0) * h1 / z, -2.0 * w / z, 6.0 * w * w
            # the product rule for pf * g with g = h F(w); L = pf'/pf
            L = sign * p / zm + q / zp
            coef1, hyp1 = self._derivative(t, hyp, 1)
            F1 = coef1 * hyp1(w, wc)
            g0 = h0 * F0
            g1 = h1 * F0 + h0 * F1 * w1
            if order == 1:
                total += K * pf * (L * g0 + g1)
                continue
            Lp = -p / zm**2 - q / zp**2
            coef2, hyp2 = self._derivative(t, hyp, 2)
            F2 = coef2 * hyp2(w, wc)
            g2 = h2 * F0 + 2.0 * h1 * F1 * w1 + h0 * (F2 * w1 * w1 + F1 * w2)
            total += K * pf * ((Lp + L * L) * g0 + 2.0 * L * g1 + g2)
        return finite_result(total, self._name)


# --- representations ---------------------------------------------------------


def _p_terms(nu, mu, ferrers=False):
    """P as one term in w = (1-z)/2, or with ``ferrers`` Ferrers P as one in
    w = (1-x)/2 (DLMF 14.3.1); at mu = n = 1, 2, ... w**n is (-1/2)**n (z-1)**n,
    or (1/2)**n (1-x)**n."""
    n, C, a, b, c = _c_limit(-nu, nu + 1.0, 1.0 - mu)
    K = C * (0.5 if ferrers else -0.5) ** n if n else rgamma(c)
    return [_Term(K, n - mu / 2.0, mu / 2.0, a, b, c, "half")]


def _q_terms(nu, mu, olver=False):
    """Q as the one 1/z**2 term of DLMF 14.3.7 (see the module docstring):
    Olver's Q with ``olver``, else Hobson's, which is Olver's times
    exp(i pi mu) Gamma(nu+mu+1) and has a pole wherever that Gamma does."""
    r = -nu - mu - 1.0
    K = math.sqrt(math.pi) * cpow(2.0, -nu - 1.0)
    if olver:
        gammas = []
    elif -r.real <= _POLE_TOL and (pole := integer_within(-r, _POLE_TOL)) is not None:
        raise PoleError(f"Q has a pole at nu + mu + 1 = {pole}")
    else:
        gammas = [-r]
        K *= cmath.exp(1j * math.pi * mu)
    n, C, _, b, c = _c_limit((nu + mu + 2.0) / 2.0, (nu + mu + 1.0) / 2.0, nu + 1.5)
    K *= C * gamma_ratio(gammas, [] if n else [c])
    # a = b + 1/2 exactly: hyper sums the series by its quadratic image
    return [_Term(K, mu / 2.0, mu / 2.0, b + 0.5, b, c, "inv", r - 2.0 * n)]


def _ferrers_terms(kind, nu, mu):
    """Ferrers P or Q as the even and odd series in w = x**2 (module docstring)."""
    g, p = nu + mu + 1.0, mu / 2.0  # Gamma's argument, the exponents p = q
    a, b, c = (nu + mu + 2.0) / 2.0, g / 2.0, nu + 1.5
    if kind == "ferrers_p":
        K = cpow(2.0, mu) * math.sqrt(math.pi)
        K0 = K * rgamma(1.0 - b) * rgamma(c - b)
        K1 = -2.0 * K * rgamma(1.0 - a) * rgamma(c - a)
    elif g.real <= _POLE_TOL and (pole := integer_within(g, _POLE_TOL)) is not None:
        # infinite, or at half-integer mu a limit that depends on the direction
        raise PoleError(f"Ferrers Q has a pole at nu + mu + 1 = {pole}")
    else:
        K = math.sqrt(math.pi) * cpow(2.0, -nu - 1.0)
        K0 = K * gamma_ratio([g, 0.5], [a, c - b]) * cos_pi(b)
        K1 = K * gamma_ratio([g, -0.5], [b, c - a]) * cos_pi(a)
    return [
        _Term(K0, p, p, b, b - c + 1.0, 0.5, "sq", 0.0),
        _Term(K1, p, p, a, a - c + 1.0, 1.5, "sq", 1.0),
    ]


class _JacobiRecurrence:
    """The Jacobi polynomial of degree n by its recurrence in the degree
    (DLMF 18.9.1-2) times (1-z)**sp (1+z)**sq, called as ``_TermSum``; the
    derivatives of the unweighted one by the same recurrence (DLMF 18.9.15).
    Its ``cuts`` are the weight's."""

    __slots__ = ("_n", "_alpha", "_beta", "_weight", "_name", "cuts")

    def __init__(self, n, alpha, beta, weight, name):
        self._n, self._alpha, self._beta, self._weight, self._name = n, alpha, beta, weight, name
        self.cuts = _power_cuts(*weight)

    def reflection(self):
        """``_TermSum.reflection``: 1 at real alpha, beta and weight, the
        polynomial's coefficients being real; else None."""
        real = not any(complex(v).imag for v in (self._alpha, self._beta, *self._weight))
        return 1.0 if real else None

    def end_powers(self):
        """``_TermSum.end_powers``: the weight's, the degree added at infinity."""
        return ((complex(self._weight[0]), False),), complex(sum(self._weight)).real + self._n

    def __call__(self, z, zc=None, order=0):
        n, alpha, beta = self._n, self._alpha, self._beta
        sp, sq = self._weight
        if order and (sp or sq):
            raise DomainError(f"{self._name} has no derivative of order {order} by its recurrence")
        factor = cpow(1.0 - z if zc is None else zc, sp) * cpow(1.0 + z, sq)
        # order k: (n+alpha+beta+1)_k / 2**k * P_(n-k)^(alpha+k, beta+k), 0 for k > n
        for _ in range(order):
            factor *= (n + alpha + beta + 1.0) / 2.0
            n, alpha, beta = n - 1, alpha + 1.0, beta + 1.0
        s = alpha + beta
        p0, p1 = 1.0 + 0.0j, ((s + 2.0) * z + alpha - beta) / 2.0
        for k in range(1, n):
            # P_(k+1) = (a z + b) P_k - c P_(k-1)
            d = 2.0 * (k + 1.0) * (k + s + 1.0) * (2.0 * k + s)
            e = (2.0 * k + s + 1.0) / d
            a = e * (2.0 * k + s + 2.0) * (2.0 * k + s)
            b = e * (alpha - beta) * s
            c = 2.0 * (k + alpha) * (k + beta) * (2.0 * k + s + 2.0) / d
            p0, p1 = p1, (a * z + b) * p1 - c * p0
        return finite_result(factor * (p1 if n else p0) if n >= 0 else 0j, self._name)


def _jacobi(nu, alpha, beta, s, name):
    """The term list of Jacobi's P times the weight s.
    At a degree n = 0, 1, ... the series in (1-z)/2 cancels away from z = 1
    (at degree 30 and z = 0 its terms reach 2.5e15), so ``_JacobiRecurrence``
    serves unless a coefficient of it vanishes, at alpha+beta in {-2, -3,
    ...}; NumericalError past ``hyper._MAX_POLYNOMIAL_DEGREE``."""
    n = integer_within(nu, _POLE_TOL) if nu.real >= -_POLE_TOL else None
    ab = alpha + beta
    if n is not None and not (ab.real < -1.5 and integer_within(ab, _POLE_TOL) is not None):
        if n > _MAX_POLYNOMIAL_DEGREE:
            raise NumericalError(f"Jacobi polynomial of degree {n:.3g} cancels: n*eps > 1e-6")
        return _JacobiRecurrence(n, alpha, beta, s if isinstance(s, tuple) else (s, s), name)
    # the one term; the limit as for P where the sum reaches c = alpha+1 = 1-n
    # first, else Gamma(c)'s pole, if any, pairs Gamma(nu+alpha+1)'s
    a, b, c = -nu, nu + alpha + beta + 1.0, alpha + 1.0
    K = gamma_ratio([nu + alpha + 1.0], [nu + 1.0, c])
    terms = _term_sum([_Term(K, 0.0, 0.0, a, b, c, "half")], s, name, True)
    if terms._hyp[0][0]._pole is not None:
        n, C, a, b, c = _c_limit(a, b, c)
        K = C * 0.5**n * gamma_ratio([nu + alpha + 1.0], [nu + 1.0])
        terms = _term_sum([_Term(K, float(n), 0.0, a, b, c, "half")], s, name, True)
    return terms


# --- evaluators ----------------------------------------------------------------

_KINDS = ("p", "q", "ferrers_p", "ferrers_q")
# every kind -> the name its errors carry: the public kinds, Olver's Q and
# the Whipple images of P and Q, functions of y for y/sqrt(y**2-1)
_NAMES = dict(zip(_KINDS, ("legendre_p", "legendre_q", "ferrers_p", "ferrers_q")))
_NAMES.update(
    olver_q="legendre_q", whipple_p="whipple_p_to_q", whipple_q="whipple_q_to_p", jacobi="jacobi_p"
)


def _public_kind(kind):
    """``kind`` if it is a public one, else DomainError."""
    if kind not in _KINDS:
        raise DomainError(f"unknown kind {kind!r}")
    return kind


def _terms(kind, nu, mu):
    """The term list of ``kind`` (``_NAMES``) at (nu, mu); a Whipple image
    without its (y**2-1)**(1/4) (module docstring)."""
    if kind == "p":
        return _p_terms(nu, mu)
    if kind in ("q", "olver_q"):
        return _q_terms(nu, mu, olver=kind == "olver_q")
    if kind.startswith("ferrers"):
        return _ferrers_terms(kind, nu, mu)
    if kind == "whipple_p":
        K, image = math.sqrt(2.0 / math.pi), _q_terms(-mu - 0.5, -nu - 0.5, olver=True)
    else:
        K = cmath.exp(1j * math.pi * mu) * math.sqrt(math.pi / 2.0)
        K *= gamma_ratio([nu + mu + 1.0], [])
        image = _p_terms(-mu - 0.5, -nu - 0.5)
    return [t._replace(K=K * t.K) for t in image]


def _term_sum(terms, s, name, ferrers=False):
    """_TermSum of ``terms`` times the weight of exponent s, which joins the
    exponents p and q of every term; a pair (sp, sq) weights them apart."""
    sp, sq = s if isinstance(s, tuple) else (s, s)
    if sp != 0 or sq != 0:
        terms = [t._replace(p=t.p + sp, q=t.q + sq) for t in terms]
    return _TermSum(terms, name, ferrers)


class _FerrersP:
    """Ferrers P times (1-x**2)**s from the first ranked of its two term
    lists at x (module docstring), each built on first use; called as
    ``_TermSum``.  Their growth is exp(|nu+1/2| g), g = asinh|x| for the x**2
    pair (``_FERRERS_REACH``) and acosh(1+2|w|) for the one term, w = (1-x)/2.
    For 0 <= x < 1, w <= 1/2: the term needs no image, and at integer mu no
    average."""

    __slots__ = ("_args", "_slack", "_lists")
    cuts = _SEGMENT_CUTS

    def __init__(self, nu, mu, s, name):
        self._args = nu, mu, s, name
        # the growth exp(|nu+1/2| g) a list may have whatever the other's: 100
        h = abs(nu + 0.5)
        self._slack = math.log(100.0) / h if h else math.inf
        self._lists = [None, None]

    def reflection(self):
        """``_TermSum.reflection``: 1 at real nu, mu and s, where both lists'
        K are real; else None."""
        nu, mu, s, _name = self._args
        return None if nu.imag or mu.imag or complex(s).imag else 1.0

    def end_powers(self):
        """``_TermSum.end_powers`` of the one term: the x**2 pair splits its branch at 1."""
        nu, mu, s, name = self._args
        return _term_sum(_p_terms(nu, mu, ferrers=True), s, name, True).end_powers()

    def __call__(self, x, xc=None, order=0):
        m, r = 0.5 * abs(1.0 - x if xc is None else xc), abs(x)
        # the one term (0) ranks first where its modulus**(2/count), m**2,
        # is below the pair's (1), (r**2)**(2/2)
        g = math.acosh(1.0 + 2.0 * m), math.asinh(r)
        i = 0 if m < r else 1
        if g[i] > max(g[1 - i], self._slack):
            i = 1 - i
        if self._lists[i] is None:
            nu, mu, s, name = self._args
            terms = _ferrers_terms("ferrers_p", nu, mu) if i else _p_terms(nu, mu, ferrers=True)
            self._lists[i] = _term_sum(terms, s, name, True)
        return self._lists[i](x, xc, order)


def _whipple_y(y) -> complex:
    """y in the Whipple images' domain, Re y > 0 off (0, 1]; DomainError
    elsewhere.  There y/sqrt(y**2-1) is not the image's argument."""
    y = complex(y)
    if y.real <= 0.0 or (y.imag == 0.0 and y.real <= 1.0):
        raise DomainError(f"the Whipple images need Re y > 0 off (0, 1], got y = {y}")
    return y


class _Legendre:
    """One kind (``_NAMES``) at fixed (nu, mu), times the weight of exponent
    s: (z**2-1)**s, or (1-x**2)**s for the Ferrers kinds; Jacobi's mu is
    (alpha, beta), and its s a pair (sp, sq) for (1-z)**sp (1+z)**sq.
    Called at z it checks z, for the public functions too; ``terms``, the
    term list called as (v, vc=None, order=0), refuses a 2F1 argument on its cut."""

    __slots__ = ("_domain", "terms", "_limit")

    def __init__(self, kind, nu, mu, s=0.0):
        # Jacobi's mu is a pair, and so may s be
        check_finite(nu, *(mu if kind == "jacobi" else [mu]), *(s if isinstance(s, tuple) else [s]))
        name = _NAMES[kind] if s == 0 else "weighted " + _NAMES[kind]
        self._domain = domain = kind.split("_")[0]  # "ferrers", "whipple", "jacobi" or cut plane's
        nu = complex(nu)
        if kind == "jacobi":
            self.terms = _jacobi(nu, complex(mu[0]), complex(mu[1]), s, name)
        elif kind == "ferrers_p":
            self.terms = _FerrersP(nu, complex(mu), s, name)
        else:
            s = s + 0.25 if domain == "whipple" else s
            self.terms = _term_sum(_terms(kind, nu, complex(mu)), s, name, domain == "ferrers")
        if domain == "ferrers":
            # capped at sinh(1) > 1; no Ferrers x is refused while |nu+1/2| < 27.8
            self._limit = math.sinh(min(_FERRERS_REACH / max(abs(nu.real + 0.5), 1.0), 1.0))

    def __call__(self, z, order=0, boundary_side=None):
        """The order-th derivative (0, 1 or 2) at z.

        ``boundary_side`` selects the side of the cut for P and Q at real
        z <= 1; the other kinds ignore it.
        """
        if order not in (0, 1, 2):
            raise DomainError(f"derivative order must be 0, 1 or 2, got {order}")
        check_finite(z)
        if self._domain == "ferrers":
            z = real_argument(z, "Ferrers functions")
            if not -1.0 < z < 1.0:
                raise DomainError(f"Ferrers argument must lie in (-1, 1), got {z}")
            if abs(z) >= self._limit:
                raise NumericalError(f"Ferrers series lose digits at |x| >= {self._limit:.3g}")
        elif self._domain == "whipple":
            z = _whipple_y(z)
        elif self._domain == "jacobi":
            z = complex(z)
        else:
            z = complex(z)
            # P and Q at a real z <= 1 take the side of the cut the caller names
            if z.imag == 0.0 and z.real <= 1.0:
                if z.real in (1.0, -1.0):
                    raise DomainError(f"evaluation at the branch point z = {z.real}")
                if boundary_side not in ("+", "-"):
                    raise DomainError("z lies on the cut (-inf, 1]; pass boundary_side '+' or '-'")
                z = complex(z.real, _CUT_IMAG if boundary_side == "+" else -_CUT_IMAG)
        return self.terms(z, None, order)


def legendre_evaluator(kind, nu, mu):
    """Evaluator of one function at fixed degree and order.

    ``kind``: "p", "q" (cut-plane functions, complex z) or "ferrers_p",
    "ferrers_q" (real x in (-1, 1)).  The result is called as
    ``ev(z, order=0, boundary_side=None)`` and returns exactly what the
    matching public function returns; reuse it over many z to do the
    parameter-only work once.
    """
    return _Legendre(_public_kind(kind), nu, mu)


def weighted_evaluator(kind, nu, mu, s):
    """(v, vc=None) -> (v**2-1)**s F_nu^mu(v), or (1-v**2)**s F_nu^mu(v) for
    the Ferrers kinds, for the ``legendre_evaluator`` kinds.  ``vc`` is
    1 - v, exact, as a quadrature node next to v = 1 has it: the weight's
    power of v-1 and the series' singular part there are taken from it.

    The weight is carried by the term exponents, so v may be any complex
    point; only a term's 2F1 argument on its cut (1, inf) raises DomainError.
    With s = mu/2 the P form is analytic through v = 1; with s = -mu/2 it
    has the single power (v-1)**(-mu), and the Ferrers terms none.  A value
    past double range raises NumericalError, as the public functions do.
    """
    return _Legendre(_public_kind(kind), nu, mu, s).terms


def whipple_evaluator(kind, nu, mu, s):
    """(y, yc=None) -> (y**2-1)**s F_nu^mu(y/sqrt(y**2-1)) for F = P ("p")
    or Q ("q"), yc being an exact 1 - y as for ``weighted_evaluator``: the
    Whipple image's term list (module docstring) with s joining its
    exponents.  For Re y > 0 off (0, 1], checked only where a 2F1 argument
    is on its cut, as for ``weighted_evaluator``.  The degree weights
    s = -(nu+1)/2 and nu/2 are the image's order weights, so the Q form is
    analytic through y = 1 at the first.  A value past double range raises
    NumericalError, and Q's image raises PoleError within 1e-9 of a pole of
    Gamma(nu+mu+1).
    """
    if kind not in ("p", "q"):
        raise DomainError(f"Whipple images exist for kinds 'p' and 'q', not {kind!r}")
    return _Legendre("whipple_" + kind, nu, mu, s).terms


def jacobi_evaluator(nu, alpha, beta):
    """z -> jacobi_p(nu, alpha, beta, z) with the parameter-only work done
    once: the ``_Legendre`` kind "jacobi", Jacobi's one term in (1-z)/2 or
    at integer degree its degree recurrence (``_jacobi``)."""
    return _Legendre("jacobi", nu, (alpha, beta))


# --- public functions ----------------------------------------------------------


def legendre_p(nu, mu, z, boundary_side=None) -> complex:
    """P_nu^mu(z) on the cut plane C \\ (-inf, 1].

    nu, mu may be any complex numbers; boundary_side "+"/"-" selects the
    limit from above/below when z is real and <= 1.  The degree is bounded
    by double range, not by the series: |P_1000.5^0.2(1.5)| is about 1.2e417,
    so ``legendre_p(1000.5, 0.2, 1.5)`` raises NumericalError naming the
    overflow, while ``legendre_p(2000.5, 0.2, 1.01)`` (about 6.8e121) is
    accurate.
    """
    return _Legendre("p", nu, mu)(z, boundary_side=boundary_side)


def legendre_q(nu, mu, z, boundary_side=None, olver=False) -> complex:
    """Q_nu^mu(z) with the exp(i pi mu) normalization.

    Q is the single 1/z**2 term of DLMF 14.3.7 on the whole cut plane (see
    the module docstring), with no subtraction, its series summed by the
    quadratic image in (z - sqrt(z**2-1))**2.  Against mpmath, over seeded
    boxes with nu in (-3, 25] and |mu| < 2 or integer, it is within 2e-13
    relative at |z-1| down to 0.001, and within 5e-14 inside the unit disc
    off the cut, there for nu up to 80 too (README, "Accuracy of Q").  Where
    the series is continued, on the cut (-1, 1) past |x| ~ 0.85 and next to
    z = +/-1, an integer mu makes the 1-w images degenerate; where the clean
    1/w image does not serve, ``hyper._Gauss._nudge`` averages mu +/- i*eps,
    and the cut is within 1.5e-10 there.

    Where nu+mu+1 is in {0, -1, ...}, Gamma(nu+mu+1) makes Q infinite (or,
    where Olver's Q vanishes, its limit depends on the direction of
    approach), and it raises PoleError.

    ``olver=True`` returns exp(-i pi mu) Q_nu^mu(z) / Gamma(nu+mu+1), which
    is entire in both parameters.
    """
    return _Legendre("olver_q" if olver else "q", nu, mu)(z, boundary_side=boundary_side)


def ferrers_p(nu, mu, x) -> complex:
    """Ferrers function of the first kind on (-1, 1), from two series in
    x**2, or past x = 1/3 from one in (1-x)/2 (module docstring); README
    states their accuracy."""
    return _Legendre("ferrers_p", nu, mu)(x)


def ferrers_q(nu, mu, x) -> complex:
    """Ferrers function of the second kind on (-1, 1), from the two series
    in x**2 of ``ferrers_p``; PoleError where nu+mu+1 is in {0, -1, ...}."""
    return _Legendre("ferrers_q", nu, mu)(x)


def jacobi_p(nu, alpha, beta, z) -> complex:
    """Jacobi function P_nu^(alpha, beta)(z) of complex degree,

        Gamma(nu+alpha+1)/(Gamma(nu+1) Gamma(alpha+1))
            * 2F1(-nu, nu+alpha+beta+1; alpha+1; (1-z)/2),

    reducing to the Jacobi polynomial at nonnegative integer nu.  On the cut
    (-inf, -1) the side is the caller's, by the sign of an imaginary part;
    at a real z < -1 it raises DomainError unless the series terminates.
    """
    return jacobi_evaluator(nu, alpha, beta)(z)


def legendre_deriv(nu, mu, z, order=1, kind="p", boundary_side=None) -> complex:
    """order-th derivative (order 1 or 2) of the selected function at z.

    ``kind``: "p", "q" (cut-plane functions, complex z) or "ferrers_p",
    "ferrers_q" (real x in (-1, 1)).
    """
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order}")
    return legendre_evaluator(kind, nu, mu)(z, order, boundary_side)


def whipple_p_to_q(nu, mu, y) -> complex:
    """P_nu^mu(y/sqrt(y**2-1)) from Olver's Q at the Whipple image (module
    docstring), for Re y > 0 off (0, 1]; DomainError elsewhere."""
    return _Legendre("whipple_p", nu, mu)(y)


def whipple_q_to_p(nu, mu, y) -> complex:
    """Q_nu^mu(y/sqrt(y**2-1)) from P at the Whipple image (module docstring),
    for Re y > 0 off (0, 1]; DomainError elsewhere, PoleError at Q's poles."""
    return _Legendre("whipple_q", nu, mu)(y)
