"""Double-exponential and Jacobi-weighted quadrature, and contour integrals.

Every integral in the identity layer runs through the double-exponential
rule ``integrate_segment``, through a Jacobi-weighted Fejér rule on the
loop segments whose ends each carry one declared power, or through the
Cauchy rule for Taylor coefficients below.  The primitives:

* ``integrate_segment``: tanh-sinh rule on a finite segment, tolerant of
  integrable endpoint singularities (declared exponent > -1), the plain
  double-exponential trapezoid sum of Takahasi and Mori (1974);
* ``integrate_semi_infinite``: the same rule on (0, 1) under
  t = a + (s/(1-s))**(1/3), for integrands on (a, inf) with an integrable
  singularity at ``a`` and algebraic decay faster than 1/t;
* ``integrate_loop``: the Riemann-Liouville operator on (0, c),

      (1/Gamma(-lam)) * integral of t**(-lam-1) g(t) over (0, c)
      = (Gamma(lam+1) exp(i pi lam) / (2 pi i)) * loop of t**(-lam-1) g(t) dt,

  the loop coming in from t = c, encircling 0 once counterclockwise and
  returning to c; continued to every complex lam.  At lam = -n it
  is the n-fold integral of g from 0 to c, at lam = n >= 0 the n-th
  derivative (-d/dt)**n g at 0, that is (-1)**n n! times the n-th Taylor
  coefficient.

``integrate_weyl`` is the same operator on (0, inf), the Weyl integral:
the half-line directly for Re lam < -1/2, otherwise the loop on (0, c) plus
its tail.  ``repeated_integral`` is either operator at lam = -n.

The loop's segment, (0, c) at Re lam < -1/2 and (t_cut, c) beyond, first
tries Fejér's second rule on cos(j pi/N), N = 8, 16, 32, in the Jacobi
weight of its end powers, where each end carries one power up to
non-negative integers: t**(-lam-1) at 0, g's ``basepoint_powers`` at c and,
on (t_cut, c), the subtracted polynomial's 0.  Its weights come from
Chebyshev moments (Piessens and Branders 1973); past N = 32 tanh-sinh
takes the segment.

The mass between each endpoint and its nearest node, from the declared
power law there, joins the estimate, not the value.  Every integrand is
called as f(x, xc), xc being the node's offset from the endpoint it is
measured from: b - x on a segment, a - t on the half-line.  The rule forms
it from the node map itself, not by subtracting x, so an integrand with a
power singularity at that endpoint evaluates it to full relative precision
at every node, as in Bailey, Jeyabalan and Li (2005) and Boost.Math's
tanh_sinh.  The loop and Weyl integrands g are called as g(t, c - t).
A node's offset, as a share of the span, and its weight depend only on the
level and the node index, so ``_NODES`` tabulates them once per level for
every segment, growing a level's rows as a later call reaches further out
in u: about 100 rows over the levels <= 4 that the identity catalog
reaches, at most 24,984 (about 3 MB) for a rule run to level 12 at the
widest reach u = asinh(700/pi).  ``_FEJER`` keeps the Fejér rows per N.

Regularization for Re lam >= 0 subtracts a Taylor polynomial of g at 0 and
adds its integral back analytically; Taylor coefficients come from a Cauchy
trapezoid rule with N = the smallest power of two >= max(32, coefficient
count) samples on a circle whose radius is a quarter of g's analyticity
radius (and of c), or all of (0, c) where that radius is at least 4c, so
aliasing stays below 4**-N relative (5e-20 at N = 32).  Where the circle
reaches c, the series' integral over (0, c) is the loop's lower part alone,
with no segment.  A loop with a power of g at c (``basepoint_exponent``)
cannot declare an analyticity radius past c.  A radix-2 FFT turns the
samples into coefficients.  The declared analyticity radius must be the
true one: a singularity inside it aliases into every coefficient.  A caller
may pass a reflection phase phi, vouching that g(conj t) = phi conj(g(t)) on
the circle (the Schwarz reflection principle: g is real on the real axis up
to the constant phase, as a function of real parameters at a real point
is); the rule then evaluates g on the upper half of the circle only, N/2 + 1
samples, and takes each sample of the lower half as phi times the
conjugate of its mirror image.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass

from .complexfn import check_finite, cpow, gamma_ratio, integer_within, rgamma
from .errors import ConvergenceError, DomainError, NumericalError
from typing import Callable

__all__ = [
    "QuadratureResult",
    "integrate_segment",
    "integrate_semi_infinite",
    "integrate_loop",
    "integrate_weyl",
    "repeated_integral",
]

_HALF_PI = 0.5 * math.pi
_EPS = sys.float_info.epsilon
# halvings of the double-exponential step before a rule gives up
_MAX_LEVEL = 12
# rounding of the Cauchy rule's coefficients, in units of the terms built
# from them (the loop's add-back and tail, or the sample mean |g_j| at
# integer order): 64 ulp, conservative for the FFT over 32 samples, whose
# rounding grows like log2(N) ulp
_ADDBACK_ROUNDING = 64 * _EPS
# a power of the Cauchy radius past this in log is out of the normal range
_LOG_RANGE = -math.log(sys.float_info.min)
# the largest n whose n! is inside double range
_MAX_FACTORIAL = 170
# lam within this of an integer n >= 0 is n: the loop is the n-th derivative
# at 0, and the Weyl integral has no tail, 1/Gamma(-n) being 0
_INTEGER_LAM_TOL = 1e-12
# the tanh-sinh rows of each level, (h, start) -> [(u, frac, weight), ...]
# (``_nodes``); the same for every segment, being offsets and weights per
# unit span
_NODES: dict = {}
# Fejér's second rule at these N; N -> its rows (``_fejer_rows``)
_FEJER_LEVELS = (8, 16, 32)
_FEJER: dict = {}


@dataclass(frozen=True)
class QuadratureResult:
    """Value, self-reported error estimate, and integrand evaluation count."""

    value: complex
    err_estimate: float
    evaluations: int

    def __add__(self, other: "QuadratureResult") -> "QuadratureResult":
        return QuadratureResult(
            self.value + other.value,
            self.err_estimate + other.err_estimate,
            self.evaluations + other.evaluations,
        )

    def scaled(self, factor: complex) -> "QuadratureResult":
        return QuadratureResult(
            self.value * factor,
            self.err_estimate * abs(factor),
            self.evaluations,
        )


def _nodes(h, start, step, u_end):
    """The tanh-sinh rows (u, frac, weight) of one level, u = j h for
    j = start, start + step, ... up to u_end at least: frac = e/(1+e) is the
    node's offset (1 - tanh((pi/2) sinh u))/2 from the nearer endpoint as a
    share of the span, weight = 2 pi cosh u e/(1+e)**2 the derivative of
    tanh((pi/2) sinh u), e = exp(-pi sinh u).  Each (h, start) keeps one
    table in ``_NODES``, which grows, never shrinks, as calls reach further
    out in u; its rows are the same whatever order the calls come in."""
    rows = _NODES.setdefault((h, start), [])
    j = start + step * len(rows)
    while j * h <= u_end:
        u = j * h
        e = math.exp(-2.0 * (_HALF_PI * math.sinh(u)))
        rows.append((u, e / (1.0 + e), 4.0 * _HALF_PI * math.cosh(u) * e / (1.0 + e) ** 2))
        j += step
    return rows


def _check_arguments(target, *values, **reals) -> None:
    """DomainError unless each value given (None: left out) is finite, each
    keyword value is real, named in the message when it is not, and
    ``target`` is positive and finite."""
    check_finite(*(v for v in (*values, *reals.values()) if v is not None))
    for name, v in dict(reals, target=target).items():
        if isinstance(v, complex):
            raise DomainError(f"{name} must be real, got {v!r}")
    if not 0.0 < target < math.inf:
        raise DomainError(f"quadrature target must be positive and finite, got {target!r}")


def integrate_segment(
    f: Callable[[complex, complex], complex],
    a,
    b,
    endpoint_exponent_a: float = 0.0,
    endpoint_exponent_b: float = 0.0,
    target: float = 1e-9,
    absolute_floor: float = 0.0,
) -> QuadratureResult:
    """tanh-sinh integral of f over the straight segment from a to b.

    f is called as f(x, b - x), b - x being on the half next to b the
    node's offset span * (1 - tanh((pi/2) sinh u))/2, not x subtracted from
    b; on the half next to a, x = a + that offset.  ``endpoint_exponent_*``
    declares the power-law behavior of f at each endpoint, which sets how
    far out the nodes go and the mass left between the endpoint and its
    nearest node; exponents must exceed -1 (integrable).
    ``absolute_floor`` states the magnitude of the quantity this piece
    contributes to, so a negligible piece is not forced to converge in its
    own relative terms.

    Trapezoid sums in u with steps h = 1, 1/2, ... run until two agree to
    ``target`` relative.  Each level walks both sides out from u = 0, and a
    side stops, for this and later levels, after two terms in a row below
    eps times the sum of |w f| so far: no later term moves the sums.  The
    mass between each endpoint and its nearest node, d |f| / k for
    |f| ~ d**(k-1) at distance d, joins the estimate, not the value.  Past
    the last level a result within sqrt(target) relative, or within the
    rounding of the node positions, is accepted; anything else raises
    ConvergenceError; a level whose sum of |w f| is not finite raises
    NumericalError.
    """
    _check_arguments(
        target, a, b, endpoint_exponent_a=endpoint_exponent_a, endpoint_exponent_b=endpoint_exponent_b
    )
    if endpoint_exponent_a <= -1.0 or endpoint_exponent_b <= -1.0:
        raise DomainError(
            "non-integrable endpoint exponent: "
            f"({endpoint_exponent_a}, {endpoint_exponent_b})"
        )
    a = complex(a)
    b = complex(b)
    if a == b:
        return QuadratureResult(0j, 0.0, 0)
    span = b - a
    rad = 0.5 * span
    length = abs(span)

    sigma = min(endpoint_exponent_a, endpoint_exponent_b, 0.0)
    # resolve the weakest endpoint decay: weight ~ exp(-(1+sigma) pi sinh u);
    # past (pi/2) sinh u = 350 the offset exp(-700) nears the end of range
    sinh_max = min(max(16.0, 45.0 / (math.pi * (1.0 + sigma))), 700.0 / math.pi)
    u_max = math.asinh(sinh_max)

    ends = [u_max, u_max]  # per side, the b side (u > 0) first
    outer = [(0.0, 0j, 0.0), (0.0, 0j, 0.0)]  # per side: u, f and d of the outermost node
    evaluations = 0
    acc = 0j  # sum of w f
    size = 0.0  # sum of |w f|

    def level(h, start, step):
        nonlocal evaluations, acc, size
        rows = _nodes(h, start, step, max(ends))
        for side in (0, 1):
            end = ends[side]
            far = outer[side][0]
            small = 0
            # at h = 1 the node u = 0 is the b side's alone
            for u, frac, weight in rows[1:] if side and not start else rows:
                if u > end:
                    break
                offset = span * frac
                if side:
                    x = a + offset
                    fx = f(x, b - x)
                else:
                    fx = f(b - offset, offset)
                evaluations += 1
                if u >= far:
                    outer[side] = (u, fx, length * frac)
                    far = u
                wf = rad * weight * fx
                acc += wf
                t = abs(wf)
                size += t
                if t <= _EPS * size:
                    small += 1
                    if small == 2:
                        ends[side] = u
                        break
                else:
                    small = 0
        if not math.isfinite(size):
            raise NumericalError(
                f"non-finite integrand: sum of |w f| is {size!r} after {evaluations} evaluations"
            )

    # the accuracy accepted after _MAX_LEVEL: sub-ulp intervals cannot converge
    # in relative terms, being bounded by the rounding of the node positions
    fallback = max(math.sqrt(target), 2.3e-16 * max(abs(a), abs(b)) / length)
    h = 1.0
    level(h, 0, 1)
    best = acc * h
    for _level in range(1, _MAX_LEVEL + 1):
        h *= 0.5
        level(h, 1, 2)
        cur = acc * h
        noise_floor = 1e-14 * size * h
        err = abs(cur - best)
        best = cur
        if err <= target * max(abs(cur), absolute_floor, 1e-30) + noise_floor + 1e-300:
            err = max(err, noise_floor)
            break
    else:
        if err > fallback * max(abs(best), absolute_floor, 1e-30) + 1e3 * noise_floor:
            raise ConvergenceError(
                f"double-exponential quadrature stalled: err ~ {err:.2e} after level {_MAX_LEVEL}"
            )
    rates = (1.0 + endpoint_exponent_b, 1.0 + endpoint_exponent_a)
    tails = sum(d * abs(fx) / k for (_u, fx, d), k in zip(outer, rates))
    return QuadratureResult(best, err + tails, evaluations)


def _fejer_rows(n):
    """Fejér's second rule on x_j = cos(theta_j), theta_j = j pi/n, 0 < j < n:
    the shares (1 - x_j)/2 = sin(theta_j/2)**2, node j's offset from x = 1
    and node n-j's from -1; the rows (2/n) sin(theta_j) sin(k theta_j), k < n,
    a sine transform from the moments of U_(k-1) to weights; the weights at 1."""
    if n not in _FEJER:
        theta = [j * math.pi / n for j in range(n)]
        rows = [[2.0 / n * math.sin(t) * math.sin(k * t) for k in range(1, n)] for t in theta[1:]]
        shares = [math.sin(0.5 * t) ** 2 for t in theta]
        _FEJER[n] = shares, rows, _fejer_weights(rows, _moments(0.0, 0.0))
    return _FEJER[n]


def _moments(alpha, beta, count=_FEJER_LEVELS[-1] - 1):
    """M_k = int (1-x)**alpha (1+x)**beta T_k(x) dx over (-1, 1), k < count:
    M_0 = 2**(alpha+beta+1) B(alpha+1, beta+1), M_1 = M_0 (beta-alpha) /
    (alpha+beta+2) and (k+alpha+beta+2) M_(k+1) = 2 (beta-alpha) M_k +
    (k-alpha-beta-2) M_(k-1), within 1.2e-15 M_0 for exponents in (-0.99, 3)."""
    s, d = alpha + beta, beta - alpha
    m0 = 2.0 ** (s + 1.0) * gamma_ratio([alpha + 1.0, beta + 1.0], [s + 2.0])
    if not (s.imag or d.imag):  # floats at real exponents: a faster sum
        s, d, m0 = s.real, d.real, m0.real
    m = [m0, m0 * d / (s + 2.0)]
    for k in range(1, count - 1):
        m.append((2.0 * d * m[k] + (k - s - 2.0) * m[k - 1]) / (k + s + 2.0))
    return m


def _fejer_weights(rows, m):
    u = [m[0], 2.0 * m[1]]  # the moments of U_k = U_(k-2) + 2 T_k
    for k in range(2, len(rows)):
        u.append(u[k - 2] + 2.0 * m[k])
    return [sum(map(operator.mul, row, u)) for row in rows]


def _weighted_segment(f, a, b, weight, exponent_a, exponent_b, target, absolute_floor=0.0):
    """``integrate_segment`` of f over (a, b), first tried, where neither of
    ``weight`` = (alpha, beta) is None, by Fejér's rule at N = 8, 16, 32 for f
    with the powers (1-x)**alpha (1+x)**beta, x = -1 at a and 1 at b; it takes
    two levels that agree as ``integrate_segment`` does (never non-finite
    ones), estimate |I_N - I_(N/2)| + 1e-14 sum |w f|; its evaluations count."""
    span = b - a
    values = {}  # f at each node, by its angle in units of pi/32
    alpha, beta = weight
    levels = () if None in weight else _FEJER_LEVELS
    m = None if not levels or alpha == beta == 0.0 else _moments(alpha, beta)
    prev = None
    for n in levels:
        shares, rows, weights = _fejer_rows(n)
        if m is not None:
            weights = [
                w / ((2.0 * shares[j]) ** alpha * (2.0 * shares[n - j]) ** beta)
                for j, w in enumerate(_fejer_weights(rows, m), 1)
            ]
        acc, size = 0j, 0.0
        for j, w in enumerate(weights, 1):
            key = j * (_FEJER_LEVELS[-1] // n)
            if key not in values:
                offset = span * shares[min(j, n - j)]
                x = b - offset if 2 * j <= n else a + offset
                values[key] = f(x, offset if 2 * j <= n else b - x)
            acc += w * values[key]
            size += abs(w * values[key])
        cur, noise_floor = 0.5 * span * acc, 0.5e-14 * abs(span) * size
        err = math.inf if prev is None else abs(cur - prev)
        if err <= target * max(abs(cur), absolute_floor, 1e-30) + noise_floor + 1e-300:
            return QuadratureResult(cur, err + noise_floor, len(values))
        prev = cur
    res = integrate_segment(f, a, b, exponent_a, exponent_b, target, absolute_floor)
    return QuadratureResult(res.value, res.err_estimate, res.evaluations + len(values))


def _one_power(powers):
    """The integrable e with every (power, log) of known ``powers`` e plus a
    non-negative integer, none with a logarithm; else None."""
    if powers is None or any(log for _p, log in powers):
        return None
    e = min((p for p, _log in powers), key=lambda p: p.real)
    if e.real <= -1.0 or any(integer_within(p - e, _INTEGER_LAM_TOL) is None for p, _log in powers):
        return None
    return e if (n := integer_within(e, _INTEGER_LAM_TOL)) is None else float(n)


def integrate_semi_infinite(
    f: Callable[[float, float], complex],
    a: float,
    endpoint_exponent: float = 0.0,
    decay_exponent: float | None = None,
    target: float = 1e-9,
) -> QuadratureResult:
    """Integral of f over (a, inf): ``integrate_segment`` over s in (0, 1)
    with t = a + d, d = (s/(1-s))**(1/3), so that the tanh-sinh nodes give
    d = exp((pi/3) sinh u), Takahasi and Mori's rule for the half-line.

    f is called as f(t, a - t) at real t, a - t = -d being taken from the
    segment's exact offset 1 - s.  ``endpoint_exponent`` declares the power
    e of (t-a) as t -> a (must be > -1); ``decay_exponent``, when supplied,
    declares that |f| ~ t**(-p) as t -> inf and must satisfy p > 1.  In s
    they are the endpoint exponents (e-2)/3 at s = 0 and (p-4)/3 at s = 1,
    -0.94 with p not declared, the strongest singularity the rule resolves.
    The nodes stop near t - a ~ 1e-101 and t ~ 1e101, so declared-valid
    integrands stay inside double-precision range; for e < -0.8 (a, a+1) is
    a plain segment, reaching t - a ~ 1e-304, and the map starts at a + 1.
    The mass past the last node T, T |f(T)| / (p-1) by the declared power
    law (T |f(T)| / 0.18 with none declared, a bound for p >= 1.18), joins
    ``err_estimate``, as does the mass between a and the nearest node.
    a must be real.
    """
    _check_arguments(
        target, a=a, endpoint_exponent=endpoint_exponent, decay_exponent=decay_exponent
    )
    if endpoint_exponent <= -1.0:
        raise DomainError(f"non-integrable endpoint exponent {endpoint_exponent}")
    if decay_exponent is not None and decay_exponent <= 1.0:
        raise DomainError(
            f"insufficient decay at infinity: declared exponent {decay_exponent} <= 1"
        )
    # below e = -0.8 the mass under t - a = 1e-101 would exceed 1e-20
    near = 1.0 if endpoint_exponent < -0.8 else 0.0

    def mapped(s, sc):
        s, sc = s.real, sc.real
        d = (s / sc) ** (1.0 / 3.0)
        # dt/ds = d / (3 s (1-s)), divided in turn so that nothing overflows
        return f(a + near + d, -near - d) * d / s / 3.0 / sc

    start = (endpoint_exponent if near == 0.0 else 0.0) - 2.0
    decay = -0.94 if decay_exponent is None else (decay_exponent - 4.0) / 3.0
    result = integrate_segment(mapped, 0.0, 1.0, start / 3.0, decay, target)
    if near:  # run from a + 1 to a, so that the offset a - t is exact next to a
        plain = integrate_segment(
            lambda t, tc: f(t.real, tc.real), a + near, a, 0.0, endpoint_exponent, target
        )
        result += plain.scaled(-1.0)
    return result


def _fft(x):
    """sum_j x_j exp(-2 pi i jk/n) for k < n = len(x), a power of two: the
    radix-2 butterflies, in place on x in bit-reversed order."""
    n = len(x)
    a = list(x)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            a[i], a[j] = a[j], a[i]
    roots = [cmath.exp(-2j * math.pi * k / n) for k in range(n // 2)]
    half = 1
    while half < n:
        step = n // (2 * half)
        for start in range(0, n, 2 * half):
            for k in range(half):
                u = a[start + k]
                v = a[start + k + half] * roots[k * step]
                a[start + k] = u + v
                a[start + k + half] = u - v
        half *= 2
    return a


def _taylor_coefficients(
    g: Callable[[complex], complex], radius: float, count: int, reflection=None
):
    """Taylor coefficients c_0..c_{count-1} of g at 0 by the trapezoid rule
    on |t| = radius, with N = the smallest power of two >= max(32, count)
    samples g_j at t_j = radius exp(2 pi i j/N); returns (coefficients,
    evaluations of g, mean |g_j|).

    Every caller puts the circle at a quarter of g's analyticity radius or
    inside it, so the aliased terms c_{k+N} radius**(k+N) are below 4**-N
    relative, and N >= count keeps the returned coefficients from aliasing
    onto each other.  With a ``reflection`` phase phi, the caller's promise that
    g(conj t) = phi conj(g(t)) on the circle, g is called at j = 0..N/2 only,
    and each g_j with j > N/2 is phi conj(g_(N-j)): N/2 + 1 evaluations.
    NumericalError, before any sample, where radius**(count-1) leaves the
    normal double range, which the division by radius**k needs.
    """
    if abs((count - 1) * math.log(radius)) > _LOG_RANGE:
        raise NumericalError(
            f"the Cauchy rule cannot reach Taylor order {count - 1}: "
            f"{radius:g}**{count - 1} is out of double range"
        )
    n = 32
    while n < count:
        n *= 2
    if reflection is None:
        samples = [g(radius * cmath.exp(2j * math.pi * j / n)) for j in range(n)]
        evaluations = n
    else:
        samples = [g(radius * cmath.exp(2j * math.pi * j / n)) for j in range(n // 2 + 1)]
        evaluations = len(samples)
        samples += [reflection * s.conjugate() for s in reversed(samples[1:-1])]
    sums = _fft(samples)
    coeffs = [sums[k] / (n * radius**k) for k in range(count)]
    return coeffs, evaluations, sum(map(abs, samples)) / n


def _poly_eval(coeffs, t):
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _regularized_lower(
    g: Callable[[complex, complex], complex],
    c: float,
    lam: complex,
    radius: float,
    target: float,
    basepoint_exponent: float = 0.0,
    reflection=None,
    basepoint_powers=None,
) -> QuadratureResult:
    """Regularized integral of t**(-lam-1) g(t) over (0, c).

    Defined by subtracting the degree-(M-1) Taylor polynomial of g and adding
    back sum_k g_k c**(k-lam)/(k-lam), the analytic continuation of the
    polynomial part from Re lam < 0; ``reflection`` as for
    ``_taylor_coefficients``.  Below t_cut, half the circle's radius, the
    remainder is the series from k = M on, integrated term by term, and
    tanh-sinh, or Fejér's rule (module docstring), takes (t_cut, c); where
    the circle is c itself (``_cauchy_radius``), t_cut is c and the series
    alone is the integral.
    """
    m_sub = max(int(math.ceil(lam.real)) + 1, 8)
    # at t_cut = radius/2 the terms fall like 8**-k, and like 4**-k at
    # t_cut = c where the circle is c itself: the first one left out is
    # below 4**-32 of the leading one
    k_tail = 24
    coeffs, n_eval, _ = _taylor_coefficients(
        lambda t: g(t, c - t), radius, m_sub + k_tail, reflection
    )
    t_cut = c if radius == c else 0.5 * radius

    # analytic integral of the subtracted remainder over (0, t_cut)
    tail0 = 0.0 + 0.0j
    last = 0.0
    for k in range(m_sub, m_sub + k_tail):
        term = coeffs[k] * cpow(t_cut, k - lam) / (k - lam)
        tail0 += term
        last = abs(term)
    scale = max(abs(tail0), abs(coeffs[0]) * abs(cpow(t_cut, -lam)), 1e-30)
    if last > 1e-10 * scale:
        raise ConvergenceError(
            "Taylor tail of the loop integrand did not decay inside the "
            "analyticity disk"
        )

    addback = 0.0 + 0.0j
    addback_abs = 0.0
    for k in range(m_sub):
        term = coeffs[k] * cpow(c, k - lam) / (k - lam)
        addback += term
        addback_abs += abs(term)
    # the Cauchy-rule coefficients carry rounding noise that the subtraction
    # cancels only to a few ulp of the add-back and tail terms
    rounding = _ADDBACK_ROUNDING * (addback_abs + abs(tail0))
    if t_cut == c:  # the series alone is the integral over (0, c)
        return QuadratureResult(tail0 + addback, rounding, n_eval)

    head = coeffs[:m_sub]

    def integrand(t, tc):
        return (g(t, tc) - _poly_eval(head, t)) * cpow(t, -lam - 1.0)

    # g - P adds the polynomial's power 0 to g's at c
    at_c = _one_power(basepoint_powers and (*basepoint_powers, (0.0, False)))
    seg = _weighted_segment(
        integrand, t_cut, c, (at_c, 0.0), 0.0, basepoint_exponent, target, abs(tail0 + addback)
    )
    return QuadratureResult(
        seg.value + tail0 + addback,
        seg.err_estimate + rounding,
        seg.evaluations + n_eval,
    )


def _cauchy_radius(c: float, analyticity_radius: float | None) -> float:
    """Radius of the Cauchy circle for the Taylor coefficients of g at 0: a
    quarter of the nearer of c and g's analyticity radius (c when None), or
    c itself, the disc then covering all of (0, c), where that radius is at
    least 4c."""
    rho = c if analyticity_radius is None else analyticity_radius
    if rho <= 0:
        raise DomainError("analyticity radius must be positive")
    return c if rho >= 4.0 * c else 0.25 * min(c, rho)


def integrate_loop(
    g: Callable[[complex, complex], complex],
    c: float,
    lam,
    analyticity_radius: float | None = None,
    basepoint_exponent: float = 0.0,
    target: float = 1e-9,
    reflection: complex | None = None,
    basepoint_powers=None,
) -> QuadratureResult:
    """Riemann-Liouville operator (1/Gamma(-lam)) * int_0^c t**(-lam-1) g(t) dt,
    continued in lam: the loop of the module docstring.

    ``c`` is the start/end point of the loop on the positive real axis; g
    is called as g(t, c - t), with c - t exact next to t = c;
    ``analyticity_radius`` bounds the disk around 0 where g is analytic
    (defaults to c).  ``basepoint_exponent`` declares a power-law of g at
    t = c.  Integer lam = n >= 0 gives (-d/dt)**n g at 0, that is (-1)**n n!
    times the n-th Taylor coefficient of g, with the Cauchy rule's rounding
    as its estimate.  Otherwise the integral is tanh-sinh directly for
    Re lam < -1/2, lam = -n giving the n-fold integral of g over (0, c), and
    ``_regularized_lower`` on the circle of ``_cauchy_radius`` beyond.
    c, the radius and the exponent must be real, and a nonzero exponent,
    a power of g at c, bounds the radius by c.

    ``reflection``, when given, is a phase phi for which the caller vouches
    that g(conj t, c - conj t) = phi conj(g(t, c - t)) on the Cauchy circle,
    as holds when g is real on the real axis up to that phase; the Cauchy
    rule then evaluates g on half the circle, N/2 + 1 samples in place of N.
    ``basepoint_powers`` lists, where known, every power of g at c as pairs
    (e, log), g being a sum of (c-t)**e, times log(c-t) where log, times
    functions analytic at c; ``basepoint_exponent`` is their least Re e.
    """
    _check_arguments(
        target,
        lam,
        reflection,
        *(e for e, _log in basepoint_powers or ()),
        c=c,
        analyticity_radius=analyticity_radius,
        basepoint_exponent=basepoint_exponent,
    )
    lam = complex(lam)
    n = integer_within(lam, _INTEGER_LAM_TOL) if lam.real > -0.5 else None
    return _loop(
        g, c, lam, n, analyticity_radius, basepoint_exponent, target, reflection, basepoint_powers
    )


def _loop(g, c, lam, n, analyticity_radius, exponent, target, reflection, powers):
    """``integrate_loop`` past its checks; n is lam taken as an integer >= 0, or None."""
    if c <= 0:
        raise DomainError(f"loop base point must be positive, got {c}")
    if exponent and analyticity_radius is not None and analyticity_radius > c:
        raise DomainError(
            f"analyticity radius {analyticity_radius} reaches past c = {c}, where g has "
            f"the power {exponent}"
        )
    radius = _cauchy_radius(c, analyticity_radius)
    if n is not None:
        if n > _MAX_FACTORIAL:
            raise NumericalError(f"the derivative of order {n} needs {n}!, past double range")
        coeffs, n_eval, size = _taylor_coefficients(
            lambda t: g(t, c - t), radius, n + 1, reflection
        )
        rounding = _ADDBACK_ROUNDING * size / radius**n
        return QuadratureResult(coeffs[n], rounding, n_eval).scaled((-1) ** n * math.factorial(n))
    if lam.real < -0.5:
        weight = (_one_power(powers), -lam - 1.0)
        lower = _weighted_segment(
            lambda t, tc: cpow(t, -lam - 1.0) * g(t, tc), 0.0, c, weight,
            -lam.real - 1.0, exponent, target,
        )
    else:
        lower = _regularized_lower(g, c, lam, radius, target, exponent, reflection, powers)
    return lower.scaled(rgamma(-lam))


def integrate_weyl(
    g: Callable[[complex, complex], complex],
    lam,
    c: float = 1.0,
    analyticity_radius: float | None = None,
    decay_exponent: float | None = None,
    target: float = 1e-9,
    reflection: complex | None = None,
) -> QuadratureResult:
    """Weyl operator (1/Gamma(-lam)) * int_0^inf t**(-lam-1) g(t) dt, continued
    in lam: the loop from infinity around 0 and back,

        (Gamma(lam+1) exp(i pi lam) / (2 pi i)) *
            loop_(inf,0+,inf) t**(-lam-1) g(t) dt.

    At lam = -n it is the n-fold integral of g from 0 to infinity, at
    integer lam = n >= 0, where 1/Gamma(-n) = 0 removes the tail,
    ``integrate_loop``'s (-d/dt)**n g at 0.  For Re lam < -1/2 the integral
    is ``integrate_semi_infinite`` directly, as ``integrate_loop``'s
    segment; otherwise it is
    ``integrate_loop`` on (0, c) plus the tail over (c, inf); where
    ``analyticity_radius`` is at least 4c the loop is the Taylor series of
    g alone, its Cauchy disc covering all of (0, c).  Requires
    t**(-Re lam - 1) g(t) integrable at infinity; ``decay_exponent``, when
    supplied, declares |g| ~ t**(-decay_exponent) there.  g is called as
    g(t, c - t), as by ``integrate_loop``; c, the radius and the exponent
    must be real.  ``reflection`` is ``integrate_loop``'s: a phase phi with
    g(conj t, c - conj t) = phi conj(g(t, c - t)) on the Cauchy circle, the
    caller's promise, on which the loop's Cauchy rule evaluates g on half
    the circle.
    """
    _check_arguments(
        target,
        lam,
        reflection,
        c=c,
        analyticity_radius=analyticity_radius,
        decay_exponent=decay_exponent,
    )
    lam = complex(lam)
    tail_decay = None if decay_exponent is None else decay_exponent + lam.real + 1.0

    def kernel(t, _tc):
        return cpow(t, -lam - 1.0) * g(t, c - t)

    if lam.real < -0.5:
        return integrate_semi_infinite(
            kernel,
            0.0,
            endpoint_exponent=-lam.real - 1.0,
            decay_exponent=tail_decay,
            target=target,
        ).scaled(rgamma(-lam))
    n = integer_within(lam, _INTEGER_LAM_TOL)
    # c is inside the ray: g is analytic there
    lower = _loop(g, c, lam, n, analyticity_radius, 0.0, target, reflection, ((0.0, False),))
    if n is not None:
        return lower
    upper = integrate_semi_infinite(kernel, c, decay_exponent=tail_decay, target=target)
    return lower + upper.scaled(rgamma(-lam))


def repeated_integral(
    f: Callable[[complex, complex], complex],
    z,
    n: int,
    upper: str = "to_one",
    endpoint_exponent: float = 0.0,
    target: float = 1e-9,
) -> QuadratureResult:
    """n-fold iterated integral of f: by Cauchy's formula for repeated
    integration, a fractional operator at order lam = -n.

    * ``to_one``:      over (z, 1), (1-z)**n times ``integrate_loop`` of
      f(z + (1-z) v) over v in (0, 1);
    * ``from_one``:    over (1, z), (z-1)**n times the same loop;
    * ``to_infinity``: over (z, inf), ``integrate_weyl`` of f(z + t), z real.

    f is called as f(u, 1 - u), with 1 - u exact next to u = 1 in the
    finite variants.  ``endpoint_exponent`` declares the power-law behavior
    of f at u = 1 for the finite variants; ``to_infinity`` ignores it.
    """
    if not isinstance(n, int) or not 1 <= n <= 8:
        raise DomainError(f"fold count must be an integer in [1, 8], got {n}")
    if upper not in ("to_one", "to_infinity", "from_one"):
        raise DomainError(f"unknown variant {upper!r}")
    _check_arguments(target, z, endpoint_exponent=endpoint_exponent)
    z = complex(z)
    if upper == "to_infinity":
        if z.imag != 0:
            raise DomainError("to_infinity variant requires a real lower endpoint")
        x = z.real
        return integrate_weyl(lambda t, _tc: f(x + t, 1.0 - x - t), -n, target=target)
    d = 1.0 - z
    loop = integrate_loop(
        lambda v, vc: f(z + d * v, d * vc),
        1.0,
        -n,
        basepoint_exponent=endpoint_exponent,
        target=target,
    )
    return loop.scaled(d**n if upper == "to_one" else (-d) ** n)
