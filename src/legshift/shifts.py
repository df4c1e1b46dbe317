"""Closed-form predictions for fractional order and degree shifts.

Each predict_* function evaluates the closed-form (right-hand) side of a
shift relation for the weighted Legendre/Ferrers functions, together with the
validity conditions under which the corresponding integral representation
converges.  The quadrature side lives in ``verify``; this module never
integrates anything.

Every relation maps a weighted function to the same weighted function at a
shifted order or degree.  ``_WEIGHTS`` holds the four weight conventions,
and ``_weighted`` builds each weighted function once, as one ``legendre``
term list: the weight joins the term exponents, and the degree conventions
are the order conventions of the Whipple image.  Both sides of a catalog
entry call it: the closed forms at z, checked as the public functions check
it, and ``verify``'s integrands (``_integrand``) with no check.  The degree
closed forms take the Whipple image's domain, Re y > 0 off (0, 1].  The
Ferrers relations are the order conventions on Ferrers P, with (1-x**2) in
place of (z**2-1), and the Rodrigues convention weights Jacobi's P by
(1-z)**alpha (1+z)**beta.  The Rodrigues pair and its two integrands share
``_weighted`` and ``_rodrigues_primitive``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .complexfn import (
    _POLE_TOL,
    check_finite,
    cos_pi,
    cpow,
    gamma_ratio,
    integer_within,
    real_argument,
    rgamma,
    sin_pi,
)
from .errors import DomainError, PoleError
from .hyper import hyp3f2_regularized, hyp3f2_series
from .legendre import _Legendre, _power_cuts, _whipple_y

__all__ = [
    "Prediction",
    "predict_order_shift",
    "predict_degree_shift",
    "predict_ferrers_shift",
    "apply_integer_recurrence",
    "rodrigues_pair",
    "hyp3f2_family",
]


@dataclass(frozen=True)
class Prediction:
    """Closed-form prediction: total value, named additive terms, validity."""

    value: complex
    terms: dict = field(default_factory=dict)
    conditions: tuple = ()  # ((description, satisfied), ...)

    @property
    def valid(self) -> bool:
        return all(ok for _desc, ok in self.conditions)


def _cond(desc: str, ok: bool):
    return (desc, bool(ok))


def _closed_form(value, name, *conditions) -> Prediction:
    """A one-term closed form named ``name``, valid under ``conditions``."""
    return Prediction(value, {name: value}, conditions)


def hyp3f2_family(nu, mu, lam, z) -> complex:
    """3F2(nu-mu+1, -nu-mu, 1; 1-mu, 1-lam; (1-z)/2) / (Gamma(1-mu) Gamma(1-lam)),
    entire in mu and lam, for z off the cut (-inf, -1]: the parameter map of
    the order-lowering results onto ``hyper.hyp3f2_regularized``.
    """
    nu, mu, lam, z = complex(nu), complex(mu), complex(lam), complex(z)
    return hyp3f2_regularized(nu - mu + 1.0, -nu - mu, 1.0 - mu, 1.0 - lam, (1.0 - z) / 2.0)


# weight convention -> (s(nu, mu), degree): the weighted function is
# (z**2-1)**s F_nu^mu(z), or (1-x**2)**s F_nu^mu(x) for Ferrers F, and for the
# degree conventions (y**2-1)**s F_nu^mu(y/sqrt(y**2-1)); for Jacobi's P,
# whose mu is (alpha, beta), the pair s = (alpha, beta) is the weight
# (1-z)**alpha (1+z)**beta
_WEIGHTS = {
    "mplus": (lambda nu, mu: -mu / 2.0, False),  # order raising
    "mminus": (lambda nu, mu: mu / 2.0, False),  # order lowering
    "k3": (lambda nu, mu: -(nu + 1.0) / 2.0, True),  # degree raising
    "p3": (lambda nu, mu: nu / 2.0, True),  # degree lowering
    "rodrigues": (lambda nu, mu: mu, False),  # fractional Rodrigues
}


def _weighted(convention, kind, nu, mu):
    """The weighted function of ``convention`` (``_WEIGHTS``) at (nu, mu),
    F being P ("p"), Q ("q"), Olver's Q ("olver_q", order conventions only),
    a Ferrers kind or Jacobi's P ("jacobi", Rodrigues only): one
    ``legendre._Legendre`` term list, the Whipple image's for the degree
    conventions.  Called at z it raises as the public
    functions do: on the cut and at its branch points, off the Ferrers range
    and reach, and off the Whipple image's domain.  The integrands call its
    ``terms`` as (v, vc=None), which raises DomainError only where a term's
    2F1 argument lies on its cut (1, inf)."""
    exponent, degree = _WEIGHTS[convention]
    return _Legendre("whipple_" + kind if degree else kind, nu, mu, exponent(nu, mu))


def _integrand(convention, kind):
    """The builder p -> W(v, vc=None) of ``verify``'s integrands: the
    unchecked ``_weighted`` at a point p with fields nu and mu."""
    return lambda p: _weighted(convention, kind, p.nu, p.mu).terms


def _q_3f2_term(nu, mu, lam, w):
    """2**(-mu-1) Gamma(-mu) Gamma(nu+mu+1) / (Gamma(1-lam) Gamma(nu-mu+1))
    3F2(-nu+mu, nu+mu+1, 1; 1-lam, mu+1; w), the 3F2 term of "riemann_q_up"
    and "lplus_q" without its phase and power of z-1 or 1-x.  With the
    regularized 3F2 the gammas are Gamma(-mu) Gamma(nu+mu+1) Gamma(mu+1) /
    Gamma(nu-mu+1), so integer lam needs no limit."""
    return (
        cpow(2.0, -mu - 1.0)
        * gamma_ratio([-mu, nu + mu + 1.0, mu + 1.0], [nu - mu + 1.0])
        * hyp3f2_regularized(-nu + mu, nu + mu + 1.0, 1.0 - lam, mu + 1.0, w)
    )


# distance from an integer inside which ``_two_terms`` takes its circle mean:
# the plain sum of the terms is 1e-7 off at 1e-7 away, 1e-12 at 1e-3
_NEAR_INTEGER = 1e-2


def _two_terms(terms, names, x, cancel, pole, *conditions) -> Prediction:
    """The Prediction of the two terms terms(x), named ``names``.  Where
    ``cancel`` is an integer their poles cancel, so the sum is analytic in x
    there; within ``_NEAR_INTEGER`` of one it is the mean of the sum over a
    circle around x, the trapezoid rule on 32 points (the loops' Cauchy
    rule).  ``cancel`` and ``pole``, a (name, value) pair, move with x at
    unit rate, and the radius is a quarter of the distance to the nearest
    other singularity: the next integer of ``cancel``, or a pole where
    ``pole`` is 0, -1, -2, ...

    At a real x the points are conjugate pairs x + d, x + conj(d) and the
    two real points x +/- radius.  A sum real at those two, as each caller's
    is at real parameters, is real on the real axis, and so is its mean: the
    imaginary part the complex points round to is dropped."""
    if integer_within(cancel, _NEAR_INTEGER) is None:
        t1, t2 = terms(x)
        return Prediction(t1 + t2, dict(zip(names, (t1, t2))), conditions)
    name, pole = pole
    if pole.real <= _POLE_TOL and integer_within(pole, _POLE_TOL) is not None:
        raise PoleError(f"the closed form has a pole at {name} = {pole.real:g}")
    radius = 0.25 * min(1.0, abs(pole + max(0, round(-pole.real))))
    right, left = sum(terms(x + radius)), sum(terms(x - radius))
    total = right + left
    for j in range(1, 16):
        d = radius * cmath.exp(2j * math.pi * j / 32)
        total += sum(terms(x + d)) + sum(terms(x + d.conjugate()))
    val = total / 32
    if not (x.imag or right.imag or left.imag):
        val = complex(val.real)
    return Prediction(val, {"limit": val}, conditions)


def predict_order_shift(nu, mu, lam, z, variant) -> Prediction:
    """Closed form for an order shift of the weighted function at z > 1.

    Variants: "weyl_q_down", "weyl_p_up", "weyl_minus_q", "weyl_minus_p",
    "riemann_p_up", "riemann_q_up", "riemann_p_down_near",
    "riemann_p_down_far".
    """
    nu, mu, lam, z = complex(nu), complex(mu), complex(lam), complex(z)

    if variant == "weyl_q_down":
        return _closed_form(
            cmath.exp(1j * math.pi * lam) * _weighted("mplus", "q", nu, mu - lam)(z),
            "q_term",
            _cond("Re lam > 0", lam.real > 0),
            _cond("Re(nu+mu-lam+1) > 0", (nu + mu - lam + 1.0).real > 0),
        )

    if variant == "weyl_p_up":
        def terms(lam):
            denom = sin_pi(nu - mu - lam)
            t_p = sin_pi(nu - mu) * _weighted("mplus", "p", nu, mu + lam)(z) / denom
            # Hobson's Q without its phase exp(i pi (mu+lam)), which cancels
            g = gamma_ratio([nu + mu + lam + 1.0], [])
            coef = -(2.0 / math.pi) * sin_pi(nu) * sin_pi(lam) * g
            t_q = coef * _weighted("mplus", "olver_q", nu, mu + lam)(z) / denom
            return t_p, t_q

        # the terms' poles at integer nu-mu-lam cancel; the circle runs in lam
        return _two_terms(
            terms, ("p_term", "q_term"), lam, nu - mu - lam, ("nu+mu+lam+1", nu + mu + lam + 1.0),
            _cond("Re(mu+lam-nu) > 0", (mu + lam - nu).real > 0),
            _cond("Re nu > -1/2", nu.real > -0.5),
        )

    if variant == "weyl_minus_q":
        coef = gamma_ratio(
            [nu + mu + 1.0, nu - mu + lam + 1.0], [nu + mu - lam + 1.0, nu - mu + 1.0]
        )
        return _closed_form(
            coef * _weighted("mminus", "q", nu, mu - lam)(z),
            "q_term",
            _cond("Re(nu-mu+lam+1) > 0", (nu - mu + lam + 1.0).real > 0),
        )

    if variant == "weyl_minus_p":
        coef = cmath.exp(-1j * math.pi * lam) * gamma_ratio(
            [-nu - mu + lam, nu - mu + lam + 1.0], [-nu - mu, nu - mu + 1.0]
        )
        return _closed_form(
            coef * _weighted("mminus", "p", nu, mu - lam)(z),
            "p_term",
            _cond("Re(lam-nu-mu) > 0", (lam - nu - mu).real > 0),
            _cond("Re nu > -1/2", nu.real > -0.5),
        )

    if variant == "riemann_p_up":
        val = _weighted("mplus", "p", nu, mu + lam)(z)
        return _closed_form(val, "p_term", _cond("Re mu < 1", mu.real < 1))

    if variant == "riemann_q_up":
        # exp(i pi mu), factored out at the centre: the rest is real on the
        # real axis, and the phase is exactly +/-1 at integer mu
        phase = cos_pi(mu) + 1j * sin_pi(mu)

        def terms(m):
            coef = 0.5 * phase * math.pi / sin_pi(m)
            t1 = coef * _weighted("mplus", "p", nu, m + lam)(z)
            t2 = phase * cpow(z - 1.0, -lam) * _q_3f2_term(nu, m, lam, (1.0 - z) / 2.0)
            return t1, t2

        # pi/sin(pi mu) and Gamma(-mu) Gamma(mu+1) = -pi/sin(pi mu) cancel at
        # integer mu; the circle keeps clear of the poles of Gamma(nu+mu+1)
        return _two_terms(
            terms, ("p_term", "hyp3f2_term"), mu, mu, ("nu+mu+1", nu + mu + 1.0),
            _cond("Re mu < 1", mu.real < 1),
            _cond("|1-z| < 2", abs(1.0 - z) < 2.0),
        )

    if variant == "riemann_p_down_near":
        return _closed_form(
            cpow(2.0, mu) * cpow(z - 1.0, -lam) * hyp3f2_family(nu, mu, lam, z),
            "hyp3f2_term",
            _cond("|arg(z-1)| < pi", abs(cmath.phase(z - 1.0)) < math.pi - 1e-12),
        )

    if variant == "riemann_p_down_far":
        conditions = (
            _cond("|1-z| > 2", abs(1.0 - z) > 2.0),
            _cond("cos(pi nu) != 0", abs(cos_pi(nu)) > 1e-9),
            _cond("nu - mu not an integer", integer_within(nu - mu, _POLE_TOL) is None),
        )
        if not (conditions[1][1] and conditions[2][1]):
            return Prediction(complex("nan"), {}, conditions)  # a denominator vanishes
        # P-coefficient fixed by the residue series even in nu; the Q-coefficient
        # follows from the odd series via the nu -> -nu-1 symmetry.
        g_p = gamma_ratio(
            [nu + mu + 1.0, nu - mu + lam + 1.0],
            [nu + mu - lam + 1.0, nu - mu + 1.0],
        )
        g_q = gamma_ratio([-nu + mu, -nu - mu + lam], [-nu + mu - lam, -nu - mu])
        t1 = g_p * _weighted("mminus", "p", nu, mu - lam)(z)
        coef = (
            sin_pi(nu + mu - lam) * (g_q - g_p) / (math.pi * cos_pi(nu))
            * cmath.exp(-1j * math.pi * (mu - lam))
        )
        t2 = coef * _weighted("mminus", "q", nu, mu - lam)(z)
        t3 = (
            -cpow(2.0, mu + 1.0)
            * cpow(z - 1.0, -lam - 1.0)
            / ((nu - mu) * (nu + mu + 1.0))
            * rgamma(-mu)
            * rgamma(-lam)
            * hyp3f2_series(
                mu + 1.0, lam + 1.0, 1.0, -nu + mu + 1.0, nu + mu + 2.0, 2.0 / (1.0 - z)
            )
        )
        return Prediction(
            t1 + t2 + t3, {"p_term": t1, "q_term": t2, "hyp3f2_term": t3}, conditions
        )

    raise DomainError(f"unknown order-shift variant {variant!r}")


def predict_degree_shift(nu, mu, lam, y, variant) -> Prediction:
    """Closed form for a degree shift of the weighted function at y, Re y > 0
    off (0, 1], the Whipple image's domain; DomainError elsewhere.

    The unweighted function argument is y/sqrt(y**2-1).
    Variants: "k3_up_p", "k3_up_q", "k3_riemann_q", "p3_down_p",
    "p3_riemann_q".
    """
    nu, mu, lam, y = complex(nu), complex(mu), complex(lam), _whipple_y(y)

    if variant in ("k3_up_p", "k3_up_q"):
        coef = cmath.exp(-1j * math.pi * lam) * gamma_ratio(
            [nu + lam - mu + 1.0], [nu - mu + 1.0]
        )
        conds = [_cond("Re(nu+lam-mu+1) > 0", (nu + lam - mu + 1.0).real > 0)]
        if variant == "k3_up_q":
            conds.append(_cond("Re(nu+lam+mu+1) > 0", (nu + lam + mu + 1.0).real > 0))
        # the Weyl integral's decay at infinity
        conds.append(_cond("Re(lam+nu+1-|Re mu|) > 0", (lam + nu + 1.0 - abs(mu.real)).real > 0))
        val = coef * _weighted("k3", variant[-1], nu + lam, mu)(y)
        return _closed_form(val, "shifted_term", *conds)

    if variant == "k3_riemann_q":
        return _closed_form(
            cmath.exp(1j * math.pi * mu)
            * math.sqrt(math.pi / 2.0)
            * cpow(2.0, -nu - 0.5)
            * gamma_ratio([nu + mu + 1.0], [])
            * cpow(y - 1.0, -lam)
            * hyp3f2_family(-mu - 0.5, -nu - 0.5, lam, y),
            "hyp3f2_term",
            _cond("|arg(y-1)| < pi", abs(cmath.phase(y - 1.0)) < math.pi - 1e-12),
        )

    if variant == "p3_down_p":
        coef = cmath.exp(-1j * math.pi * lam) * gamma_ratio(
            [-nu + lam - mu], [-nu - mu]
        )
        return _closed_form(
            coef * _weighted("p3", "p", nu - lam, mu)(y),
            "shifted_term",
            _cond("Re nu > -1/2", nu.real > -0.5),
            _cond("Re nu < Re(lam-mu)", nu.real < (lam - mu).real),
            # the Weyl integral's decay at infinity
            _cond("Re(lam-nu-|Re mu|) > 0", (lam - nu - abs(mu.real)).real > 0),
        )

    if variant == "p3_riemann_q":
        coef = gamma_ratio([nu + mu + 1.0], [nu - lam + mu + 1.0])
        return _closed_form(
            coef * _weighted("p3", "q", nu - lam, mu)(y),
            "shifted_term",
            _cond("Re nu > -3/2", nu.real > -1.5),
        )

    raise DomainError(f"unknown degree-shift variant {variant!r}")


def predict_ferrers_shift(nu, mu, lam, x, variant) -> Prediction:
    """Closed form for a Ferrers order shift at x in (-1, 1).

    Variants: "lplus_p", "lplus_q", "lminus_p".
    """
    nu, mu, lam = complex(nu), complex(mu), complex(lam)
    x = real_argument(x, "Ferrers shifts")

    if variant == "lplus_p":
        val = _weighted("mplus", "ferrers_p", nu, mu + lam)(x)
        return _closed_form(val, "p_term", _cond("Re mu < 1", mu.real < 1))

    if variant == "lplus_q":
        def terms(mu):
            coef = 0.5 * math.pi * cos_pi(mu) / sin_pi(mu)
            t1 = coef * _weighted("mplus", "ferrers_p", nu, mu + lam)(x)
            t2 = cpow(1.0 - x, -lam) * _q_3f2_term(nu, mu, lam, (1.0 - x) / 2.0)
            return t1, t2

        # as in "riemann_q_up"
        return _two_terms(
            terms, ("p_term", "hyp3f2_term"), mu, mu, ("nu+mu+1", nu + mu + 1.0),
            _cond("Re mu < 1", mu.real < 1),
        )

    if variant == "lminus_p":
        val = cpow(2.0, mu) * cpow(1.0 - x, -lam) * hyp3f2_family(nu, mu, lam, x)
        return _closed_form(val, "hyp3f2_term")

    raise DomainError(f"unknown Ferrers-shift variant {variant!r}")


def _predict(family, variant, nu, mu, lam, z) -> Prediction:
    """``predict_<family>_shift`` at ``variant``, looked up per call so that
    wrappers on this module's names apply."""
    predict = {
        "order": predict_order_shift,
        "degree": predict_degree_shift,
        "ferrers": predict_ferrers_shift,
    }[family]
    return predict(nu, mu, lam, z, variant)


# (op, kind) -> (family, variant, sign of lam, sign per step): n steps of an
# operator's one-step recurrence are its fractional closed form at lam = +/-n.
_INTEGER_STEPS = {
    ("MPLUS", "p"): ("order", "riemann_p_up", 1, 1),
    ("MPLUS", "q"): ("order", "weyl_q_down", -1, -1),
    ("MMINUS", "p"): ("order", "weyl_minus_p", 1, 1),
    ("MMINUS", "q"): ("order", "weyl_minus_q", 1, 1),
    ("P3", "p"): ("degree", "p3_down_p", 1, 1),
    ("P3", "q"): ("degree", "p3_riemann_q", 1, 1),
    ("K3", "p"): ("degree", "k3_up_p", 1, 1),
    ("K3", "q"): ("degree", "k3_up_q", 1, 1),
    ("LPLUS", "p"): ("ferrers", "lplus_p", 1, 1),
    ("LMINUS", "p"): ("ferrers", "lminus_p", 1, -1),
}


def apply_integer_recurrence(op_id, nu, mu, z, n=1, kind="q") -> Prediction:
    """n-th derivative of a weighted function (``_WEIGHTS``; LPLUS and
    LMINUS act on Ferrers P): (d/dz)**n, or (-d/dx)**n for LPLUS.  Cohl and
    Costas-Santos's multi-derivative relations are the fractional ones at
    integer order, so this is the ``_INTEGER_STEPS`` closed form at
    lam = +/-n.

    ``kind`` selects P or Q for the hyperbolic-argument operators; the
    Ferrers operators (LPLUS, LMINUS) always act on Ferrers P.
    """
    if op_id not in {op for op, _kind in _INTEGER_STEPS}:
        raise DomainError(f"unknown recurrence {op_id!r}")
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"step count must be a nonnegative integer, got {n}")
    if kind not in ("p", "q"):
        raise DomainError(f"kind must be 'p' or 'q', got {kind!r}")
    family, variant, lam_sign, step_sign = _INTEGER_STEPS[
        op_id, "p" if op_id.startswith("L") else kind
    ]
    val = step_sign**n * _predict(family, variant, nu, mu, lam_sign * n, z).value
    return Prediction(val, {"shifted_value": val}, ())


class _Powers:
    """(v, vc=None) -> K (1-v)**a (1+v)**b, vc being an exact 1 - v as for
    ``legendre.weighted_evaluator``; ``cuts`` are those of the powers present."""

    __slots__ = ("_K", "_a", "_b", "cuts")

    def __init__(self, K, a, b):
        self._K, self._a, self._b = K, a, b
        self.cuts = _power_cuts(a, b)

    def __call__(self, v, vc=None):
        return self._K * cpow(1.0 - v if vc is None else vc, self._a) * cpow(1.0 + v, self._b)

    def reflection(self):
        """``legendre._TermSum.reflection``: K/conj(K) at real a and b, else None."""
        if complex(self._a).imag or complex(self._b).imag:
            return None
        K = complex(self._K)
        return K / K.conjugate() if K else 1.0

    def end_powers(self):
        """``legendre._TermSum.end_powers``: (((a, False),), Re(a+b))."""
        return ((complex(self._a), False),), complex(self._a + self._b).real


def _rodrigues_primitive(nu, alpha, beta):
    """(v, vc=None) -> 2**(-nu)/Gamma(nu+1) (1-v)**(nu+alpha) (1+v)**(nu+beta),
    a ``_Powers``."""
    return _Powers(cpow(2.0, -nu) * rgamma(nu + 1.0), nu + alpha, nu + beta)


def rodrigues_pair(nu, alpha, beta, z):
    """The two closed forms tied by the fractional Rodrigues relation:

        weighted  = (1-z)**alpha (1+z)**beta * P_nu^(alpha,beta)(z)
        primitive = 2**(-nu)/Gamma(nu+1) * (1-z)**(nu+alpha) (1+z)**(nu+beta)

    (``weighted`` equals the nu-fold fractional derivative of ``primitive``.)
    The weighted form raises as ``jacobi_p`` does on its cut.
    """
    check_finite(z)
    nu, alpha, beta, z = complex(nu), complex(alpha), complex(beta), complex(z)
    weighted = _weighted("rodrigues", "jacobi", nu, (alpha, beta))(z)
    return weighted, _rodrigues_primitive(nu, alpha, beta)(z)
