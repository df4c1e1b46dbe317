"""Closed-form predictions for fractional order and degree shifts.

Each predict_* function evaluates the closed-form (right-hand) side of a
shift relation for the weighted Legendre/Ferrers functions, together with the
validity conditions under which the corresponding integral representation
converges.  The quadrature side lives in ``verify``; this module never
integrates anything.

Weight conventions (w = z**2 - 1, split as (z-1)(z+1)):

* order raising  ("mplus"):   f^mu = w**(-mu/2) F_nu^mu(z)
* order lowering ("mminus"):  f^mu = w**(+mu/2) F_nu^mu(z)
* degree raising ("k3"):      f_nu = w**(-(nu+1)/2) F_nu^mu(y/sqrt(w))
* degree lowering ("p3"):     f_nu = w**(nu/2)      F_nu^mu(y/sqrt(w))
* Ferrers raising ("lplus"):  f^mu = (1-x**2)**(-mu/2) P_nu^mu(x)
* Ferrers lowering ("lminus"): f^mu = (1-x**2)**(+mu/2) P_nu^mu(x)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .complexfn import (
    cos_pi,
    cpow,
    gamma_ratio,
    is_integer,
    real_argument,
    rgamma,
    sin_pi,
    zsq_minus_one_pow,
)
from .errors import DomainError
from .hyper import hyp3f2_regularized, hyp3f2_series
from .legendre import ferrers_p, jacobi_p, legendre_p, legendre_q

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


def hyp3f2_family(nu, mu, lam, z) -> complex:
    """3F2(nu-mu+1, -nu-mu, 1; 1-mu, 1-lam; (1-z)/2) / (Gamma(1-mu) Gamma(1-lam)),
    entire in mu and lam, for z off the cut (-inf, -1]: the parameter map of
    the order-lowering results onto ``hyper.hyp3f2_regularized``.
    """
    nu, mu, lam, z = complex(nu), complex(mu), complex(lam), complex(z)
    return hyp3f2_regularized(nu - mu + 1.0, -nu - mu, 1.0 - mu, 1.0 - lam, (1.0 - z) / 2.0)


def _degree_argument(y):
    """y / sqrt(y**2 - 1), the argument of the degree-shifted function."""
    if y * y == 1.0:
        raise DomainError(f"degree shifts need y**2 != 1, got y = {y}")
    return y / cmath.sqrt(y * y - 1.0)


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


def predict_order_shift(nu, mu, lam, z, variant) -> Prediction:
    """Closed form for an order shift of the weighted function at z > 1.

    Variants: "weyl_q_down", "weyl_p_up", "weyl_minus_q", "weyl_minus_p",
    "riemann_p_up", "riemann_q_up", "riemann_p_down_near",
    "riemann_p_down_far".
    """
    nu, mu, lam, z = complex(nu), complex(mu), complex(lam), complex(z)

    if variant == "weyl_q_down":
        val = cmath.exp(1j * math.pi * lam) * zsq_minus_one_pow(
            z, -(mu - lam) / 2.0
        ) * legendre_q(nu, mu - lam, z)
        return Prediction(
            val,
            {"q_term": val},
            (
                _cond("Re lam > 0", lam.real > 0),
                _cond("Re(nu+mu-lam+1) > 0", (nu + mu - lam + 1.0).real > 0),
            ),
        )

    if variant == "weyl_p_up":
        wgt = zsq_minus_one_pow(z, -(mu + lam) / 2.0)
        denom = sin_pi(nu - mu - lam)
        t_p = sin_pi(nu - mu) * wgt * legendre_p(nu, mu + lam, z) / denom
        t_q = (
            -(2.0 / math.pi)
            * sin_pi(nu)
            * sin_pi(lam)
            * cmath.exp(-1j * math.pi * (mu + lam))
            * wgt
            * legendre_q(nu, mu + lam, z)
            / denom
        )
        return Prediction(
            t_p + t_q,
            {"p_term": t_p, "q_term": t_q},
            (
                _cond("Re(mu+lam-nu) > 0", (mu + lam - nu).real > 0),
                _cond("Re nu > -1/2", nu.real > -0.5),
            ),
        )

    if variant == "weyl_minus_q":
        coef = gamma_ratio(
            [nu + mu + 1.0, nu - mu + lam + 1.0], [nu + mu - lam + 1.0, nu - mu + 1.0]
        )
        val = coef * zsq_minus_one_pow(z, (mu - lam) / 2.0) * legendre_q(nu, mu - lam, z)
        return Prediction(
            val,
            {"q_term": val},
            (_cond("Re(nu-mu+lam+1) > 0", (nu - mu + lam + 1.0).real > 0),),
        )

    if variant == "weyl_minus_p":
        coef = cmath.exp(-1j * math.pi * lam) * gamma_ratio(
            [-nu - mu + lam, nu - mu + lam + 1.0], [-nu - mu, nu - mu + 1.0]
        )
        val = coef * zsq_minus_one_pow(z, (mu - lam) / 2.0) * legendre_p(nu, mu - lam, z)
        return Prediction(
            val,
            {"p_term": val},
            (
                _cond("Re(lam-nu-mu) > 0", (lam - nu - mu).real > 0),
                _cond("Re nu > -1/2", nu.real > -0.5),
            ),
        )

    if variant == "riemann_p_up":
        val = zsq_minus_one_pow(z, -(mu + lam) / 2.0) * legendre_p(nu, mu + lam, z)
        return Prediction(
            val,
            {"p_term": val},
            (_cond("Re mu < 1", mu.real < 1),),
        )

    if variant == "riemann_q_up":
        conditions = (
            _cond("Re mu < 1", mu.real < 1),
            _cond("mu not an integer", not is_integer(mu)),
            _cond("|1-z| < 2", abs(1.0 - z) < 2.0),
        )
        if is_integer(mu):
            # the two terms' poles, pi/sin(pi mu) and Gamma(-mu) Gamma(mu+1) = -pi/sin(pi mu),
            # cancel in a limit this form does not take
            return Prediction(complex("nan"), {}, conditions)
        ph = cmath.exp(1j * math.pi * mu)
        t1 = (
            0.5
            * ph
            * math.pi
            / sin_pi(mu)
            * zsq_minus_one_pow(z, -(mu + lam) / 2.0)
            * legendre_p(nu, mu + lam, z)
        )
        t2 = ph * cpow(z - 1.0, -lam) * _q_3f2_term(nu, mu, lam, (1.0 - z) / 2.0)
        return Prediction(t1 + t2, {"p_term": t1, "hyp3f2_term": t2}, conditions)

    if variant == "riemann_p_down_near":
        val = cpow(2.0, mu) * cpow(z - 1.0, -lam) * hyp3f2_family(nu, mu, lam, z)
        return Prediction(
            val,
            {"hyp3f2_term": val},
            (_cond("|arg(z-1)| < pi", abs(cmath.phase(z - 1.0)) < math.pi - 1e-12),),
        )

    if variant == "riemann_p_down_far":
        conditions = (
            _cond("|1-z| > 2", abs(1.0 - z) > 2.0),
            _cond("cos(pi nu) != 0", abs(cos_pi(nu)) > 1e-9),
            _cond("nu - mu not an integer", not is_integer(nu - mu)),
        )
        if not (conditions[1][1] and conditions[2][1]):
            return Prediction(complex("nan"), {}, conditions)  # a denominator vanishes
        # P-coefficient fixed by the residue series even in nu; the Q-coefficient
        # follows from the odd series via the nu -> -nu-1 symmetry.
        wgt = zsq_minus_one_pow(z, (mu - lam) / 2.0)
        g_p = gamma_ratio(
            [nu + mu + 1.0, nu - mu + lam + 1.0],
            [nu + mu - lam + 1.0, nu - mu + 1.0],
        )
        g_q = gamma_ratio([-nu + mu, -nu - mu + lam], [-nu + mu - lam, -nu - mu])
        t1 = g_p * wgt * legendre_p(nu, mu - lam, z)
        t2 = (
            sin_pi(nu + mu - lam) * (g_q - g_p) / (math.pi * cos_pi(nu))
            * wgt
            * cmath.exp(-1j * math.pi * (mu - lam))
            * legendre_q(nu, mu - lam, z)
        )
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
    """Closed form for a degree shift of the weighted function at y > 1.

    The unweighted function argument is y/sqrt(y**2-1).
    Variants: "k3_up_p", "k3_up_q", "k3_riemann_q", "p3_down_p",
    "p3_riemann_q".
    """
    nu, mu, lam, y = complex(nu), complex(mu), complex(lam), complex(y)
    arg = _degree_argument(y)

    if variant in ("k3_up_p", "k3_up_q"):
        coef = cmath.exp(-1j * math.pi * lam) * gamma_ratio(
            [nu + lam - mu + 1.0], [nu - mu + 1.0]
        )
        fn = legendre_p if variant == "k3_up_p" else legendre_q
        val = coef * zsq_minus_one_pow(y, -(nu + lam + 1.0) / 2.0) * fn(nu + lam, mu, arg)
        conds = [_cond("Re(nu+lam-mu+1) > 0", (nu + lam - mu + 1.0).real > 0)]
        if variant == "k3_up_q":
            conds.append(_cond("Re(nu+lam+mu+1) > 0", (nu + lam + mu + 1.0).real > 0))
        return Prediction(val, {"shifted_term": val}, tuple(conds))

    if variant == "k3_riemann_q":
        val = (
            cmath.exp(1j * math.pi * mu)
            * math.sqrt(math.pi / 2.0)
            * cpow(2.0, -nu - 0.5)
            * gamma_ratio([nu + mu + 1.0], [])
            * cpow(y - 1.0, -lam)
            * hyp3f2_family(-mu - 0.5, -nu - 0.5, lam, y)
        )
        return Prediction(
            val,
            {"hyp3f2_term": val},
            (_cond("|arg(y-1)| < pi", abs(cmath.phase(y - 1.0)) < math.pi - 1e-12),),
        )

    if variant == "p3_down_p":
        coef = cmath.exp(-1j * math.pi * lam) * gamma_ratio(
            [-nu + lam - mu], [-nu - mu]
        )
        val = coef * zsq_minus_one_pow(y, (nu - lam) / 2.0) * legendre_p(nu - lam, mu, arg)
        return Prediction(
            val,
            {"shifted_term": val},
            (
                _cond("Re nu > -1/2", nu.real > -0.5),
                _cond("Re nu < Re(lam-mu)", nu.real < (lam - mu).real),
            ),
        )

    if variant == "p3_riemann_q":
        coef = gamma_ratio([nu + mu + 1.0], [nu - lam + mu + 1.0])
        val = coef * zsq_minus_one_pow(y, (nu - lam) / 2.0) * legendre_q(nu - lam, mu, arg)
        return Prediction(
            val,
            {"shifted_term": val},
            (_cond("Re nu > -3/2", nu.real > -1.5),),
        )

    raise DomainError(f"unknown degree-shift variant {variant!r}")


def predict_ferrers_shift(nu, mu, lam, x, variant) -> Prediction:
    """Closed form for a Ferrers order shift at x in (-1, 1).

    Variants: "lplus_p", "lplus_q", "lminus_p".
    """
    nu, mu, lam = complex(nu), complex(mu), complex(lam)
    x = real_argument(x, "Ferrers shifts")

    if variant == "lplus_p":
        val = cpow(1.0 - x, -(mu + lam) / 2.0) * cpow(
            1.0 + x, -(mu + lam) / 2.0
        ) * ferrers_p(nu, mu + lam, x)
        return Prediction(
            val,
            {"p_term": val},
            (_cond("Re mu < 1", mu.real < 1),),
        )

    if variant == "lplus_q":
        conditions = (
            _cond("Re mu < 1", mu.real < 1),
            _cond("mu not an integer", not is_integer(mu)),
        )
        if is_integer(mu):
            return Prediction(complex("nan"), {}, conditions)  # as in riemann_q_up
        wgt = cpow(1.0 - x, -(mu + lam) / 2.0) * cpow(1.0 + x, -(mu + lam) / 2.0)
        t1 = (
            0.5
            * math.pi
            * cos_pi(mu)
            / sin_pi(mu)
            * wgt
            * ferrers_p(nu, mu + lam, x)
        )
        t2 = cpow(1.0 - x, -lam) * _q_3f2_term(nu, mu, lam, (1.0 - x) / 2.0)
        return Prediction(t1 + t2, {"p_term": t1, "hyp3f2_term": t2}, conditions)

    if variant == "lminus_p":
        val = cpow(2.0, mu) * cpow(1.0 - x, -lam) * hyp3f2_family(nu, mu, lam, x)
        return Prediction(val, {"hyp3f2_term": val}, ())

    raise DomainError(f"unknown Ferrers-shift variant {variant!r}")


_RECURRENCE_OPS = ("MPLUS", "MMINUS", "P3", "K3", "LPLUS", "LMINUS")


def apply_integer_recurrence(op_id, nu, mu, z, n=1, kind="q") -> Prediction:
    """n-th derivative of a weighted function via its one-step recurrence.

    Returns the closed form of (+/- d/dz)**n applied to the weighted function
    (see the module docstring for the weights): a single coefficient times
    the weighted function at the shifted parameters.

    ``kind`` selects P or Q for the hyperbolic-argument operators; the
    Ferrers operators (LPLUS, LMINUS) always act on Ferrers P.
    """
    if op_id not in _RECURRENCE_OPS:
        raise DomainError(f"unknown recurrence {op_id!r}")
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"step count must be a nonnegative integer, got {n}")
    nu, mu = complex(nu), complex(mu)
    z = complex(z)
    if kind not in ("p", "q"):
        raise DomainError(f"kind must be 'p' or 'q', got {kind!r}")
    fn = legendre_p if kind == "p" else legendre_q

    if op_id == "MPLUS":
        coef = 1.0 + 0.0j
        val = coef * zsq_minus_one_pow(z, -(mu + n) / 2.0) * fn(nu, mu + n, z)
    elif op_id == "MMINUS":
        coef = gamma_ratio(
            [nu + mu + 1.0, nu - mu + n + 1.0], [nu + mu - n + 1.0, nu - mu + 1.0]
        )
        val = coef * zsq_minus_one_pow(z, (mu - n) / 2.0) * fn(nu, mu - n, z)
    elif op_id == "P3":
        arg = _degree_argument(z)
        coef = gamma_ratio([nu + mu + 1.0], [nu + mu - n + 1.0])
        val = coef * zsq_minus_one_pow(z, (nu - n) / 2.0) * fn(nu - n, mu, arg)
    elif op_id == "K3":
        arg = _degree_argument(z)
        sign = -1.0 if n % 2 else 1.0
        coef = sign * gamma_ratio([nu + n - mu + 1.0], [nu - mu + 1.0])
        val = coef * zsq_minus_one_pow(z, -(nu + n + 1.0) / 2.0) * fn(nu + n, mu, arg)
    elif op_id == "LPLUS":
        x = real_argument(z, "Ferrers recurrences")
        coef = 1.0 + 0.0j
        val = coef * cpow(1.0 - x, -(mu + n) / 2.0) * cpow(
            1.0 + x, -(mu + n) / 2.0
        ) * ferrers_p(nu, mu + n, x)
    else:  # LMINUS
        x = real_argument(z, "Ferrers recurrences")
        coef = gamma_ratio(
            [nu + mu + 1.0, nu - mu + n + 1.0], [nu + mu - n + 1.0, nu - mu + 1.0]
        )
        val = coef * cpow(1.0 - x, (mu - n) / 2.0) * cpow(
            1.0 + x, (mu - n) / 2.0
        ) * ferrers_p(nu, mu - n, x)

    return Prediction(val, {"coefficient": coef, "shifted_value": val}, ())


def rodrigues_pair(nu, alpha, beta, z):
    """The two closed forms tied by the fractional Rodrigues relation:

        weighted  = (1-z)**alpha (1+z)**beta * P_nu^(alpha,beta)(z)
        primitive = 2**(-nu)/Gamma(nu+1) * (1-z)**(nu+alpha) (1+z)**(nu+beta)

    (``weighted`` equals the nu-fold fractional derivative of ``primitive``.)
    """
    nu, alpha, beta = complex(nu), complex(alpha), complex(beta)
    z = complex(z)
    weighted = cpow(1.0 - z, alpha) * cpow(1.0 + z, beta) * jacobi_p(nu, alpha, beta, z)
    primitive = (
        cpow(2.0, -nu)
        * rgamma(nu + 1.0)
        * cpow(1.0 - z, nu + alpha)
        * cpow(1.0 + z, nu + beta)
    )
    return weighted, primitive
