"""Identity catalog and numerical referee.

Each catalog entry pairs an independent quadrature evaluation of a
fractional-operator contour integral (the slow side) with the closed-form
prediction from ``shifts`` (the fast side).  ``verify_identity`` runs one
parameter point; ``verify_grid`` aggregates a whole grid deterministically.
``ode_residual`` checks the differential-equation defect of a computed
function, in both the homogeneous and the inhomogeneous (lowered-order
Riemann) variants.

The quadrature sides are data over two contour recipes, the two fractional
operators of ``quadrature`` applied at some order to an entry's weighted
integrand W: the Weyl integral of W(z+t) from t = 0 to infinity, and the
Riemann-Liouville loop of W(z + (1-z) v) over (0, 1).  The
Riemann-Liouville loop is the fractional integral of W from z to 1 up to the
power of the segment length, which each finite entry states:
(z-1)**(-lam) on the cut plane, (1-x)**(-lam) on (-1, 1).

Each integrand comes from the ``shifts`` builder its closed form calls.
The Legendre and Ferrers integrands (``shifts._integrand``) are the
unchecked term lists of ``shifts._weighted``, analytic through the branch
point of the raw weighted product, so every quadrature node is finite.  The
Rodrigues integrands are the unchecked Rodrigues ``shifts._weighted`` and
``_rodrigues_primitive``, the two halves of ``rodrigues_pair``.  ``shifts``
also owns each entry's validity: the closed form's conditions include those
under which the integral converges.

Parameter conventions: every entry takes (nu, mu, lam, z).  For the degree
shifts z is the variable usually called y (argument y/sqrt(y^2-1) inside the
function); for the Ferrers entries z is the on-cut point x in (-1, 1); for
the Rodrigues entries mu and lam carry the two Jacobi exponents (alpha,
beta); for BETA_CONTOUR mu carries the beta-function parameter sigma and nu
is unused.  Multi-integral entries read the fold count n from lam.

The integer steps are the fractional relations at lam = +/-n.  An n-fold
integral is the fractional integral of order n (Cauchy's formula for
repeated integration), so each multi-integral entry is the fractional entry
it specialises, both sides, at one substitution (``_integer_step``); at
lam = n >= 0 the Weyl and Riemann-Liouville loops are n-th derivatives, the
multi-derivative side of the same relations.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

from .complexfn import check_finite, cpow, gamma_ratio, integer_within, real_argument, rgamma
from .errors import DomainError, PoleError
from .legendre import legendre_deriv, legendre_p, legendre_q
from .quadrature import (
    _INTEGER_LAM_TOL,
    QuadratureResult,
    _taylor_coefficients,
    integrate_loop,
    integrate_weyl,
)
from .shifts import (
    Prediction,
    _Powers,
    _closed_form,
    _cond,
    _integrand,
    _predict,
    _rodrigues_primitive,
    _weighted,
    predict_order_shift,
    rodrigues_pair,
)

__all__ = [
    "IdentityEntry",
    "VerificationReport",
    "GridSummary",
    "list_identities",
    "get_identity",
    "verify_identity",
    "verify_grid",
    "ode_residual",
]

_REL_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# catalog machinery

@dataclass(frozen=True)
class IdentityEntry:
    """One verifiable identity: id, human-readable formula, recipe, grid."""

    id: str
    description: str
    formula: str
    default_grid: tuple  # of {nu, mu, lam, z} dicts
    lhs: object = field(repr=False, compare=False)  # (nu, mu, lam, z, target) -> QuadratureResult
    rhs: object = field(repr=False, compare=False)  # (nu, mu, lam, z) -> Prediction

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "formula": self.formula,
            "default_grid": [dict(p) for p in self.default_grid],
            "conditions": [desc for desc, _ok in self.conditions_at(**self.default_grid[0])],
        }

    def conditions_at(self, nu, mu, lam, z):
        return self.rhs(nu, mu, lam, z).conditions


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check at one parameter point."""

    identity: str
    params: dict
    lhs: QuadratureResult | None
    rhs: Prediction
    abs_err: float
    rel_err: float
    passed: bool
    validity: bool
    failed_conditions: tuple = ()


@dataclass(frozen=True)
class GridSummary:
    """Aggregate of verify_identity over a grid, deterministic ordering."""

    identity: str
    n_points: int
    n_passed: int
    n_valid: int
    worst_rel_err: float
    reports: tuple = ()
    failures: tuple = ()  # ((params, reason), ...)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == self.n_valid and self.n_valid > 0


def _grid(nus, mus, lams, zs):
    """The (nu, mu, lam) product grid, with z cycling through ``zs``."""
    points = enumerate(itertools.product(nus, mus, lams))
    return tuple(
        {"nu": nu, "mu": mu, "lam": lam, "z": zs[i % len(zs)]} for i, (nu, mu, lam) in points
    )


def _check_fold(lam):
    n = integer_within(lam, _INTEGER_LAM_TOL)
    if n is None:
        raise DomainError(f"fold count must be an integer, got {lam}")
    if not 1 <= n <= 8:
        raise DomainError(f"fold count must be in [1, 8], got {n}")
    return n


# --- left-hand sides: two contour recipes -----------------------------------
#
# A recipe integrates an entry's weighted integrand W at the point
# p = _Point(nu, mu, lam, z), whose fields are complex; ``_recipe`` turns it
# into the factory each catalog entry calls with its integrand and numbers.

_Point = namedtuple("_Point", "nu mu lam z")


def _recipe(integrate):
    """Factory of quadrature sides from
    ``integrate(p, W, target, reflection, **numbers)``.

    ``recipe(integrand, scale=None, **numbers)`` returns lhs(nu, mu, lam, z,
    target), which builds W = integrand(p) once per point, passes each
    number as is or, when it is a function, as its value f(p), and
    multiplies the result by scale(p).  ``reflection`` is W's reflection
    phase (``legendre._TermSum.reflection``) at a real z, where each recipe's
    g, W at z plus a real multiple of t, inherits it; None at a complex z.
    """

    def factory(integrand, scale=None, **numbers):
        def lhs(nu, mu, lam, z, target):
            p = _Point(complex(nu), complex(mu), complex(lam), complex(z))
            values = {k: f(p) if callable(f) else f for k, f in numbers.items()}
            W = integrand(p)
            res = integrate(p, W, target, None if p.z.imag else W.reflection(), **values)
            return res if scale is None else res.scaled(scale(p))

        return lhs

    return factory


@_recipe
def _weyl_loop(p, W, target, reflection, decay, order=None):
    """Weyl integral of order ``order`` (lam when None) of g(t) = W(z+t),
    (1/Gamma(-order)) * int_z^inf (V-z)**(-order-1) W(V) dV: at
    Re order < -1/2 directly, otherwise split at t = 0.3 into the
    regularized loop, g being analytic for |t| < Re(z-1), and its tail;
    |W| ~ t**(-decay) at infinity."""
    z = p.z
    return integrate_weyl(
        lambda t, _tc: W(z + t),
        p.lam if order is None else order,
        c=0.3,
        analyticity_radius=(z - 1.0).real,
        decay_exponent=decay,
        target=target,
        reflection=reflection,
    )


@_recipe
def _riemann_loop(p, W, target, reflection, basepoint=0.0, order=None, radius=None):
    """Riemann-Liouville loop of order ``order`` (lam when None) of
    g(v) = W(z + (1-z) v), based at v = 1 where W has the power
    ``basepoint``: (1-z)**(-order) times it is the fractional integral
    (1/Gamma(-order)) * int_z^1 (V-z)**(-order-1) W(V) dV.  W takes
    1 - V = (1-z)(1-v) exactly as its second argument.  g is analytic for
    |v| < ``radius``; by default W is singular at V = +/-1, so that is
    min(1, |1+z|/|1-z|): inside the unit disc when Re z < 0."""
    z, d = p.z, 1.0 - p.z
    if radius is None:
        radius = 1.0 if abs(1.0 + z) >= abs(d) else abs(1.0 + z) / abs(d)
    return integrate_loop(
        lambda v, vc: W(z + d * v, d * vc),
        1.0,
        p.lam if order is None else order,
        analyticity_radius=radius,
        basepoint_exponent=basepoint,
        target=target,
        reflection=reflection,
    )


def _on_cut(lhs):
    """The quadrature side at a real x, the only points the Ferrers closed
    forms take."""
    return lambda nu, mu, lam, z, target: lhs(
        nu, mu, lam, real_argument(z, "Ferrers identities"), target
    )


def _beta_kernel(p):
    """W(v) = (1-v)^(sigma-1), sigma = mu."""
    return _Powers(1.0, p.mu - 1.0, 0.0)


def _rotation(p):
    return cmath.exp(-1j * math.pi * p.lam)


def _cut_power(p):
    """(z-1)^(-lam): the power of the segment length on the cut plane."""
    return cpow(p.z - 1.0, -p.lam)


def _segment_power(p):
    """(1-x)^(-lam): the power of the segment length on (-1, 1)."""
    return cpow(1.0 - p.z, -p.lam)


def _k3_decay(p):
    return (p.nu + 1.0).real - abs(p.mu.real)


def _minus_re_mu(p):
    return -p.mu.real


# --- right-hand sides -------------------------------------------------------

def _shift(family, variant):
    """The closed form ``shifts.predict_<family>_shift`` at ``variant``."""
    return lambda nu, mu, lam, z: _predict(family, variant, nu, mu, lam, z)


# the substitutions of the multi-integral entries: name -> (nu, n) -> the
# parent's (nu, lam), n being the fold count lam carries
_SUBSTITUTIONS = {
    "lam = n": lambda nu, n: (nu, n),
    "lam = -n": lambda nu, n: (nu, -n),
    "(nu, lam) = (nu+n, -n)": lambda nu, n: (complex(nu) + n, -n),
}


def _integer_step(parent, at=None, domain=None):
    """Both sides of a multi-integral entry: those of the fractional entry
    ``parent`` at the substitution named ``at``, whose conditions it lists
    labelled with ``at``, plus ``domain``, the argument's range as
    (description, test of Re z).  An n-fold integral is the fractional
    integral of order n.  With ``at`` None the fold count is the integer
    degree nu and the parent is taken at the same point."""

    def point(nu, mu, lam, z):
        if at is None:
            _check_fold(nu)
            return nu, mu, lam, z
        nu, lam = _SUBSTITUTIONS[at](nu, _check_fold(lam))
        return nu, mu, lam, z

    def lhs(nu, mu, lam, z, target):
        return get_identity(parent).lhs(*point(nu, mu, lam, z), target)

    def rhs(nu, mu, lam, z):
        pred = get_identity(parent).rhs(*point(nu, mu, lam, z))
        if at is None:
            return pred
        desc, inside = domain
        conditions = tuple((f"{d} at {at}", ok) for d, ok in pred.conditions)
        return Prediction(
            pred.value, pred.terms, conditions + ((desc, inside(complex(z).real)),)
        )

    return {"lhs": lhs, "rhs": rhs}


_ABOVE_ONE = ("z > 1", lambda x: x > 1.0)
_ON_CUT = ("-1 < x < 1", lambda x: -1.0 < x < 1.0)


def _rhs_rodrigues(part):
    """``rodrigues_pair``'s weighted (part 0) or primitive (part 1) closed
    form, valid where its integrand's (1-v)**(nu+alpha), or (1-v)**alpha, is integrable."""

    def rhs(nu, mu, lam, z):
        desc, exponent = (("Re(nu+alpha+1) > 0", nu + mu), ("Re alpha > -1", mu))[part]
        return _closed_form(
            rodrigues_pair(nu, mu, lam, z)[part],
            ("weighted", "primitive")[part],
            _cond(desc, complex(exponent).real > -1.0),
            _cond("-1 < z < 1", -1.0 < complex(z).real < 1.0),
        )

    return rhs


def _rhs_beta_contour(nu, mu, lam, z):
    """(1-z)**(sigma-1) Gamma(sigma)/Gamma(sigma-lam): the loop over (z, 1)
    carries 1 - V = (1-z)(1-v), so z stays off the cut [1, inf) of
    (1-V)**(sigma-1)."""
    sigma, z = complex(mu), complex(z)
    return _closed_form(
        cpow(1.0 - z, sigma - 1.0) * gamma_ratio([sigma], [sigma - complex(lam)]),
        "beta_term",
        _cond("Re sigma > 0", sigma.real > 0),
        _cond("z not in [1, inf)", not (z.imag == 0.0 and z.real >= 1.0)),
    )


# ---------------------------------------------------------------------------
# the catalog

# grids shared by the P and Q entries of one relation
_K3_WEYL_GRID = (
    {"nu": 0.35, "mu": 0.15, "lam": 0.55, "z": 1.7},
    {"nu": 0.8, "mu": -0.3, "lam": 1.35, "z": 2.3},
    {"nu": 0.35, "mu": -0.3, "lam": 1.35, "z": 1.7},
    {"nu": 0.8, "mu": 0.15, "lam": 0.55, "z": 2.3},
)
_FERRERS_LPLUS_GRID = (
    {"nu": 0.45, "mu": 0.3, "lam": 0.6, "z": 0.25},
    {"nu": 1.3, "mu": -0.4, "lam": 1.55, "z": -0.35},
    {"nu": 0.45, "mu": -0.4, "lam": 1.55, "z": 0.25},
    {"nu": 1.3, "mu": 0.3, "lam": 0.6, "z": -0.35},
)


def _build_catalog():
    entries = [
        IdentityEntry(
            id="WEYL_MPLUS_Q",
            description=(
                "Weyl fractional integral lowering the order of the weighted "
                "second-kind function: collapsed semi-infinite quadrature vs. "
                "single-term closed form."
            ),
            formula=(
                "1/Gamma(lam) * int_0^inf dt t^(lam-1) ((z+t)^2-1)^(-mu/2) "
                "Q_nu^mu(z+t) = e^(i pi lam) (z^2-1)^(-(mu-lam)/2) Q_nu^(mu-lam)(z)"
            ),
            default_grid=_grid((0.7, 1.5, 2.3), (0.2, 0.6), (0.4, 1.3), (1.5, 3.0)),
            lhs=_weyl_loop(
                _integrand("mplus", "q"),
                decay=lambda p: (p.nu + p.mu + 1.0).real,
                order=lambda p: -p.lam,
            ),
            rhs=_shift("order", "weyl_q_down"),
        ),
        IdentityEntry(
            id="WEYL_MPLUS_P",
            description=(
                "Weyl order-raising on the weighted first-kind function: the "
                "result mixes a first-kind term with an extra second-kind term."
            ),
            formula=(
                "e^(i pi lam)Gamma(lam+1)/(2 pi i) * loop_(inf,0+,inf) dt t^(-lam-1) "
                "((z+t)^2-1)^(-mu/2) P_nu^mu(z+t) = [P-term + extra-Q-term] "
                "* (z^2-1)^(-(mu+lam)/2)"
            ),
            default_grid=_grid((0.35, 0.85), (0.15, -0.2), (1.3, 1.8), (1.6, 2.4)),
            lhs=_weyl_loop(_integrand("mplus", "p"), decay=lambda p: -(p.nu - p.mu).real),
            rhs=_shift("order", "weyl_p_up"),
        ),
        IdentityEntry(
            id="WEYL_MMINUS_Q",
            description=(
                "Weyl order-lowering on the weighted second-kind function: "
                "rotated-ray quadrature vs. gamma-ratio coefficient times the "
                "shifted function."
            ),
            formula=(
                "e^(-i pi lam) e^(i pi lam)Gamma(lam+1)/(2 pi i) * loop dt t^(-lam-1) "
                "((z+t)^2-1)^(mu/2) Q_nu^mu(z+t) = "
                "[Gamma(nu+mu+1)Gamma(nu-mu+lam+1)/(Gamma(nu+mu-lam+1)Gamma(nu-mu+1))] "
                "(z^2-1)^((mu-lam)/2) Q_nu^(mu-lam)(z)"
            ),
            default_grid=_grid((0.7, 1.5, 2.3), (0.2, 0.6), (0.4, 1.3), (1.5, 3.0)),
            lhs=_weyl_loop(
                _integrand("mminus", "q"), decay=lambda p: (p.nu - p.mu + 1.0).real, scale=_rotation
            ),
            rhs=_shift("order", "weyl_minus_q"),
        ),
        IdentityEntry(
            id="WEYL_MMINUS_P",
            description=(
                "Weyl order-lowering on the weighted first-kind function: no "
                "extra second-kind term appears, but the coefficient and phase "
                "differ from the second-kind case."
            ),
            formula=(
                "e^(-i pi lam) e^(i pi lam)Gamma(lam+1)/(2 pi i) * loop dt t^(-lam-1) "
                "((z+t)^2-1)^(mu/2) P_nu^mu(z+t) = e^(-i pi lam) "
                "[Gamma(-nu-mu+lam)Gamma(nu-mu+lam+1)/(Gamma(-nu-mu)Gamma(nu-mu+1))] "
                "(z^2-1)^((mu-lam)/2) P_nu^(mu-lam)(z)"
            ),
            default_grid=_grid((0.35, 0.75), (-0.45, 0.15), (1.4, 2.3), (1.5, 2.6)),
            lhs=_weyl_loop(
                _integrand("mminus", "p"), decay=lambda p: -(p.nu + p.mu).real, scale=_rotation
            ),
            rhs=_shift("order", "weyl_minus_p"),
        ),
        IdentityEntry(
            id="RIEMANN_MPLUS_P",
            description=(
                "Riemann order-raising on the weighted first-kind function "
                "over the finite contour ending at z-1; extends a classical "
                "fractional integral to all lam."
            ),
            formula=(
                "Gamma(lam+1) e^(i pi lam)/(2 pi i) * loop_(z-1,0+,z-1) dt t^(-lam-1) "
                "((z-t)^2-1)^(-mu/2) P_nu^mu(z-t) = "
                "(z^2-1)^(-(mu+lam)/2) P_nu^(mu+lam)(z)"
            ),
            default_grid=_grid((0.6, 1.3), (0.3, -0.4), (0.7, 1.6), (1.4, 2.2)),
            lhs=_riemann_loop(_integrand("mplus", "p"), basepoint=_minus_re_mu, scale=_cut_power),
            rhs=_shift("order", "riemann_p_up"),
        ),
        IdentityEntry(
            id="RIEMANN_MPLUS_Q",
            description=(
                "Riemann order-raising on the weighted second-kind function: "
                "the result solves an inhomogeneous equation and carries an "
                "extra 3F2 term beside the first-kind term."
            ),
            formula=(
                "Gamma(lam+1) e^(i pi lam)/(2 pi i) * loop_(z-1,0+,z-1) dt t^(-lam-1) "
                "((z-t)^2-1)^(-mu/2) Q_nu^mu(z-t) = (pi/2) e^(i pi mu)/sin(pi mu) "
                "* (z^2-1)^(-(mu+lam)/2) P_nu^(mu+lam)(z) + 3F2-term"
            ),
            default_grid=_grid((0.55, 1.2), (0.35, -0.25), (0.6, 1.45), (1.5, 2.0)),
            lhs=_riemann_loop(
                _integrand("mplus", "q"),
                basepoint=lambda p: min(-p.mu.real, 0.0),
                scale=_cut_power,
            ),
            rhs=_shift("order", "riemann_q_up"),
        ),
        IdentityEntry(
            id="RIEMANN_MMINUS_P",
            description=(
                "Riemann order-lowering on the weighted first-kind function: "
                "the loop-regularized quadrature equals a single 3F2."
            ),
            formula=(
                "Gamma(lam+1)(z-1)^(-lam) e^(i pi lam)/(2 pi i) * loop_(1,0+,1) "
                "dv v^(-lam-1) (V^2-1)^(mu/2) P_nu^mu(V), V = z-(z-1)v = "
                "2^mu (z-1)^(-lam)/(Gamma(1-mu)Gamma(1-lam)) * "
                "3F2(nu-mu+1, -nu-mu, 1; 1-mu, 1-lam; (1-z)/2)"
            ),
            default_grid=_grid((0.35, 0.8), (0.15, 0.45), (0.7, 1.3), (1.6, 2.2)),
            lhs=_riemann_loop(_integrand("mminus", "p"), scale=_cut_power),
            rhs=_shift("order", "riemann_p_down_near"),
        ),
        IdentityEntry(
            id="MULTI_INT_MPLUS",
            description=(
                "n-fold iterated integral to infinity of the upper-weighted "
                "second-kind function, collapsed by kernel reduction: "
                "WEYL_MPLUS_Q at lam = n, the fold count lam carries."
            ),
            formula=(
                "int_z^inf ... int (u^2-1)^(-mu/2) Q_nu^mu(u) du^n = "
                "WEYL_MPLUS_Q at lam = n: e^(i pi n) (z^2-1)^(-(mu-n)/2) Q_nu^(mu-n)(z)"
            ),
            default_grid=(
                {"nu": 1.6, "mu": 0.3, "lam": 1, "z": 1.7},
                {"nu": 2.2, "mu": 0.5, "lam": 1, "z": 2.4},
                {"nu": 1.6, "mu": 0.3, "lam": 2, "z": 1.7},
                {"nu": 2.2, "mu": 0.5, "lam": 2, "z": 2.4},
            ),
            **_integer_step("WEYL_MPLUS_Q", "lam = n", _ABOVE_ONE),
        ),
        IdentityEntry(
            id="MULTI_INT_MMINUS",
            description=(
                "n-fold iterated integral to infinity of the lower-weighted "
                "second-kind function: WEYL_MMINUS_Q at lam = -n, n the fold "
                "count lam carries."
            ),
            formula=(
                "(-1)^n int_z^inf ... int (u^2-1)^(mu/2) Q_nu^mu(u) du^n = "
                "WEYL_MMINUS_Q at lam = -n: "
                "[Gamma(nu+mu+1)Gamma(nu-mu-n+1)/(Gamma(nu+mu+n+1)Gamma(nu-mu+1))] "
                "(z^2-1)^((mu+n)/2) Q_nu^(mu+n)(z)"
            ),
            default_grid=(
                {"nu": 1.6, "mu": 0.3, "lam": 1, "z": 1.7},
                {"nu": 2.4, "mu": -0.2, "lam": 1, "z": 2.0},
                {"nu": 1.6, "mu": 0.3, "lam": 2, "z": 1.7},
                {"nu": 2.4, "mu": -0.2, "lam": 2, "z": 2.0},
            ),
            **_integer_step("WEYL_MMINUS_Q", "lam = -n", _ABOVE_ONE),
        ),
        IdentityEntry(
            id="MULTI_INT_K3",
            description=(
                "n-fold iterated integral to infinity lowering the degree of "
                "the degree-weighted second-kind function: K3_WEYL_Q at "
                "degree nu+n and lam = -n, n the fold count lam carries."
            ),
            formula=(
                "(-1)^n int_y^inf ... int (u^2-1)^(-(nu+n+1)/2) "
                "Q_(nu+n)^mu(u/sqrt(u^2-1)) du^n = K3_WEYL_Q at (nu, lam) = (nu+n, -n): "
                "(-1)^n [Gamma(nu-mu+1)/Gamma(nu+n-mu+1)] "
                "(y^2-1)^(-(nu+1)/2) Q_nu^mu(y/sqrt(y^2-1))"
            ),
            default_grid=(
                {"nu": 1.6, "mu": 0.3, "lam": 1, "z": 1.7},
                {"nu": 0.8, "mu": -0.25, "lam": 1, "z": 2.2},
                {"nu": 1.6, "mu": 0.3, "lam": 2, "z": 1.7},
                {"nu": 0.8, "mu": -0.25, "lam": 2, "z": 2.2},
            ),
            **_integer_step("K3_WEYL_Q", "(nu, lam) = (nu+n, -n)", _ABOVE_ONE),
        ),
        IdentityEntry(
            id="MULTI_INT_P3",
            description=(
                "n-fold iterated integral from the lower endpoint raising the "
                "degree of the degree-weighted second-kind function: "
                "P3_RIEMANN_Q at lam = -n, n the fold count lam carries."
            ),
            formula=(
                "int_1^y ... int (u^2-1)^(nu/2) Q_nu^mu(u/sqrt(u^2-1)) du^n = "
                "P3_RIEMANN_Q at lam = -n: [Gamma(nu+mu+1)/Gamma(nu+n+mu+1)] "
                "(y^2-1)^((nu+n)/2) Q_(nu+n)^mu(y/sqrt(y^2-1))"
            ),
            default_grid=(
                {"nu": 0.35, "mu": 0.15, "lam": 1, "z": 1.7},
                {"nu": 0.6, "mu": -0.3, "lam": 1, "z": 2.1},
                {"nu": 0.35, "mu": 0.15, "lam": 2, "z": 1.7},
                {"nu": 0.6, "mu": -0.3, "lam": 2, "z": 2.1},
            ),
            **_integer_step("P3_RIEMANN_Q", "lam = -n", _ABOVE_ONE),
        ),
        IdentityEntry(
            id="MULTI_INT_LPLUS",
            description=(
                "n-fold iterated integral to the endpoint 1 of the weighted "
                "Ferrers function of the first kind: FERRERS_LPLUS_P at "
                "lam = -n, n the fold count lam carries."
            ),
            formula=(
                "int_x^1 ... int (1-u^2)^(-mu/2) FerrersP_nu^mu(u) du^n = "
                "FERRERS_LPLUS_P at lam = -n: (1-x^2)^(-(mu-n)/2) FerrersP_nu^(mu-n)(x)"
            ),
            default_grid=(
                {"nu": 0.45, "mu": 0.3, "lam": 1, "z": 0.3},
                {"nu": 1.3, "mu": -0.4, "lam": 1, "z": -0.2},
                {"nu": 0.45, "mu": 0.3, "lam": 2, "z": 0.3},
                {"nu": 1.3, "mu": -0.4, "lam": 2, "z": -0.2},
            ),
            **_integer_step("FERRERS_LPLUS_P", "lam = -n", _ON_CUT),
        ),
        IdentityEntry(
            id="MULTI_INT_RODRIGUES",
            description=(
                "n-fold iterated integral to the endpoint 1 of the weighted "
                "integer-degree Jacobi polynomial reproduces the primitive "
                "weight: RODRIGUES_INVERSE at nu = n, the integer degree nu "
                "carries; (mu, lam) carry (alpha, beta)."
            ),
            formula=(
                "int_z^1 ... int (1-t)^alpha (1+t)^beta P_n^(alpha,beta)(t) dt^n = "
                "RODRIGUES_INVERSE at nu = n: (1-z)^(n+alpha)(1+z)^(n+beta)/(2^n n!)"
            ),
            default_grid=(
                {"nu": 1, "mu": 0.3, "lam": -0.2, "z": 0.35},
                {"nu": 1, "mu": -0.35, "lam": 0.45, "z": -0.3},
                {"nu": 2, "mu": 0.3, "lam": -0.2, "z": 0.35},
                {"nu": 2, "mu": -0.35, "lam": 0.45, "z": -0.3},
            ),
            **_integer_step("RODRIGUES_INVERSE"),
        ),
        IdentityEntry(
            id="K3_WEYL_P",
            description=(
                "Weyl degree-raising on the degree-weighted first-kind "
                "function, obtained through the modular transformation that "
                "swaps degree and order."
            ),
            formula=(
                "e^(-i pi lam) e^(i pi lam)Gamma(lam+1)/(2 pi i) * loop dt t^(-lam-1) "
                "((y+t)^2-1)^(-(nu+1)/2) P_nu^mu((y+t)/sqrt((y+t)^2-1)) = "
                "e^(-i pi lam) [Gamma(nu+lam-mu+1)/Gamma(nu-mu+1)] "
                "(y^2-1)^(-(nu+lam+1)/2) P_(nu+lam)^mu(y/sqrt(y^2-1))"
            ),
            default_grid=_K3_WEYL_GRID,
            lhs=_weyl_loop(_integrand("k3", "p"), decay=_k3_decay, scale=_rotation),
            rhs=_shift("degree", "k3_up_p"),
        ),
        IdentityEntry(
            id="K3_WEYL_Q",
            description=(
                "Weyl degree-raising on the degree-weighted second-kind "
                "function."
            ),
            formula=(
                "same contour as K3_WEYL_P with Q_nu^mu in the integrand = "
                "e^(-i pi lam) [Gamma(nu+lam-mu+1)/Gamma(nu-mu+1)] "
                "(y^2-1)^(-(nu+lam+1)/2) Q_(nu+lam)^mu(y/sqrt(y^2-1))"
            ),
            default_grid=_K3_WEYL_GRID,
            lhs=_weyl_loop(_integrand("k3", "q"), decay=_k3_decay, scale=_rotation),
            rhs=_shift("degree", "k3_up_q"),
        ),
        IdentityEntry(
            id="K3_RIEMANN_Q_3F2",
            description=(
                "Riemann-type degree shift of the degree-weighted second-kind "
                "function: the finite-contour integral collapses to a 3F2 in "
                "the swapped parameters."
            ),
            formula=(
                "Gamma(lam+1)(y-1)^(-lam) e^(i pi lam)/(2 pi i) * loop_(1,0+,1) "
                "du u^(-lam-1) (U^2-1)^(-(nu+1)/2) Q_nu^mu(U/sqrt(U^2-1)) = "
                "e^(i pi mu) sqrt(pi/2) 2^(-nu-1/2) "
                "[Gamma(nu+mu+1)/(Gamma(nu+3/2)Gamma(1-lam))] (y-1)^(-lam) "
                "3F2(-mu+1/2, nu+1/2 -> family(-mu-1/2, -nu-1/2, lam); (1-y)/2)"
            ),
            default_grid=(
                {"nu": 0.35, "mu": 0.15, "lam": 0.55, "z": 1.6},
                {"nu": 0.8, "mu": -0.3, "lam": 1.35, "z": 2.1},
                {"nu": 0.35, "mu": -0.3, "lam": 1.35, "z": 1.6},
                {"nu": 0.8, "mu": 0.15, "lam": 0.55, "z": 2.1},
            ),
            lhs=_riemann_loop(_integrand("k3", "q"), scale=_cut_power),
            rhs=_shift("degree", "k3_riemann_q"),
        ),
        IdentityEntry(
            id="P3_WEYL_P",
            description=(
                "Weyl degree-lowering on the degree-weighted first-kind "
                "function."
            ),
            formula=(
                "e^(-i pi lam) e^(i pi lam)Gamma(lam+1)/(2 pi i) * loop dt t^(-lam-1) "
                "((y+t)^2-1)^(nu/2) P_nu^mu((y+t)/sqrt((y+t)^2-1)) = "
                "e^(-i pi lam) [Gamma(-nu+lam-mu)/Gamma(-nu-mu)] "
                "(y^2-1)^((nu-lam)/2) P_(nu-lam)^mu(y/sqrt(y^2-1))"
            ),
            default_grid=(
                {"nu": 0.35, "mu": 0.15, "lam": 1.3, "z": 1.7},
                {"nu": 0.6, "mu": -0.25, "lam": 1.9, "z": 2.2},
                {"nu": 0.35, "mu": -0.25, "lam": 1.9, "z": 1.7},
                {"nu": 0.6, "mu": 0.15, "lam": 1.3, "z": 2.2},
            ),
            lhs=_weyl_loop(
                _integrand("p3", "p"),
                decay=lambda p: -(p.nu.real + abs(p.mu.real)),
                scale=_rotation,
            ),
            rhs=_shift("degree", "p3_down_p"),
        ),
        IdentityEntry(
            id="P3_RIEMANN_Q",
            description=(
                "Riemann-type degree-lowering on the degree-weighted "
                "second-kind function: a proper shift with a single "
                "gamma-ratio coefficient."
            ),
            formula=(
                "Gamma(lam+1)(y-1)^(-lam) e^(i pi lam)/(2 pi i) * loop_(1,0+,1) "
                "du u^(-lam-1) (U^2-1)^(nu/2) Q_nu^mu(U/sqrt(U^2-1)) = "
                "[Gamma(nu+mu+1)/Gamma(nu-lam+mu+1)] (y^2-1)^((nu-lam)/2) "
                "Q_(nu-lam)^mu(y/sqrt(y^2-1))"
            ),
            default_grid=(
                {"nu": 0.35, "mu": 0.15, "lam": 0.55, "z": 1.7},
                {"nu": 0.7, "mu": -0.3, "lam": 1.35, "z": 2.1},
                {"nu": 0.35, "mu": -0.3, "lam": 1.35, "z": 1.7},
                {"nu": 0.7, "mu": 0.15, "lam": 0.55, "z": 2.1},
            ),
            lhs=_riemann_loop(
                _integrand("p3", "q"), scale=_cut_power, basepoint=lambda p: p.nu.real + 0.5
            ),
            rhs=_shift("degree", "p3_riemann_q"),
        ),
        IdentityEntry(
            id="FERRERS_LPLUS_P",
            description=(
                "Riemann order-raising on the weighted Ferrers function of "
                "the first kind over the on-cut contour ending at 1-x."
            ),
            formula=(
                "Gamma(lam+1) e^(i pi lam)/(2 pi i) * loop_(1-x,0+,1-x) dt t^(-lam-1) "
                "(1-(x+t)^2)^(-mu/2) FerrersP_nu^mu(x+t) = "
                "(1-x^2)^(-(mu+lam)/2) FerrersP_nu^(mu+lam)(x)"
            ),
            default_grid=_FERRERS_LPLUS_GRID,
            lhs=_on_cut(
                _riemann_loop(
                    _integrand("mplus", "ferrers_p"), basepoint=_minus_re_mu, scale=_segment_power
                )
            ),
            rhs=_shift("ferrers", "lplus_p"),
        ),
        IdentityEntry(
            id="FERRERS_LPLUS_Q_3F2",
            description=(
                "Riemann order-raising on the weighted Ferrers function of "
                "the second kind: a first-kind term plus a 3F2 term, the "
                "inhomogeneous on-cut analogue."
            ),
            formula=(
                "Gamma(lam+1) e^(i pi lam)/(2 pi i) * loop_(1-x,0+,1-x) dt t^(-lam-1) "
                "(1-(x+t)^2)^(-mu/2) FerrersQ_nu^mu(x+t) = "
                "(pi/2)cot(pi mu)(1-x^2)^(-(mu+lam)/2) FerrersP_nu^(mu+lam)(x) + "
                "2^(-mu-1)(1-x)^(-lam) "
                "[Gamma(-mu)Gamma(nu+mu+1)/(Gamma(1-lam)Gamma(nu-mu+1))] "
                "3F2(-nu+mu, nu+mu+1, 1; 1-lam, mu+1; (1-x)/2)"
            ),
            default_grid=_FERRERS_LPLUS_GRID,
            lhs=_on_cut(
                _riemann_loop(
                    _integrand("mplus", "ferrers_q"), basepoint=_minus_re_mu, scale=_segment_power
                )
            ),
            rhs=_shift("ferrers", "lplus_q"),
        ),
        IdentityEntry(
            id="FERRERS_LMINUS_P_3F2",
            description=(
                "Riemann order-lowering on the weighted Ferrers function of "
                "the first kind: the integral equals a single 3F2, a "
                "fractional extension of the angular-momentum ladder."
            ),
            formula=(
                "Gamma(lam+1)(1-x)^(-lam) e^(i pi lam)/(2 pi i) * loop_(1,0+,1) "
                "dv v^(-lam-1) (1-V^2)^(mu/2) FerrersP_nu^mu(V), V = x+(1-x)v = "
                "2^mu (1-x)^(-lam)/(Gamma(1-mu)Gamma(1-lam)) * "
                "3F2(nu-mu+1, -nu-mu, 1; 1-mu, 1-lam; (1-x)/2)"
            ),
            default_grid=(
                {"nu": 0.45, "mu": -0.4, "lam": 0.6, "z": 0.25},
                {"nu": 1.3, "mu": 0.35, "lam": 1.55, "z": -0.3},
                {"nu": 0.45, "mu": 0.35, "lam": 1.55, "z": 0.25},
                {"nu": 1.3, "mu": -0.4, "lam": 0.6, "z": -0.3},
            ),
            lhs=_on_cut(_riemann_loop(_integrand("mminus", "ferrers_p"), scale=_segment_power)),
            rhs=_shift("ferrers", "lminus_p"),
        ),
        IdentityEntry(
            id="RODRIGUES_FRAC",
            description=(
                "Fractional Rodrigues representation: the weighted Jacobi "
                "function of fractional degree equals a loop-contour "
                "fractional derivative of the primitive weight; (mu, lam) "
                "carry (alpha, beta)."
            ),
            formula=(
                "(1-z)^alpha (1+z)^beta P_nu^(alpha,beta)(z) = "
                "Gamma(nu+1) e^(i pi nu)/(2 pi i) * loop_(1-z,0+,1-z) dt t^(-nu-1) "
                "2^(-nu)/Gamma(nu+1) (1-z-t)^(nu+alpha) (1+z+t)^(nu+beta)"
            ),
            default_grid=(
                {"nu": 0.6, "mu": 0.3, "lam": -0.2, "z": 0.35},
                {"nu": 1.4, "mu": -0.35, "lam": 0.45, "z": -0.3},
                {"nu": 0.6, "mu": -0.35, "lam": 0.45, "z": 0.35},
                {"nu": 1.4, "mu": 0.3, "lam": -0.2, "z": -0.3},
            ),
            lhs=_riemann_loop(
                lambda p: _rodrigues_primitive(p.nu, p.mu, p.lam),
                order=lambda p: p.nu,
                basepoint=lambda p: (p.nu + p.mu).real,
                scale=lambda p: cpow(1.0 - p.z, -p.nu),
            ),
            rhs=_rhs_rodrigues(0),
        ),
        IdentityEntry(
            id="RODRIGUES_INVERSE",
            description=(
                "Inverse fractional Rodrigues relation: fractional "
                "integration of the weighted Jacobi function recovers the "
                "primitive weight; (mu, lam) carry (alpha, beta)."
            ),
            formula=(
                "Gamma(1-nu)(1-z)^nu e^(-i pi nu)/(2 pi i) * loop_(1,0+,1) dw "
                "w^(nu-1) (1-v)^alpha (1+v)^beta P_nu^(alpha,beta)(v), "
                "v = z+(1-z)w = 2^(-nu)/Gamma(nu+1) (1-z)^(nu+alpha) (1+z)^(nu+beta)"
            ),
            default_grid=(
                {"nu": 0.6, "mu": 0.3, "lam": -0.2, "z": 0.3},
                {"nu": 0.35, "mu": -0.35, "lam": 0.45, "z": -0.25},
                {"nu": 0.6, "mu": -0.35, "lam": 0.45, "z": 0.3},
                {"nu": 0.35, "mu": 0.3, "lam": -0.2, "z": -0.25},
            ),
            lhs=_riemann_loop(
                lambda p: _weighted("rodrigues", "jacobi", p.nu, (p.mu, p.lam)).terms,
                order=lambda p: -p.nu,
                scale=lambda p: cpow(1.0 - p.z, p.nu),
                basepoint=lambda p: p.mu.real,
            ),
            rhs=_rhs_rodrigues(1),
        ),
        IdentityEntry(
            id="BETA_CONTOUR",
            description=(
                "Loop-contour continuation of the beta function, the scalar "
                "kernel behind every collapsed Riemann contour here; mu "
                "carries the second beta parameter sigma."
            ),
            formula=(
                "Gamma(lam+1) e^(i pi lam)/(2 pi i) * loop_(1,0+,1) dv v^(-lam-1) "
                "(1-V)^(sigma-1), V = z+(1-z)v = (1-z)^(sigma-1) B(-lam, sigma)/Gamma(-lam) "
                "= (1-z)^(sigma-1) Gamma(sigma)/Gamma(sigma-lam)"
            ),
            default_grid=(
                {"nu": 0.0, "mu": 0.7, "lam": 2.6, "z": 0.0},
                {"nu": 0.0, "mu": 1.3, "lam": 0.55, "z": 0.0},
                {"nu": 0.0, "mu": 0.45, "lam": -0.7, "z": 0.0},
                {"nu": 0.0, "mu": 2.2, "lam": 3.7, "z": 0.0},
            ),
            # (1-V)**(sigma-1) is singular only at V = 1
            lhs=_riemann_loop(_beta_kernel, basepoint=lambda p: p.mu.real - 1.0, radius=1.0),
            rhs=_rhs_beta_contour,
        ),
    ]
    catalog = {}
    for entry in entries:
        if entry.id in catalog:
            raise ValueError(f"duplicate identity id {entry.id}")
        catalog[entry.id] = entry
    return catalog


_CATALOG = _build_catalog()


def list_identities():
    """All catalog entries, in fixed registration order."""
    return list(_CATALOG.values())


def get_identity(identity_id) -> IdentityEntry:
    try:
        return _CATALOG[identity_id]
    except KeyError:
        raise DomainError(f"unknown identity {identity_id!r}") from None


# ---------------------------------------------------------------------------
# verification

def verify_identity(
    identity_id,
    nu,
    mu,
    lam,
    z,
    target=1e-9,
    tolerance=1e-6,
    coeff_perturbation=0.0,
) -> VerificationReport:
    """Check one identity at one parameter point.

    The quadrature budget ``target`` sits three orders below the pass
    ``tolerance`` so quadrature noise cannot mask a formula error.
    ``coeff_perturbation`` scales the largest closed-form term by (1-p);
    the depression direction makes the induced relative error p/(1-p) > p,
    so a canary of p = tolerance flips a passing point unconditionally.
    """
    entry = get_identity(identity_id)
    check_finite(nu, mu, lam, z)
    params = {"nu": nu, "mu": mu, "lam": lam, "z": z}
    pred = entry.rhs(nu, mu, lam, z)
    failed = tuple(desc for desc, ok in pred.conditions if not ok)
    if failed:
        return VerificationReport(
            identity=entry.id,
            params=params,
            lhs=None,
            rhs=pred,
            abs_err=math.inf,
            rel_err=math.inf,
            passed=False,
            validity=False,
            failed_conditions=failed,
        )

    rhs_value = pred.value
    if coeff_perturbation:
        lead = max(pred.terms.values(), key=abs) if pred.terms else pred.value
        rhs_value = pred.value - coeff_perturbation * lead
        pred = Prediction(rhs_value, pred.terms, pred.conditions)

    lhs = entry.lhs(nu, mu, lam, z, target)
    abs_err = abs(lhs.value - rhs_value)
    rel_err = abs_err / max(abs(rhs_value), _REL_FLOOR)
    return VerificationReport(
        identity=entry.id,
        params=params,
        lhs=lhs,
        rhs=pred,
        abs_err=abs_err,
        rel_err=rel_err,
        passed=bool(rel_err < tolerance),
        validity=True,
    )


def _param_key(point):
    return tuple(
        (complex(point[k]).real, complex(point[k]).imag)
        for k in ("nu", "mu", "lam", "z")
    )


def verify_grid(
    identity_id,
    grid=None,
    target=1e-9,
    tolerance=1e-6,
    coeff_perturbation=0.0,
) -> GridSummary:
    """Run verify_identity over a grid; deterministic lexicographic order.

    Per-point numerical failures and poles are collected into ``failures``,
    not raised; invalid points count as failures with the violated predicate
    named.
    """
    entry = get_identity(identity_id)
    if grid is None:
        grid = entry.default_grid
    grid = sorted(grid, key=_param_key)
    if not grid:
        raise DomainError("empty parameter grid")

    reports = []
    failures = []
    n_passed = n_valid = 0
    worst = 0.0
    for point in grid:
        try:
            rep = verify_identity(
                entry.id,
                point["nu"],
                point["mu"],
                point["lam"],
                point["z"],
                target=target,
                tolerance=tolerance,
                coeff_perturbation=coeff_perturbation,
            )
        except PoleError as exc:
            failures.append((dict(point), f"pole: {exc}"))
            continue
        except ArithmeticError as exc:
            failures.append((dict(point), f"numerical failure: {type(exc).__name__}: {exc}"))
            continue
        reports.append(rep)
        if not rep.validity:
            failures.append(
                (dict(point), "invalid: " + "; ".join(rep.failed_conditions))
            )
            continue
        n_valid += 1
        worst = max(worst, rep.rel_err)
        if rep.passed:
            n_passed += 1
        else:
            failures.append((dict(point), f"mismatch: rel_err={rep.rel_err:.3e}"))
    return GridSummary(
        identity=entry.id,
        n_points=len(grid),
        n_passed=n_passed,
        n_valid=n_valid,
        worst_rel_err=worst,
        reports=tuple(reports),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# differential-equation defects

def ode_residual(mode, nu, mu, lam=None, z=2.0, kind="p") -> complex:
    """Differential-equation defect of a computed function.

    ``homogeneous``: applies the second-order operator with eigenvalue
    nu(nu+1) and order mu to the selected function (kind "p" or "q") and
    returns the residual, which should vanish.

    ``inhomogeneous_mminus``: applies the order-(mu-lam) operator written
    in the lowered-order variables to the RIEMANN_MMINUS_P closed form and
    subtracts the inhomogeneous source 2^(mu+1)(z-1)^(-lam-1)/
    (Gamma(-lam)Gamma(-mu)); the defect should vanish, and the source is
    identically zero at nonnegative integer lam.
    """
    nu, mu = complex(nu), complex(mu)
    z = complex(z)
    if mode == "homogeneous":
        f0 = legendre_p(nu, mu, z) if kind == "p" else legendre_q(nu, mu, z)
        f1 = legendre_deriv(nu, mu, z, order=1, kind=kind)
        f2 = legendre_deriv(nu, mu, z, order=2, kind=kind)
        return (
            (1.0 - z * z) * f2
            - 2.0 * z * f1
            + (nu * (nu + 1.0) - mu * mu / (1.0 - z * z)) * f0
        )
    if mode == "inhomogeneous_mminus":
        if lam is None:
            raise DomainError("inhomogeneous mode needs lam")
        lam = complex(lam)
        # G, G' and G''/2 by the Cauchy rule the loops use, on a quarter of
        # the distance to the branch point z = 1
        g0, g1, g2 = _taylor_coefficients(
            lambda t: predict_order_shift(nu, mu, lam, z + t, "riemann_p_down_near").value,
            0.25 * abs(z - 1.0),
            3,
        )[0]
        lhs = (
            (z * z - 1.0) * 2.0 * g2
            - 2.0 * (mu - lam - 1.0) * z * g1
            - (nu + mu - lam) * (nu - mu + lam + 1.0) * g0
        )
        source = (
            cpow(2.0, mu + 1.0)
            * cpow(z - 1.0, -lam - 1.0)
            * rgamma(-lam)
            * rgamma(-mu)
        )
        return lhs - source
    raise DomainError(f"unknown ode mode {mode!r}")
