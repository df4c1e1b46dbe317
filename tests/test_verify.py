"""Identity catalog, grid verification mechanics, ODE defects."""

import io
import json
import math
import random
from contextlib import redirect_stdout

import mpmath
import pytest

from legshift.cli import EXIT_NUMERICAL, main
from legshift.errors import DomainError, NumericalError
from legshift.legendre import legendre_p
from legshift.shifts import _integrand, predict_degree_shift, predict_order_shift
from legshift.verify import (
    GridSummary,
    _beta_kernel,
    _cut_distance,
    _Point,
    get_identity,
    list_identities,
    ode_residual,
    verify_grid,
    verify_identity,
)


def test_catalog_size_and_unique_ids():
    entries = list_identities()
    assert len(entries) == 24
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)


def test_catalog_entries_serialize():
    for entry in list_identities():
        d = entry.to_dict()
        json.dumps(d)  # must be plain data
        assert d["id"] == entry.id
        assert d["default_grid"], entry.id
        assert d["formula"], entry.id


def test_get_identity_unknown_raises():
    with pytest.raises(DomainError):
        get_identity("NOPE")


def test_verify_identity_passes_at_default_point():
    entry = get_identity("WEYL_MMINUS_Q")
    p = entry.default_grid[0]
    rep = verify_identity("WEYL_MMINUS_Q", **p)
    assert rep.validity and rep.passed
    assert rep.rel_err < 1e-6
    assert rep.lhs is not None and rep.lhs.evaluations > 0


def test_verify_identity_invalid_point_names_predicate():
    # Re(nu-mu+lam+1) < 0 violates the convergence condition; no quadrature runs
    rep = verify_identity("WEYL_MMINUS_Q", 0.6, 0.3, -2.0, 2.0)
    assert not rep.validity and not rep.passed
    assert rep.lhs is None
    assert any("nu-mu+lam" in d or "lam" in d for d in rep.failed_conditions)
    assert math.isinf(rep.rel_err)


def test_verify_identity_canary_flips():
    entry = get_identity("WEYL_MPLUS_Q")
    p = entry.default_grid[0]
    clean = verify_identity("WEYL_MPLUS_Q", **p)
    canary = verify_identity("WEYL_MPLUS_Q", coeff_perturbation=1e-6, **p)
    assert clean.passed and not canary.passed


def test_verify_grid_deterministic_order():
    entry = get_identity("WEYL_MPLUS_P")
    grid = list(entry.default_grid)
    fwd = verify_grid("WEYL_MPLUS_P", grid)
    rev = verify_grid("WEYL_MPLUS_P", list(reversed(grid)))
    assert [r.params for r in fwd.reports] == [r.params for r in rev.reports]
    assert fwd.all_passed and fwd.n_points == len(grid)


def test_verify_grid_empty_raises():
    with pytest.raises(DomainError):
        verify_grid("WEYL_MPLUS_P", [])


def test_verify_grid_collects_invalid_points():
    bad = {"nu": 0.6, "mu": 0.3, "lam": -2.0, "z": 2.0}
    good = dict(get_identity("WEYL_MMINUS_Q").default_grid[0])
    s = verify_grid("WEYL_MMINUS_Q", [bad, good])
    assert s.n_points == 2 and s.n_valid == 1 and s.n_passed == 1
    assert len(s.failures) == 1
    assert s.failures[0][1].startswith("invalid:")


def test_rodrigues_inverse_needs_its_integrand_integrable_at_one():
    # the loop integrates (1-v)**alpha (1+v)**beta P_nu^(alpha,beta)(v), so
    # the point is valid only where Re alpha > -1; under RODRIGUES_FRAC's
    # Re(nu+alpha+1) > 0 the quadrature raised DomainError at alpha = -1.2,
    # aborting the grid, and the CLI exited 3
    for alpha in (-1.2, -1.0):
        rep = verify_identity("RODRIGUES_INVERSE", 0.6, alpha, 0.3, 0.3)
        assert not rep.validity and rep.lhs is None
        assert rep.failed_conditions == ("Re alpha > -1",)
    good = dict(get_identity("RODRIGUES_INVERSE").default_grid[0])
    s = verify_grid("RODRIGUES_INVERSE", [{"nu": 0.6, "mu": -1.2, "lam": 0.3, "z": 0.3}, good])
    assert s.n_points == 2 and s.n_valid == 1 and s.n_passed == 1
    assert s.failures[0][1] == "invalid: Re alpha > -1"
    point = ["--nu", "0.6", "--mu", "-1.2", "--lam", "0.3", "--z", "0.3"]
    with redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "--id", "RODRIGUES_INVERSE"] + point) == EXIT_NUMERICAL
    assert "failed_conditions=Re alpha > -1" in out.getvalue()


@pytest.mark.parametrize("point", [(0.6, -1.0, 0.3, 0.3), (1.4, -2.0, 0.45, -0.3)])
def test_rodrigues_frac_at_a_pole_of_gamma_alpha_plus_one(point):
    # alpha + 1 in {0, -1}: the closed form's Jacobi function is the
    # regularized limit in alpha; the quadrature side calls no Jacobi function
    rep = verify_identity("RODRIGUES_FRAC", *point)
    assert rep.validity and rep.passed, rep.rel_err
    assert rep.rel_err <= 1e-14


def test_verify_grid_names_the_exception_of_a_numerical_failure(monkeypatch):
    def division_by_zero(*args):
        raise ZeroDivisionError("complex division by zero")

    # the closed form, not the quadrature, raises; the catalog looks the
    # predictor up in ``shifts`` per call
    monkeypatch.setattr("legshift.shifts.predict_order_shift", division_by_zero)
    s = verify_grid("RIEMANN_MMINUS_P", [get_identity("RIEMANN_MMINUS_P").default_grid[0]])
    assert s.failures[0][1] == "numerical failure: ZeroDivisionError: complex division by zero"


_3F2_IDENTITIES = (
    "RIEMANN_MMINUS_P",
    "FERRERS_LMINUS_P_3F2",
    "RIEMANN_MPLUS_Q",
    "FERRERS_LPLUS_Q_3F2",
    "K3_RIEMANN_Q_3F2",
)


@pytest.mark.parametrize("identity", _3F2_IDENTITIES)
def test_3f2_identities_at_integer_order(identity):
    # the regularized 3F2 takes the integer-step limit of each closed form:
    # lam = n everywhere, and mu = 1 for the two order-lowering forms
    points = [dict(p, lam=n) for p in get_identity(identity).default_grid[:2] for n in (1.0, 2.0)]
    if identity in ("RIEMANN_MMINUS_P", "FERRERS_LMINUS_P_3F2"):
        points += [dict(p, mu=1.0) for p in get_identity(identity).default_grid[:2]]
    for p in points:
        rep = verify_identity(identity, **p)
        assert rep.passed, (p, rep.rel_err, rep.failed_conditions)


@pytest.mark.parametrize(
    "identity,nu,mu,lam",
    [
        ("FERRERS_LMINUS_P_3F2", 0.45, -0.4, 0.6),
        ("P3_RIEMANN_Q", 0.35, 0.15, 0.55),
        ("RIEMANN_MMINUS_P", 0.35, 0.15, 0.7),
    ],
)
def test_verify_identity_at_the_branch_point_raises_a_library_error(identity, nu, mu, lam):
    # (1-x)**(-lam), y/sqrt(y**2-1) and (z-1)**(-lam) have no value at 1
    with pytest.raises((DomainError, NumericalError)):
        verify_identity(identity, nu, mu, lam, 1.0)


def test_riemann_mminus_p_terminating_3f2_past_the_disc():
    # -nu-mu = -1: the 3F2 is a polynomial, though Gamma(-nu-mu) has a pole
    rep = verify_identity("RIEMANN_MMINUS_P", 0.6, 0.4, 0.7, 3.0)
    assert rep.passed, rep.rel_err


def test_riemann_mminus_p_far_from_the_branch_point():
    # |1-z| > 2: the single 3F2 is continued off its disc
    rep = verify_identity("RIEMANN_MMINUS_P", 0.7, 0.4, 0.6, 6.0)
    assert rep.passed, rep.rel_err


@pytest.mark.parametrize("mu", [0.35, -0.25])
@pytest.mark.parametrize("z", [1.5, 2.0])
def test_riemann_mplus_q_at_order_zero_the_closed_form_carries_the_error(mu, z):
    # at lam = 0 both sides are (z^2-1)^(-mu/2) Q_nu^mu(z).  At the nu = 1.2
    # default points the loop meets 30-digit mpmath within its estimate; the
    # closed form's P and 3F2 terms are ~50 times the value and cancel, so it
    # is 2e-14 to 1.1e-13 off, within 1e-14 of its larger term
    nu = 1.2
    with mpmath.workdps(30):
        ref = complex(
            (mpmath.mpf(z) ** 2 - 1) ** (-mpmath.mpf(mu) / 2)
            * mpmath.legenq(nu, mu, z, type=3)
        )
    rep = verify_identity("RIEMANN_MPLUS_Q", nu, mu, 0.0, z)
    assert rep.passed
    assert abs(rep.lhs.value - ref) <= rep.lhs.err_estimate
    assert abs(rep.lhs.value - ref) <= 2e-15 * abs(ref)
    assert abs(rep.rhs.value - ref) <= 1e-14 * max(map(abs, rep.rhs.terms.values()))


def test_grid_summary_all_passed_property():
    s = GridSummary("X", 2, 2, 2, 1e-9)
    assert s.all_passed
    assert not GridSummary("X", 2, 1, 2, 1e-9).all_passed
    assert not GridSummary("X", 0, 0, 0, 0.0).all_passed


@pytest.mark.parametrize(
    "identity,predict,variant",
    [
        ("WEYL_MPLUS_Q", predict_order_shift, "weyl_q_down"),
        ("WEYL_MPLUS_P", predict_order_shift, "weyl_p_up"),
        ("WEYL_MMINUS_Q", predict_order_shift, "weyl_minus_q"),
        ("WEYL_MMINUS_P", predict_order_shift, "weyl_minus_p"),
        ("K3_WEYL_P", predict_degree_shift, "k3_up_p"),
        ("K3_WEYL_Q", predict_degree_shift, "k3_up_q"),
        ("P3_WEYL_P", predict_degree_shift, "p3_down_p"),
    ],
)
def test_weyl_conditions_are_the_closed_form_conditions(identity, predict, variant):
    # the closed forms state the conditions under which the Weyl integrals
    # converge, so each condition is listed once, as the predictor states it
    entry = get_identity(identity)
    for p in entry.default_grid + ({"nu": 0.6, "mu": 0.3, "lam": -2.0, "z": 2.0},):
        expected = predict(p["nu"], p["mu"], p["lam"], p["z"], variant).conditions
        assert entry.conditions_at(**p) == expected
    listed = entry.to_dict()["conditions"]
    assert len(set(listed)) == len(listed)


# the integrand of each entry whose operator has order +/-lam
_ORDER_LAM_INTEGRANDS = {
    "WEYL_MPLUS_Q": _integrand("mplus", "q"),
    "WEYL_MPLUS_P": _integrand("mplus", "p"),
    "WEYL_MMINUS_Q": _integrand("mminus", "q"),
    "WEYL_MMINUS_P": _integrand("mminus", "p"),
    "RIEMANN_MPLUS_P": _integrand("mplus", "p"),
    "RIEMANN_MPLUS_Q": _integrand("mplus", "q"),
    "RIEMANN_MMINUS_P": _integrand("mminus", "p"),
    "K3_WEYL_P": _integrand("k3", "p"),
    "K3_WEYL_Q": _integrand("k3", "q"),
    "K3_RIEMANN_Q_3F2": _integrand("k3", "q"),
    "P3_WEYL_P": _integrand("p3", "p"),
    "P3_RIEMANN_Q": _integrand("p3", "q"),
    "FERRERS_LPLUS_P": _integrand("mplus", "ferrers_p"),
    "FERRERS_LPLUS_Q_3F2": _integrand("mplus", "ferrers_q"),
    "FERRERS_LMINUS_P_3F2": _integrand("mminus", "ferrers_p"),
    "BETA_CONTOUR": _beta_kernel,
}


@pytest.mark.parametrize(
    "identity",
    [e.id for e in list_identities() if not e.id.startswith(("MULTI_INT_", "RODRIGUES_"))],
)
def test_closed_form_at_order_zero_is_the_integrand(identity):
    # an operator of order 0 is the identity, so at lam = 0 each closed form
    # is its own entry's integrand W: the closed forms and the integrands
    # read the same weight conventions.  RIEMANN_MPLUS_Q, whose two terms
    # cancel, is the worst, 1.1e-13
    entry = get_identity(identity)
    for p in entry.default_grid:
        nu, mu, z = p["nu"], p["mu"], p["z"]
        W = _ORDER_LAM_INTEGRANDS[identity](_Point(complex(nu), complex(mu), 0j, complex(z)))
        w = W(complex(z), 1.0 - complex(z))
        rhs = entry.rhs(nu, mu, 0.0, z).value
        assert abs(rhs - w) <= 1e-12 * abs(w), (p, rhs, w)


@pytest.fixture(scope="module")
def default_grid_reports():
    return [rep for e in list_identities() for rep in verify_grid(e.id).reports]


# the default-grid points whose actual |lhs - rhs| exceeds the quadrature's
# err_estimate, as (identity, (nu, mu, lam, z)): none, and it may not grow
_ESTIMATE_EXCEEDED = set()


def test_actual_error_exceeds_estimate_only_at_known_points(default_grid_reports):
    exceeded = {
        (rep.identity, tuple(rep.params[k] for k in ("nu", "mu", "lam", "z")))
        for rep in default_grid_reports
        if rep.abs_err > rep.lhs.err_estimate
    }
    assert exceeded <= _ESTIMATE_EXCEEDED, exceeded - _ESTIMATE_EXCEEDED


@pytest.mark.parametrize(
    "identity,nu,mu,lam",
    [("FERRERS_LMINUS_P_3F2", 1.3, -0.4, 0.6), ("RODRIGUES_INVERSE", 0.35, -0.35, 0.45)],
)
def test_rescaled_loop_circle_avoids_the_singularity_at_minus_one(identity, nu, mu, lam):
    # g(v) = W(x + (1-x) v) is singular at V = -1, v = -(1+x)/(1-x), inside
    # the unit disc for x < 0: a Cauchy circle sized for radius 1 aliased
    # that singularity into the coefficients (up to 17% off at x = -0.75)
    for x in (-0.3, -0.45, -0.55, -0.65, -0.75):
        rep = verify_identity(identity, nu, mu, lam, x)
        assert rep.passed and rep.abs_err <= rep.lhs.err_estimate, (x, rep.rel_err)


@pytest.mark.parametrize(
    "identity",
    ["RIEMANN_MPLUS_P", "RIEMANN_MPLUS_Q", "RIEMANN_MMINUS_P", "K3_RIEMANN_Q_3F2", "P3_RIEMANN_Q"],
)
def test_riemann_loops_next_to_the_cut_stay_within_their_estimate(identity):
    # at a complex z left of 1 the integrand's cut (-inf, 1] passes within
    # |Im z| of z, so the Cauchy circle must shrink to it, and a node next to
    # V = 1 must not round onto the cut; 1e-10 |rhs| covers the closed
    # form's own rounding
    entry = get_identity(identity)
    rng = random.Random(31)
    low = 0.05 if identity.startswith(("K3", "P3")) else -0.9
    for _ in range(40):
        p = rng.choice(entry.default_grid)
        z = complex(rng.uniform(low, 0.9), rng.choice((-1, 1)) * 10 ** rng.uniform(-3, -0.5))
        rep = verify_identity(identity, p["nu"], p["mu"], p["lam"], z)
        if rep.validity:
            bound = rep.lhs.err_estimate + 1e-10 * abs(rep.rhs.value)
            assert rep.passed and rep.abs_err <= bound, (p, z, rep.rel_err)


def test_mminus_p_integrand_is_cut_left_of_minus_one_alone():
    # (z**2-1)**(mu/2) P_nu^mu(z) is one (1-z)/2 term with p = 0, analytic
    # across (-1, 1): its cut is (-inf, -1], so the Weyl radius at real z is
    # z + 1 and the Riemann circle at complex z left of 1 is not held to |Im z|
    W = _integrand("mminus", "p")(_Point(0.35 + 0j, 0.15 + 0j, 1.4 + 0j, 1.5 + 0j))
    assert W.cuts == ((-1.0, -1.0),)
    assert _integrand("mplus", "p")(_Point(0.35 + 0j, 0.15 + 0j, 1.4 + 0j, 1.5 + 0j)).cuts == (
        (1.0, -1.0),
    )
    assert _cut_distance(1.5 + 0j, W.cuts) == 2.5
    assert _cut_distance(0.3 + 0.01j, W.cuts) == abs(1.3 + 0.01j)
    # z + 1 = 2.5 >= 4 * 0.3: the loop head is its 17 reflected Cauchy samples
    # and the tail 73 more (z - 1 = 0.5 took a (t_cut, c) segment: 103 in all)
    rep = verify_identity("WEYL_MMINUS_P", 0.35, 0.15, 1.4, 1.5)
    assert rep.passed and rep.abs_err <= rep.lhs.err_estimate
    assert rep.lhs.evaluations == 90
    # the seeded near-cut sample of the Riemann loop: a median of 120
    # evaluations while the cut was reported on (-inf, 1]
    entry, rng, counts = get_identity("RIEMANN_MMINUS_P"), random.Random(31), []
    for _ in range(40):
        p = rng.choice(entry.default_grid)
        z = complex(rng.uniform(-0.9, 0.9), rng.choice((-1, 1)) * 10 ** rng.uniform(-3, -0.5))
        rep = verify_identity("RIEMANN_MMINUS_P", p["nu"], p["mu"], p["lam"], z)
        assert rep.passed and rep.abs_err <= rep.lhs.err_estimate + 1e-10 * abs(rep.rhs.value)
        counts.append(rep.lhs.evaluations)
    assert sorted(counts)[len(counts) // 2] <= 60


def test_beta_contour_strong_endpoint_power_is_the_rules_weight():
    # (1-v)**(sigma-1) with sigma - 1 = -0.985: tanh-sinh's last node sits
    # 1e-304 from v = 1 and misses (1e-304)**sigma/sigma ~ 1.8e-3 of the mass
    # (2.8e-5 off after 35,142 evaluations); the Jacobi-weighted rule takes
    # the power as its weight and integrates the kernel exactly
    rep = verify_identity("BETA_CONTOUR", -0.081, 0.015, -1.466, -0.292)
    assert rep.passed and rep.abs_err <= rep.lhs.err_estimate
    assert rep.lhs.evaluations <= 31


# the entries whose loop segments take the Jacobi-weighted rule, with boxes
# of (nu, mu, lam, z); integer bounds draw integers
_NU, _MU, _X, _Z = (0.3, 2.5), (-0.45, 0.6), (-0.5, 0.5), (1.4, 3.0)
_JACOBI_RULE_BOXES = {
    "RIEMANN_MMINUS_P": (_NU, _MU, (-0.4, 2.0), _Z),
    "K3_RIEMANN_Q_3F2": (_NU, _MU, (-0.4, 2.0), _Z),
    "FERRERS_LMINUS_P_3F2": (_NU, _MU, (-0.4, 2.0), _X),
    "WEYL_MPLUS_Q": (_NU, _MU, (-0.5, 2.0), _Z),
    "WEYL_MPLUS_P": (_NU, _MU, (-0.5, 2.0), _Z),
    "WEYL_MMINUS_Q": (_NU, _MU, (-0.5, 2.0), _Z),
    "WEYL_MMINUS_P": (_NU, _MU, (-0.5, 2.5), _Z),
    "K3_WEYL_P": (_NU, _MU, (-0.5, 2.0), _Z),
    "K3_WEYL_Q": (_NU, _MU, (-0.5, 2.0), _Z),
    "P3_WEYL_P": (_NU, _MU, (-0.5, 2.0), _Z),
    "MULTI_INT_MPLUS": (_NU, _MU, (1, 3), _Z),
    "MULTI_INT_MMINUS": (_NU, _MU, (1, 3), _Z),
    "MULTI_INT_K3": (_NU, _MU, (1, 3), _Z),
    "MULTI_INT_P3": (_NU, _MU, (1, 3), _Z),
    "MULTI_INT_LPLUS": (_NU, _MU, (1, 3), _X),
    "MULTI_INT_RODRIGUES": ((1, 3), (-0.6, 1.0), (-0.6, 1.0), _X),
    "RODRIGUES_FRAC": (_NU, (-0.6, 1.0), (-0.6, 1.0), _X),
    "RODRIGUES_INVERSE": (_NU, (-0.6, 1.0), (-0.6, 1.0), _X),
    "BETA_CONTOUR": ((0.0, 0.0), (0.01, 2.5), (-1.5, 4.0), _X),
}
# sampled points whose error exceeds the estimate at the parent of the rule
# too, (identity, point rounded to 4 digits) -> cause
_JACOBI_RULE_KNOWN_DEFECTS = {
    ("WEYL_MMINUS_P", (2.1548, 0.0989, 2.3341, 2.8109)): (
        "slow Weyl tail: t**(-lam-1) W falls like t**-1.08, and the half-line's "
        "modelled mass past its last node misses (3.1e-7 off, estimate 8.5e-8)"
    ),
}


@pytest.mark.parametrize("identity", list(_JACOBI_RULE_BOXES))
def test_sampled_points_stay_within_their_estimates(identity):
    # |lhs - rhs| <= lhs.err_estimate plus the closed form's rounding,
    # 64 eps times its largest term, at every valid point of the box
    rng = random.Random(32)
    for _ in range(20):
        point = tuple(
            rng.randint(lo, hi) if isinstance(lo, int) else rng.uniform(lo, hi)
            for lo, hi in _JACOBI_RULE_BOXES[identity]
        )
        rep = verify_identity(identity, *point)
        if not rep.validity:
            continue
        terms = max(abs(rep.rhs.value), sum(abs(t) for t in rep.rhs.terms.values()))
        if rep.abs_err > rep.lhs.err_estimate + 64 * 2.2e-16 * terms:
            key = (identity, tuple(round(v, 4) for v in point))
            assert key in _JACOBI_RULE_KNOWN_DEFECTS, (key, rep.abs_err, rep.lhs.err_estimate)


# the identities whose quadrature side is a loop of order lam
_LOOP_IDENTITIES = (
    "RIEMANN_MPLUS_P",
    "RIEMANN_MPLUS_Q",
    "RIEMANN_MMINUS_P",
    "K3_RIEMANN_Q_3F2",
    "P3_RIEMANN_Q",
    "FERRERS_LPLUS_P",
    "FERRERS_LPLUS_Q_3F2",
    "FERRERS_LMINUS_P_3F2",
)


@pytest.mark.parametrize("identity", _LOOP_IDENTITIES)
def test_loop_at_negative_integer_order_is_the_n_fold_integral(identity):
    # at lam = -n the Riemann-Liouville loop is the n-fold integral, with no
    # Gamma(lam+1) pole to meet: every default (nu, mu, z) is valid and passes
    points = sorted({(p["nu"], p["mu"], p["z"]) for p in get_identity(identity).default_grid})
    for nu, mu, z in points:
        for n in (1.0, 2.0):
            rep = verify_identity(identity, nu, mu, -n, z)
            assert rep.validity and rep.passed, (nu, mu, -n, z, rep.failed_conditions)
            assert rep.abs_err <= rep.lhs.err_estimate, (nu, mu, -n, z, rep.abs_err)


@pytest.mark.parametrize(
    "identity,points",
    [
        ("RIEMANN_MPLUS_P", [(0.6, 0.3, 0.7, 1 + 0.5j), (0.6, 0.3, 0.7, 0.5 + 0.5j),
                             (1.3, -0.4, 1.6, 2 + 0.4j), (0.6, 0.3, 0.7, 1.5 - 0.7j)]),
        ("RIEMANN_MPLUS_Q", [(0.55, 0.35, 0.6, 1 + 0.5j), (0.55, 0.35, 0.6, 0.5 + 0.5j),
                             (1.2, -0.25, 1.45, 2 - 0.4j)]),
        ("RIEMANN_MMINUS_P", [(0.35, 0.15, 0.7, 1 + 0.5j), (0.35, 0.15, 0.7, 0.5 + 0.5j),
                              (0.8, 0.45, 1.3, 2 + 0.5j)]),
        ("P3_RIEMANN_Q", [(0.35, 0.15, 0.55, 1 + 0.5j), (0.7, -0.3, 1.35, 2.1 - 0.4j)]),
        ("RODRIGUES_FRAC", [(0.6, 0.3, -0.2, 0.35 + 0.3j), (1.4, -0.35, 0.45, -0.3 - 0.2j),
                            (0.6, 0.3, -0.2, 0.5j)]),
    ],
)
def test_finite_contour_at_complex_z(identity, points):
    # the contour runs straight from z to 1, so complex z, at Re z <= 1 and
    # Re z = 1 too, needs no walk along Re z (such a walk was up to 3.2
    # relative off here, and raised DomainError at Re z = 1)
    for p in points:
        rep = verify_identity(identity, *p)
        assert rep.validity and rep.passed, (p, rep.rel_err)
        assert rep.abs_err <= rep.lhs.err_estimate, (p, rep.abs_err)


def test_beta_contour_at_integer_order():
    # Gamma(sigma)/Gamma(sigma-lam): 1/((sigma)...(sigma+n-1)) at lam = -n,
    # (sigma-1)...(sigma-n) at lam = n
    for sigma in sorted({p["mu"] for p in get_identity("BETA_CONTOUR").default_grid}):
        for lam in range(-2, 4):
            rep = verify_identity("BETA_CONTOUR", 0.0, sigma, lam, 0.0)
            if lam < 0:
                exact = 1.0 / math.prod(sigma + k for k in range(-lam))
            else:
                exact = math.prod(sigma - k for k in range(1, lam + 1))
            assert abs(rep.rhs.value - exact) <= 1e-14 * abs(exact), (sigma, lam)
            assert rep.validity and rep.passed, (sigma, lam, rep.rel_err)
            assert rep.abs_err <= rep.lhs.err_estimate, (sigma, lam, rep.abs_err)


def test_beta_contour_carries_the_power_of_the_segment_length():
    # the loop over (z, 1) integrates (1-V)**(sigma-1) with 1 - V =
    # (1-z)(1-v), so the closed form carries (1-z)**(sigma-1); on [1, inf)
    # 1 - V crosses the cut and the point is not valid.  The kernel is
    # singular only at V = 1: at z = -0.704 a Cauchy circle sized for a
    # singularity at V = -1 was 3.2e-10 off against an estimate of 3.7e-11
    for sigma, lam, z in ((0.5, 0.3, 0.5), (0.5, 0.3, -0.3), (0.5, 0.3, 0.2 + 0.3j),
                          (0.156, 4.087, -0.704)):
        rep = verify_identity("BETA_CONTOUR", 0.0, sigma, lam, z)
        assert rep.validity and rep.passed, (z, rep.rel_err)
        assert rep.abs_err <= rep.lhs.err_estimate, (z, rep.abs_err)
    rep = verify_identity("BETA_CONTOUR", 0.0, 0.5, 0.3, 1.5)
    assert not rep.validity and rep.failed_conditions == ("z not in [1, inf)",)


@pytest.mark.parametrize(
    "identity,point",
    [
        ("MULTI_INT_RODRIGUES", (3, -0.724, -0.402, 0.087)),
        ("MULTI_INT_RODRIGUES", (4, -0.752, 0.902, -0.818)),
        ("MULTI_INT_RODRIGUES", (5, -0.721, 0.096, -0.123)),
        ("RODRIGUES_INVERSE", (2.29, -0.843, -0.202, 0.42)),
        ("BETA_CONTOUR", (0, 0.05, 0.5, 0)),
        ("BETA_CONTOUR", (0, 0.08, 1.5, 0)),
        ("BETA_CONTOUR", (0, 0.1, -0.3, 0)),
        ("MULTI_INT_LPLUS", (0.45, 0.95, 1, 0.3)),
        ("MULTI_INT_LPLUS", (1.3, 0.9, 2, -0.2)),
        ("FERRERS_LPLUS_P", (0.45, 0.93, 0.6, 0.25)),
    ],
)
def test_base_point_exponent_next_to_minus_one(identity, point):
    # the loop integrand is ~ (1-V)**sigma at its base point, with sigma
    # between -0.95 and -0.72, so the nodes within 64 ulp of V = 1 carry far
    # more than the target; the integrands take 1 - V exactly from the
    # rule's offset, so these nodes keep their digits
    rep = verify_identity(identity, *point)
    assert rep.validity and rep.passed, rep.rel_err
    assert rep.abs_err <= rep.lhs.err_estimate, (rep.abs_err, rep.lhs.err_estimate)


@pytest.mark.parametrize("identity", _LOOP_IDENTITIES)
def test_integer_order_loop_estimate_covers_the_error(identity):
    # at lam = n the loop is a Taylor coefficient; its estimate, the Cauchy
    # rule's rounding, is at least 4x the actual error at these points
    for p in get_identity(identity).default_grid:
        for n in (1.0, 2.0, 3.0):
            rep = verify_identity(identity, **dict(p, lam=n))
            assert rep.passed, (p, n, rep.rel_err)
            assert rep.abs_err <= 0.5 * rep.lhs.err_estimate, (p, n, rep.abs_err)


# the identities whose quadrature side is a Weyl loop, with the number of
# valid points over their default (nu, mu, z) at lam in {0, 1, 2, 3}
_WEYL_LOOP_VALID = {
    "WEYL_MPLUS_P": 22,
    "WEYL_MMINUS_Q": 48,
    "WEYL_MMINUS_P": 26,
    "K3_WEYL_P": 16,
    "K3_WEYL_Q": 16,
    "P3_WEYL_P": 12,
}


@pytest.mark.parametrize("identity", sorted(_WEYL_LOOP_VALID))
def test_weyl_loop_at_integer_order_is_the_multi_derivative(identity):
    # at lam = n >= 0 the Weyl loop is the n-th derivative of its integrand,
    # the multi-derivative side of the integer-step relations
    n_valid = 0
    for nu, mu, z in sorted({(p["nu"], p["mu"], p["z"]) for p in get_identity(identity).default_grid}):
        for n in (0.0, 1.0, 2.0, 3.0):
            rep = verify_identity(identity, nu, mu, n, z)
            if rep.validity:
                n_valid += 1
                assert rep.passed, (nu, mu, n, z, rep.rel_err)
                assert rep.abs_err <= rep.lhs.err_estimate, (nu, mu, n, z, rep.abs_err)
    assert n_valid == _WEYL_LOOP_VALID[identity]


@pytest.mark.parametrize(
    "multi,parent,at",
    [
        ("MULTI_INT_MPLUS", "WEYL_MPLUS_Q", lambda p, n: dict(p, lam=n)),
        ("MULTI_INT_MMINUS", "WEYL_MMINUS_Q", lambda p, n: dict(p, lam=-n)),
        ("MULTI_INT_K3", "K3_WEYL_Q", lambda p, n: dict(p, nu=p["nu"] + n, lam=-n)),
        ("MULTI_INT_P3", "P3_RIEMANN_Q", lambda p, n: dict(p, lam=-n)),
        ("MULTI_INT_LPLUS", "FERRERS_LPLUS_P", lambda p, n: dict(p, lam=-n)),
        # the fold count is the degree nu: the parent at the same point
        ("MULTI_INT_RODRIGUES", "RODRIGUES_INVERSE", lambda p, n: p),
    ],
)
def test_multi_integral_entries_are_their_parents_at_the_substitution(multi, parent, at):
    # the n-fold integral is the parent's fractional integral of order n:
    # both sides are the parent's, bit for bit
    for p in get_identity(multi).default_grid:
        rep = verify_identity(multi, **p)
        par = verify_identity(parent, **at(p, p["lam"]))
        assert rep.passed and par.passed, (p, rep.rel_err, par.rel_err)
        assert rep.rhs.value == par.rhs.value, p
        assert rep.lhs.value == par.lhs.value, p


def _cauchy_oracle(integrand, a, b):
    """30-digit mpmath.quad of an integrand over (a, b)."""
    with mpmath.workdps(30):
        return complex(mpmath.quad(integrand, [a, b]))


@pytest.mark.parametrize(
    "multi,point,oracle",
    [
        # n = 2 in Cauchy's kernel (u - z)**(n-1)/(n-1)! over (z, inf)
        ("MULTI_INT_MPLUS", (1.6, 0.3, 2, 1.7), lambda nu, mu, z: _cauchy_oracle(
            lambda u: (u - z) * (u * u - 1) ** (-mu / 2) * mpmath.legenq(nu, mu, u, type=3),
            z, mpmath.inf,
        )),
        # (y - u) over (1, y), Q at u/sqrt(u^2-1)
        ("MULTI_INT_P3", (0.35, 0.15, 2, 1.7), lambda nu, mu, y: _cauchy_oracle(
            lambda u: (y - u) * (u * u - 1) ** (nu / 2)
            * mpmath.legenq(nu, mu, u / mpmath.sqrt(u * u - 1), type=3),
            1, y,
        )),
        # (u - x) over (x, 1), Ferrers P
        ("MULTI_INT_LPLUS", (0.45, 0.3, 2, 0.3), lambda nu, mu, x: _cauchy_oracle(
            lambda u: (u - x) * (1 - u * u) ** (-mu / 2) * mpmath.legenp(nu, mu, u, type=2),
            x, 1,
        )),
    ],
    ids=("MULTI_INT_MPLUS", "MULTI_INT_P3", "MULTI_INT_LPLUS"),
)
def test_multi_integral_lhs_meets_the_repeated_integral_oracle(multi, point, oracle):
    # an independent check of the n-fold integral, not through the parent
    nu, mu, n, z = point
    assert {"nu": nu, "mu": mu, "lam": n, "z": z} in get_identity(multi).default_grid
    with mpmath.workdps(30):
        exact = oracle(mpmath.mpf(str(nu)), mpmath.mpf(str(mu)), mpmath.mpf(str(z)))
    lhs = verify_identity(multi, *point).lhs.value
    assert abs(lhs - exact) <= 1e-10 * abs(exact), (lhs, exact)


def test_multi_integral_conditions_name_their_substitution():
    assert get_identity("MULTI_INT_MMINUS").to_dict()["conditions"] == [
        "Re(nu-mu+lam+1) > 0 at lam = -n",
        "z > 1",
    ]
    assert get_identity("MULTI_INT_LPLUS").to_dict()["conditions"] == [
        "Re mu < 1 at lam = -n",
        "-1 < x < 1",
    ]
    listed = get_identity("MULTI_INT_K3").to_dict()["conditions"]
    assert listed[0] == "Re(nu+lam-mu+1) > 0 at (nu, lam) = (nu+n, -n)"


@pytest.mark.parametrize("identity", ("RIEMANN_MPLUS_Q", "FERRERS_LPLUS_Q_3F2"))
def test_q_closed_forms_at_integer_mu(identity):
    # the closed form's mean over a circle around the integer; at
    # (0.45, -1, 0.6, 0.25) Gamma(nu+mu+1) has a pole 0.45 away, which a
    # circle of radius 0.25 aliased into the mean (8e-9 off)
    for p in get_identity(identity).default_grid:
        for mu in (0.0, -1.0):
            rep = verify_identity(identity, **dict(p, mu=mu))
            assert rep.validity and rep.passed, (p, mu, rep.failed_conditions, rep.rel_err)
            assert rep.abs_err <= rep.lhs.err_estimate, (p, mu, rep.abs_err)


def test_weyl_mplus_q_next_to_order_zero():
    # as lam -> 0+ the integrand t**(lam-1) W(z+t) approaches t**-1, which
    # exp-sinh cannot resolve at t -> 0; the Weyl operator at order -lam > -1/2
    # takes the regularized loop plus its tail instead
    grid = get_identity("WEYL_MPLUS_Q").default_grid
    points = [(nu, mu, z) for nu in (0.7, 1.5, 2.3) for mu in (0.2, 0.6) for z in (1.5, 3.0)]
    assert {(p["nu"], p["mu"], p["z"]) for p in grid} <= set(points)
    for lam in (0.01, 0.05):
        for nu, mu, z in points:
            rep = verify_identity("WEYL_MPLUS_Q", nu, mu, lam, z)
            assert rep.validity and rep.passed, (nu, mu, lam, z, rep.rel_err)
            assert rep.abs_err <= rep.lhs.err_estimate, (nu, mu, lam, z, rep.abs_err)


def test_real_points_take_half_the_cauchy_circle():
    # at real parameters and z the integrand is real on the real axis up to
    # Hobson's phase, so the loop's Cauchy rule calls it 17 times, not 32
    rep = verify_identity("WEYL_MPLUS_Q", 0.7, 0.2, 0.4, 1.5)
    assert rep.passed and rep.lhs.evaluations == 103


def test_complex_points_keep_the_full_cauchy_circle():
    # a complex mu gives no reflection phase: 32 calls of the integrand, and
    # the value of the full rule, digit for digit
    rep = verify_identity("WEYL_MPLUS_Q", 0.7, 0.2 + 0.2j, 0.4, 1.5)
    assert rep.passed and rep.lhs.evaluations == 118
    assert repr(rep.lhs.value) == "(0.1295685754822181+0.09026103965236211j)"


def test_weyl_head_is_the_taylor_series_where_the_disc_reaches_c():
    # at z = 3 the integrand is analytic out to z - 1 = 2 >= 4 * 0.3: the
    # loop over (0, 0.3) is its 17 reflected Cauchy samples alone, and the
    # tail takes the other 68 evaluations (the head's segment took 27 more)
    rep = verify_identity("WEYL_MMINUS_Q", 0.7, 0.2, 1.3, 3.0)
    assert rep.passed and rep.lhs.evaluations == 85
    assert rep.abs_err <= rep.lhs.err_estimate


def _left_of_one_points(seed=30, count=6):
    # complex z with Re z in (-2, 1), off the cut (-inf, 1] by at least 0.3
    rng = random.Random(seed)
    points = [(0.7, 0.2, 0.4, 0.5 + 1j), (0.7, 0.2, 0.4, 1.0 + 0.5j)]
    for _ in range(count):
        nu, mu, lam = rng.uniform(0.5, 2.5), rng.uniform(0.1, 0.7), rng.uniform(0.3, 1.4)
        im = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5)
        points.append((nu, mu, lam, complex(rng.uniform(-2.0, 1.0), im)))
    return points


@pytest.mark.parametrize("identity", ["WEYL_MPLUS_Q", "WEYL_MMINUS_Q"])
@pytest.mark.parametrize("point", _left_of_one_points())
def test_weyl_q_identities_left_of_re_z_one(identity, point):
    # the Weyl loops' integrands are analytic within |Im z| of a z left of
    # Re z = 1, the distance to the cut (-inf, 1], not Re(z-1) < 0
    rep = verify_identity(identity, *point)
    assert rep.validity and rep.passed, (rep.failed_conditions, rep.rel_err)
    assert rep.rel_err <= 1e-10, rep.rel_err


@pytest.mark.parametrize("identity", ["K3_WEYL_P", "K3_WEYL_Q", "P3_WEYL_P"])
@pytest.mark.parametrize("y", [-0.5 + 1j, 0.3j, -1.0 + 0.2j])
def test_whipple_weyl_identities_refuse_re_y_at_most_zero(identity, y):
    with pytest.raises(DomainError, match=r"Whipple images need Re y > 0"):
        verify_identity(identity, 0.35, 0.15, 1.3, y)


@pytest.mark.parametrize(
    "point", [(0.35, 0.15, 1.2, 1.6), (0.85, 0.15, 1.7, 2.4), (0.35, -0.2, 1.55, 2.4), (0.85, -0.2, 2.05, 1.6)]
)
def test_weyl_mplus_p_at_integer_nu_minus_mu_minus_lam(point):
    # both terms of the closed form divide by sin(pi(nu-mu-lam)); their poles
    # cancel, and the circle mean in lam meets the Weyl loop, on the integer
    # and next to it, where the plain sum of the two terms cancels
    nu, mu, lam, z = point
    for d in (0.0, 2.2e-16, 1e-7, -1e-5):
        rep = verify_identity("WEYL_MPLUS_P", nu, mu, lam + d, z)
        assert rep.validity and rep.rel_err <= 1e-12, (d, rep.rel_err)
        assert rep.abs_err <= rep.lhs.err_estimate, (d, rep.abs_err)


@pytest.mark.parametrize("point", [(0.35, -0.35, 0.55, 1.7), (0.8, 0.2, 1.35, 2.3)])
def test_k3_weyl_p_where_nu_plus_mu_is_a_nonnegative_integer(point):
    # the Whipple image of P is Olver's Q, so neither side meets the pole of
    # Hobson's Q and the 1/Gamma(-nu-mu) zero that cancelled it (PoleError)
    rep = verify_identity("K3_WEYL_P", *point)
    assert rep.validity and rep.passed, (rep.failed_conditions, rep.rel_err)
    assert rep.abs_err <= rep.lhs.err_estimate, rep.abs_err


def test_semi_infinite_estimate_carries_the_tail_past_the_last_node():
    # |f| ~ t**-1.1 here: the mass past t ~ 1e100 is ~1e-10, missed by the
    # rule and now counted in its estimate
    for z in (1.5, 3.0):
        rep = verify_identity("WEYL_MPLUS_Q", 1.5, 0.6, 3.0, z)
        assert rep.passed and rep.abs_err <= rep.lhs.err_estimate, (z, rep.abs_err)


def test_endpoint_singular_points_keep_their_evaluation_budget(default_grid_reports):
    # BETA_CONTOUR at (mu, lam) = (0.45, -0.7) and RIEMANN_MPLUS_Q at z = 2
    # integrate algebraic singularities at an endpoint of |t| ~ 1, where
    # tanh-sinh nodes round onto the endpoint
    for rep in default_grid_reports:
        if rep.identity in ("BETA_CONTOUR", "RIEMANN_MPLUS_Q"):
            assert rep.lhs.evaluations <= 150, (rep.identity, rep.params)


def test_ode_residual_homogeneous():
    for kind in ("p", "q"):
        for nu, mu, z in ((0.7, 0.4, 2.0), (1.3 + 0.2j, -0.6, 3.5)):
            r = ode_residual("homogeneous", nu, mu, z=z, kind=kind)
            scale = abs(legendre_p(nu, mu, z)) + 1.0
            assert abs(r) <= 1e-10 * scale, (kind, nu, mu, z)


def test_ode_residual_inhomogeneous():
    points = [(lam, 1.8) for lam in (0.6, -0.4, 1.0, 2.0)]
    # past |1-z| = 1.8 the closed form's 3F2 is continued by its equation
    points += [(lam, z) for lam in (0.6, 1.0) for z in (3.0, 4.0, 6.0)]
    for lam, z in points:
        r = ode_residual("inhomogeneous_mminus", 0.7, 0.4, lam=lam, z=z)
        assert abs(r) <= 1e-10, (lam, z)


def test_ode_residual_bad_input():
    with pytest.raises(DomainError):
        ode_residual("inhomogeneous_mminus", 0.7, 0.4)
    with pytest.raises(DomainError):
        ode_residual("nope", 0.7, 0.4)
