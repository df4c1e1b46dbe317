"""Identity catalog, grid verification mechanics, ODE defects."""

import json
import math

import pytest

from legshift.errors import DomainError, NumericalError
from legshift.legendre import legendre_p
from legshift.shifts import predict_order_shift
from legshift.verify import (
    GridSummary,
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


def test_verify_grid_names_the_exception_of_a_numerical_failure(monkeypatch):
    def division_by_zero(*args):
        raise ZeroDivisionError("complex division by zero")

    # the closed form, not the quadrature, raises
    monkeypatch.setattr("legshift.verify.predict_order_shift", division_by_zero)
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


def test_use_far_field_guard_and_agreement():
    with pytest.raises(DomainError):
        verify_identity("WEYL_MPLUS_Q", 0.6, 0.3, 0.7, 2.0, use_far_field=True)
    rep = verify_identity("RIEMANN_MMINUS_P", 0.7, 0.4, 0.6, 6.0, use_far_field=True)
    assert rep.passed, rep.rel_err


def test_grid_summary_all_passed_property():
    s = GridSummary("X", 2, 2, 2, 1e-9)
    assert s.all_passed
    assert not GridSummary("X", 2, 1, 2, 1e-9).all_passed
    assert not GridSummary("X", 0, 0, 0, 0.0).all_passed


@pytest.mark.parametrize(
    "identity,variant",
    [
        ("WEYL_MPLUS_Q", "weyl_q_down"),
        ("WEYL_MPLUS_P", "weyl_p_up"),
        ("WEYL_MMINUS_Q", "weyl_minus_q"),
        ("WEYL_MMINUS_P", "weyl_minus_p"),
    ],
)
def test_weyl_conditions_are_the_closed_form_conditions(identity, variant):
    # the Weyl integrals converge exactly where the closed forms hold, so
    # each condition is listed once, as predict_order_shift states it
    entry = get_identity(identity)
    for p in entry.default_grid + ({"nu": 0.6, "mu": 0.3, "lam": -2.0, "z": 2.0},):
        expected = predict_order_shift(p["nu"], p["mu"], p["lam"], p["z"], variant).conditions
        assert entry.conditions_at(**p) == expected
    listed = entry.to_dict()["conditions"]
    assert len(set(listed)) == len(listed)


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
def test_integer_order_loop_estimate_covers_the_error(identity):
    # at lam = n the loop is a Taylor coefficient; its estimate, the Cauchy
    # rule's rounding, is at least 4x the actual error at these points
    for p in get_identity(identity).default_grid:
        for n in (1.0, 2.0, 3.0):
            rep = verify_identity(identity, **dict(p, lam=n))
            assert rep.passed, (p, n, rep.rel_err)
            assert rep.abs_err <= 0.5 * rep.lhs.err_estimate, (p, n, rep.abs_err)


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
