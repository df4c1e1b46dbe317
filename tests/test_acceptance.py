"""End-to-end acceptance: every shift family verified against independent
quadrature oracles at stated tolerances, plus foundation invariants and the
command-line contract."""

import cmath
import io
import math
import random
from contextlib import redirect_stdout
from math import comb

from legshift.cli import main as cli_main
from legshift.complexfn import cos_pi, cpow, gamma, rgamma, sin_pi
from legshift.hyper import hyp2f1, hyp3f2_barnes, hyp3f2_series
from legshift.complexfn import gamma_ratio
from legshift.legendre import (
    ferrers_p,
    ferrers_q,
    jacobi_p,
    legendre_deriv,
    legendre_p,
    legendre_q,
    weighted_evaluator,
    whipple_p_to_q,
    whipple_q_to_p,
)
from legshift.quadrature import integrate_segment, repeated_integral
from legshift.shifts import apply_integer_recurrence, predict_order_shift
from legshift.verify import (
    get_identity,
    list_identities,
    ode_residual,
    verify_grid,
    verify_identity,
)


def _assert_grid(identity, tolerance=1e-6, grid=None):
    s = verify_grid(identity, grid=grid, tolerance=tolerance)
    assert s.all_passed and not s.failures, (
        identity,
        s.worst_rel_err,
        s.failures,
    )
    return s


def test_01_weyl_raising_on_q():
    # 12-point default grid of the semi-infinite-integral order raise on Q
    s = _assert_grid("WEYL_MPLUS_Q")
    assert s.n_points == 12 and s.worst_rel_err < 1e-6


def test_02_weyl_raising_on_p_extra_term():
    # two-term prediction on the 8-point non-integer grid
    s = _assert_grid("WEYL_MPLUS_P")
    assert s.n_points == 8 and s.worst_rel_err < 1e-6
    # at a two-step integer shift the Q term carries sin(pi*2) = 0 exactly
    # and the prediction collapses to the plain raising recurrence
    nu, mu, z = 0.6, 0.3, 2.0
    pred = predict_order_shift(nu, mu, 2.0, z, "weyl_p_up")
    assert pred.terms["q_term"] == 0.0
    rec = apply_integer_recurrence("MPLUS", nu, mu, z, n=2, kind="p")
    assert abs(pred.value - rec.value) <= 1e-8 * abs(rec.value)


def test_03_weyl_lowering_and_semigroup():
    for identity in ("WEYL_MMINUS_Q", "WEYL_MMINUS_P"):
        s = _assert_grid(identity)
        assert s.worst_rel_err < 1e-6

    # the lowering coefficient composes: c(nu,mu,l1) c(nu,mu-l1,l2) = c(nu,mu,l1+l2)
    def c(nu, mu, lam):
        return (
            gamma(nu + mu + 1.0)
            * gamma(nu - mu + lam + 1.0)
            / (gamma(nu + mu - lam + 1.0) * gamma(nu - mu + 1.0))
        )

    rng = random.Random(11)
    for _ in range(200):
        nu = complex(rng.uniform(-0.4, 2.0), rng.uniform(-0.5, 0.5))
        mu = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))
        l1 = rng.uniform(-1.0, 1.5)
        l2 = rng.uniform(-1.0, 1.5)
        lhs = c(nu, mu, l1) * c(nu, mu - l1, l2)
        rhs = c(nu, mu, l1 + l2)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs), (nu, mu, l1, l2)


def test_04_riemann_fractional_integral_on_p():
    # finite-segment fractional integral, negative order, Re mu < 1
    for nu in (0.7, 1.5):
        for mu in (0.2, -0.6):
            p_upper = weighted_evaluator("p", nu, mu, -mu / 2.0)
            for lam in (-0.4, -0.7, -1.3):
                for z in (1.8, 2.6):
                    lhs = integrate_segment(
                        lambda t, tc: cpow(t, -lam - 1.0) * p_upper(z - t, -tc),
                        0.0,
                        z - 1.0,
                        endpoint_exponent_a=-lam - 1.0,
                        endpoint_exponent_b=-mu,
                    ).scaled(rgamma(-lam))
                    pred = predict_order_shift(nu, mu, lam, z, "riemann_p_up")
                    rel = abs(lhs.value - pred.value) / abs(pred.value)
                    assert rel < 1e-7, (nu, mu, lam, z, rel)


def test_05_riemann_lowering_3f2_and_nested_integral():
    s = _assert_grid("RIEMANN_MMINUS_P")
    assert s.worst_rel_err < 1e-6
    # two-step lowering: closed 3F2 form == nested double integral == the
    # terminating-denominator 3F2 with the integer second lower parameter
    nu, mu, z, n = 0.7, 0.4, 2.3, 2
    near = predict_order_shift(nu, mu, -float(n), z, "riemann_p_down_near").value
    nest = repeated_integral(weighted_evaluator("p", nu, mu, mu / 2.0), z, n, "from_one").value
    assert abs(near - nest) <= 1e-6 * abs(near)
    direct = (
        cpow(2.0, mu)
        * cpow(z - 1.0, n)
        * rgamma(n + 1.0)
        * rgamma(1.0 - mu)
        * hyp3f2_series(nu - mu + 1.0, -nu - mu, 1.0, 1.0 - mu, n + 1.0, (1.0 - z) / 2.0)
    )
    assert abs(near - direct) <= 1e-10 * abs(near)


def test_06_inhomogeneous_ode_defect():
    scale = 1.0
    for lam in (0.6, -0.4, 1.7, -1.3, 1.0, 2.0):
        for z in (1.8, 2.4):
            r = ode_residual("inhomogeneous_mminus", 0.7, 0.4, lam=lam, z=z)
            assert abs(r) < 1e-6 * scale, (lam, z, abs(r))
    # the source term is identically zero at nonnegative integer order
    for n in (1.0, 2.0, 3.0):
        source = cpow(2.0, 1.4) * cpow(0.8, -n - 1.0) * rgamma(-n) * rgamma(-0.4)
        assert source == 0.0


def test_07_barnes_continuation():
    # contour-integral continuation vs. the direct series in the overlap
    nu, mu, lam = 0.6, 0.3, 0.7
    a1, a2, b1, b2 = nu - mu + 1.0, -nu - mu, 1.0 - mu, 1.0 - lam
    for z in (2.5, 2.7, 2.9):
        w = (1.0 - z) / 2.0
        series = hyp3f2_series(a1, a2, 1.0, b1, b2, w)
        barnes = hyp3f2_barnes(a1, a2, 1.0, b1, b2, z) * gamma_ratio(
            [b1, b2], [a1, a2]
        )
        assert abs(series - barnes) <= 1e-6 * abs(series), z
    # large-argument three-term decomposition agrees with the one-term form
    nu, mu, lam, z = 0.7, 0.4, 0.6, 6.0
    near = predict_order_shift(nu, mu, lam, z, "riemann_p_down_near").value
    far = predict_order_shift(nu, mu, lam, z, "riemann_p_down_far").value
    assert abs(near - far) <= 1e-6 * abs(near)


def test_08_degree_shifts_and_whipple():
    for identity in ("K3_WEYL_P", "K3_WEYL_Q", "P3_WEYL_P", "P3_RIEMANN_Q"):
        s = _assert_grid(identity)
        assert s.worst_rel_err < 1e-6, identity
    # Whipple image round trips
    for nu, mu, y in ((0.6, 0.3, 1.8), (0.9, -0.4, 2.6)):
        arg = y / math.sqrt(y * y - 1.0)
        p_img = whipple_p_to_q(nu, mu, y)
        assert abs(p_img - legendre_p(nu, mu, arg)) <= 1e-10 * abs(p_img)
        q_img = whipple_q_to_p(nu, mu, y)
        assert abs(q_img - legendre_q(nu, mu, arg)) <= 1e-10 * abs(q_img)
    # two-fold kernel-reduced nests for both degree directions
    for identity in ("MULTI_INT_K3", "MULTI_INT_P3"):
        e = get_identity(identity)
        grid = [dict(p) for p in e.default_grid if p["lam"] == 2]
        s = _assert_grid(identity, grid=grid)
        assert s.worst_rel_err < 1e-6, identity


def test_09_ferrers_suite():
    s = _assert_grid("FERRERS_LPLUS_P", tolerance=1e-7)
    assert s.worst_rel_err < 1e-7
    s = _assert_grid("FERRERS_LPLUS_Q_3F2")
    assert s.worst_rel_err < 1e-6
    s = _assert_grid("FERRERS_LMINUS_P_3F2")
    assert s.worst_rel_err < 1e-6

    # n-th derivative of the raised-weight Ferrers function: Cauchy-circle
    # differentiation of the analytic weighted form vs. the raised function
    nu, mu, x = 0.7, 0.4, 0.35
    m, r = 64, 0.3
    ferrers_upper = weighted_evaluator("ferrers_p", nu, mu, -mu / 2.0)
    for n in (1, 2, 3):
        tot = 0.0 + 0.0j
        for j in range(m):
            w = cmath.exp(2j * math.pi * j / m)
            tot += ferrers_upper(x + r * w) * cmath.exp(
                -2j * math.pi * j * n / m
            )
        der = math.factorial(n) / (m * r**n) * tot
        lhs = cpow(1.0 - x * x, -(mu + n) / 2.0) * ferrers_p(nu, mu + n, x)
        assert abs(((-1.0) ** n) * der - lhs) <= 1e-7 * abs(lhs), n

    # n-fold kernel-reduced integrals of the lowered-weight Ferrers function
    for n in (1, 2, 3):
        rep = verify_identity("MULTI_INT_LPLUS", nu, mu, n, x, tolerance=1e-7)
        assert rep.passed, (n, rep.rel_err)

    # boundary limits of the cut-plane functions reproduce the segment ones
    for nu, mu, xx in ((0.7, 0.4, 0.35), (1.3, -0.6, -0.2)):
        p_lim = 0.5 * (
            cmath.exp(1j * math.pi * mu / 2.0) * legendre_p(nu, mu, xx, boundary_side="+")
            + cmath.exp(-1j * math.pi * mu / 2.0) * legendre_p(nu, mu, xx, boundary_side="-")
        )
        ref = ferrers_p(nu, mu, xx)
        assert abs(p_lim - ref) <= 1e-9 * abs(ref)
        q_lim = 0.5 * cmath.exp(-1j * math.pi * mu) * (
            cmath.exp(-1j * math.pi * mu / 2.0) * legendre_q(nu, mu, xx, boundary_side="+")
            + cmath.exp(1j * math.pi * mu / 2.0) * legendre_q(nu, mu, xx, boundary_side="-")
        )
        ref = ferrers_q(nu, mu, xx)
        assert abs(q_lim - ref) <= 1e-9 * abs(ref)


def test_10_rodrigues_relations():
    # fractional Rodrigues derivative at non-integer degree
    s = _assert_grid("RODRIGUES_FRAC", tolerance=1e-8)
    assert s.worst_rel_err < 1e-8

    # classical integer-degree formula, expanded in closed form via Leibniz
    def rodrigues_classical(n, a, b, z):
        tot = 0.0 + 0.0j
        for k in range(n + 1):
            ca = 1.0
            for j in range(k):
                ca *= n + a - j
            cb = 1.0
            for j in range(n - k):
                cb *= n + b - j
            tot += (
                comb(n, k)
                * ((-1.0) ** k)
                * ca
                * cpow(1.0 - z, n + a - k)
                * cb
                * cpow(1.0 + z, b + k)
            )
        return (
            ((-1.0) ** n)
            / (2.0**n * math.factorial(n))
            * cpow(1.0 - z, -a)
            * cpow(1.0 + z, -b)
            * tot
        )

    for n in (1, 2, 3):
        for a, b, z in ((0.3, -0.2, 0.7), (1.1, 0.4, -0.25)):
            val = rodrigues_classical(n, a, b, z)
            ref = jacobi_p(n, a, b, z)
            assert abs(val - ref) <= 1e-12 * abs(ref), (n, a, b, z)

    # two-fold inverse (repeated-integral) relation
    e = get_identity("MULTI_INT_RODRIGUES")
    grid = [dict(p) for p in e.default_grid if p["nu"] == 2]
    s = _assert_grid("MULTI_INT_RODRIGUES", tolerance=1e-7, grid=grid)
    assert s.worst_rel_err < 1e-7


def test_11_foundation_invariants():
    rng = random.Random(23)
    for _ in range(200):
        w = complex(rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 2.0))
        if min(abs(w - k) for k in range(-3, 1)) < 0.05:
            continue
        g1 = gamma(w + 1.0)
        assert abs(g1 - w * gamma(w)) <= 1e-12 * abs(g1)
        refl = gamma(w) * gamma(1.0 - w) * sin_pi(w)
        assert abs(refl - math.pi) <= 1e-12 * math.pi

    for _ in range(500):
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(-1.5, 1.5)
        c = rng.uniform(0.3, 2.5)
        w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
        lhs = hyp2f1(a, b, c, w)
        rhs = (1.0 - w) ** (c - a - b) * hyp2f1(c - a, c - b, c, w)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    # P from the two Q's of reflected degree
    n_done = 0
    while n_done < 500:
        nu = rng.uniform(-1.2, 1.8)
        mu = rng.uniform(-1.2, 1.2)
        if abs(cos_pi(nu)) < 0.2:
            continue
        z = complex(rng.uniform(1.3, 4.0), rng.uniform(-0.5, 0.5))
        lhs = legendre_p(nu, mu, z)
        rhs = (
            cmath.exp(-1j * math.pi * mu)
            / (math.pi * cos_pi(nu))
            * (
                sin_pi(nu + mu) * legendre_q(nu, mu, z)
                - sin_pi(nu - mu) * legendre_q(-nu - 1.0, mu, z)
            )
        )
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-3), (nu, mu, z)
        n_done += 1

    for nu, mu, z in ((0.6, 0.3, 2.2), (1.4 + 0.5j, -0.7, 1.6 + 0.2j)):
        a = legendre_p(nu, mu, z)
        assert abs(a - legendre_p(-nu - 1.0, mu, z)) <= 1e-12 * abs(a)

    for kind in ("p", "q"):
        for nu, mu, z in ((0.7, 0.4, 2.0), (1.3 + 0.2j, -0.6, 3.5)):
            r = ode_residual("homogeneous", nu, mu, z=z, kind=kind)
            f = legendre_p(nu, mu, z) if kind == "p" else legendre_q(nu, mu, z)
            scale = abs(f) + abs(legendre_deriv(nu, mu, z, order=2, kind=kind))
            assert abs(r) <= 1e-8 * scale, (kind, nu, mu, z)


def test_12_cli_contract():
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(["verify", "--all", "--defaults"])
    assert code == 0
    lines = out.getvalue().splitlines()
    summaries = [ln for ln in lines if ln.startswith("summary identity=")]
    assert len(summaries) == len(list_identities())

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(
            ["verify", "--id", "WEYL_MPLUS_Q", "--defaults", "--canary", "1e-6"]
        )
    assert code != 0
