"""Command-line surface: exit codes, serialization, round trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import legshift
from legshift.cli import EXIT_DOMAIN, EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE, main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_eval_q_oracle():
    code, out, _ = run_cli(["eval", "--fn", "Q", "--nu", "0", "--mu", "0", "--z", "2"])
    assert code == EXIT_OK
    rec = json.loads(out)
    assert abs(rec["value_re"] - 0.5 * math.log(3.0)) < 1e-9
    assert abs(rec["value_im"]) < 1e-9
    assert rec["region"] == "off-cut"
    # direct evaluation computes no error bound
    assert rec["err_estimate"] is None


@pytest.mark.parametrize(
    "identity,nu,mu,lam",
    [("RIEMANN_MMINUS_P", "0.35", "0.15", "0.7"), ("K3_RIEMANN_Q_3F2", "0.35", "0.15", "0.55")],
)
def test_verify_3f2_continuation_on_its_cut_is_domain_error(identity, nu, mu, lam):
    # the closed form's 3F2 is continued off the cut [1, inf) of w = (1-z)/2;
    # z = -1.5 lies on it, which is found before the entry's own condition
    code, out, err = run_cli(
        ["verify", "--id", identity, "--nu", nu, "--mu", mu, "--lam", lam, "--z=-1.5"]
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "identity,lam,z",
    [
        ("FERRERS_LPLUS_P", "0.6", "0.25+0.3j"),
        ("FERRERS_LPLUS_Q_3F2", "0.6", "0.25+0.3j"),
        ("FERRERS_LMINUS_P_3F2", "0.6", "0.25-0.1j"),
        ("MULTI_INT_LPLUS", "1", "0.3+0.1j"),
    ],
)
def test_verify_ferrers_identity_at_complex_x_is_domain_error(identity, lam, z):
    # the Ferrers identities hold on the real segment (-1, 1) only
    code, out, err = run_cli(
        ["verify", "--id", identity, "--nu", "0.45", "--mu", "0.3", "--lam", lam, "--z", z]
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


_EVAL_PROBE = """
import json, sys
from legshift.cli import main
main(["eval", "--fn", "Q", "--nu", "2.3", "--mu", "0.4", "--z", "1.7"])
loaded = sorted(sys.modules)
import legshift
listed = sorted(dir(legshift))
namespace = {}
exec("from legshift import *", namespace)
print(json.dumps({"loaded": loaded, "dir": listed, "star": sorted(namespace),
                  "verify": legshift.verify_identity.__module__}))
"""


def _run_python(code):
    """The last stdout line of a fresh interpreter running code, with this
    legshift first on its path."""
    env = dict(os.environ)
    src = os.path.dirname(legshift.__path__[0])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_eval_imports_only_the_function_kernels():
    # a site hook may load some of these in every interpreter
    bare = set(json.loads(_run_python("import json, sys; print(json.dumps(sorted(sys.modules)))")))
    probe = json.loads(_run_python(_EVAL_PROBE))
    loaded = set(probe["loaded"]) - bare
    for name in ("legshift.verify", "legshift.shifts", "legshift.quadrature", "dataclasses"):
        assert name not in loaded, name
    assert "legshift.legendre" in loaded
    # the lazily loaded names are still listed, star-imported and resolved
    assert len(legshift.__all__) == 32
    assert set(legshift.__all__) <= set(probe["dir"])
    assert set(legshift.__all__) <= set(probe["star"])
    assert probe["verify"] == "legshift.verify"


def test_eval_on_cut_without_side_is_domain_error():
    code, _out, err = run_cli(["eval", "--fn", "P", "--nu", "0.5", "--mu", "0.3", "--z", "0.4"])
    assert code == EXIT_DOMAIN
    assert "cut" in err


def test_eval_on_cut_with_side():
    code, out, _ = run_cli(
        ["eval", "--fn", "P", "--nu", "0.5", "--mu", "0.3", "--z", "0.4", "--side", "+"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["region"] == "on-cut"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--fn", "P", "--nu", "0.5", "--mu", "0.2", "--z", "nan"],
        ["eval", "--fn", "P", "--nu", "0.5", "--mu", "0.2", "--z", "inf"],
        ["eval", "--fn", "Q", "--nu", "nan", "--mu", "0.2", "--z", "2"],
    ],
)
def test_eval_non_finite_argument_is_domain_error(argv):
    code, out, err = run_cli(argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--fn", "ferrers-P", "--nu", "1e8", "--mu", "0", "--z", "0.5"],
        ["eval", "--fn", "P", "--nu", "1e308", "--mu", "0", "--z", "2"],
    ],
    ids=("gamma-overflow", "huge-degree"),
)
def test_eval_past_double_range_is_numerical_error(argv):
    # an overflowing gamma factor, or a degree whose polynomial cannot meet
    # its rounding bound, is one line on stderr and no traceback
    code, out, err = run_cli(argv)
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("fn", ["ferrers-P", "ferrers-Q"])
def test_eval_ferrers_at_complex_x_is_domain_error(fn):
    # the Ferrers functions take a real x in (-1, 1); Im x is not dropped
    code, out, err = run_cli(["eval", "--fn", fn, "--nu", "0.5", "--mu", "0.2", "--z", "0.3+0.4j"])
    assert code == EXIT_DOMAIN
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_eval_complex_parameters_as_re_im():
    code, out, _ = run_cli(
        ["eval", "--fn", "P", "--nu", "0.5+0.3j", "--mu", "0.1", "--z", "2.0"]
    )
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["nu_re"] == 0.5 and rec["nu_im"] == 0.3
    assert not any(isinstance(v, complex) for v in rec.values())


def test_verify_unknown_identity_is_parse_error():
    code, _out, err = run_cli(["verify", "--id", "NOPE", "--defaults"])
    assert code == EXIT_PARSE
    assert "unknown identity" in err


def test_verify_bad_argument_is_parse_error():
    code, _out, _err = run_cli(["verify", "--id"])
    assert code == EXIT_PARSE


_BETA_POINT = ["--id", "BETA_CONTOUR", "--nu", "0", "--mu", "0.7", "--lam", "2.6"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", *_BETA_POINT[:-1], "nan", "--z", "0"], EXIT_DOMAIN),
        (["verify", *_BETA_POINT, "--z", "0", "--target", "-1"], EXIT_PARSE),
        (["verify", *_BETA_POINT, "--z", "0", "--target", "inf"], EXIT_PARSE),
        (["verify", *_BETA_POINT, "--z", "0", "--tol", "nan"], EXIT_PARSE),
        (["verify", *_BETA_POINT, "--z", "0", "--tol", "0"], EXIT_PARSE),
        (["verify", *_BETA_POINT, "--z", "0", "--canary", "nan"], EXIT_PARSE),
        (["verify", *_BETA_POINT, "--z", "0", "--canary", "1"], EXIT_PARSE),
        (["verify", *_BETA_POINT, "--z", "0", "--canary", "-0.1"], EXIT_PARSE),
        (["sweep", *_BETA_POINT, "--z", "0:0.5:3", "--target", "-1"], EXIT_PARSE),
        (["sweep", *_BETA_POINT, "--z", "0:0.5:3", "--tol", "inf"], EXIT_PARSE),
    ],
)
def test_verify_bad_numbers_exit_without_a_traceback(argv, expected):
    # a non-finite point is a domain error; a target or tolerance that is not
    # positive and finite, or a canary outside [0, 1), is a bad flag
    code, out, err = run_cli(argv)
    assert code == expected
    assert out == ""
    assert "Traceback" not in err


def test_verify_single_point():
    code, out, _ = run_cli(
        ["verify", "--id", "WEYL_MMINUS_Q", "--nu", "0.6", "--mu", "0.3",
         "--lam", "0.7", "--z", "2.0"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("identity=WEYL_MMINUS_Q")
    assert "pass=True" in lines[0]
    assert lines[-1].startswith("summary identity=WEYL_MMINUS_Q points=1")
    point = dict(kv.split("=", 1) for kv in lines[0].split())
    summary = dict(kv.split("=", 1) for kv in lines[-1].split()[1:])
    assert int(point["evaluations"]) > 0
    assert summary["evaluations"] == point["evaluations"]
    # unconverged counts points with quad_err > target * |lhs|
    lhs = abs(complex(float(point["lhs_re"]), float(point["lhs_im"])))
    assert summary["unconverged"] == str(int(float(point["quad_err"]) > 1e-9 * lhs))


def test_verify_defaults_json_format():
    code, out, _ = run_cli(
        ["verify", "--id", "WEYL_MPLUS_P", "--defaults", "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_passed"]
    summary = payload["summaries"][0]
    assert summary["points"] == 8
    assert summary["evaluations"] == sum(r["evaluations"] for r in payload["reports"])
    assert summary["unconverged"] == sum(
        r["quad_err"] > 1e-9 * math.hypot(r["lhs_re"], r["lhs_im"]) for r in payload["reports"]
    )


def test_verify_canary_exits_nonzero():
    code, out, _ = run_cli(
        ["verify", "--id", "WEYL_MPLUS_P", "--defaults", "--canary", "1e-6"]
    )
    assert code == EXIT_NUMERICAL
    assert "pass=False" in out


def test_verify_grid_file(tmp_path):
    grid = [
        {"nu": 0.6, "mu": 0.3, "lam": 0.7, "z": 2.0},
        {"nu": 0.8, "mu": -0.2, "lam": 1.1, "z": 2.5},
    ]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code, out, _ = run_cli(
        ["verify", "--id", "WEYL_MMINUS_Q", "--grid-file", str(path)]
    )
    assert code == EXIT_OK
    assert "points=2" in out and "passed=2" in out


@pytest.mark.parametrize(
    "content",
    [
        None,  # no such file
        "{not json",
        json.dumps(["nu", "mu"]),
        json.dumps({"nu": 0.6, "mu": 0.3, "lam": 0.7, "z": 2.0}),
        json.dumps([{"nu": 0.6, "mu": 0.3, "lam": 0.7}]),
        json.dumps([{"nu": 0.6, "mu": 0.3, "lam": 0.7, "z": "2.0"}]),
        json.dumps([{"nu": 0.6, "mu": 0.3, "lam": None, "z": 2.0}]),
        json.dumps([{"nu": 0.6, "mu": 0.3, "lam": float("nan"), "z": 2.0}]),
        '[{"nu": 0.6, "mu": 0.3, "lam": 0.7, "z": Infinity}]',
        '[{"nu": 0.6, "mu": -Infinity, "lam": 0.7, "z": 2.0}]',
        '[{"nu": 1e999, "mu": 0.3, "lam": 0.7, "z": 2.0}]',
        '[{"nu": 1' + "0" * 400 + ', "mu": 0.3, "lam": 0.7, "z": 2.0}]',
    ],
)
def test_verify_malformed_grid_file_is_a_parse_error(tmp_path, content):
    path = tmp_path / "grid.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(["verify", "--id", "WEYL_MMINUS_Q", "--grid-file", str(path)])
    assert code == EXIT_PARSE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_sweep_fn_row_count_and_consistency():
    code, out, _ = run_cli(
        ["sweep", "--fn", "P", "--nu", "0.5", "--mu", "0.25", "--z", "1.5:3.5:5"]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["parameter", "re(value)", "im(value)", "err_estimate"]
    assert len(rows) == 6
    assert all(r[3] == "" for r in rows[1:])
    # middle row must agree bit-exactly with a single eval at the same point
    z = float(rows[3][0])
    _code, eval_out, _ = run_cli(
        ["eval", "--fn", "P", "--nu", "0.5", "--mu", "0.25", "--z", repr(z)]
    )
    rec = json.loads(eval_out)
    assert float(rows[3][1]) == rec["value_re"]
    assert float(rows[3][2]) == rec["value_im"]


def test_sweep_identity_columns(tmp_path):
    path = tmp_path / "sweep.csv"
    code, _out, _ = run_cli(
        ["sweep", "--id", "WEYL_MMINUS_Q", "--nu", "0.6", "--mu", "0.3",
         "--lam", "0.4:1.2:4", "--z", "2.0", "--output", str(path)]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(path.open()))
    assert rows[0][-2:] == ["rel_err", "pass"]
    assert len(rows) == 5
    assert all(r[-1] == "True" for r in rows[1:])
    # repr serialization round-trips bit exactly
    for r in rows[1:]:
        assert repr(float(r[1])) == r[1]


def test_sweep_identity_through_integer_order():
    # lam = 1 is the integer-step relation, reached by the regularized 3F2
    code, out, err = run_cli(
        ["sweep", "--id", "RIEMANN_MMINUS_P", "--nu", "0.7", "--mu", "0.4",
         "--lam", "0.5:1.5:3", "--z", "1.8"]
    )
    assert (code, err) == (EXIT_OK, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[-1] for r in rows[1:]] == ["True"] * 3


def test_sweep_identity_exits_1_when_a_row_does_not_pass():
    # the tolerance 1e-17 is below the rounding of any closed form
    code, out, err = run_cli(
        ["sweep", "--id", "WEYL_MMINUS_Q", "--nu", "0.6", "--mu", "0.3",
         "--lam", "0.4:1.2:3", "--z", "2.0", "--tol", "1e-17"]
    )
    assert (code, err) == (EXIT_NUMERICAL, "")
    assert [r[-1] for r in list(csv.reader(io.StringIO(out)))[1:]] == ["False"] * 3


def test_sweep_identity_exits_1_after_invalid_rows_and_writes_nan_values():
    # Re lam > 0 fails at lam = -0.4 and 0: invalid rows, not domain errors
    code, out, err = run_cli(
        ["sweep", "--id", "WEYL_MPLUS_Q", "--nu", "0.7", "--mu", "0.2",
         "--lam=-0.4:0.4:3", "--z", "1.5"]
    )
    assert (code, err) == (EXIT_NUMERICAL, "")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[-1] for r in rows] == ["False", "False", "True"]
    assert all(r[1] == r[2] == "nan" for r in rows[:2])


def test_sweep_identity_names_the_missing_flags():
    code, out, err = run_cli(
        ["sweep", "--id", "WEYL_MPLUS_P", "--nu", "0.35", "--lam", "1.1:1.3:3"]
    )
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "missing --mu --z" in err


def test_sweep_identity_across_an_integer_nu_minus_mu_minus_lam():
    # lam = 1.2000000000000002 puts nu-mu-lam within 3e-16 of -1, where
    # weyl_p_up's two terms divide by sin(pi(nu-mu-lam)) ~ 0 and cancel
    code, out, err = run_cli(
        ["sweep", "--id", "WEYL_MPLUS_P", "--nu", "0.35", "--mu", "0.15",
         "--lam", "1.1:1.3:3", "--z", "1.6"]
    )
    assert (code, err) == (EXIT_OK, "")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[-1] for r in rows] == ["True"] * 3
    assert max(float(r[-2]) for r in rows) <= 1e-12


def test_sweep_requires_exactly_one_axis():
    code, _out, _err = run_cli(
        ["sweep", "--fn", "P", "--nu", "0.1:0.9:3", "--mu", "0.1:0.9:3", "--z", "2.0"]
    )
    assert code == EXIT_DOMAIN
    code, _out, _err = run_cli(["sweep", "--fn", "P", "--nu", "0.5", "--z", "2.0"])
    assert code == EXIT_DOMAIN


def test_catalog_json_lists_all_identities():
    code, out, _ = run_cli(["catalog"])
    assert code == EXIT_OK
    entries = json.loads(out)
    assert len(entries) == 24
    assert all({"id", "description", "formula", "default_grid"} <= set(e) for e in entries)


def test_unknown_subcommand_is_parse_error():
    code, _out, _err = run_cli(["frobnicate"])
    assert code == EXIT_PARSE


def test_verify_json_lists_failures_with_split_complex_params():
    # mu = 1.2 breaks RIEMANN_MPLUS_Q's Re mu < 1: a failure in the summary
    argv = ["verify", "--id", "RIEMANN_MPLUS_Q"]
    argv += ["--nu", "0.55", "--mu", "1.2", "--lam", "0.6", "--z", "1.5"]
    table_code, _out, _err = run_cli(argv)
    code, out, err = run_cli(argv + ["--format", "json"])
    assert code == table_code == EXIT_NUMERICAL
    assert "Traceback" not in err
    (failure,) = json.loads(out)["summaries"][0]["failures"]
    assert failure["params"] == {
        "nu_re": 0.55, "nu_im": 0.0, "mu_re": 1.2, "mu_im": 0.0,
        "lam_re": 0.6, "lam_im": 0.0, "z_re": 1.5, "z_im": 0.0,
    }
    assert failure["reason"].startswith("invalid")


def test_verify_far_field_option_is_gone():
    code, _out, err = run_cli(
        ["verify", "--id", "RIEMANN_MMINUS_P", "--far-field", "--nu", "0.7",
         "--mu", "0.4", "--lam", "0.6", "--z", "6.0"]
    )
    assert code == EXIT_PARSE
    assert "--far-field" in err


def test_verify_grid_records_a_pole_as_a_failing_point(tmp_path):
    # lam = 1.5 puts Q_(nu-lam)^mu on its pole nu-lam+mu+1 = 0; lam = 0.5 still runs
    grid = [{"nu": 0.35, "mu": 0.15, "lam": lam, "z": 1.7} for lam in (0.5, 1.5)]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    argv = ["verify", "--id", "P3_RIEMANN_Q", "--grid-file", str(path), "--format", "json"]
    code, out, err = run_cli(argv)
    assert code == EXIT_NUMERICAL
    assert "Traceback" not in err
    payload = json.loads(out)
    assert [r["pass"] for r in payload["reports"]] == [True]
    (failure,) = payload["summaries"][0]["failures"]
    assert failure["params"]["lam_re"] == 1.5
    assert failure["reason"].startswith("pole: ")


def test_sweep_writes_a_nan_row_at_a_pole():
    # Q_nu^0 has poles at nu = -1, -2
    code, out, err = run_cli(
        ["sweep", "--fn", "Q", "--nu=-2:0:5", "--mu", "0", "--z", "1.5"]
    )
    assert code == EXIT_NUMERICAL
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 6
    nan_rows = [r[0] for r in rows[1:] if math.isnan(float(r[1]))]
    assert nan_rows == ["-2.0", "-1.0"]
    assert len(err.strip().splitlines()) == 2


def test_sweep_identity_writes_a_nan_row_at_a_domain_error():
    # K3_WEYL_P's closed form is a Whipple image, defined for z > 1 only: z = 0.5
    # and 1 are domain errors of their own rows, and the sweep goes on
    code, out, err = run_cli(
        ["sweep", "--id", "K3_WEYL_P", "--nu", "0.35", "--mu", "0.15",
         "--lam", "0.55", "--z", "0.5:2:4"]
    )
    assert code == EXIT_DOMAIN
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[0] for r in rows] == ["0.5", "1.0", "1.5", "2.0"]
    assert [r[-1] for r in rows] == ["False", "False", "True", "True"]
    assert all(math.isnan(float(r[1])) for r in rows[:2])
    assert [line.split(":")[0] for line in err.strip().splitlines()] == ["z=0.5", "z=1.0"]


def test_sweep_non_finite_flag_exits_at_once():
    code, out, err = run_cli(
        ["sweep", "--id", "WEYL_MPLUS_P", "--nu", "nan", "--mu", "0.15",
         "--lam", "1.1:1.3:3", "--z", "1.6"]
    )
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("domain error: non-finite")


def test_sweep_identity_writes_a_failing_row_at_a_pole():
    code, out, _err = run_cli(
        ["sweep", "--id", "P3_RIEMANN_Q", "--nu", "0.35", "--mu", "0.15",
         "--lam", "0.5:1.5:2", "--z", "1.7"]
    )
    assert code == EXIT_NUMERICAL
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[-1] for r in rows[1:]] == ["True", "False"]
    assert math.isnan(float(rows[2][1]))


def test_verify_all_defaults_matches_the_catalog_snapshot():
    # tests/data/catalog_defaults.json is the output of
    #   legshift verify --all --defaults --format json | python -m json.tool --indent 1
    # at a reviewed commit; a change that keeps the catalog's numbers keeps
    # every point within these bounds
    with open(os.path.join(os.path.dirname(__file__), "data", "catalog_defaults.json")) as fh:
        snapshot = json.load(fh)["reports"]
    code, out, _err = run_cli(["verify", "--all", "--defaults", "--format", "json"])
    assert code == EXIT_OK
    reports = json.loads(out)["reports"]
    fields = [f"{p}_{part}" for p in ("nu", "mu", "lam", "z") for part in ("re", "im")]
    key = lambda r: (r["identity"], *(r[f] for f in fields))
    assert sorted(map(key, reports)) == sorted(map(key, snapshot))
    now = {key(r): r for r in reports}
    for old in snapshot:
        new = now[key(old)]
        assert (new["valid"], new["pass"]) == (old["valid"], old["pass"]), key(old)
        rhs_old, rhs_new = (complex(r["rhs_re"], r["rhs_im"]) for r in (old, new))
        assert abs(rhs_new - rhs_old) <= 1e-12 * abs(rhs_old), key(old)
        if old["lhs_re"] is None:
            assert new["lhs_re"] is None, key(old)
            continue
        lhs_old, lhs_new = (complex(r["lhs_re"], r["lhs_im"]) for r in (old, new))
        bound = max(1e-12 * abs(lhs_old), old["quad_err"])
        assert abs(lhs_new - lhs_old) <= bound, key(old)
    # the quadrature work: 12,641 evaluations in the snapshot, 13,105 once the
    # multi-integral entries took their parents' recipes, 11,620 since each
    # of the 99 Cauchy rules at these real points calls its integrand on
    # half the circle, 17 times in place of 32, 11,083 since the Weyl
    # loops at z >= 2.2, whose integrands are analytic out to 4c, take their
    # Taylor series over all of (0, c) with no segment, and 9,327 since the
    # loop segments whose ends carry one power each take the Jacobi-weighted
    # Fejér rule first
    assert sum(r["evaluations"] or 0 for r in reports) <= 9327
