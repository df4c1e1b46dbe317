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
    # mu = 0 is an invalid point of RIEMANN_MPLUS_Q: a failure in the summary
    argv = ["verify", "--id", "RIEMANN_MPLUS_Q"]
    argv += ["--nu", "0.55", "--mu", "0", "--lam", "0.6", "--z", "1.5"]
    table_code, _out, _err = run_cli(argv)
    code, out, err = run_cli(argv + ["--format", "json"])
    assert code == table_code == EXIT_NUMERICAL
    assert "Traceback" not in err
    (failure,) = json.loads(out)["summaries"][0]["failures"]
    assert failure["params"] == {
        "nu_re": 0.55, "nu_im": 0.0, "mu_re": 0.0, "mu_im": 0.0,
        "lam_re": 0.6, "lam_im": 0.0, "z_re": 1.5, "z_im": 0.0,
    }
    assert failure["reason"].startswith("invalid")
