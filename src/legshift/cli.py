"""Command-line surface: evaluate, verify, sweep, and dump the catalog.

Exit codes are the scripting contract: 0 success, 1 numerical failure or
verification mismatch, 2 argument/parse error, 3 domain error.  Complex
values are always serialized as separate re/im fields, never as formatted
complex strings.

The identity commands import ``verify``, and with it the quadrature and shift
layers, when they run, so ``eval`` loads only the function kernels.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .errors import DomainError, NumericalError
from .legendre import ferrers_p, ferrers_q, jacobi_p, legendre_p, legendre_q

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3


class _Range:
    """Inline parameter grid start:stop:count, endpoints included."""

    def __init__(self, start: float, stop: float, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.start, self.stop, self.count = start, stop, count

    def values(self):
        if self.count == 1:
            return [complex(self.start)]
        step = (self.stop - self.start) / (self.count - 1)
        return [complex(self.start + i * step) for i in range(self.count)]


def _parse_param(text: str):
    """A parameter flag value: a real/complex scalar or start:stop:count."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"grid must be start:stop:count, got {text!r}"
            )
        try:
            return _Range(float(parts[0]), float(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    try:
        return complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _complex_fields(values, names=("nu", "mu", "lam", "z")) -> dict:
    """``<name>_re`` and ``<name>_im`` of each named value, by default a
    verify point's: JSON has no complex numbers."""
    fields = {}
    for name in names:
        w = complex(values[name])
        fields[f"{name}_re"] = w.real
        fields[f"{name}_im"] = w.imag
    return fields


def _scalar(name, value):
    if isinstance(value, _Range):
        raise DomainError(f"--{name} must be a single value here, not a grid")
    return value


_FUNCTIONS = {
    "P": lambda a: legendre_p(a["nu"], a["mu"], a["z"], boundary_side=a["side"]),
    "Q": lambda a: legendre_q(
        a["nu"], a["mu"], a["z"], boundary_side=a["side"], olver=a["olver"]
    ),
    "ferrers-P": lambda a: ferrers_p(a["nu"], a["mu"], a["z"]),
    "ferrers-Q": lambda a: ferrers_q(a["nu"], a["mu"], a["z"]),
    "jacobi-P": lambda a: jacobi_p(a["nu"], a["alpha"], a["beta"], a["z"]),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="legshift",
        description="Legendre/Ferrers/Jacobi evaluation and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    p_eval.add_argument("--fn", required=True, choices=sorted(_FUNCTIONS))
    p_eval.add_argument("--nu", type=_parse_param, required=True)
    p_eval.add_argument("--mu", type=_parse_param, default=0j)
    p_eval.add_argument("--alpha", type=_parse_param, default=0j)
    p_eval.add_argument("--beta", type=_parse_param, default=0j)
    p_eval.add_argument("--z", type=_parse_param, required=True)
    p_eval.add_argument("--side", choices=["+", "-"], default=None)
    p_eval.add_argument("--olver", action="store_true")
    p_eval.add_argument("--format", choices=["json", "table"], default="json")

    p_ver = sub.add_parser("verify", help="check catalog identities")
    sel = p_ver.add_mutually_exclusive_group(required=True)
    sel.add_argument("--id", dest="identity")
    sel.add_argument("--all", action="store_true")
    p_ver.add_argument("--defaults", action="store_true",
                       help="use each identity's built-in grid")
    p_ver.add_argument("--grid-file", help="JSON list of {nu, mu, lam, z} points")
    p_ver.add_argument("--nu", type=_parse_param)
    p_ver.add_argument("--mu", type=_parse_param)
    p_ver.add_argument("--lam", type=_parse_param)
    p_ver.add_argument("--z", type=_parse_param)
    p_ver.add_argument("--tol", type=float, default=1e-6)
    p_ver.add_argument("--target", type=float, default=1e-9)
    p_ver.add_argument("--canary", type=float, default=0.0,
                       help="relative depression of the largest closed-form term")
    p_ver.add_argument("--far-field", action="store_true")
    p_ver.add_argument("--format", choices=["table", "json"], default="table")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter to CSV")
    tgt = p_sweep.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--fn", choices=sorted(_FUNCTIONS))
    tgt.add_argument("--id", dest="identity")
    p_sweep.add_argument("--nu", type=_parse_param)
    p_sweep.add_argument("--mu", type=_parse_param)
    p_sweep.add_argument("--lam", type=_parse_param)
    p_sweep.add_argument("--alpha", type=_parse_param, default=0j)
    p_sweep.add_argument("--beta", type=_parse_param, default=0j)
    p_sweep.add_argument("--z", type=_parse_param)
    p_sweep.add_argument("--side", choices=["+", "-"], default=None)
    p_sweep.add_argument("--olver", action="store_true")
    p_sweep.add_argument("--tol", type=float, default=1e-6)
    p_sweep.add_argument("--target", type=float, default=1e-9)
    p_sweep.add_argument("--output", default=None)

    p_cat = sub.add_parser("catalog", help="dump the identity catalog")
    p_cat.add_argument("--format", choices=["json", "table"], default="json")
    return parser


# ---------------------------------------------------------------------------
# eval

def _cmd_eval(args) -> int:
    params = {
        "nu": _scalar("nu", args.nu),
        "mu": _scalar("mu", args.mu),
        "alpha": _scalar("alpha", args.alpha),
        "beta": _scalar("beta", args.beta),
        "z": _scalar("z", args.z),
        "side": args.side,
        "olver": args.olver,
    }
    value = _FUNCTIONS[args.fn](params)
    value = complex(value)
    region = "on-cut" if args.side else (
        "segment" if args.fn.startswith("ferrers") else "off-cut"
    )
    record = {
        "fn": args.fn,
        **_complex_fields(params, ("nu", "mu", "z")),
        "value_re": value.real, "value_im": value.imag,
        # direct evaluation computes no error bound; null says so
        "err_estimate": None,
        "region": region,
    }
    if args.fn == "jacobi-P":
        record.update(_complex_fields(params, ("alpha", "beta")))
    if args.format == "json":
        print(json.dumps(record))
    else:
        print(" ".join(f"{k}={v}" for k, v in record.items()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _report_record(rep) -> dict:
    rec = {"identity": rep.identity, **_complex_fields(rep.params)}
    if rep.lhs is not None:
        lhs = complex(rep.lhs.value)
        rec["lhs_re"], rec["lhs_im"] = lhs.real, lhs.imag
        rec["quad_err"] = rep.lhs.err_estimate
        rec["evaluations"] = rep.lhs.evaluations
    else:
        rec["lhs_re"] = rec["lhs_im"] = rec["quad_err"] = rec["evaluations"] = None
    rhs = complex(rep.rhs.value)
    rec["rhs_re"], rec["rhs_im"] = rhs.real, rhs.imag
    rec["rel_err"] = rep.rel_err if rep.validity else None
    rec["pass"] = rep.passed
    rec["valid"] = rep.validity
    if rep.failed_conditions:
        rec["failed_conditions"] = list(rep.failed_conditions)
    return rec


def _emit_table_line(rec):
    parts = []
    for k, v in rec.items():
        if isinstance(v, list):
            v = ";".join(v)
        parts.append(f"{k}={v}")
    print(" ".join(parts))


def _budget(summary, target):
    """Integrand evaluations over a grid summary's points, and how many of
    them report err_estimate > target * |lhs|."""
    sides = [rep.lhs for rep in summary.reports if rep.lhs is not None]
    evaluations = sum(q.evaluations for q in sides)
    unconverged = sum(q.err_estimate > target * abs(q.value) for q in sides)
    return evaluations, unconverged


def _verify_one_identity(entry, args, records):
    from .verify import verify_grid

    grid = None
    if args.grid_file:
        with open(args.grid_file) as fh:
            grid = json.load(fh)
    elif not args.defaults:
        point = {}
        for name in ("nu", "mu", "lam", "z"):
            value = getattr(args, name)
            if value is None:
                raise DomainError(
                    "single-point verify needs --nu --mu --lam --z "
                    "(or pass --defaults / --grid-file)"
                )
            point[name] = _scalar(name, value)
        grid = [point]
    summary = verify_grid(
        entry.id,
        grid=grid,
        target=args.target,
        tolerance=args.tol,
        coeff_perturbation=args.canary,
        use_far_field=args.far_field,
    )
    for rep in summary.reports:
        records.append(_report_record(rep))
    return summary


def _cmd_verify(args) -> int:
    from .verify import get_identity, list_identities

    if args.far_field and (args.all or args.identity != "RIEMANN_MMINUS_P"):
        raise DomainError("--far-field only applies to --id RIEMANN_MMINUS_P")
    if args.all:
        entries = list_identities()
        if not args.defaults and not args.grid_file:
            raise DomainError("verify --all needs --defaults")
    else:
        try:
            entries = [get_identity(args.identity)]
        except DomainError as exc:
            # unknown selector is an argument error, not a math-domain error
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE

    records = []
    summaries = []
    for entry in entries:
        summaries.append(_verify_one_identity(entry, args, records))

    all_ok = all(s.all_passed and not s.failures for s in summaries)
    budgets = [_budget(s, args.target) for s in summaries]
    if args.format == "json":
        payload = {
            "reports": records,
            "summaries": [
                {
                    "identity": s.identity,
                    "points": s.n_points,
                    "valid": s.n_valid,
                    "passed": s.n_passed,
                    "worst_rel_err": s.worst_rel_err,
                    "evaluations": evaluations,
                    "unconverged": unconverged,
                    "failures": [
                        {"params": _complex_fields(p), "reason": r}
                        for p, r in s.failures
                    ],
                }
                for s, (evaluations, unconverged) in zip(summaries, budgets)
            ],
            "all_passed": all_ok,
        }
        print(json.dumps(payload))
    else:
        for rec in records:
            _emit_table_line(rec)
        for s, (evaluations, unconverged) in zip(summaries, budgets):
            print(
                f"summary identity={s.identity} points={s.n_points} "
                f"valid={s.n_valid} passed={s.n_passed} "
                f"worst_rel_err={s.worst_rel_err} "
                f"evaluations={evaluations} unconverged={unconverged}"
            )
            for p, reason in s.failures:
                print(f"failure identity={s.identity} params={p} reason={reason}")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# sweep

def _sweep_axis(args, names):
    swept = [n for n in names if isinstance(getattr(args, n, None), _Range)]
    if len(swept) != 1:
        raise DomainError(
            f"sweep needs exactly one start:stop:count parameter, got {len(swept)}"
        )
    return swept[0]


def _cmd_sweep(args) -> int:
    import csv

    out = io.StringIO()
    writer = csv.writer(out)
    if args.fn:
        axis = _sweep_axis(args, ("nu", "mu", "alpha", "beta", "z"))
        writer.writerow(["parameter", "re(value)", "im(value)", "err_estimate"])
        base = {
            "nu": args.nu, "mu": args.mu if args.mu is not None else 0j,
            "alpha": args.alpha, "beta": args.beta, "z": args.z,
            "side": args.side, "olver": args.olver,
        }
        if base["nu"] is None or base["z"] is None:
            raise DomainError("sweep --fn needs --nu and --z")
        for x in getattr(args, axis).values():
            params = dict(base)
            params[axis] = x
            value = complex(_FUNCTIONS[args.fn](params))
            writer.writerow(
                [repr(x.real), repr(value.real), repr(value.imag), ""]
            )
    else:
        from .verify import get_identity, verify_identity

        entry = get_identity(args.identity)
        axis = _sweep_axis(args, ("nu", "mu", "lam", "z"))
        writer.writerow(
            ["parameter", "re(value)", "im(value)", "err_estimate", "rel_err", "pass"]
        )
        base = {"nu": args.nu, "mu": args.mu, "lam": args.lam, "z": args.z}
        missing = [k for k, v in base.items() if v is None]
        if missing:
            raise DomainError(f"sweep --id needs all of --nu --mu --lam --z")
        for x in getattr(args, axis).values():
            point = dict(base)
            point[axis] = x
            rep = verify_identity(
                entry.id, point["nu"], point["mu"], point["lam"], point["z"],
                target=args.target, tolerance=args.tol,
            )
            lhs = complex(rep.lhs.value) if rep.lhs is not None else complex("nan")
            writer.writerow([
                repr(x.real), repr(lhs.real), repr(lhs.imag),
                repr(rep.lhs.err_estimate if rep.lhs is not None else float("nan")),
                repr(rep.rel_err), rep.passed,
            ])
    text = out.getvalue()
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# catalog

def _cmd_catalog(args) -> int:
    from .verify import list_identities

    entries = [e.to_dict() for e in list_identities()]
    if args.format == "json":
        print(json.dumps(entries, indent=2))
    else:
        for e in entries:
            print(f"{e['id']}: {e['description']}")
            print(f"    {e['formula']}")
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
