#!/usr/bin/env python3
"""legshift benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a legshift checkout: the package is imported from
``src/legshift`` there, nothing needs installing.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` list.  The line
before it carries run facts: machine and library versions, unscaled times,
probe times, raw failure fractions and per-function wrong counts.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from speed import CHILD_TIMEOUT_S, LaunchProbe

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("catalog", "eval_scatter", "cold_eval")
# child processes timing import + warm-up, taken before and after the
# measured window (the machine's speed drifts over tens of seconds);
# setup_s is the median of all of them
SETUP_SAMPLES_EACH_SIDE = 3


def _warm_up(workload):
    """One call of each function the workload uses, on fixed arguments."""
    import legshift
    from legshift import cli, verify

    if workload == "catalog":
        entry = verify.list_identities()[0]
        p = entry.default_grid[0]
        verify.verify_identity(entry.id, p["nu"], p["mu"], p["lam"], p["z"])
    elif workload == "eval_scatter":
        legshift.legendre_p(0.5, 0.25, 2.0)
        legshift.legendre_q(0.5, 0.25, 2.0)
        legshift.ferrers_p(0.5, 0.25, 0.3)
        legshift.ferrers_q(0.5, 0.25, 0.3)
        legshift.jacobi_p(0.5, 0.25, 0.75, 2.0)
        legshift.legendre_deriv(0.5, 0.25, 2.0, order=1, kind="q")
        legshift.hyp2f1(0.5, 0.25, 1.5, 0.3 + 0.2j)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["eval", "--fn", "Q", "--nu", "0.5", "--mu", "0.25", "--z", "2"])


def _setup_probe(workload):
    """Child mode: print the seconds for ``import legshift`` plus warm-up."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import legshift  # noqa: F401

    _warm_up(workload)
    print(repr(time.perf_counter() - t0))


def _measure_setup(workload, probe):
    """[(seconds, seconds at reference speed)] for fresh set-up probes."""
    samples = []
    for _ in range(SETUP_SAMPLES_EACH_SIDE):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        raw = float(proc.stdout.strip().splitlines()[-1])
        samples.append((raw, raw * probe.chunk_scale()))
    return samples


def _facts():
    import mpmath
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def _quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _end_to_end(res, op_s, pass_field):
    """Throughput, latency and success metrics from per-operation times."""
    return {
        "ops_per_s": statistics.median(p[0] / p[pass_field] for p in res.passes),
        "op_ms_p50": statistics.median(op_s) * 1e3,
        "op_ms_tail": _quantile(op_s, res.tail_q) * 1e3,
        "ok_frac": res.ok / res.attempted,
        "not_wrong_frac": res.not_wrong / res.attempted,
    }


def _metrics(spec, values):
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "legshift", "__init__.py")):
        print("bench: src/legshift not found; run from the root of a legshift checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(args.workload)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    launch_probe = LaunchProbe(dict(os.environ))
    setup_samples = _measure_setup(args.workload, launch_probe)
    sys.path.insert(0, SRC)
    import legshift

    if not os.path.abspath(legshift.__file__).startswith(SRC + os.sep):
        print(f"bench: imported legshift from {legshift.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    _warm_up(args.workload)
    rng = random.Random(args.seed)
    if args.workload == "catalog":
        res = workloads.run_catalog(rng, args.seconds, args.trace)
    elif args.workload == "eval_scatter":
        res = workloads.run_eval_scatter(rng, args.seconds, args.trace)
    else:
        res = workloads.run_cold_eval(rng, args.seconds, args.trace, SRC)
    setup_samples += _measure_setup(args.workload, launch_probe)

    end_to_end = _end_to_end(res, res.op_scaled_s, 2)
    end_to_end["setup_s"] = statistics.median(s for _, s in setup_samples)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "facts": _facts(),
        "setup_samples_s": [raw for raw, _ in setup_samples],
        "op_samples": len(res.op_s),
        "op_ms_tail_quantile": res.tail_q,
        "unscaled": {**_end_to_end(res, res.op_s, 1), "setup_s": statistics.median(raw for raw, _ in setup_samples)},
        "probe_s": {
            "median": statistics.median(res.probe_s),
            "min": min(res.probe_s),
            "max": max(res.probe_s),
            "setup_launch_median": statistics.median(launch_probe.samples),
        },
        "fail_frac": 1.0 - res.ok / res.attempted,
        "wrong_frac": 1.0 - res.not_wrong / res.attempted,
        **res.info,
    }
    if args.trace:
        layers = workloads.empty_layers()
        layers.update(workloads.import_layers(SRC, launch_probe))
        layers.update(res.layers)
        layers["fail_frac"] = info["fail_frac"]
        layers["wrong_frac"] = info["wrong_frac"]
        metrics = _metrics(spec["per_layer"], layers)
    else:
        metrics = _metrics(spec["end_to_end"], end_to_end)
    info["end_to_end"] = end_to_end
    print(json.dumps({"bench_info": info}))
    print(json.dumps({
        "correct": bool(res.correct),
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
