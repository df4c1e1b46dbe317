"""The three benchmark workloads.

Each ``run_*`` function takes a seeded ``random.Random``, the number of
seconds to measure and whether to add a traced pass, and returns a
``Result``.  End-to-end numbers come from the untraced part only; the traced
pass runs after it on the same inputs.

Operation times are kept twice: as measured, and scaled to a reference
machine speed by the probes in ``speed``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import inputs
from speed import CHILD_TIMEOUT_S, KernelProbe, LaunchProbe
from tracing import SPAN_NAMES, Tracer

import legshift
from legshift import cli, verify

# quadrature budget verify_identity uses by default
TARGET = 1e-9
IMPORT_SAMPLES = 3
SCATTER_POOL = 2016  # 288 per function: whole strata of 3 regions, 4 kinds, 8 cases
CATALOG_CHUNK = 22  # points between speed probes, about 0.3 s
COLD_CHUNK = 4  # launches between speed probes, about 1 s
# default grids keep nu <= 2.4; inside that range, away from integer order
# and integer 2nu+2, every call is within inputs.GATE_REL_TOL of the oracle,
# so a larger miss there marks the run incorrect
GATED_NU_MAX = 2.5
GATED_INT_DISTANCE = 1e-3


@dataclass
class Result:
    attempted: int
    failed: int
    correct: bool
    # wall time per operation; catalog: per point, the median over passes
    op_s: list
    op_scaled_s: list  # the same, at reference speed
    passes: list  # (operations, wall s, scaled s) per pass
    tail_q: float  # quantile reported as op_ms_tail
    ok: int  # operations that returned a right value
    not_wrong: int  # operations that returned a right value or raised
    probe_s: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def _fn(module, name):
    return getattr(importlib.import_module("legshift." + module), name)


def _span_layers(tracer, scale):
    """Per-function calls and self time (at reference speed) of a traced pass."""
    out = {}
    for name, (calls, self_ns) in tracer.summary().items():
        out[name + ".calls"] = calls
        out[name + ".self_ms"] = self_ns / 1e6 * scale
    out["legendre.param_repeat_frac"] = tracer.legendre_param_repeat_frac()
    return out


def empty_layers():
    """Every per-layer metric at zero; each workload overwrites what it measures."""
    out = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = 0
        out[name + ".self_ms"] = 0.0
    out["legendre.param_repeat_frac"] = 0.0
    for key in ("evaluations", "evals_per_point", "unconverged_frac"):
        out["quadrature." + key] = 0
    for entry in verify.list_identities():
        out[f"catalog.{entry.id}.s"] = 0.0
        out[f"catalog.{entry.id}.evaluations"] = 0
    for region in ("series", "image", "ode"):
        out["hyper.hyp2f1.call_us." + region] = 0.0
    for _, fn in inputs.SCATTER_FUNCTIONS:
        out[f"scatter.{fn}.checked"] = 0
        out[f"scatter.{fn}.wrong"] = 0
        out[f"scatter.{fn}.raised"] = 0
    return out


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_layers(src, probe):
    """Median import time of numpy and of legshift's own modules (-X importtime),
    at reference speed."""
    numpy_us, own_us = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import legshift"],
            env=child_env(src), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError("import legshift failed in a child:\n" + proc.stderr)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        scale = probe.chunk_scale()
        numpy_us.append(cumulative.get("numpy", 0) * scale)
        own_us.append((cumulative["legshift"] - cumulative.get("numpy", 0)) * scale)
    return {
        "import.numpy_ms": statistics.median(numpy_us) / 1e3,
        "import.legshift_own_ms": statistics.median(own_us) / 1e3,
    }


# --- catalog -----------------------------------------------------------------


def _verify_point(ident, p):
    """(seconds, outcome, report) for one timed verify_identity call."""
    t0 = time.perf_counter()
    try:
        rep = verify.verify_identity(ident, p["nu"], p["mu"], p["lam"], p["z"])
    except Exception as exc:  # any raise fails the point; the run goes on
        return time.perf_counter() - t0, "raised:" + type(exc).__name__, None
    dt = time.perf_counter() - t0
    return dt, ("ok" if rep.passed else ("mismatch" if rep.validity else "invalid")), rep


def run_catalog(rng, seconds, trace):
    points = inputs.catalog_points(verify.list_identities(), rng)
    probe = KernelProbe()
    passes = []  # per pass: [(seconds, scaled seconds, outcome, report)] in point order
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        rows = []
        for c in range(0, len(points), CATALOG_CHUNK):
            chunk = [_verify_point(ident, p) for ident, p in points[c:c + CATALOG_CHUNK]]
            scale = probe.chunk_scale()
            rows += [(dt, dt * scale, outcome, rep) for dt, outcome, rep in chunk]
        passes.append(rows)

    rows = [r for pass_rows in passes for r in pass_rows]
    outcomes = [outcome for _, _, outcome, _ in rows]
    ok = outcomes.count("ok")
    res = Result(
        attempted=len(rows),
        failed=len(rows) - ok,
        correct=ok == len(rows),
        op_s=[statistics.median(p[i][0] for p in passes) for i in range(len(points))],
        op_scaled_s=[statistics.median(p[i][1] for p in passes) for i in range(len(points))],
        passes=[(len(p), sum(r[0] for r in p), sum(r[1] for r in p)) for p in passes],
        tail_q=0.99,
        ok=ok,
        not_wrong=len(rows) - outcomes.count("mismatch"),
        probe_s=probe.samples,
        info={"points_per_pass": len(points)},
    )
    if not trace:
        return res

    first = passes[0]
    layers = {}
    evaluations = unconverged = 0
    for entry in verify.list_identities():
        idx = [i for i, (ident, _) in enumerate(points) if ident == entry.id]
        layers[f"catalog.{entry.id}.s"] = statistics.median(
            sum(pass_rows[i][1] for i in idx) for pass_rows in passes
        )
        evals = sum(first[i][3].lhs.evaluations for i in idx if first[i][3] and first[i][3].lhs)
        layers[f"catalog.{entry.id}.evaluations"] = evals
        evaluations += evals
    for _, _, _, rep in first:
        if rep is not None and rep.lhs is not None:
            unconverged += rep.lhs.err_estimate > TARGET * abs(rep.lhs.value)
    layers["quadrature.evaluations"] = evaluations
    layers["quadrature.evals_per_point"] = evaluations / len(points)
    layers["quadrature.unconverged_frac"] = unconverged / len(points)

    with Tracer() as tracer:
        traced = [_verify_point(ident, p)[0] for ident, p in points]
    scale = probe.chunk_scale()
    layers.update(_span_layers(tracer, scale))
    layers["trace.overhead"] = sum(traced) * scale / statistics.median(p[2] for p in res.passes)
    res.layers = layers
    return res


# --- eval_scatter ------------------------------------------------------------


def _gated(call):
    """Calls inside the range where the seed commit is known to be accurate."""
    if call.fn in ("hyp2f1", "jacobi_p"):
        return True
    nu, mu = call.args[0], call.args[1]
    return nu <= GATED_NU_MAX and all(
        abs(v - round(v)) > GATED_INT_DISTANCE for v in (mu, 2.0 * nu + 2.0)
    )


def _scatter_pass(pool, order):
    """[(seconds, pool index, value or exception)] for one timed call per index."""
    rows = []
    for i in order:
        call = pool[i]
        fn = _fn(call.module, call.fn)
        kwargs = dict(call.kwargs)
        t0 = time.perf_counter()
        try:
            value = fn(*call.args, **kwargs)
        except Exception as exc:  # classified by the caller: library error or leak
            rows.append((time.perf_counter() - t0, i, exc))
            continue
        rows.append((time.perf_counter() - t0, i, value))
    return rows


def run_eval_scatter(rng, seconds, trace):
    pool = inputs.scatter_pool(rng, SCATTER_POOL)
    refs = [inputs.oracle(call) for call in pool]
    probe = KernelProbe()
    passes = []  # (rows, scale)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        order = list(range(len(pool)))
        rng.shuffle(order)
        rows = _scatter_pass(pool, order)
        passes.append((rows, probe.chunk_scale()))

    attempted = ok = raised = wrong = 0
    correct = True
    for rows, _ in passes:
        for _, i, value in rows:
            attempted += 1
            if isinstance(value, Exception):
                raised += 1
                continue
            err = inputs.rel_err(value, refs[i])
            if err <= inputs.REL_TOL:
                ok += 1
                continue
            wrong += 1
            gross = err > inputs.GATE_REL_TOL and _gated(pool[i])
            correct &= math.isfinite(abs(value)) and not gross
    checked = {fn: 0 for _, fn in inputs.SCATTER_FUNCTIONS}
    wrong_by_fn = dict(checked)
    raised_by_fn = dict(checked)
    leaked = []  # raises that are not legshift.errors types
    library_errors = (legshift.errors.DomainError, legshift.errors.NumericalError)
    for _, i, value in passes[0][0]:
        checked[pool[i].fn] += 1
        if isinstance(value, Exception):
            raised_by_fn[pool[i].fn] += 1
            if not isinstance(value, library_errors):
                leaked.append(f"{pool[i].fn}{pool[i].args}: {type(value).__name__}")
        elif inputs.rel_err(value, refs[i]) > inputs.REL_TOL:
            wrong_by_fn[pool[i].fn] += 1

    res = Result(
        attempted=attempted,
        failed=raised,
        correct=correct,
        op_s=[dt for rows, _ in passes for dt, _, _ in rows],
        op_scaled_s=[dt * scale for rows, scale in passes for dt, _, _ in rows],
        passes=[(len(rows), sum(r[0] for r in rows), scale * sum(r[0] for r in rows)) for rows, scale in passes],
        # the slowest 1% is about 20 pool calls, so p99 moved 11-13% with the
        # seed; the slowest 10% is about 200 and steadier
        tail_q=0.90,
        ok=ok,
        not_wrong=attempted - wrong,
        probe_s=probe.samples,
        info={
            "pool": len(pool),
            "rel_tol": inputs.REL_TOL,
            "oracle_dps": inputs.ORACLE_DPS,
            "wrong_in_pool": sum(wrong_by_fn.values()),
            "wrong_by_fn": wrong_by_fn,
            "raised_by_fn": raised_by_fn,
            "leaked": leaked,
            "checked_by_fn": checked,
        },
    )
    if not trace:
        return res

    layers = {}
    for fn in checked:
        layers[f"scatter.{fn}.checked"] = checked[fn]
        layers[f"scatter.{fn}.wrong"] = wrong_by_fn[fn]
        layers[f"scatter.{fn}.raised"] = raised_by_fn[fn]
    by_region = {"series": [], "image": [], "ode": []}
    for rows, scale in passes:
        for dt, i, _ in rows:
            if pool[i].fn == "hyp2f1":
                by_region[pool[i].region].append(dt * scale)
    for region, times in by_region.items():
        layers["hyper.hyp2f1.call_us." + region] = statistics.median(times) * 1e6 if times else 0.0

    with Tracer() as tracer:
        rows = _scatter_pass(pool, range(len(pool)))
    scale = probe.chunk_scale()
    layers.update(_span_layers(tracer, scale))
    layers["trace.overhead"] = statistics.median(r[0] for r in rows) * scale / statistics.median(res.op_scaled_s)
    res.layers = layers
    return res


# --- cold_eval ---------------------------------------------------------------


_CLI_FN = {
    "legendre_p": "P",
    "legendre_q": "Q",
    "ferrers_p": "ferrers-P",
    "ferrers_q": "ferrers-Q",
    "jacobi_p": "jacobi-P",
}


def _eval_argv(call):
    """legshift eval arguments for a cold_eval call."""
    if call.fn == "jacobi_p":
        nu, alpha, beta, z = call.args
        params = [f"--nu={nu!r}", f"--alpha={alpha!r}", f"--beta={beta!r}", f"--z={z!r}"]
    else:
        nu, mu, z = call.args
        params = [f"--nu={nu!r}", f"--mu={mu!r}", f"--z={z!r}"]
    return ["eval", "--fn", _CLI_FN[call.fn]] + params


def run_cold_eval(rng, seconds, trace, src):
    env = child_env(src)
    probe = LaunchProbe(env)
    calls, times, scaled, procs = [], [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        chunk = []
        for _ in range(COLD_CHUNK):
            call = inputs.cold_call(rng)
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "legshift"] + _eval_argv(call),
                env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            chunk.append(time.perf_counter() - t0)
            calls.append(call)
            procs.append(proc)
        scale = probe.chunk_scale()
        times += chunk
        scaled += [dt * scale for dt in chunk]

    ok = not_wrong = exited_ok = within_gate = 0
    for call, proc in zip(calls, procs):
        if proc.returncode != 0:
            not_wrong += 1
            continue
        exited_ok += 1
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        err = inputs.rel_err(complex(rec["value_re"], rec["value_im"]), inputs.oracle(call))
        within_gate += err <= inputs.GATE_REL_TOL
        if err <= inputs.REL_TOL:
            ok += 1
            not_wrong += 1
    res = Result(
        attempted=len(calls),
        failed=len(calls) - exited_ok,
        correct=within_gate == len(calls),
        op_s=times,
        op_scaled_s=scaled,
        passes=[(len(times), sum(times), sum(scaled))],
        # a run makes about a hundred launches: p90 keeps ten above it
        tail_q=0.90,
        ok=ok,
        not_wrong=not_wrong,
        probe_s=probe.samples,
    )
    if not trace:
        return res

    # the eval path after start-up, run in-process on the same arguments
    argvs = [_eval_argv(c) for c in calls[:50]]
    kernel = KernelProbe()
    untraced = statistics.median(_in_process_evals(argvs)) * kernel.chunk_scale()
    with Tracer() as tracer:
        traced = _in_process_evals(argvs)
    scale = kernel.chunk_scale()
    layers = _span_layers(tracer, scale)
    layers["trace.overhead"] = statistics.median(traced) * scale / untraced
    res.layers = layers
    return res


def _in_process_evals(argvs):
    times = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            cli.main(argv)
            times.append(time.perf_counter() - t0)
    return times
