"""In-memory span tracing around the public functions of each legshift layer.

``Tracer`` wraps each function named in ``LAYERS`` in every ``legshift.*``
namespace that binds it, so calls between modules and calls inside the
defining module are both recorded.  Each call is one span: a name id, start
and end times, and the index of the enclosing span.  Spans are kept in
compact arrays and reduced to per-function call counts and self times
(span duration minus the duration of its direct children) when the run ends.
The wrappers are removed on exit, so untraced runs call the original code.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

# layer (module) -> public functions traced in it
LAYERS = {
    "complexfn": ("ln_gamma", "gamma_ratio"),
    "hyper": ("hyp2f1", "hyp3f2_series", "hyp3f2_barnes"),
    "legendre": (
        "legendre_p",
        "legendre_q",
        "ferrers_p",
        "ferrers_q",
        "jacobi_p",
        "legendre_deriv",
    ),
    "quadrature": (
        "integrate_segment",
        "integrate_semi_infinite",
        "integrate_loop",
        "integrate_weyl",
        "repeated_integral",
    ),
    "shifts": (
        "predict_order_shift",
        "predict_degree_shift",
        "predict_ferrers_shift",
        "rodrigues_pair",
    ),
    "verify": ("verify_identity",),
}

NAMESPACES = ("legshift",) + tuple(
    "legshift." + m for m in ("complexfn", "hyper", "legendre", "quadrature", "shifts", "verify", "cli")
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Context manager: install wrappers on enter, restore originals on exit.

    ``legendre_params`` records the first two arguments, (nu, mu), of every
    call into a ``legendre`` function in call order, for the parameter-repeat
    share; for ``jacobi_p`` they are (nu, alpha).
    """

    def __init__(self):
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._open = -1
        self._restore = []
        self.legendre_params = []

    def _wrap(self, span_id, fn, record_params):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(span_id)
            tracer.parent.append(tracer._open)
            tracer.start.append(clock())
            tracer.end.append(0)
            if record_params:
                tracer.legendre_params.append((complex(args[0]), complex(args[1])))
            tracer._open = idx
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._open = tracer.parent[idx]

        return traced

    def __enter__(self):
        modules = [importlib.import_module(n) for n in NAMESPACES]
        for span_id, name in enumerate(SPAN_NAMES):
            layer, fn_name = name.split(".")
            original = getattr(importlib.import_module("legshift." + layer), fn_name)
            wrapper = self._wrap(span_id, original, layer == "legendre")
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._restore.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, fn_name, original in self._restore:
            setattr(mod, fn_name, original)
        self._restore.clear()
        return False

    def summary(self):
        """{span name: (calls, self_ns)} over every recorded span."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_ns[k] += self.end[i] - self.start[i] - child_ns[i]
        return {name: (calls[k], self_ns[k]) for k, name in enumerate(SPAN_NAMES)}

    def legendre_param_repeat_frac(self):
        """Share of legendre calls whose (nu, mu) equals the previous call's."""
        params = self.legendre_params
        if len(params) < 2:
            return 0.0
        repeats = sum(1 for a, b in zip(params, params[1:]) if a == b)
        return repeats / (len(params) - 1)
