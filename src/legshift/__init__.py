"""Associated Legendre, Ferrers, and Jacobi functions of complex degree and
order, with a fractional order/degree-shift layer.

The package has three layers:

* function kernels: ``legendre`` (direct evaluation of P, Q, Ferrers P/Q,
  Jacobi P and their derivatives) built on ``complexfn`` and ``hyper``;
* quadrature: ``quadrature`` (one tanh-sinh rule, on segments and, under a
  change of variables, on half-lines, and the Riemann-Liouville and Weyl
  fractional operators, which at order -n are the n-fold repeated
  integrals);
* shift identities: ``shifts`` (closed-form predictions for fractional
  order/degree shifts) and ``verify`` (catalog pitting the closed forms
  against direct contour quadrature).
"""

import importlib

from .complexfn import ln_gamma, rgamma, gamma_ratio, sin_pi, cos_pi
from .hyper import hyp2f1, hyp3f2_series, hyp3f2_barnes
from .legendre import (
    legendre_p,
    legendre_q,
    ferrers_p,
    ferrers_q,
    jacobi_p,
    legendre_deriv,
    whipple_p_to_q,
    whipple_q_to_p,
)

# The quadrature and shift-identity layers load on first use (PEP 562), so a
# caller that only evaluates functions, such as ``legshift eval``, never
# imports them.
_LAZY = {
    "integrate_segment": "quadrature",
    "integrate_semi_infinite": "quadrature",
    "integrate_loop": "quadrature",
    "repeated_integral": "quadrature",
    "QuadratureResult": "quadrature",
    "Prediction": "shifts",
    "predict_order_shift": "shifts",
    "predict_degree_shift": "shifts",
    "predict_ferrers_shift": "shifts",
    "apply_integer_recurrence": "shifts",
    "rodrigues_pair": "shifts",
    "list_identities": "verify",
    "verify_identity": "verify",
    "verify_grid": "verify",
    "ode_residual": "verify",
    "VerificationReport": "verify",
}
_LAZY_MODULES = frozenset(_LAZY.values())


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | _LAZY_MODULES)


__version__ = "0.1.0"

# the names imported above from the package's modules, then the lazy ones:
# a new name is declared once, by its import or in _LAZY
__all__ = [
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(__name__ + ".")
]
__all__ += list(_LAZY)
