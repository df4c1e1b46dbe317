"""Associated Legendre, Ferrers, and Jacobi functions of complex degree and
order, with a fractional order/degree-shift layer.

The package has three layers:

* function kernels: ``legendre`` (direct evaluation of P, Q, Ferrers P/Q,
  Jacobi P and their derivatives) built on ``complexfn`` and ``hyper``;
* quadrature: ``quadrature`` (tanh-sinh segments, exp-sinh tails, loop
  contours around the origin, kernel-reduced repeated integrals);
* shift identities: ``shifts`` (closed-form predictions for fractional
  order/degree shifts) and ``verify`` (catalog pitting the closed forms
  against direct contour quadrature).
"""

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
from .quadrature import (
    integrate_segment,
    integrate_semi_infinite,
    integrate_loop,
    repeated_integral,
    QuadratureResult,
)
from .shifts import (
    Prediction,
    predict_order_shift,
    predict_degree_shift,
    predict_ferrers_shift,
    apply_integer_recurrence,
    rodrigues_pair,
)
from .verify import (
    list_identities,
    verify_identity,
    verify_grid,
    ode_residual,
    VerificationReport,
)

__version__ = "0.1.0"

__all__ = [
    "ln_gamma",
    "rgamma",
    "gamma_ratio",
    "sin_pi",
    "cos_pi",
    "hyp2f1",
    "hyp3f2_series",
    "hyp3f2_barnes",
    "legendre_p",
    "legendre_q",
    "ferrers_p",
    "ferrers_q",
    "jacobi_p",
    "legendre_deriv",
    "whipple_p_to_q",
    "whipple_q_to_p",
    "integrate_segment",
    "integrate_semi_infinite",
    "integrate_loop",
    "repeated_integral",
    "QuadratureResult",
    "Prediction",
    "predict_order_shift",
    "predict_degree_shift",
    "predict_ferrers_shift",
    "apply_integer_recurrence",
    "rodrigues_pair",
    "list_identities",
    "verify_identity",
    "verify_grid",
    "ode_residual",
    "VerificationReport",
]
