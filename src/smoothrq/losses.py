"""Check-function losses for quantile regression.

Two families live here.  The classic (pinball) check

    rho_c(r, tau) = tau * r        if r >= 0
                  = -(1 - tau) * r  otherwise

is piecewise linear with a kink at zero.  The smooth variant replaces the
kink with a scaled log-cosh:

    F(r, tau; c, h, s, v) = log(cosh(c * (r - h))) / (2 c) + (tau - s) * r + v

which is infinitely differentiable and strictly convex for c > 0.  With
h = 0, s = 1/2, v = 0 the two differ by at most log(2) / (2 c) everywhere,
so large c makes the smooth loss an arbitrarily tight upper-bounded-error
stand-in for the pinball loss while keeping gradients exact.

Two identities explain the shape.  At s = 1/2 and h = 0, F is the pinball
loss convolved with a logistic density of scale 1/(2 c), less
log(2) / (2 c): F' - tau + 1 = (1 + tanh(c r)) / 2 is that density's
distribution function, and the bound above is the kernel's bias at r = 0.
And since (tau - s) r = (tau' - 1/2)(r - h) + (tau - s) h with
tau' = tau - s + 1/2, F at (c, h, s, v) and level tau is the c-only loss
(h = 0, s = 1/2, v = 0) of r - h at level tau', plus a constant: a flex fit
of y at tau is the c-only fit of y - h at tau'.  When tau - s lies outside
(-1/2, 1/2), F' never changes sign and there is no minimizer.

The kernel evaluates log cosh z as |z| - log 2 + log1p(exp(-2|z|)), which
is exact up to rounding and cannot overflow for any z.  The derivative
tanh(c (r - h)) / 2 + (tau - s) runs from tau - 1 to tau when s = 1/2, the
subgradient range of the pinball loss.  The second derivative
(c / 2) sech^2(c (r - h)), which hess_total sums, comes from the same
exp(-2|z|).

Everything here is pure and stateless; functions accept scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset

__all__ = [
    "FlexCheckParams",
    "SRQ",
    "SMRQ",
    "check_classic",
    "check_smooth",
    "classic_total",
    "loss_total",
    "grad_total",
    "hess_total",
    "loss_and_grad",
]


@dataclass(frozen=True)
class FlexCheckParams:
    """Shape parameters of the smooth check function.

    c > 0 sets the sharpness (larger c hugs the pinball kink more tightly),
    h shifts the kink horizontally, s in [0, 1] tilts the linear term, and v
    is a constant vertical offset.
    """

    c: float
    h: float = 0.0
    s: float = 0.5
    v: float = 0.0

    def __post_init__(self):
        vals = (self.c, self.h, self.s, self.v)
        if not all(np.isfinite(t) for t in vals):
            raise ValueError(f"non-finite check parameters {vals}")
        if not self.c > 0:
            raise ValueError(f"sharpness c must be positive, got {self.c}")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"tilt s must lie in [0, 1], got {self.s}")


SRQ = FlexCheckParams(c=10.0)
SMRQ = FlexCheckParams(c=0.7, v=0.4)


def _as_residuals(r):
    arr = np.asarray(r, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("residuals must be finite")
    return arr


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < 1.0:  # NaN and infinities fail too
        raise ValueError(f"tau must lie strictly inside (0, 1), got {tau}")
    return tau


def _maybe_scalar(out: np.ndarray, like) -> float | np.ndarray:
    if np.ndim(like) == 0:
        return float(out)
    return out


def _exp_term(r: np.ndarray, params: FlexCheckParams):
    """z = c (r - h) and e = exp(-2|z|), from which F, F' and F'' all follow."""
    z = params.c * (r - params.h)
    return z, np.exp(-2.0 * np.abs(z))


def _smooth_terms(r: np.ndarray, tau: float, params: FlexCheckParams):
    """F(r) and F'(r) of the smooth check loss; tau checked, r finite floats."""
    z, e = _exp_term(r, params)
    log_cosh = np.abs(z) - np.log(2.0) + np.log1p(e)
    f = log_cosh / (2.0 * params.c) + (tau - params.s) * r + params.v
    return f, 0.5 * np.tanh(z) + (tau - params.s)


def _pinball(u: np.ndarray, tau: float) -> np.ndarray:
    return np.where(u >= 0, tau * u, (tau - 1.0) * u)


def check_classic(r, tau):
    """Pinball loss: tau * r above zero, (tau - 1) * r below."""
    tau = _check_tau(tau)
    return _maybe_scalar(_pinball(_as_residuals(r), tau), r)


def check_smooth(r, tau, params: FlexCheckParams = SRQ):
    """Smooth check loss F(r, tau) = logcosh(c (r - h)) / (2 c) + (tau - s) r + v."""
    tau = _check_tau(tau)
    return _maybe_scalar(_smooth_terms(_as_residuals(r), tau, params)[0], r)


def classic_total(data: Dataset, beta, tau) -> float:
    """Sum of the pinball loss over a dataset at coefficients beta."""
    return float(np.sum(check_classic(data.residuals(beta), tau)))


def loss_total(data: Dataset, beta, tau, params: FlexCheckParams = SRQ) -> float:
    """Sum of the smooth check loss over a dataset at coefficients beta."""
    return loss_and_grad(data, beta, tau, params)[0]


def grad_total(data: Dataset, beta, tau, params: FlexCheckParams = SRQ) -> np.ndarray:
    """Gradient of loss_total with respect to beta: -X' F'(y - X beta)."""
    return loss_and_grad(data, beta, tau, params)[1]


def loss_and_grad(data: Dataset, beta, tau, params: FlexCheckParams = SRQ):
    """Objective and gradient in one pass (shares the residual computation)."""
    tau = _check_tau(tau)
    f, deriv = _smooth_terms(_as_residuals(data.residuals(beta)), tau, params)
    return float(f.sum()), -(data.X.T @ deriv)


def hess_total(data: Dataset, beta, params: FlexCheckParams = SRQ) -> np.ndarray:
    """Hessian of loss_total in beta, X' diag(F'') X; F'' does not depend on tau.

    F''(r) = (c/2) sech^2 z = 2 c e / (1 + e)^2, from the same e as the loss.
    """
    _, e = _exp_term(_as_residuals(data.residuals(beta)), params)
    return data.X.T @ ((2.0 * params.c * e / (1.0 + e) ** 2)[:, None] * data.X)
