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
    "check_smooth_deriv",
    "classic_total",
    "loss_total",
    "grad_total",
    "loss_and_grad",
    "smoothing_gap",
]

# above this |z|, cosh(z) overflows long before log needs it; switch to the
# asymptotic form |z| - log 2 + log1p(exp(-2|z|)) which is exact to machine eps
_LOGCOSH_CUTOVER = 30.0


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


def smoothing_gap(params: FlexCheckParams) -> float:
    """Worst-case |smooth - classic| for an untilted, unshifted parameter set."""
    return np.log(2.0) / (2.0 * params.c)


def _as_residuals(r):
    arr = np.asarray(r, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("residuals must be finite")
    return arr


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not (np.isfinite(tau) and 0.0 < tau < 1.0):
        raise ValueError(f"tau must lie strictly inside (0, 1), got {tau}")
    return tau


def _maybe_scalar(out: np.ndarray, like) -> float | np.ndarray:
    if np.ndim(like) == 0:
        return float(out)
    return out


def _log_cosh(z: np.ndarray) -> np.ndarray:
    az = np.abs(z)
    out = np.empty_like(az)
    small = az <= _LOGCOSH_CUTOVER
    out[small] = np.log(np.cosh(az[small]))
    big = ~small
    out[big] = az[big] - np.log(2.0) + np.log1p(np.exp(-2.0 * az[big]))
    return out


def _smooth_terms(r: np.ndarray, tau: float, params: FlexCheckParams):
    """F(r) and F'(r) of the smooth check loss; tau checked, r finite floats."""
    z = params.c * (r - params.h)
    f = _log_cosh(z) / (2.0 * params.c) + (tau - params.s) * r + params.v
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


def check_smooth_deriv(r, tau, params: FlexCheckParams = SRQ):
    """d/dr of check_smooth: tanh(c (r - h)) / 2 + (tau - s).

    With s = 1/2 and h = 0 this runs from tau - 1 to tau as r sweeps the real
    line, matching the subgradient range of the pinball loss.
    """
    tau = _check_tau(tau)
    return _maybe_scalar(_smooth_terms(_as_residuals(r), tau, params)[1], r)


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
    r = data.residuals(beta)
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    f, deriv = _smooth_terms(r, tau, params)
    return float(f.sum()), -(data.X.T @ deriv)
