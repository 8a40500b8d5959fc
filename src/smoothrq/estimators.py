"""Quantile estimators: smooth Newton fits, LP fits, and restricted fits.

Three routes to a fitted plane at level tau:

* fit_smooth minimizes the smooth check loss by damped Newton steps with
  its exact Hessian.  The objective is strictly convex and differentiable,
  so the family of solutions moves continuously in tau.
* fit_rq_lp minimizes the classic pinball loss exactly, as the linear
  program  min tau*sum(u) + (1-tau)*sum(v)  s.t.
  X(b+ - b-) + u - v = y - X beta_ls,  all variables nonnegative, with
  beta = beta_ls + b+ - b-.  beta_ls is the least-squares plane, so the
  simplex's slack basis starts there rather than at beta = 0, and only the
  points on the wrong side of that plane need pivots.
* fit_rrq fits one median plane and one median scale plane, then restricts
  every other quantile to the pencil beta_med + c * gamma, choosing the
  scalar c per tau.  All planes share the two fitted directions, which rules
  out crossings whenever the fitted scales are positive.

All estimators expect the Dataset convention of an explicit trailing
intercept column.  A smooth fit starts from the least-squares plane with its
intercept raised to the tau-th order statistic of that plane's residuals, so
each level's start depends only on the data and tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .diagnostics import GridResult, count_curve
from .losses import (SRQ, SMRQ, FlexCheckParams, _check_tau, _pinball, classic_total,
                     hess_total, loss_and_grad)
from .optim import (
    CONVERGED,
    DEGENERATE_MULTIPLE,
    LPProblem,
    SolveReport,
    SolverError,
    minimize_qn,
    solve_lp_simplex,
)

__all__ = [
    "FAILED",
    "FIT_GRAD_RTOL",
    "METHODS",
    "SMOOTH_PRESETS",
    "TauGrid",
    "QuantileFit",
    "RRQModel",
    "fit_smooth",
    "fit_rq_lp",
    "fit_rrq",
    "fit_grid",
]

# every returned smooth fit has ||grad||_inf <= FIT_GRAD_RTOL * max(1, ||beta||_inf);
# the solver's own convergence test, 1e-8 in place of 1e-6, implies it
FIT_GRAD_RTOL = 1e-6

METHODS = ("rq", "srq", "smrq", "rrq", "flex")
SMOOTH_PRESETS = {"srq": SRQ, "smrq": SMRQ}

# fit_grid's status for a level whose solver failed, followed by the message
FAILED = "failed: "

# TauGrid.from_count and from_step refuse to build more levels than this,
# about 100 times the largest grid in use (999 levels)
_MAX_LEVELS = 100_000

# fit_rq_lp refuses an LP whose dense simplex tableau, n x (2n + 2p + 1)
# doubles, would exceed this many MiB: n=2000 at p=10 takes 61 MiB, n=5000
# would take 381 MiB, and a fit holds the constraint matrix, one column
# smaller, next to the tableau
_MAX_TABLEAU_MB = 128


@dataclass
class TauGrid:
    """Strictly increasing quantile levels inside the open interval (0, 1)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size == 0:
            raise ValueError("tau grid is empty")
        if not ((self.values > 0.0).all() and (self.values < 1.0).all()):
            raise ValueError("tau values must lie strictly inside (0, 1)")
        if self.values.size > 1 and not (np.diff(self.values) > 0).all():
            raise ValueError("tau values must be strictly increasing")

    def __len__(self):
        return self.values.size

    def __iter__(self):
        return iter(self.values.tolist())

    @classmethod
    def from_count(cls, m: int) -> "TauGrid":
        """m evenly spaced interior levels: tau_i = i / (m + 1), i = 1..m."""
        if not 1 <= m <= _MAX_LEVELS:
            raise ValueError(f"need between 1 and {_MAX_LEVELS} grid points, got {m}")
        return cls(np.arange(1, m + 1) / float(m + 1))

    @classmethod
    def from_step(cls, start: float, end: float, step: float) -> "TauGrid":
        """Arithmetic grid start, start+step, ..., clipped to the open interval.

        Endpoints landing on 0 or 1 are dropped rather than rejected, so
        (0, 1, 0.01) yields the 99 interior percent levels.  A grid that would
        span more than 100000 levels is refused before any array is built.
        """
        if not np.isfinite([start, end, step]).all():
            raise ValueError(f"grid ({start}, {end}, {step}) is not finite")
        if not step > 0:
            raise ValueError(f"step must be positive, got {step}")
        if not start < end:
            raise ValueError(f"need start < end, got ({start}, {end})")
        k = np.floor((end - start) / step + 1e-9)
        if not k < _MAX_LEVELS:
            raise ValueError(f"grid ({start}, {end}, {step}) spans more than "
                             f"{_MAX_LEVELS} levels")
        vals = np.round(start + step * np.arange(int(k) + 1), 12)
        vals = vals[(vals > 1e-12) & (vals < 1.0 - 1e-12)]
        if vals.size == 0:
            raise ValueError(f"grid ({start}, {end}, {step}) has no interior points")
        return cls(vals)

    @classmethod
    def coerce(cls, grid) -> "TauGrid":
        if isinstance(grid, cls):
            return grid
        return cls(np.asarray(grid, dtype=float))


@dataclass
class QuantileFit:
    """One fitted plane: level, coefficients, solver report."""

    tau: float
    beta: np.ndarray
    report: SolveReport


@dataclass
class RRQModel:
    """Restricted quantile family: planes beta_med + c[k] * gamma.

    gamma is the median regression of |median residuals| on the predictors;
    c holds one direction step per grid level, with c = 0 pinned at tau = 0.5.
    homoscedastic_degenerate is set when every fitted scale is (numerically)
    zero, in which case all c are forced to 0; negative_scales records
    whether any fitted scale came out below zero.
    """

    taus: np.ndarray
    beta_med: np.ndarray
    gamma: np.ndarray
    c: np.ndarray
    med_report: SolveReport
    scale_report: SolveReport
    homoscedastic_degenerate: bool = False
    negative_scales: bool = False

    def planes(self) -> np.ndarray:
        return self.beta_med[None, :] + np.outer(self.c, self.gamma)

    @property
    def status(self) -> str:
        """The median fit's status, noting a collapsed family or negative scales."""
        if self.homoscedastic_degenerate:
            return (self.med_report.status
                    + "; homoscedastic-degenerate, family collapsed to the median plane")
        if self.negative_scales:
            return self.med_report.status + "; some fitted scales are negative"
        return self.med_report.status


def _least_squares(data: Dataset) -> np.ndarray:
    # min-norm least squares, so a rank-deficient design still has a plane
    return np.linalg.lstsq(data.X, data.y, rcond=None)[0]


def _smooth_start(data: Dataset, tau: float) -> np.ndarray:
    """The least-squares plane, shifted up to the tau-th order statistic.

    The intercept (the last coefficient) is raised by the k-th smallest
    least-squares residual, k = min(n - 1, floor(tau n)) counted from 0, so
    about a fraction tau of the points lies below the start.  An order
    statistic, not an interpolated quantile: the start then passes through
    a data point, as an rq plane does.
    """
    beta = _least_squares(data)
    k = min(data.n_obs - 1, int(tau * data.n_obs))
    beta[-1] += np.partition(data.residuals(beta), k)[k]
    return beta


def fit_smooth(data: Dataset, tau: float, params: FlexCheckParams = SRQ) -> QuantileFit:
    """Minimize the smooth check loss at one level.

    Starts from the least-squares plane shifted to the tau-th order
    statistic of its residuals, which depends only on the data and tau, and
    takes damped Newton steps with the exact Hessian, damped along the
    column norms of X.  Data whose X'X overflows cannot form that system
    and raise SolverError before any evaluation.  A fit is returned only
    when the solver converged, that is, passed its tests at beta:
    ||grad||_inf <= 1e-8 * max(1, ||beta||_inf), a positive definite
    Hessian, and half the Newton decrement at most 1e-12 (1 + |f|).  Any
    other outcome raises SolverError with the diagnostics, as does a
    ValueError during the solve, such as residuals that overflow.  A tau
    outside (0, 1) raises ValueError.
    """
    tau = _check_tau(tau)
    col_sq = (data.X * data.X).sum(axis=0)
    if not np.isfinite(col_sq).all():
        raise SolverError(f"smooth fit failed at tau={tau}: X'X overflows the float range")
    try:
        report = minimize_qn(lambda b: loss_and_grad(data, b, tau, params),
                             lambda b: hess_total(data, b, params),
                             _smooth_start(data, tau),
                             np.sqrt(np.where(col_sq > 0, col_sq, 1.0)))
    except ValueError as exc:
        raise SolverError(f"smooth fit failed at tau={tau}: {exc}") from exc
    if report.status != CONVERGED:
        raise SolverError(f"smooth fit stalled at tau={tau}: status={report.status}, "
                          f"|grad|={report.grad_norm:.3e} after {report.iterations} iterations")
    return QuantileFit(tau=float(tau), beta=report.x, report=report)


def _refine_vertex(data: Dataset, beta: np.ndarray, tau: float) -> np.ndarray:
    """Re-solve the fitted plane through the points it interpolates.

    An optimal simplex vertex passes through p data points (up to
    degeneracy).  Solving that p x p system directly removes the rounding
    accumulated across pivots; the candidate is kept only if it does not
    increase the objective.
    """
    p = data.n_coef
    r = data.residuals(beta)
    rows = np.argsort(np.abs(r), kind="stable")[:p]
    if np.any(np.abs(r[rows]) > 1e-6 * (1.0 + np.abs(data.y[rows]))):
        return beta
    try:
        refined = np.linalg.solve(data.X[rows], data.y[rows])
    except np.linalg.LinAlgError:
        return beta
    if not np.isfinite(refined).all():
        return beta
    before = classic_total(data, beta, tau)
    after = classic_total(data, refined, tau)
    if after <= before * (1.0 + 1e-12) + 1e-12:
        return refined
    return beta


def _best_interval_endpoint(data: Dataset, beta: np.ndarray, tau: float) -> np.ndarray:
    """Resolve an intercept-only tie toward the better-evaluated data point.

    With a single coefficient a degenerate optimum is a closed interval
    between adjacent data values, and the solver may stop anywhere on it
    (the all-residual start basis is already optimal when the interval
    contains the least-squares start, the mean).  The whole interval ties
    in exact arithmetic, but float evaluations differ in the last bits, so
    the fit reports the flanking data value whose evaluation is lowest.
    """
    b = float(beta[0])
    cands = []
    if (data.y == b).any():
        cands.append(np.asarray(beta, dtype=float))
    above = data.y[data.y > b]
    below = data.y[data.y < b]
    if above.size:
        cands.append(np.array([float(above.min())]))
    if below.size:
        cands.append(np.array([float(below.max())]))
    if not cands:
        return np.asarray(beta, dtype=float)
    vals = [classic_total(data, c, tau) for c in cands]
    return cands[int(np.argmin(vals))]


def fit_rq_lp(data: Dataset, tau: float) -> QuantileFit:
    """Exact pinball-loss fit via the simplex method.

    The LP is posed in the offset from the min-norm least-squares plane
    beta_ls:  X(b+ - b-) + u - v = y - X beta_ls,  beta = beta_ls + b+ - b-.
    Its slack basis (b+ = b- = 0, residuals in u and v) is then the
    least-squares plane, which already splits the points roughly as the fit
    will, so only the points on the wrong side of it need pivots.  From
    beta = 0, every positive response lies above the start, and each point
    that ends below the fit costs about two pivots.  The optimal vertex's
    plane is solved again from the rows it interpolates and the original y,
    so wherever that re-solve applies the coefficients do not depend on the
    start.  Where it does not, as on duplicate rows, they can differ from a
    zero start in the last bits, or land on another optimal vertex of equal
    objective.

    The reported objective is the pinball loss re-evaluated at the returned
    coefficients.  The status is "degenerate-multiple" when the LP optimum
    admits alternative solutions that actually move the coefficient vector:
    a zero-reduced-cost non-basic residual column, or a (b+, b-) pair both
    non-basic at zero reduced cost.  A zero reduced cost on the mirror of a
    basic coefficient column is ignored; entering it only shifts b+ and b-
    together and leaves their difference unchanged.

    An LP whose dense tableau would exceed 128 MiB (n above about 2890 rows)
    raises SolverError before anything is allocated.
    """
    tau = _check_tau(tau)
    n, p = data.X.shape
    tableau_mb = n * (2 * n + 2 * p + 1) * 8 / 2 ** 20
    if tableau_mb > _MAX_TABLEAU_MB:
        raise SolverError(
            f"quantile LP with n={n}, p={p} needs a {tableau_mb:.0f} MiB simplex "
            f"tableau; the dense simplex is limited to {_MAX_TABLEAU_MB} MiB")
    start = _least_squares(data)
    A = np.zeros((n, 2 * n + 2 * p), order="F")  # the tableau's layout
    A[:, :p] = data.X
    A[:, p:2 * p] = -data.X
    rows = np.arange(n)
    A[rows, 2 * p + rows] = 1.0
    A[rows, 2 * p + n + rows] = -1.0
    problem = LPProblem(
        c=np.concatenate([np.zeros(2 * p), np.full(n, tau), np.full(n, 1.0 - tau)]),
        A=A,
        b=data.y - data.X @ start,
    )
    lp = solve_lp_simplex(problem)
    if lp.x is None:
        raise SolverError(f"quantile LP failed at tau={tau}: {lp.status} ({lp.message})")
    beta = start + (lp.x[:p] - lp.x[p:2 * p])
    beta = _refine_vertex(data, beta, tau)

    zero_rc = set(lp.zero_rc_columns)
    genuine = any(j >= 2 * p for j in zero_rc) or any(
        k in zero_rc and k + p in zero_rc for k in range(p)
    )
    status = DEGENERATE_MULTIPLE if genuine else CONVERGED
    if genuine and p == 1:
        beta = _best_interval_endpoint(data, beta, tau)
    report = SolveReport(
        x=beta,
        fun=classic_total(data, beta, tau),
        iterations=lp.iterations,
        status=status,
        zero_rc_columns=lp.zero_rc_columns,
    )
    return QuantileFit(tau=tau, beta=beta, report=report)


class _DirectionSteps:
    """Minimizers over c of the sum of pinball losses of r - c*s, all s nonzero.

    The objective is convex and piecewise linear in c.  Its breakpoints
    r_i / s_i do not depend on tau, so they are sorted once, with 0 as an
    extra candidate.  Far left the slope is -(tau*P + (1-tau)*N), where P sums
    the positive s and N the magnitudes of the negative s.  It rises by |s_i|
    at breakpoint r_i / s_i, so a search in the cumulative weights finds the
    candidate where it changes sign, in O(log n) per level.
    """

    def __init__(self, r: np.ndarray, s: np.ndarray):
        self.r, self.s = r, s
        self.cands, inverse = np.unique(np.concatenate([r / s, [0.0]]), return_inverse=True)
        weights = np.bincount(inverse[:-1], weights=np.abs(s), minlength=self.cands.size)
        self.cum = np.cumsum(weights)
        self.pos = float(s[s > 0].sum())
        self.neg = float(-s[s < 0].sum())

    def _objective(self, j: int, tau: float) -> float:
        return float(_pinball(self.r - self.cands[j] * self.s, tau).sum())

    def __call__(self, tau: float) -> float:
        """The minimizing candidate; on a flat valley, its point of least |c|.

        The cumulative weights only locate the minimum.  From there the walk
        evaluates the objective outward on both sides while it stays within
        1e-10 * (1 + |min|) of the least value seen.  That tolerance decides
        which candidates tie, so a valley that contains 0 pins c to 0.
        """
        def tol(g: float) -> float:
            return g + 1e-10 * (1.0 + abs(g))

        start = int(np.searchsorted(self.cum, tau * self.pos + (1.0 - tau) * self.neg))
        start = min(start, self.cands.size - 1)
        values = {start: self._objective(start, tau)}
        for step in (-1, 1):
            j = start + step
            while 0 <= j < self.cands.size:
                values[j] = self._objective(j, tau)
                if values[j] > tol(min(values.values())):
                    break
                j += step
        bound = tol(min(values.values()))
        flat = [j for j, g in values.items() if g <= bound]
        lo, hi = float(self.cands[min(flat)]), float(self.cands[max(flat)])
        return min(max(0.0, lo), hi)


def fit_rrq(data: Dataset, tau_grid) -> RRQModel:
    """Median plane, median scale plane, and one direction step per level.

    Step 1 fits the median by LP; step 2 median-regresses the absolute
    residuals on the same predictors to get gamma; step 3 picks each c as the
    exact piecewise-linear minimizer over the rows with nonzero fitted scale
    (a row with zero scale adds a constant in c), from breakpoints sorted
    once for the whole grid.  If all scales vanish the family collapses to
    the median plane (c = 0 everywhere) and the homoscedastic_degenerate
    flag is raised.
    """
    grid = TauGrid.coerce(tau_grid)
    med = fit_rq_lp(data, 0.5)
    r = data.residuals(med.beta)
    scale_data = Dataset(X=data.X.copy(), y=np.abs(r),
                         column_names=data.column_names,
                         response_name="abs_residual")
    scale = fit_rq_lp(scale_data, 0.5)
    gamma = scale.beta
    s = data.X @ gamma

    degenerate = float(np.abs(s).max()) <= 1e-12 * max(1.0, float(np.abs(r).max()))

    c = np.zeros(len(grid))
    if not degenerate:
        moving = s != 0
        step = _DirectionSteps(r[moving], s[moving])
        for k, tau in enumerate(grid):
            if tau != 0.5:  # c stays 0 at the median anchor itself
                c[k] = step(tau)

    return RRQModel(
        taus=grid.values.copy(),
        beta_med=med.beta,
        gamma=gamma,
        c=c,
        med_report=med.report,
        scale_report=scale.report,
        homoscedastic_degenerate=degenerate,
        negative_scales=bool((s < 0).any()),
    )


def fit_grid(data: Dataset, tau_grid, method: str,
             params: FlexCheckParams | None = None) -> GridResult:
    """Fit one method across a tau grid and attach the count curve.

    This is the one place a method name picks its fitting routine and loss:
    rq is the exact LP, srq and smrq the smooth fit with their preset shape,
    flex the smooth fit with params, and rrq the restricted family.  Grid
    entries are fitted in increasing tau order, each smooth level from its
    own start (see fit_smooth), so a level's fit does not depend on the rest
    of the grid.  A level whose solver raises SolverError is recorded as
    FAILED plus the message and left as a NaN coefficient row, and the
    remaining levels still run; an rrq failure fails every level of the
    family.  The count curve is attached only when every level produced
    coefficients.
    """
    grid = TauGrid.coerce(tau_grid)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "flex" and params is None:
        raise ValueError("method 'flex' needs explicit FlexCheckParams")
    if method != "flex" and params is not None:
        raise ValueError(f"FlexCheckParams shape only method 'flex', not {method!r}")
    params = SMOOTH_PRESETS.get(method, params)
    m, p = len(grid), data.n_coef
    coefs = np.full((m, p), np.nan)
    statuses: list[str] = []

    if method == "rrq":
        try:
            model = fit_rrq(data, grid)
        except SolverError as exc:
            statuses = [FAILED + str(exc)] * m
        else:
            coefs = model.planes()
            statuses = [model.status] * m
    else:
        for k, tau in enumerate(grid):
            try:
                if method == "rq":
                    fit = fit_rq_lp(data, tau)
                else:
                    fit = fit_smooth(data, tau, params=params)
            except SolverError as exc:
                statuses.append(FAILED + str(exc))
                continue
            coefs[k] = fit.beta
            statuses.append(fit.report.status)

    result = GridResult(taus=grid.values.copy(), coefficients=coefs,
                        dataset=data, method=method, statuses=statuses)
    if np.isfinite(coefs).all():
        result.curve = count_curve(result)
    return result
