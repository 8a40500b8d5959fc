"""Deterministic solvers: damped Newton descent and a slack-basis simplex.

Nothing in this module knows about quantiles.  It provides two primitives
with reproducible behavior:

* minimize_qn: damped Newton (Levenberg-Marquardt) minimizer for smooth
  convex objectives with an exact Hessian, which scales its damping by the
  diagonal D the caller passes.  Identical inputs produce bit-identical
  outputs.
* solve_lp_simplex: primal simplex on a dense tableau using Bland's
  anti-cycling rule, reporting optimum multiplicity when a non-basic column
  has zero reduced cost.  It starts from a slack basis and has no phase 1:
  once each row is scaled so its right-hand side is nonnegative, every row
  must own a unit column (one nonzero entry, equal to 1), as the quantile LP
  [X, -X, I, -I] always does.  A problem without one raises ValueError.
  A pivot updates only the columns where its pivot row is nonzero, so on an
  m-row tableau it costs O(m*k) for a row with k nonzeros, plus O(m + n)
  for choosing the pivot.  For the quantile LP, k is at most 4p + 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverError",
    "LPProblem",
    "SolveReport",
    "CONVERGED",
    "ITERATION_CAP",
    "UNBOUNDED",
    "DEGENERATE_MULTIPLE",
    "minimize_qn",
    "solve_lp_simplex",
]

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"
UNBOUNDED = "unbounded"
DEGENERATE_MULTIPLE = "degenerate-multiple"

# minimize_qn converges when ||grad||_inf <= _GRAD_TOL * max(1, ||x||_inf),
# the Hessian is positive definite, and the Newton decrement
# g'H^-1 g / 2 <= _DECREMENT_TOL * (1 + |f|)
_GRAD_TOL = 1e-8
_DECREMENT_TOL = 1e-12
# minimize_qn stops with ITERATION_CAP after this many trial steps
_QN_MAX_ITER = 500
# noise allowance in the step test, relative to 1 + |f|: once true decreases
# fall below float resolution of f, an exact test rejects or accepts at
# random and the damping churns; this lets resolution-limited steps (a few
# ulps of f) through while still rejecting genuine backward moves (the
# convergence tests still decide when to stop).  A sum of cancelling terms
# can round f by more than the allowance, so a step predicted within it is
# also accepted when it lowers ||grad||_inf, which carries full relative
# precision
_F_NOISE = 1e-15


class SolverError(RuntimeError):
    """Raised when a solver cannot produce a usable answer."""


@dataclass(frozen=True)
class LPProblem:
    """Equality-form linear program: minimize c @ x subject to A x = b, x >= 0.

    solve_lp_simplex needs a slack basis: after rows with b < 0 are negated,
    every row must have a unit column, one with a single nonzero entry of 1
    in that row.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).ravel())
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
        m, n = self.A.shape
        if self.c.shape[0] != n:
            raise ValueError(f"c has {self.c.shape[0]} entries for {n} columns")
        if self.b.shape[0] != m:
            raise ValueError(f"b has {self.b.shape[0]} entries for {m} rows")
        for name, arr in (("c", self.c), ("A", self.A), ("b", self.b)):
            if not np.isfinite(arr).all():
                raise ValueError(f"LP component {name} contains non-finite values")


@dataclass
class SolveReport:
    """Outcome of a solver run.

    x is None when the LP solver ends without an optimum: the objective is
    unbounded or the pivot cap was reached.  Infeasibility is never reported,
    because the slack basis the LP solver requires is already feasible.
    grad_norm and decrement are filled by minimize_qn: decrement is half the
    Newton decrement g'H^-1 g at x, an estimate of f(x) - min f, and inf when
    the Hessian there is not positive definite.  zero_rc_columns is filled by
    the LP solver (indices of non-basic columns with zero reduced cost at the
    optimum).
    """

    x: np.ndarray | None
    fun: float | None
    iterations: int
    status: str
    message: str = ""
    grad_norm: float | None = None
    decrement: float | None = None
    zero_rc_columns: tuple[int, ...] = ()


def minimize_qn(fun_and_grad, hess, x0, scale) -> SolveReport:
    """Minimize a smooth convex function by damped Newton steps.

    fun_and_grad(x) returns (value, gradient), hess(x) the Hessian H, and
    scale the positive diagonal of D.  Each step solves (H + mu D^2) d = -g,
    a Levenberg-Marquardt trust region (More 1978; Nocedal & Wright 2006,
    ch. 4 and 10), in the variables D x.  A step is accepted when f falls by
    at least 0.25 of the fall the quadratic model predicts, less a noise
    allowance of 1e-15 (1 + |f|).  When the predicted fall lies within that
    allowance, a step is also accepted if the actual change in f does too,
    or if it lowers ||grad||_inf: f may be a sum of cancelling terms whose
    rounding exceeds the allowance.  mu starts at 1, is divided by 4 after a
    fall of at least 0.75 of the prediction (or a step accepted within the
    noise) and multiplied by 4 after a rejected step; a non-finite trial
    objective is a rejected step.  The Hessian is evaluated at every
    accepted point, the last included.  The run converges when three tests
    hold there: ||grad||_inf <= 1e-8 * max(1, ||x||_inf), H is positive
    definite, and half the Newton decrement, g'H^-1 g / 2, is at most
    1e-12 (1 + |f|).  The decrement estimates f - min f and does not change
    when x is rescaled (Boyd & Vandenberghe 2004, sec. 9.5.1), so it still
    certifies the fit where the gradient test, which grows with ||x||, does
    not.  It comes free from the eigenpairs the step already uses.  A
    non-finite objective, gradient or Hessian at the start (iteration 0) or
    at an accepted step aborts with SolverError.  After 500 trial steps, one
    objective evaluation each, the run stops with "iteration-cap".
    Everything is deterministic.  The quasi-Newton name stays while the
    benchmark's tracer wraps the solver by it (ROADMAP item 2).
    """
    x = np.array(x0, dtype=float).ravel()
    inv_scale = 1.0 / np.asarray(scale, dtype=float)
    f, g = fun_and_grad(x)
    mu, accepted = 1.0, True
    status = ITERATION_CAP
    it = 0
    for it in range(_QN_MAX_ITER + 1):
        if accepted:
            f, g = float(f), np.asarray(g, dtype=float).ravel()
            if not (math.isfinite(f) and np.isfinite(g).all()):
                raise SolverError(f"objective or gradient non-finite at iteration {it} (f={f})")
            H = np.asarray(hess(x), dtype=float)
            if not np.isfinite(H).all():
                raise SolverError(f"Hessian non-finite at iteration {it}")
            # in the eigenbasis V of D^-1 H D^-1, every mu's step is a division
            lam, V = np.linalg.eigh(H * np.multiply.outer(inv_scale, inv_scale))
            a = (g * inv_scale) @ V
            V *= inv_scale[:, None]
            g_norm = np.abs(g).max(initial=0.0)
            decrement = 0.5 * float(a @ (a / lam)) if lam.min(initial=1.0) > 0.0 else math.inf
            if (g_norm <= _GRAD_TOL * max(1.0, np.abs(x).max(initial=0.0))
                    and decrement <= _DECREMENT_TOL * (1.0 + abs(f))):
                status = CONVERGED
                break
        if it == _QN_MAX_ITER:
            break
        w = a / (lam + mu)
        predicted = float(w @ (a - 0.5 * lam * w))
        x_t = x - V @ w
        f_t, g_t = fun_and_grad(x_t)
        fall = f - float(f_t)  # NaN when f_t is, and then every test fails
        noise = _F_NOISE * (1.0 + abs(f))
        within_noise = predicted <= noise and (
            abs(fall) <= noise or (math.isfinite(fall) and np.abs(g_t).max(initial=0.0) < g_norm))
        accepted = within_noise or fall >= 0.25 * predicted - noise
        if not accepted:
            mu *= 4.0
            continue
        if within_noise or fall >= 0.75 * predicted:
            mu /= 4.0
        x, f, g = x_t, f_t, g_t

    return SolveReport(x=x, fun=f, iterations=it, status=status,
                       grad_norm=float(g_norm), decrement=decrement)


def solve_lp_simplex(problem: LPProblem) -> SolveReport:
    """Solve an equality-form LP by the primal simplex method with Bland's rule.

    Rows with a negative right-hand side are negated first.  The lowest-index
    unit column of each row then enters the starting basis, which is feasible
    because the right-hand side is nonnegative; a row without a unit column
    raises ValueError before any pivot.  A pivot scales and eliminates only
    the k columns where the pivot row is nonzero: O(m*k) work for m rows,
    where a full-tableau pivot would take O(m*n).  Pivoting stops after
    200 + 50 * (rows + columns) pivots with status "iteration-cap".  At the
    optimum, any non-basic column with zero reduced cost marks alternative
    optima and flips the status to "degenerate-multiple"; the indices are
    reported in zero_rc_columns.
    """
    c = problem.c
    m, n = problem.A.shape
    # the tableau carries the rhs in its last column; Fortran order, so the
    # columns a pivot gathers come out Fortran-ordered and their transpose is
    # C-contiguous for the rank-1 update
    T = np.empty((m, n + 1), order="F")
    T[:, :n] = problem.A
    T[:, n] = problem.b
    # scale in place: a boolean-indexed row update would gather a copy of
    # those rows, strided across the Fortran-order tableau
    T *= np.where(problem.b < 0, -1.0, 1.0)[:, None]
    cost_scale = max(1.0, float(np.abs(c).max()) if n else 1.0)

    # a unit column has one nonzero entry, a 1; each row takes its lowest.
    # Only boolean and index arrays are built here: a gathered float copy of
    # the unit columns would be as large as the tableau
    basis = np.full(m, -1, dtype=int)
    if m:
        cols = np.arange(n)
        rows = np.argmax(T[:, :n] != 0.0, axis=0)  # first nonzero row of each column
        unit = (np.count_nonzero(T[:, :n], axis=0) == 1) & (T[rows, cols] == 1.0)
        owned, first = np.unique(rows[unit], return_index=True)
        basis[owned] = cols[unit][first]
    missing = np.nonzero(basis < 0)[0]
    if missing.size:
        raise ValueError(f"row {int(missing[0])} has no unit column; "
                         "solve_lp_simplex needs a slack basis")

    z = c - c[basis] @ T[:, :-1]  # reduced costs of the structural columns
    enter_tol = 1e-9 * cost_scale
    fac = np.empty(m)
    ratios = np.empty(m)
    work = np.empty((0, m))  # row_j * fac_i for the touched columns, grown on demand
    it = 0
    while it < 200 + 50 * (m + n):
        eligible = np.nonzero(z < -enter_tol)[0]
        if eligible.size == 0:
            break
        q = int(eligible[0])  # Bland: lowest eligible index enters
        col = T[:, q]
        pos = col > 1e-10
        if not pos.any():
            return SolveReport(None, None, it, UNBOUNDED, "objective decreases without bound")
        ratios.fill(np.inf)
        np.divide(T[:, -1], col, out=ratios, where=pos)
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))[0]
        r = int(ties[np.argmin(basis[ties])])  # Bland: lowest basic index leaves
        # entry (i, j) loses row_j * fac_i, so a column with a zero in the pivot
        # row would only lose +-0: the pivot touches only the row's nonzero
        # columns (q among them), with the arithmetic the whole tableau would get
        nz = T[r].nonzero()[0]
        touched = T[:, nz]
        touched[r] /= T[r, q]
        row = touched[r].copy()
        fac[:] = T[:, q]
        fac[r] = 0.0
        if work.shape[0] < nz.size:
            work = np.empty((nz.size, m))
        outer = np.multiply.outer(row, fac, out=work[:nz.size])
        np.subtract(touched.T, outer, out=touched.T)
        T[:, nz] = touched
        k = nz.size - (int(nz[-1]) == n)  # the structural columns among nz
        z[nz[:k]] -= z[q] * row[:k]
        z[q] = 0.0
        basis[r] = q
        # sweep out rounding drift so the ratio test stays valid
        rhs = T[:, -1]
        rhs[(rhs < 0.0) & (rhs > -1e-9)] = 0.0
        it += 1
    else:
        return SolveReport(None, None, it, ITERATION_CAP, "pivot cap reached")

    x = np.zeros(n)
    x[basis] = T[:, -1]
    objective = float(c @ x)
    z_final = c - c[basis] @ T[:, :-1]
    nonbasic = np.setdiff1d(np.arange(n), basis)
    zero_rc = tuple(int(j) for j in nonbasic if abs(z_final[j]) <= 1e-9 * cost_scale)
    status = DEGENERATE_MULTIPLE if zero_rc else CONVERGED
    return SolveReport(x=x, fun=objective, iterations=it, status=status,
                       zero_rc_columns=zero_rc)
