"""Deterministic solvers: quasi-Newton descent and a slack-basis simplex.

Nothing in this module knows about quantiles.  It provides two primitives
with reproducible behavior:

* minimize_qn: BFGS minimizer for smooth convex objectives, with a
  weak-Wolfe line search that doubles the step until it overshoots, then
  bisects.  Identical inputs produce bit-identical outputs.
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

# minimize_qn converges when ||grad||_inf <= _GRAD_TOL * max(1, ||x||_inf)
_GRAD_TOL = 1e-8
# minimize_qn stops with ITERATION_CAP after this many iterations
_QN_MAX_ITER = 500
# sufficient-decrease (Armijo) and curvature constants of the weak-Wolfe search
_ARMIJO_C = 1e-4
_WOLFE_C2 = 0.9
# trial steps per line search before it settles for its last Armijo point
_LS_TRIALS = 80
# absolute noise allowance in the Armijo comparison: once true decreases fall
# below float resolution of f, an exact test rejects or accepts at random and
# the search churns; this lets resolution-limited steps (a few ulps of f)
# through while still rejecting genuine backward moves (the gradient test
# still decides convergence, and gradients carry full relative precision)
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
    grad_norm is filled by minimize_qn; zero_rc_columns by the LP solver
    (indices of non-basic columns with zero reduced cost at the optimum).
    """

    x: np.ndarray | None
    fun: float | None
    iterations: int
    status: str
    message: str = ""
    grad_norm: float | None = None
    zero_rc_columns: tuple[int, ...] = ()


def minimize_qn(fun_and_grad, x0) -> SolveReport:
    """Minimize a smooth function given a callable returning (value, gradient).

    Textbook BFGS (Nocedal & Wright 2006, ch. 3 and 6).  Each line search
    looks for a weak-Wolfe step: sufficient decrease
    f(x + a d) <= f + 1e-4 a g'd, up to an absolute float-noise allowance,
    and curvature g(x + a d)'d >= 0.9 g'd.  It starts at a = 1, doubles a
    until a trial fails the decrease test, then bisects between the largest
    step known to pass it and the smallest known to fail it.  After 80
    trials it takes the last step that passed the decrease test; if none
    did, it stops with the message "line search stalled".  The inverse
    Hessian is updated only when s'y > 0, which every step that meets the
    curvature test gives, is rescaled once after the first update, and is
    reset to the identity if it ever stops producing descent directions.
    A non-finite objective at the starting point, a non-finite gradient at
    an accepted step, or a line search whose last trial is non-finite with
    none accepted aborts with SolverError.  Convergence is declared when
    ||grad||_inf <= 1e-8 * max(1, ||x||_inf), within 500 iterations.
    Everything is deterministic.
    """
    x = np.array(x0, dtype=float).ravel()
    f, g = fun_and_grad(x)
    f = float(f)
    g = np.asarray(g, dtype=float).ravel()
    if not np.isfinite(f) or not np.isfinite(g).all():
        raise SolverError(f"objective non-finite at the starting point (f={f})")

    p = x.shape[0]
    H = np.eye(p)
    scaled = False
    status = ITERATION_CAP
    message = ""
    it = 0
    for it in range(_QN_MAX_ITER + 1):
        gnorm = float(np.abs(g).max()) if p else 0.0
        if gnorm <= _GRAD_TOL * max(1.0, float(np.abs(x).max()) if p else 0.0):
            status = CONVERGED
            break
        if it == _QN_MAX_ITER:
            break
        d = -(H @ g)
        gd = float(g @ d)
        if gd >= 0.0:
            # numerical loss of positive definiteness; restart from steepest descent
            H = np.eye(p)
            d = -g
            gd = -float(g @ g)

        # weak-Wolfe bracketing: [lo, hi] brackets the accepted step once a
        # trial has failed the decrease test; until then the step doubles
        noise = _F_NOISE * (1.0 + abs(f))
        lo, hi, alpha = 0.0, np.inf, 1.0
        step = None
        for _ in range(_LS_TRIALS):
            x_t = x + alpha * d
            f_t, g_t = fun_and_grad(x_t)
            f_t = float(f_t)
            if not f_t <= f + _ARMIJO_C * alpha * gd + noise:  # NaN fails too
                hi = alpha
            else:
                g_t = np.asarray(g_t, dtype=float).ravel()
                step = (x_t, f_t, g_t)
                if float(g_t @ d) >= _WOLFE_C2 * gd:
                    break
                lo = alpha
            alpha = 2.0 * alpha if hi == np.inf else 0.5 * (lo + hi)
        if step is None:
            if not np.isfinite(f_t):
                raise SolverError(
                    f"objective became non-finite during line search at iteration {it}"
                )
            message = "line search stalled"
            break
        x_new, f_new, g_new = step
        if not np.isfinite(g_new).all():
            raise SolverError(f"gradient became non-finite at iteration {it}")

        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 0.0:
            if not scaled:
                H *= sy / float(yv @ yv)
                scaled = True
            Hy = H @ yv
            rho = 1.0 / sy
            H -= rho * (np.outer(s, Hy) + np.outer(Hy, s))
            H += (rho * rho * float(yv @ Hy) + rho) * np.outer(s, s)
        x, f, g = x_new, f_new, g_new

    return SolveReport(x=x, fun=f, iterations=it, status=status, message=message,
                       grad_norm=float(np.abs(g).max()) if p else 0.0)


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
