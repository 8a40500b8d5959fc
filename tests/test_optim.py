"""Solver behavior: damped Newton descent, slack-basis simplex, the quantile LP's start."""

import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.linalg.blas import dger

from smoothrq import (
    Dataset,
    SolverError,
    SynthConfig,
    TauGrid,
    classic_total,
    count_below,
    fit_grid,
    fit_rq_lp,
    fit_rrq,
    gen_hetero_normal,
    gen_pareto,
    hess_total,
    load_anscombe,
    load_swiss,
    loss_and_grad,
    loss_total,
)
from smoothrq import estimators, optim
from smoothrq.datagen import KIND_HETERO_NORMAL, KIND_PARETO
from smoothrq.optim import (
    CONVERGED,
    DEGENERATE_MULTIPLE,
    ITERATION_CAP,
    UNBOUNDED,
    LPProblem,
    SolveReport,
    minimize_qn,
    solve_lp_simplex,
)


def slack_form(rng, m, k):
    """[B | I] with positive B and a positive rhs: feasible at x = (0, b) and
    bounded, because every structural column is nonnegative with a positive
    entry in some row."""
    B = np.abs(rng.normal(size=(m, k))) + 0.05
    A = np.hstack([B, np.eye(m)])
    b = np.abs(rng.normal(size=m)) + 0.1
    return A, b


def numpy_rank1(T, fac, row):
    """T -= fac row': each product rounded, then subtracted, as solve_lp_simplex does."""
    T -= np.multiply.outer(fac, row)


def dger_rank1(T, fac, row):
    """T += -fac row' by BLAS dger, which may fuse each multiply-add."""
    dger(-1.0, fac, row, a=T, overwrite_a=1)


def dense_reference_simplex(problem, rank1=numpy_rank1):
    """The full-tableau simplex that the column-sparse pivots replaced.

    Every pivot scales the whole pivot row and runs the rank-1 update over
    the whole tableau, and the slack basis and the zero-reduced-cost columns
    are found one column at a time.
    """
    c = problem.c
    m, n = problem.A.shape
    T = np.empty((m, n + 1), order="F")
    T[:, :n] = problem.A
    T[:, n] = problem.b
    T[problem.b < 0] *= -1.0
    cost_scale = max(1.0, float(np.abs(c).max()) if n else 1.0)

    basis = np.full(m, -1, dtype=int)
    for j in range(n):
        col = T[:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 1 and col[nz[0]] == 1.0 and basis[nz[0]] < 0:
            basis[nz[0]] = j
    missing = np.nonzero(basis < 0)[0]
    if missing.size:
        raise ValueError(f"row {int(missing[0])} has no unit column; "
                         "solve_lp_simplex needs a slack basis")

    z = c - c[basis] @ T[:, :-1]
    enter_tol = 1e-9 * cost_scale
    fac = np.empty(m)
    row = np.empty(n + 1)
    ratios = np.empty(m)
    it = 0
    while it < 200 + 50 * (m + n):
        eligible = np.nonzero(z < -enter_tol)[0]
        if eligible.size == 0:
            break
        q = int(eligible[0])
        col = T[:, q]
        pos = col > 1e-10
        if not pos.any():
            return SolveReport(None, None, it, UNBOUNDED)
        ratios.fill(np.inf)
        ratios[pos] = T[pos, -1] / col[pos]
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))[0]
        r = int(ties[np.argmin(basis[ties])])
        T[r] /= T[r, q]
        fac[:] = T[:, q]
        fac[r] = 0.0
        row[:] = T[r]
        rank1(T, fac, row)
        z -= z[q] * row[:-1]
        z[q] = 0.0
        basis[r] = q
        rhs = T[:, -1]
        rhs[(rhs < 0.0) & (rhs > -1e-9)] = 0.0
        it += 1
    else:
        return SolveReport(None, None, it, ITERATION_CAP)

    x = np.zeros(n)
    x[basis] = T[:, -1]
    objective = float(c @ x)
    z_final = c - c[basis] @ T[:, :-1]
    nonbasic = np.setdiff1d(np.arange(n), basis)
    zero_rc = [int(j) for j in nonbasic if abs(z_final[j]) <= 1e-9 * cost_scale]
    return SolveReport(x=x, fun=objective, iterations=it, status=CONVERGED,
                       zero_rc_columns=np.array(zero_rc, dtype=int))


def beale_problem():
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    return LPProblem(c=c, A=A, b=[0.0, 0.0, 1.0])


def quantile_lp(data, tau, start=None):
    """The quantile LP for beta itself, or for the offset from start."""
    n, p = data.X.shape
    eye = np.eye(n)
    return LPProblem(c=np.concatenate([np.zeros(2 * p), np.full(n, tau), np.full(n, 1.0 - tau)]),
                     A=np.hstack([data.X, -data.X, eye, -eye]),
                     b=data.y if start is None else data.y - data.X @ start)


def offset_fit(data, tau, start=None):
    """fit_rq_lp with its LP posed as the offset from start, or for beta itself.

    The slack basis starts the simplex at start, or at beta = 0 when start
    is None; the vertex refinement and the status rule are fit_rq_lp's.
    """
    p = data.n_coef
    lp = solve_lp_simplex(quantile_lp(data, tau, start))
    if lp.x is None:
        raise SolverError(f"quantile LP failed at tau={tau}: {lp.status}")
    beta = lp.x[:p] - lp.x[p:2 * p]
    if start is not None:
        beta = start + beta
    beta = estimators._refine_vertex(data, beta, tau)
    zero_rc = set(lp.zero_rc_columns)
    genuine = any(j >= 2 * p for j in zero_rc) or any(
        k in zero_rc and k + p in zero_rc for k in range(p))
    if genuine and p == 1:
        beta = estimators._best_interval_endpoint(data, beta, tau)
    report = SolveReport(x=beta, fun=classic_total(data, beta, tau), iterations=lp.iterations,
                         status=DEGENERATE_MULTIPLE if genuine else CONVERGED)
    return estimators.QuantileFit(tau=tau, beta=beta, report=report)


def zero_start_fit(data, tau):
    """fit_rq_lp as it was before the least-squares start: from beta = 0."""
    return offset_fit(data, tau)


def least_squares_start_fit(data, tau):
    """fit_rq_lp as it was before the tau-shifted start: from the least-squares plane."""
    return offset_fit(data, tau, np.linalg.lstsq(data.X, data.y, rcond=None)[0])


def integer_grid_data(seed, n=30):
    """Small-integer predictors and responses, full of ties, some zeros as -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, size=n).astype(float)
    y = rng.integers(-2, 3, size=n).astype(float)
    y[(y == 0) & (rng.random(n) < 0.5)] = -0.0
    return Dataset.from_predictors(x[:, None], y, ["x"], "y")


def duplicate_row_data(seed, n=30):
    """Rows drawn with replacement from eight distinct points, one at y = -0.0."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=8), 2)
    y = np.round(x + rng.normal(size=8), 2)
    y[0] = -0.0
    pick = rng.integers(0, 8, size=n)
    return Dataset.from_predictors(x[pick, None], y[pick], ["x"], "y")


QUANTILE_DATA = [
    ("hetero-n50", lambda: gen_hetero_normal(SynthConfig(n=50, seed=41, kind=KIND_HETERO_NORMAL))),
    ("hetero-n400", lambda: gen_hetero_normal(SynthConfig(n=400, seed=42, kind=KIND_HETERO_NORMAL))),
    ("pareto-n200", lambda: gen_pareto(SynthConfig(n=200, seed=43, kind=KIND_PARETO))),
    ("swiss", load_swiss),
    ("anscombe", load_anscombe),
] + [(f"integer-grid-{k}", lambda k=k: integer_grid_data(k)) for k in range(8)] \
  + [(f"duplicate-rows-{k}", lambda k=k: duplicate_row_data(k)) for k in range(8)]


def assert_same_solve(problem):
    # solve_lp_simplex pivots in place on A, so each solver gets its own problem
    def own():
        return LPProblem(c=problem.c, A=problem.A.copy(order="F"), b=problem.b)

    mine, ref = solve_lp_simplex(own()), dense_reference_simplex(own())
    assert mine.status == ref.status
    assert mine.iterations == ref.iterations
    assert np.array_equal(mine.zero_rc_columns, ref.zero_rc_columns)
    assert mine.fun == ref.fun
    # equal values; only the sign of a zero may differ
    assert np.array_equal(mine.x, ref.x)
    return mine


def bfgs_reference(fun_and_grad, x0):
    """The BFGS loop with a weak-Wolfe line search that the Newton steps replaced.

    Each line search starts at a = 1 along -H g, doubles a until a trial
    fails the decrease test f(x + a d) <= f + 1e-4 a g'd + noise, then
    bisects, accepting the first trial that also meets g(x + a d)'d >=
    0.9 g'd; after 80 trials it settles for the last one that passed the
    decrease test.  The inverse Hessian is rescaled once and reset to the
    identity whenever it stops giving descent.
    """
    x = np.array(x0, dtype=float).ravel()
    f, g = fun_and_grad(x)
    f, g = float(f), np.asarray(g, dtype=float).ravel()
    p = x.shape[0]
    H = np.eye(p)
    scaled = False
    status = ITERATION_CAP
    it = 0
    for it in range(optim._QN_MAX_ITER + 1):
        if np.abs(g).max() <= optim._GRAD_TOL * max(1.0, float(np.abs(x).max())):
            status = CONVERGED
            break
        if it == optim._QN_MAX_ITER:
            break
        d = -(H @ g)
        gd = float(g @ d)
        if gd >= 0.0:
            H = np.eye(p)
            d = -g
            gd = -float(g @ g)
        noise = optim._F_NOISE * (1.0 + abs(f))
        lo, hi, alpha = 0.0, np.inf, 1.0
        step = None
        for _ in range(80):
            x_t = x + alpha * d
            f_t, g_t = fun_and_grad(x_t)
            f_t = float(f_t)
            if not f_t <= f + 1e-4 * alpha * gd + noise:
                hi = alpha
            else:
                g_t = np.asarray(g_t, dtype=float).ravel()
                step = (x_t, f_t, g_t)
                if float(g_t @ d) >= 0.9 * gd:
                    break
                lo = alpha
            alpha = 2.0 * alpha if hi == np.inf else 0.5 * (lo + hi)
        if step is None:
            raise SolverError(f"line search stalled at iteration {it}")
        x_new, f_new, g_new = step
        s, yv = x_new - x, g_new - g
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
    return SolveReport(x=x, fun=f, iterations=it, status=status,
                       grad_norm=float(np.abs(g).max()))


def newton(fun_and_grad, hess, x0, scale=None):
    x0 = np.asarray(x0, dtype=float)
    return minimize_qn(fun_and_grad, hess, x0, np.ones(x0.size) if scale is None else scale)


def constant_hessian(H):
    H = np.atleast_2d(np.asarray(H, dtype=float))
    return lambda x: H


class TestMinimizeQN:
    def test_scalar_quadratic(self):
        rep = newton(lambda x: (float((x[0] - 3) ** 2), np.array([2 * (x[0] - 3)])),
                     constant_hessian(2.0), [0.0])
        assert rep.status == CONVERGED
        assert rep.x[0] == pytest.approx(3.0, abs=1e-8)

    def test_logcosh_shifted(self):
        def fg(x):
            z = 10.0 * (x[0] - 2.0)
            return float(np.log(np.cosh(z)) / 20.0), np.array([np.tanh(z) / 2.0])

        rep = newton(fg, lambda x: np.array([[5.0 / np.cosh(10.0 * (x[0] - 2.0)) ** 2]]), [0.0])
        assert rep.status == CONVERGED
        assert rep.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_separable_quadratic(self):
        def fg(x):
            f = (x[0] - 1) ** 2 + 10 * (x[1] + 2) ** 2
            return float(f), np.array([2 * (x[0] - 1), 20 * (x[1] + 2)])

        rep = newton(fg, constant_hessian(np.diag([2.0, 20.0])), [0.0, 0.0])
        assert rep.status == CONVERGED
        assert rep.x == pytest.approx([1.0, -2.0], abs=1e-7)

    def test_scaling_makes_a_badly_scaled_quadratic_easy(self):
        # columns 1e4 apart: scaled by D, the damped system is the identity's
        A = np.diag([1e4, 1.0])
        b = np.array([1.0, 2.0])

        def fg(x):
            r = A @ x - b
            return float(r @ r), 2 * (A.T @ r)

        rep = newton(fg, constant_hessian(2 * A.T @ A), [0.0, 0.0], scale=[1e4, 1.0])
        assert rep.status == CONVERGED
        assert rep.x == pytest.approx([1e-4, 2.0], rel=1e-9)
        assert rep.iterations <= 12

    def test_nonfinite_start_raises(self):
        with pytest.raises(SolverError, match="non-finite at iteration 0"):
            newton(lambda x: (np.inf, np.array([1.0])), constant_hessian(1.0), [0.0])

    def test_nonfinite_hessian_raises(self):
        with pytest.raises(SolverError, match="Hessian non-finite at iteration 0"):
            newton(lambda x: (1.0, np.array([1.0])), constant_hessian(np.nan), [0.0])

    def test_iteration_cap_status(self, monkeypatch):
        def fg(x):
            return float((x[0] - 3) ** 4), np.array([4 * (x[0] - 3) ** 3])

        monkeypatch.setattr(optim, "_QN_MAX_ITER", 1)
        rep = newton(fg, lambda x: np.array([[12 * (x[0] - 3) ** 2]]), [0.0])
        assert rep.status == "iteration-cap"
        assert rep.iterations == 1
        assert rep.grad_norm > optim._GRAD_TOL

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(8, 3))
        b = rng.normal(size=8)

        def fg(x):
            r = A @ x - b
            return float(r @ r), 2 * (A.T @ r)

        r1 = newton(fg, constant_hessian(2 * A.T @ A), np.zeros(3))
        r2 = newton(fg, constant_hessian(2 * A.T @ A), np.zeros(3))
        assert r1.status == CONVERGED
        assert r1.x.tobytes() == r2.x.tobytes()
        assert r1.fun == r2.fun
        assert r1.iterations == r2.iterations

    def test_flat_tail_traversal(self):
        # exactly linear until |x| nears the minimum at 1e4, with zero
        # curvature there: fixed-size steps would need ~1e4 iterations, but
        # every step the linear model predicts exactly divides mu by 4
        def fg(x):
            z = x[0] - 1e4
            f = abs(z) if abs(z) > 1.0 else 0.5 * (z * z + 1.0)
            g = np.sign(z) if abs(z) > 1.0 else z
            return float(f), np.array([g])

        rep = newton(fg, lambda x: np.array([[float(abs(x[0] - 1e4) <= 1.0)]]), [0.0])
        assert rep.status == CONVERGED
        assert rep.x[0] == pytest.approx(1e4, rel=1e-6)
        assert rep.iterations < 100

    def test_infinite_trials_raise_mu_until_a_step_lands(self):
        # finite only for |x| < 3.5, minimum at 3: the first step divides mu
        # by 4, so the second trial leaves the region; that rejection
        # multiplies mu by 4, and the shorter step lands inside
        trials = []

        def fg(x):
            trials.append(float(x[0]))
            if abs(x[0]) >= 3.5:
                return np.inf, np.array([np.nan])
            return float(np.log(np.cosh(x[0] - 3.0))), np.array([np.tanh(x[0] - 3.0)])

        rep = newton(fg, lambda x: np.array([[1.0 / np.cosh(x[0] - 3.0) ** 2]]), [0.0])
        assert rep.status == CONVERGED
        assert rep.x[0] == pytest.approx(3.0, abs=1e-8)
        # trials[0] is the start
        assert [k for k, t in enumerate(trials) if abs(t) >= 3.5] == [2]
        assert trials[1] < trials[3] < 3.5 and trials[3] - trials[1] < trials[2] - trials[1]

    def test_uphill_gradient_never_climbs(self):
        # the reported gradient has the wrong sign, so f rises along every
        # step; rejections grow mu until the steps fall inside f's float
        # noise, and f never rises by more than that noise
        rep = newton(lambda x: (1e12 * float(x[0]), np.array([-1e12])),
                     constant_hessian(0.0), [0.0])
        assert rep.status == ITERATION_CAP
        assert rep.iterations == 500
        assert 0.0 <= rep.fun < 1e-12

    def test_nan_away_from_the_start_is_never_accepted(self):
        def fg(x):
            if x[0] == 0.0:
                return 9.0, np.array([-6.0])
            return np.nan, np.array([np.nan])

        rep = newton(fg, constant_hessian(2.0), [0.0])
        assert rep.status == ITERATION_CAP
        assert rep.x.tolist() == [0.0]
        assert rep.fun == 9.0

    def test_nan_gradient_at_an_accepted_step_raises(self):
        def fg(x):
            g = 2.0 * (x[0] - 3.0) if x[0] == 0.0 else np.nan
            return float((x[0] - 3.0) ** 2), np.array([g])

        with pytest.raises(SolverError, match="gradient non-finite at iteration 1"):
            newton(fg, constant_hessian(2.0), [0.0])

    def test_decrement_certifies_a_distant_minimum(self):
        # f = 1e-12 (x - 3e6)^2: once |x| passes about 600, the gradient test
        # 1e-8 * |x| accepts any point while f is still near 9; the decrement
        # g^2 / (2 H) is f - min f itself, so the run goes on to the minimum
        def fg(x):
            z = x[0] - 3e6
            return 1e-12 * z * z, np.array([2e-12 * z])

        rep = newton(fg, constant_hessian(2e-12), [0.0])
        assert rep.status == CONVERGED
        assert rep.x[0] == pytest.approx(3e6, abs=1.0)
        assert rep.fun <= 1e-12
        assert rep.decrement == pytest.approx(0.5 * rep.grad_norm ** 2 / 2e-12, rel=1e-12)

    def test_saddle_point_is_never_converged(self):
        # the gradient vanishes at the start, but H is indefinite there
        rep = newton(lambda x: (float(x[0] ** 2 - x[1] ** 2), np.array([2 * x[0], -2 * x[1]])),
                     constant_hessian(np.diag([2.0, -2.0])), [0.0, 0.0])
        assert rep.status == ITERATION_CAP
        assert rep.x.tolist() == [0.0, 0.0]
        assert rep.grad_norm == 0.0
        assert rep.decrement == np.inf

    def test_singular_damped_system_is_a_rejected_trial(self):
        # a stationary point with H = diag(-1, 1): at mu = 1, H + mu I is
        # singular and a / (lam + mu) would divide 0 by 0.  That trial is
        # rejected unevaluated, so only the mu = 4 trials call the objective
        calls = []

        def fg(x):
            calls.append(None)
            return 0.5 * float(x[1] ** 2 - x[0] ** 2), np.array([-x[0], x[1]])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = newton(fg, constant_hessian(np.diag([-1.0, 1.0])), [0.0, 0.0])
        assert rep.status == ITERATION_CAP
        assert rep.x.tolist() == [0.0, 0.0]
        assert len(calls) == 1 + optim._QN_MAX_ITER // 2

    def test_decrement_past_the_float_range_reads_inf(self, monkeypatch):
        # at x = 0 the gradient test holds, and H = 1e-320 is positive but so
        # small that g^2 / H = 1e-20 / 1e-320 lies past the float range
        monkeypatch.setattr(optim, "_QN_MAX_ITER", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = newton(lambda x: (1e-10 * float(x[0]), np.array([1e-10])),
                         constant_hessian(1e-320), [0.0])
        assert rep.status == ITERATION_CAP
        assert rep.decrement == np.inf

    def test_steps_through_an_objective_rounded_past_the_noise_allowance(self):
        # srq at tau = 0.05 on Pareto data, from fit_smooth's start: f = 0.0876
        # sums 400 cancelling terms near 10, so it rounds by about 2.7e-15,
        # above the allowance 1e-15 (1 + |f|).  Had every step the model
        # predicts within the allowance needed f not to rise beyond it, the
        # run would reject them all from iteration 7 to the cap, with
        # ||grad||_inf stuck at 6.6e-7; a step that lowers ||grad||_inf lands
        data = gen_pareto(SynthConfig(400, 20660822, kind=KIND_PARETO))
        rep = minimize_qn(lambda b: loss_and_grad(data, b, 0.05), lambda b: hess_total(data, b),
                          estimators._fit_start(data, 0.05)[0],
                          np.sqrt((data.X * data.X).sum(axis=0)))
        assert rep.status == CONVERGED
        assert rep.iterations <= 20


SMOOTH_GRIDS = [
    ("swiss", load_swiss),
    ("anscombe", load_anscombe),
    ("hetero-n400", lambda: gen_hetero_normal(SynthConfig(n=400, seed=20660819))),
    ("pareto-n400", lambda: gen_pareto(SynthConfig(400, 20460819, kind=KIND_PARETO))),
]


class TestMatchesBfgsReference:
    """The Newton fits against the BFGS loop they replaced, at 99 levels."""

    @pytest.mark.parametrize("method", ["srq", "smrq"])
    @pytest.mark.parametrize("name,make", SMOOTH_GRIDS, ids=[n for n, _ in SMOOTH_GRIDS])
    def test_grid(self, name, make, method, monkeypatch):
        data, grid = make(), TauGrid.from_count(99)
        mine = fit_grid(data, grid, method)
        monkeypatch.setattr(estimators, "minimize_qn",
                            lambda fun_and_grad, hess, x0, scale: bfgs_reference(fun_and_grad, x0))
        ref = fit_grid(data, grid, method)
        assert mine.statuses == ref.statuses == [CONVERGED] * 99
        assert np.array_equal(mine.curve.counts, ref.curve.counts)
        params = estimators.SMOOTH_PRESETS[method]
        for tau, b, b_ref in zip(grid, mine.coefficients, ref.coefficients):
            assert np.abs(b - b_ref).max() <= 1e-6 * max(1.0, np.abs(b_ref).max())
            # rounding bound of the summed loss: n eps times the size of its
            # parts, each at most |r| + log(2) / (2c) + |v|
            parts = np.abs(data.residuals(b_ref)) + np.log(2.0) / (2.0 * params.c) + abs(params.v)
            noise = data.n_obs * np.finfo(float).eps * parts.sum()
            assert loss_total(data, b, tau, params) <= loss_total(data, b_ref, tau, params) + noise


class TestSimplex:
    def test_tiny_lp(self):
        rep = solve_lp_simplex(LPProblem(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[1.0]))
        assert rep.status == CONVERGED
        assert rep.x == pytest.approx([1.0, 0.0], abs=1e-12)
        assert rep.fun == pytest.approx(-1.0, abs=1e-12)

    def test_row_without_unit_column_rejected(self):
        # row 0 owns column 0; row 1 has only a 2 and a shared column
        problem = LPProblem(c=[1.0, 1.0, 1.0], A=[[1.0, 0.0, 1.0], [0.0, 2.0, 1.0]],
                            b=[1.0, 2.0])
        with pytest.raises(ValueError, match="row 1 has no unit column"):
            solve_lp_simplex(problem)

    def test_infeasible(self):
        # infeasible systems have no slack start, so they are refused before
        # any pivot instead of being reported with a status
        with pytest.raises(ValueError, match="row 0 has no unit column"):
            solve_lp_simplex(LPProblem(c=[1.0], A=[[1.0], [1.0]], b=[1.0, 2.0]))
        # a row negated for its negative rhs loses its unit column
        with pytest.raises(ValueError, match="row 0 has no unit column"):
            solve_lp_simplex(LPProblem(c=[1.0], A=[[1.0]], b=[-1.0]))

    def test_redundant_row(self):
        # second row is twice the first: neither row owns a unit column
        with pytest.raises(ValueError, match="row 0 has no unit column"):
            solve_lp_simplex(LPProblem(c=[0.0, 1.0],
                                       A=[[1.0, 1.0], [2.0, 2.0]],
                                       b=[1.0, 2.0]))

    def test_unbounded(self):
        rep = solve_lp_simplex(LPProblem(c=[-1.0, 0.0], A=[[0.0, 1.0]], b=[1.0]))
        assert rep.status == UNBOUNDED
        assert rep.x is None

    def test_alternative_optima_reported_not_labelled(self):
        # min x1 + x2 over the simplex: every feasible point is optimal.  The
        # solver reports the tied column; only fit_rq_lp labels an optimum
        rep = solve_lp_simplex(LPProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0]))
        assert rep.status == CONVERGED
        assert rep.fun == pytest.approx(1.0, abs=1e-12)
        assert rep.zero_rc_columns.tolist() == [1]

    def test_unique_optimum_not_flagged(self):
        rep = solve_lp_simplex(LPProblem(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0]))
        assert rep.status == CONVERGED
        assert rep.x == pytest.approx([1.0, 0.0], abs=1e-12)
        assert rep.zero_rc_columns.size == 0

    def test_negative_rhs_handled(self):
        # row sign normalization: -x1 = -3 means x1 = 3
        rep = solve_lp_simplex(LPProblem(c=[1.0, 1.0], A=[[-1.0, 0.0], [0.0, 1.0]],
                                         b=[-3.0, 2.0]))
        assert rep.status == CONVERGED
        assert rep.x == pytest.approx([3.0, 2.0], abs=1e-12)

    def test_negated_rows_are_not_copied(self):
        # [B | I | -I] with half the rhs negative: negating those rows in place
        # keeps the peak near the tableau; gathering them would add half of it
        rng = np.random.default_rng(29)
        m, k = 1000, 6
        A = np.hstack([rng.normal(size=(m, k)), np.eye(m), -np.eye(m)])
        b = rng.normal(size=m)
        problem = LPProblem(c=np.concatenate([rng.normal(size=k), np.ones(2 * m)]), A=A, b=b)
        del A
        tableau = 8 * m * (k + 2 * m + 1)
        tracemalloc.start()
        try:
            rep = solve_lp_simplex(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (b < 0).sum() > m // 3
        assert rep.status == CONVERGED and rep.iterations > 0
        assert peak < 1.25 * tableau, (peak, tableau)

    def test_beale_cycling_instance(self):
        # classic Dantzig-pivot cycling example; Bland's rule must terminate
        rep = solve_lp_simplex(beale_problem())
        assert rep.status == CONVERGED
        assert rep.fun == pytest.approx(-0.05, abs=1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(17)
        A, b = slack_form(rng, 4, 9)
        c = rng.normal(size=13)
        r1 = solve_lp_simplex(LPProblem(c=c, A=A, b=b))
        r2 = solve_lp_simplex(LPProblem(c=c, A=A, b=b))
        assert r1.status == CONVERGED
        assert r1.iterations > 0
        assert r1.status == r2.status
        assert r1.x.tobytes() == r2.x.tobytes()
        assert r1.fun == r2.fun
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.zero_rc_columns, r2.zero_rc_columns)

    def test_random_lps_against_vertex_enumeration(self):
        # brute-force all basic feasible solutions and compare objectives
        from itertools import combinations

        rng = np.random.default_rng(23)
        pivoted = 0
        for _ in range(40):
            m, n = 3, 7
            A, b = slack_form(rng, m, n - m)
            # mixed-sign costs, so most instances pivot away from the slack start
            c = rng.normal(size=n)
            best = None
            for cols in combinations(range(n), m):
                B = A[:, cols]
                if abs(np.linalg.det(B)) < 1e-9:
                    continue
                xb = np.linalg.solve(B, b)
                if (xb < -1e-9).any():
                    continue
                x = np.zeros(n)
                x[list(cols)] = xb
                val = float(c @ x)
                if best is None or val < best:
                    best = val
            rep = solve_lp_simplex(LPProblem(c=c, A=A, b=b))
            assert rep.status == CONVERGED
            assert rep.fun == pytest.approx(best, abs=1e-7 * (1 + abs(best)))
            pivoted += rep.iterations > 0
        assert pivoted >= 30

    @pytest.mark.parametrize("A, b, x", [
        # a row with two unit columns takes the lower index
        ([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [2.0, 3.0], [2.0, 0.0, 3.0]),
        # a single nonzero entry of 2 does not make a unit column
        ([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [2.0, 3.0], [0.0, 3.0, 2.0]),
        # negating row 0 for its rhs moves its unit column from 0 to 1
        ([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]], [-2.0, 3.0], [0.0, 2.0, 3.0]),
        # column 2 is a unit column of row 0, which column 1 already owns;
        # row 1 still gets column 0
        ([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]], [2.0, 3.0], [3.0, 2.0, 0.0]),
    ], ids=["two-units-in-a-row", "entry-two", "negated-row", "owned-row-skipped"])
    def test_slack_basis_choice(self, A, b, x):
        # zero costs: no pivot, so x is the starting basis
        rep = assert_same_solve(LPProblem(c=np.zeros(3), A=A, b=b))
        assert rep.iterations == 0
        assert rep.x.tolist() == x

    def test_no_rows(self):
        rep = assert_same_solve(LPProblem(c=[1.0, 2.0], A=np.zeros((0, 2)), b=np.zeros(0)))
        assert rep.status == CONVERGED
        assert rep.x.tolist() == [0.0, 0.0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LPProblem(c=[1.0], A=[[1.0, 2.0]], b=[1.0])
        with pytest.raises(ValueError):
            LPProblem(c=[1.0, 2.0], A=[[1.0, 2.0]], b=[1.0, 2.0])
        with pytest.raises(ValueError):
            LPProblem(c=[np.nan, 1.0], A=[[1.0, 2.0]], b=[1.0])


class TestMatchesDenseReference:
    """Column-sparse pivots take the full-tableau simplex's path, bit for bit."""

    @pytest.mark.parametrize("make", [m for _, m in QUANTILE_DATA],
                             ids=[n for n, _ in QUANTILE_DATA])
    def test_quantile_lps(self, make, monkeypatch):
        data = make()
        taus = (0.1, 0.37, 0.5, 0.9)
        for tau in taus:
            assert_same_solve(quantile_lp(data, tau))
        fits = [fit_rq_lp(data, tau) for tau in taus]
        monkeypatch.setattr(estimators, "solve_lp_simplex", dense_reference_simplex)
        for tau, fit in zip(taus, fits):
            ref = fit_rq_lp(data, tau)
            assert [f"{v:.17g}" for v in fit.beta] == [f"{v:.17g}" for v in ref.beta], tau
            assert fit.report.status == ref.report.status

    def test_slack_form_lps(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            A, b = slack_form(rng, 3, 4)
            assert_same_solve(LPProblem(c=rng.normal(size=7), A=A, b=b))
        for m, k in ((8, 20), (30, 60)):
            A, b = slack_form(rng, m, k)
            assert_same_solve(LPProblem(c=rng.normal(size=m + k), A=A, b=b))

    def test_beale_cycling_instance(self):
        assert_same_solve(beale_problem())


class TestMatchesDgerArithmetic:
    """The numpy rank-1 update gives every plane the BLAS dger update gave.

    dger may fuse each multiply-add where numpy rounds the product first, so
    the two tableaus can differ in their last bits.  fit_rq_lp solves each
    plane again from the rows it interpolates, so coefficients, statuses and
    pivot counts must not differ.
    """

    @pytest.mark.parametrize("make", [m for _, m in QUANTILE_DATA[:5]],
                             ids=[n for n, _ in QUANTILE_DATA[:5]])
    def test_rq_grid(self, make, monkeypatch):
        data = make()
        grid = TauGrid.from_count(99)
        fits = [fit_rq_lp(data, tau) for tau in grid]
        monkeypatch.setattr(estimators, "solve_lp_simplex",
                            partial(dense_reference_simplex, rank1=dger_rank1))
        for tau, fit in zip(grid, fits):
            ref = fit_rq_lp(data, tau)
            assert text(fit.beta) == text(ref.beta), tau
            assert fit.report.status == ref.report.status, tau
            assert fit.report.iterations == ref.report.iterations, tau

    def test_rrq_family_n1000(self, monkeypatch):
        data = gen_hetero_normal(SynthConfig(n=1000, seed=33, kind=KIND_HETERO_NORMAL))
        grid = TauGrid.from_count(499)
        model = fit_rrq(data, grid)
        monkeypatch.setattr(estimators, "solve_lp_simplex",
                            partial(dense_reference_simplex, rank1=dger_rank1))
        ref = fit_rrq(data, grid)
        assert [text(b) for b in model.planes()] == [text(b) for b in ref.planes()]
        assert model.status == ref.status
        assert model.med_report.iterations == ref.med_report.iterations
        assert model.scale_report.iterations == ref.scale_report.iterations


def collinear_data(n, slope, icept):
    x = np.linspace(0.0, 5.0, n)
    return Dataset.from_predictors(x[:, None], slope * x + icept, ["x"], "y")


def intercept_only_data(seed, n=25):
    """Small integers with many repeats, so most levels sit on a tie."""
    y = np.random.default_rng(seed).integers(0, 6, size=n).astype(float)
    return Dataset(X=np.ones((n, 1)), y=y, column_names=["intercept"], response_name="y")


def rounded_t2_data(seed, n=40):
    """Two predictors and heavy-tailed t2 noise, all rounded to one decimal."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(0.0, 10.0, size=(n, 2)), 1)
    y = np.round(1.0 + x @ [0.5, -0.3] + rng.standard_t(2, size=n), 1)
    return Dataset.from_predictors(x, y, ["x1", "x2"], "y")


def duplicate_column_data(seed, n=40):
    """rounded_t2_data with its first predictor repeated: a rank-deficient X."""
    data = rounded_t2_data(seed, n)
    x = data.X[:, :2]
    return Dataset.from_predictors(x[:, [0, 0, 1]], data.y, ["x1", "x1b", "x2"], "y")


TIE_DATA = [(f"integer-grid-{k}", lambda k=k: integer_grid_data(k)) for k in range(6)] \
  + [(f"duplicate-rows-{k}", lambda k=k: duplicate_row_data(k)) for k in range(6)] \
  + [(f"collinear-n{n}", lambda n=n, a=a, c=c: collinear_data(n, a, c))
     for n, a, c in ((10, 2.0, 1.0), (25, -0.7, 3.0), (40, 0.0, -1.0))] \
  + [(f"intercept-only-{k}", lambda k=k: intercept_only_data(k)) for k in range(4)] \
  + [(f"rounded-t2-{k}", lambda k=k: rounded_t2_data(k)) for k in range(4)] \
  + [(f"duplicate-column-{k}", lambda k=k: duplicate_column_data(k)) for k in range(2)]

# 99 levels each, except 19 at n=1000, where the zero start takes 18 s for 99
ZERO_START_DATA = [(name, make, 99) for name, make in QUANTILE_DATA[:5]] + [
    ("hetero-n1000",
     lambda: gen_hetero_normal(SynthConfig(n=1000, seed=44, kind=KIND_HETERO_NORMAL)), 19),
]


@pytest.fixture(scope="class")
def rrq_n1000():
    """fit_rrq at n=1000 over 499 levels, and the same family fitted from zero."""
    data = gen_hetero_normal(SynthConfig(n=1000, seed=33, kind=KIND_HETERO_NORMAL))
    grid = TauGrid.from_count(499)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "fit_rq_lp", zero_start_fit)
        ref = fit_rrq(data, grid)
    return fit_rrq(data, grid), ref


def text(beta):
    return [f"{v:.17g}" for v in beta]


class TestLeastSquaresStart:
    """fit_rq_lp solves for the offset from a plane fitted to the data.

    zero_start_fit solves the same LP from beta = 0; both must reach the
    same planes, while the start saves most of the pivots.
    """

    @pytest.mark.parametrize("make, levels", [(m, k) for _, m, k in ZERO_START_DATA],
                             ids=[n for n, _, _ in ZERO_START_DATA])
    def test_planes_match_zero_start(self, make, levels):
        # where the optimum is not unique, the two starts may stop at
        # different optimal vertices, of equal objective and equal count
        data = make()
        for tau in TauGrid.from_count(levels):
            fit, ref = fit_rq_lp(data, tau), zero_start_fit(data, tau)
            assert fit.report.status == ref.report.status, tau
            if fit.report.status == DEGENERATE_MULTIPLE:
                assert abs(fit.report.fun - ref.report.fun) <= 1e-12 * abs(ref.report.fun), tau
                assert count_below(data, fit.beta) == count_below(data, ref.beta), tau
            else:
                assert text(fit.beta) == text(ref.beta), tau

    def test_rrq_family_matches_zero_start(self, rrq_n1000):
        model, ref = rrq_n1000
        assert text(model.beta_med) == text(ref.beta_med)
        assert text(model.gamma) == text(ref.gamma)
        assert [text(b) for b in model.planes()] == [text(b) for b in ref.planes()]
        assert model.status == ref.status

    def test_median_and_scale_pivots_fall_tenfold(self, rrq_n1000):
        # a start that silently fell back to zero would keep the same planes
        # and only show here
        model, ref = rrq_n1000
        mine = model.med_report.iterations + model.scale_report.iterations
        theirs = ref.med_report.iterations + ref.scale_report.iterations
        assert 10 * mine <= theirs, (mine, theirs)

    @pytest.mark.parametrize("make", [m for _, m in TIE_DATA], ids=[n for n, _ in TIE_DATA])
    def test_tie_heavy_objectives(self, make):
        """No fit ends above the zero-start fit or off HiGHS's optimum.

        On ties, and along the null direction of a rank-deficient X, the two
        starts may stop at different optimal vertices, so objectives are
        compared, not coefficients.
        """
        from scipy.optimize import linprog

        data = make()
        p = data.n_coef
        for tau in TauGrid.from_count(19):
            fit, ref = fit_rq_lp(data, tau), zero_start_fit(data, tau)
            assert fit.report.fun <= ref.report.fun * (1.0 + 1e-12) + 1e-12, tau
            lp = quantile_lp(data, tau)
            res = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
            assert res.status == 0, res.message
            best = classic_total(data, res.x[:p] - res.x[p:2 * p], tau)
            assert abs(fit.report.fun - best) <= 1e-9 * max(1.0, abs(best)), tau


SHIFTED_START_DATA = [
    ("swiss", load_swiss),
    ("anscombe", load_anscombe),
    ("hetero-n400", lambda: gen_hetero_normal(SynthConfig(n=400, seed=20660819))),
    ("pareto-n400", lambda: gen_pareto(SynthConfig(400, 20460819, kind=KIND_PARETO))),
]


class TestShiftedStart:
    """fit_rq_lp starts at the least-squares plane shifted to the tau-th residual.

    least_squares_start_fit solves the same LP from the unshifted plane, the
    start the shift replaced.  Both reach the same optima; the shifted start
    needs far fewer pivots away from the median.
    """

    @pytest.mark.parametrize("make", [m for _, m in SHIFTED_START_DATA],
                             ids=[n for n, _ in SHIFTED_START_DATA])
    def test_matches_least_squares_start(self, make):
        data = make()
        grid = TauGrid.from_count(99)
        fits = [fit_rq_lp(data, tau) for tau in grid]
        refs = [least_squares_start_fit(data, tau) for tau in grid]
        for tau, fit, ref in zip(grid, fits, refs):
            assert abs(fit.report.fun - ref.report.fun) <= 1e-12 * abs(ref.report.fun), tau
            assert fit.report.status == ref.report.status, tau
            if fit.report.status != DEGENERATE_MULTIPLE:
                assert text(fit.beta) == text(ref.beta), tau
        planes = np.array([f.beta for f in fits])
        ref_planes = np.array([f.beta for f in refs])
        assert np.array_equal(count_below(data, planes), count_below(data, ref_planes))
        pivots = sum(f.report.iterations for f in fits)
        ref_pivots = sum(f.report.iterations for f in refs)
        assert 2 * pivots <= ref_pivots, (pivots, ref_pivots)
