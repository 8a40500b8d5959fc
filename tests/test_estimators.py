"""Estimator behavior: smooth fits, LP fits, restricted fits, grid driver."""

import tracemalloc
import warnings

import numpy as np
import pytest

from smoothrq import (
    Dataset,
    FlexCheckParams,
    SolverError,
    SynthConfig,
    TauGrid,
    check_classic,
    classic_total,
    fit_grid,
    fit_rq_lp,
    fit_rrq,
    fit_smooth,
    gen_hetero_normal,
    load_anscombe,
    load_swiss,
    loss_and_grad,
    loss_total,
)
from smoothrq import estimators, optim
from smoothrq.datagen import KIND_HETERO_NORMAL, KIND_PARETO, gen_pareto
from smoothrq.estimators import FIT_GRAD_RTOL, SMOOTH_PRESETS
from smoothrq.losses import _pinball
from smoothrq.optim import CONVERGED, DEGENERATE_MULTIPLE, ITERATION_CAP, SolveReport

# root of sum tanh(10 (y_i - b)) = 0 for y = [1, 2, 4], from a bisection
# oracle run at 50-digit precision
MEDIAN_ROOT_124 = 2.00000000041223071939


def intercept_only(values):
    y = np.asarray(values, dtype=float)
    return Dataset(X=np.ones((y.size, 1)), y=y,
                   column_names=["intercept"], response_name="y")


def line_dataset(x, y):
    return Dataset.from_predictors(np.asarray(x, float)[:, None],
                                   np.asarray(y, float), ["x"], "y")


def negative_scale_data():
    # spread decreasing in the regressor drives the scale line negative
    raw = gen_hetero_normal(SynthConfig(n=25, seed=9, kind=KIND_HETERO_NORMAL))
    return line_dataset(10.0 - raw.X[:, 0], raw.y)


class TestTauGrid:
    def test_percent_grid(self):
        grid = TauGrid.from_step(0.0, 1.0, 0.01)
        assert len(grid) == 99
        assert grid.values[0] == pytest.approx(0.01, abs=1e-12)
        assert grid.values[-1] == pytest.approx(0.99, abs=1e-12)
        assert np.allclose(grid.values, np.arange(1, 100) / 100.0, atol=1e-12)

    def test_quarter_grid(self):
        grid = TauGrid.from_step(0.25, 0.75, 0.25)
        assert grid.values.tolist() == [0.25, 0.5, 0.75]

    def test_from_count_matches_percent_grid(self):
        assert np.array_equal(TauGrid.from_count(99).values,
                              TauGrid.from_step(0.0, 1.0, 0.01).values)

    def test_boundary_points_dropped(self):
        assert TauGrid.from_step(0.0, 1.0, 0.5).values.tolist() == [0.5]

    def test_no_interior_points(self):
        with pytest.raises(ValueError, match="no interior points"):
            TauGrid.from_step(0.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            TauGrid(np.array([]))
        with pytest.raises(ValueError, match="strictly inside"):
            TauGrid(np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="strictly increasing"):
            TauGrid(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="step"):
            TauGrid.from_step(0.1, 0.9, 0.0)
        with pytest.raises(ValueError, match="start < end"):
            TauGrid.from_step(0.9, 0.1, 0.1)
        with pytest.raises(ValueError):
            TauGrid.from_count(0)

    def test_size_limit_refused_before_allocating(self):
        # the parent asked np.arange for 1e9 levels (8 GB) on the first two
        # and raised OverflowError on the infinite end
        cases = [(TauGrid.from_count, (10 ** 9,), "between 1 and 100000"),
                 (TauGrid.from_count, (estimators._MAX_LEVELS + 1,), "between 1 and"),
                 (TauGrid.from_step, (0.0, 1.0, 1e-9), "more than 100000 levels"),
                 (TauGrid.from_step, (0.0, 1e308, 1e-308), "more than 100000 levels"),
                 (TauGrid.from_step, (0.0, np.inf, 0.1), "not finite"),
                 (TauGrid.from_step, (np.nan, 1.0, 0.1), "not finite"),
                 (TauGrid.from_step, (0.0, 1.0, np.inf), "not finite")]
        tracemalloc.start()
        try:
            for build, args, message in cases:
                with pytest.raises(ValueError, match=message):
                    build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert len(TauGrid.from_count(estimators._MAX_LEVELS)) == estimators._MAX_LEVELS

    def test_coerce(self):
        grid = TauGrid(np.array([0.5]))
        assert TauGrid.coerce(grid) is grid
        assert TauGrid.coerce([0.25, 0.75]).values.tolist() == [0.25, 0.75]


class TestFitSmooth:
    def test_intercept_only_median(self):
        fit = fit_smooth(intercept_only([1.0, 2.0, 4.0]), 0.5)
        assert fit.report.status == CONVERGED
        assert fit.beta[0] == pytest.approx(2.0, abs=1e-3)
        # the gradient tolerance and the curvature at the root bound the
        # distance to the high-precision stationary point much tighter
        assert fit.beta[0] == pytest.approx(MEDIAN_ROOT_124, abs=5e-7)

    def test_exact_line_stationarity(self):
        """Data on y = 2x + 1 pins the slope; the intercept shifts by law.

        With every point on one line the stationarity condition forces a
        common residual delta with tanh(c*delta) = 1 - 2*tau, so the fitted
        intercept is 1 - delta = 1 + atanh(2*tau - 1)/c and the slope stays
        exactly 2.
        """
        x = np.linspace(0.0, 5.0, 9)
        data = line_dataset(x, 2.0 * x + 1.0)
        for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
            fit = fit_smooth(data, tau)
            assert fit.beta[0] == pytest.approx(2.0, abs=1e-6)
            expected = 1.0 + np.arctanh(2.0 * tau - 1.0) / 10.0
            assert fit.beta[1] == pytest.approx(expected, abs=1e-6)

    def test_gradient_invariant(self):
        cfg = SynthConfig(n=40, seed=3, kind=KIND_HETERO_NORMAL)
        data = gen_hetero_normal(cfg)
        for tau in (0.05, 0.5, 0.95):
            fit = fit_smooth(data, tau)
            _, g = loss_and_grad(data, fit.beta, tau)
            tol = 1e-6 * max(1.0, float(np.abs(fit.beta).max()))
            assert float(np.abs(g).max()) <= tol

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            fit_smooth(intercept_only([1.0, 2.0, 4.0]), 0.0)

    def test_overflowing_trial_step_is_a_solver_error(self, monkeypatch):
        # x near 1e200 and y near +-1e300: a first step along -g (the old
        # BFGS trial) predicts past the float range, and steps damped by
        # column norms move the fit by about 1e-2 each, so they would run to
        # the iteration cap.  Both need X'X, which overflows: the fit refuses
        # the data before it evaluates the objective
        calls = []
        monkeypatch.setattr(estimators, "loss_and_grad",
                            lambda *args: calls.append(None) or loss_and_grad(*args))
        k = np.arange(8)
        data = line_dataset((1.0 + 0.1 * k) * 1e200, (-1.0) ** k * (1.0 + 0.05 * k) * 1e300)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(SolverError, match=r"^smooth fit failed at tau=0\.5: "
                                                  r"X'X overflows the float range$"):
                fit_smooth(data, 0.5)
        assert calls == []

    @pytest.mark.parametrize("ratio", [0.99, 1.01])
    def test_unconverged_solver_always_raises(self, monkeypatch, ratio):
        # ||beta||_inf = 3, so FIT_GRAD_RTOL's bound is 3e-6; a capped run is
        # refused on either side of it, since only the solver's test certifies
        beta = np.array([2.0, -3.0])
        grad_norm = ratio * FIT_GRAD_RTOL * 3.0

        def capped(fun_and_grad, hess, x0, scale):
            return SolveReport(x=beta.copy(), fun=1.0, iterations=500,
                               status=ITERATION_CAP, grad_norm=grad_norm)

        monkeypatch.setattr(estimators, "minimize_qn", capped)
        data = line_dataset([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        with pytest.raises(SolverError, match=rf"^smooth fit stalled at tau=0\.3: "
                                              rf"status=iteration-cap, \|grad\|="
                                              rf"{grad_norm:.3e} after 500 iterations$"):
            fit_smooth(data, 0.3)

    @pytest.mark.parametrize("method", ["srq", "smrq"])
    def test_rescaled_response_returns_only_certified_levels(self, method):
        # y x 1e6 makes the loss sharp enough that the zero start stalls at
        # most levels; every level returned must carry the solver's own
        # certificate (a looser fit-level test let srq 0.25, 0.30, 0.90 and
        # smrq 0.30, 0.55, 0.70, 0.80 through at the iteration cap)
        swiss = load_swiss()
        data = Dataset(X=swiss.X, y=swiss.y * 1e6, column_names=swiss.column_names,
                       response_name=swiss.response_name)
        uncertified = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tau in TauGrid.from_count(19):
                try:
                    fit = fit_smooth(data, tau, SMOOTH_PRESETS[method])
                except SolverError as exc:
                    assert str(exc).startswith(f"smooth fit stalled at tau={tau}: ")
                    continue
                report = fit.report
                if not (report.iterations < 500 and report.grad_norm
                        <= 1e-8 * max(1.0, np.abs(fit.beta).max())):
                    uncertified.append(round(tau, 2))
        assert uncertified == []

    @pytest.mark.parametrize("scale", [1e6, 1e9])
    @pytest.mark.parametrize("method", ["srq", "smrq"])
    def test_rescaled_response_returns_only_honest_levels(self, method, scale):
        # at a minimum the smooth objective cannot exceed its value at the
        # same level's rq plane; from the zero start and without the
        # decrement test, every level at y x 1e9 was returned above it
        swiss = load_swiss()
        data = Dataset(X=swiss.X, y=swiss.y * scale, column_names=swiss.column_names,
                       response_name=swiss.response_name)
        params = SMOOTH_PRESETS[method]
        above = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tau in TauGrid.from_count(19):
                try:
                    fit = fit_smooth(data, tau, params)
                except SolverError as exc:
                    assert str(exc).startswith(f"smooth fit stalled at tau={tau}: ")
                    continue
                at_rq = loss_total(data, fit_rq_lp(data, tau).beta, tau, params)
                if loss_total(data, fit.beta, tau, params) > at_rq + 1e-12 * abs(at_rq):
                    above.append(round(tau, 2))
        assert above == []

    @pytest.mark.parametrize("size", [1e30, 1e300])
    def test_response_far_beyond_the_predictors_fails_by_name(self, size):
        # every residual stays near +-size while the gradient is a constant
        # 0.2; the gradient test alone accepted this at beta of about -7.6e7
        k = np.arange(8)
        data = line_dataset(1.0 + 0.1 * k, (-1.0) ** k * (1.0 + 0.05 * k) * size)
        with pytest.raises(SolverError, match=r"^smooth fit stalled at tau=0\.5: "):
            fit_smooth(data, 0.5)

    @pytest.mark.parametrize("method", ["srq", "smrq"])
    def test_every_level_carries_its_decrement(self, method):
        data = load_swiss()
        for tau in TauGrid.from_count(99):
            report = fit_smooth(data, tau, SMOOTH_PRESETS[method]).report
            assert 0.0 <= report.decrement <= 1e-12 * (1.0 + abs(report.fun))

    def test_lp_reports_carry_no_decrement(self):
        assert fit_rq_lp(load_swiss(), 0.5).report.decrement is None

    @pytest.mark.parametrize("method", ["srq", "smrq", "flex"])
    def test_fit_equals_its_grid_row_bit_for_bit(self, method):
        # each level starts from a plane of its own data and tau, never from
        # a neighbouring level
        data = load_swiss()
        params = FlexCheckParams(c=5.0) if method == "flex" else None
        grid = TauGrid.from_count(19)
        rows = fit_grid(data, grid, method, params=params).coefficients
        for tau, row in zip(grid, rows):
            fit = fit_smooth(data, tau, params or SMOOTH_PRESETS[method])
            assert fit.beta.tobytes() == row.tobytes()

    def test_start_is_the_shifted_least_squares_plane(self):
        data = load_swiss()
        ls = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        r = data.residuals(ls)
        for tau, k in ((0.01, 0), (0.5, 23), (0.99, 46)):
            start = estimators._smooth_start(data, tau)
            assert np.array_equal(start[:-1], ls[:-1])
            assert start[-1] == ls[-1] + np.sort(r)[k]

    def test_solver_tolerance_implies_the_fit_bound(self):
        # perfbench re-checks every smooth level at FIT_GRAD_RTOL; a converged
        # solve must always pass that re-check
        assert optim._GRAD_TOL <= FIT_GRAD_RTOL


class TestFitRqLp:
    def test_median(self):
        fit = fit_rq_lp(intercept_only([1.0, 2.0, 4.0]), 0.5)
        assert fit.beta[0] == 2.0
        assert fit.report.status == CONVERGED

    def test_upper_quartile_matches_candidate_enumeration(self):
        data = intercept_only([1.0, 2.0, 4.0])
        fit = fit_rq_lp(data, 0.75)
        objs = {b: classic_total(data, np.array([b]), 0.75) for b in (1.0, 2.0, 4.0)}
        best = min(objs, key=objs.get)
        assert best == 4.0
        assert fit.beta[0] == best
        assert fit.report.fun == objs[best]

    def test_two_points_interpolated(self):
        data = line_dataset([0.0, 1.0], [1.0, 3.0])
        for tau in (0.2, 0.5, 0.8):
            fit = fit_rq_lp(data, tau)
            assert fit.beta[0] == 2.0 and fit.beta[1] == 1.0
            assert fit.report.fun == 0.0

    def test_even_median_flags_multiplicity(self):
        # any value in [1, 2] ties the objective, so the optimum is not unique
        fit = fit_rq_lp(intercept_only([1.0, 2.0]), 0.5)
        assert fit.report.status == DEGENERATE_MULTIPLE
        assert 1.0 <= fit.beta[0] <= 2.0

    def test_tau_validation(self):
        data = intercept_only([1.0, 2.0, 4.0])
        for tau in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="strictly inside"):
                fit_rq_lp(data, tau)

    def test_objective_reevaluated_at_beta(self):
        cfg = SynthConfig(n=25, seed=5, kind=KIND_PARETO)
        data = gen_pareto(cfg)
        fit = fit_rq_lp(data, 0.3)
        assert fit.report.fun == classic_total(data, fit.beta, 0.3)

    def test_oversized_lp_refused_before_allocating(self):
        # 6000 rows would need a 549 MiB tableau; the guard must fire before
        # the constraint matrix or the identity exists
        data = intercept_only(np.arange(6000.0))
        tracemalloc.start()
        try:
            with pytest.raises(SolverError, match=r"n=6000, p=1 .* limited to 128 MiB"):
                fit_rq_lp(data, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_solve_holds_only_the_lp_and_its_tableau(self):
        # A is n x (2n + 2p) doubles and the tableau n x (2n + 2p + 1); an
        # n x n identity kept alive next to them would add a quarter more
        data = gen_hetero_normal(SynthConfig(n=1000, seed=33, kind=KIND_HETERO_NORMAL))
        n, p = data.X.shape
        lp_and_tableau = 8 * n * ((2 * n + 2 * p) + (2 * n + 2 * p + 1))
        tracemalloc.start()
        try:
            fit_rq_lp(data, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * lp_and_tableau, (peak, lp_and_tableau)

    @pytest.mark.parametrize("data, grid", [
        (gen_hetero_normal(SynthConfig(n=50, seed=31, kind=KIND_HETERO_NORMAL)),
         TauGrid.from_count(9)),
        (gen_hetero_normal(SynthConfig(n=400, seed=32, kind=KIND_HETERO_NORMAL)),
         TauGrid.from_count(9)),
        (gen_hetero_normal(SynthConfig(n=2000, seed=35, kind=KIND_HETERO_NORMAL)),
         TauGrid.from_count(9)),
        (load_swiss(), TauGrid.from_count(99)),
    ], ids=["hetero-n50", "hetero-n400", "hetero-n2000", "swiss"])
    def test_objectives_match_highs(self, data, grid):
        """Every rq level reaches the optimum HiGHS finds, to a relative 1e-9.

        HiGHS is scored at its own coefficients with the library pinball sum,
        so both sides are compared on the same objective evaluation.
        """
        from scipy.optimize import linprog

        n, p = data.X.shape
        out = fit_grid(data, grid, "rq")
        eye = np.eye(n)
        A = np.hstack([data.X, -data.X, eye, -eye])
        for tau, beta in zip(grid, out.coefficients):
            cost = np.concatenate([np.zeros(2 * p), np.full(n, tau), np.full(n, 1.0 - tau)])
            res = linprog(cost, A_eq=A, b_eq=data.y, bounds=(0, None), method="highs")
            assert res.status == 0, res.message
            best = classic_total(data, res.x[:p] - res.x[p:2 * p], tau)
            mine = classic_total(data, beta, tau)
            assert abs(mine - best) <= 1e-9 * max(1.0, abs(best)), tau


class TestFitRrq:
    def test_noise_free_line_collapses(self):
        x = np.arange(1.0, 7.0)
        model = fit_rrq(line_dataset(x, x.copy()), TauGrid(np.array([0.25, 0.5, 0.75])))
        assert np.array_equal(model.gamma, np.zeros(2))
        assert model.homoscedastic_degenerate is True
        assert np.array_equal(model.c, np.zeros(3))
        assert np.array_equal(model.planes(), np.tile(model.beta_med, (3, 1)))

    def test_median_step_pinned_to_zero(self):
        cfg = SynthConfig(n=30, seed=7, kind=KIND_HETERO_NORMAL)
        model = fit_rrq(gen_hetero_normal(cfg), TauGrid.from_step(0.0, 1.0, 0.1))
        k = int(np.nonzero(model.taus == 0.5)[0][0])
        assert model.c[k] == 0.0

    def test_median_plane_is_lp_fit(self):
        cfg = SynthConfig(n=30, seed=7, kind=KIND_HETERO_NORMAL)
        data = gen_hetero_normal(cfg)
        model = fit_rrq(data, TauGrid(np.array([0.2, 0.5, 0.8])))
        lp = fit_rq_lp(data, 0.5)
        assert np.array_equal(model.planes()[1], lp.beta)

    def test_direction_steps_nondecreasing_and_optimal(self):
        """c_tau grows with tau, is an exact kink, and beats a dense search over c.

        One anscombe row has a fitted scale of exactly 0; it adds a constant
        in c, so every step must still be 0 or a kink r_i / s_i of the others.
        """
        cases = [
            (gen_hetero_normal(SynthConfig(n=30, seed=7, kind=KIND_HETERO_NORMAL)),
             TauGrid.from_step(0.0, 1.0, 0.1), False),
            (load_anscombe(), TauGrid.from_count(99), True),
        ]
        for data, taus, has_zero_scale in cases:
            model = fit_rrq(data, taus)
            assert (np.diff(model.c) >= -1e-12).all()
            r = data.residuals(model.beta_med)
            s = data.X @ model.gamma
            moving = s != 0
            assert bool((~moving).any()) is has_zero_scale
            kinks = set((r[moving] / s[moving]).tolist()) | {0.0}
            assert all(c in kinks for c in model.c.tolist())
            bound = 10.0 * float(np.abs(r).max()) / max(float(np.abs(s).max()), 1e-12)
            steps = np.linspace(-bound, bound, 20001)[:, None]
            for k, tau in enumerate(model.taus):
                mine = float(np.sum(check_classic(r - model.c[k] * s, tau)))
                direct = float(check_classic(r - steps * s, tau).sum(axis=1).min())
                assert mine <= direct + 1e-9 * (1.0 + abs(direct))

    def test_negative_scale_flagged(self):
        data = negative_scale_data()
        model = fit_rrq(data, TauGrid.from_count(5))
        s = data.X @ model.gamma
        assert bool((s < 0).any()) is True
        assert model.negative_scales is True
        assert model.homoscedastic_degenerate is False

    def test_planes_shape(self):
        cfg = SynthConfig(n=20, seed=2, kind=KIND_HETERO_NORMAL)
        model = fit_rrq(gen_hetero_normal(cfg), TauGrid.from_count(7))
        assert model.planes().shape == (7, 2)


def direction_step_reference(r, s, tau):
    """The quadratic search the sorted-breakpoint step replaced.

    Evaluates the objective at every breakpoint r_i / s_i and at 0, takes
    the candidates within 1e-10 * (1 + |min|) of the least value as the flat
    set, and returns its point of smallest absolute value.
    """
    cands = np.unique(np.concatenate([r / s, [0.0]]))
    u = r[None, :] - cands[:, None] * s[None, :]
    g = _pinball(u, tau).sum(axis=1)
    gmin = float(g.min())
    flat = cands[g <= gmin + 1e-10 * (1.0 + abs(gmin))]
    lo, hi = float(flat[0]), float(flat[-1])
    return min(max(0.0, lo), hi)


class TestDirectionStep:
    """The sorted-breakpoint step returns the quadratic search's c, bit for bit."""

    def assert_matches_reference(self, r, s, taus):
        step = estimators._DirectionSteps(r, s)
        for tau in taus:
            mine, ref = step(tau), direction_step_reference(r, s, tau)
            assert mine == ref, (tau, mine, ref)

    @pytest.mark.parametrize("data, grid", [
        (load_anscombe(), TauGrid.from_count(99)),
        (load_swiss(), TauGrid.from_count(99)),
        (gen_hetero_normal(SynthConfig(n=30, seed=7, kind=KIND_HETERO_NORMAL)),
         TauGrid.from_count(99)),
        (gen_hetero_normal(SynthConfig(n=400, seed=11, kind=KIND_HETERO_NORMAL)),
         TauGrid.from_count(99)),
        (gen_hetero_normal(SynthConfig(n=1000, seed=11, kind=KIND_HETERO_NORMAL)),
         TauGrid.from_count(99)),
        (gen_pareto(SynthConfig(n=200, seed=13, kind=KIND_PARETO)), TauGrid.from_count(99)),
        (negative_scale_data(), TauGrid.from_count(99)),
    ], ids=["anscombe", "swiss", "hetero-n30", "hetero-n400", "hetero-n1000",
            "pareto-n200", "mixed-sign-scales"])
    def test_family_matches_reference(self, data, grid):
        model = fit_rrq(data, grid)
        assert not model.homoscedastic_degenerate
        r = data.residuals(model.beta_med)
        s = data.X @ model.gamma
        moving = s != 0
        for k, tau in enumerate(grid):
            ref = 0.0 if tau == 0.5 else direction_step_reference(r[moving], s[moving], tau)
            assert model.c[k] == ref, (tau, model.c[k], ref)
            assert (classic_total(data, model.planes()[k], tau)
                    == classic_total(data, model.beta_med + ref * model.gamma, tau))

    def test_duplicate_breakpoints(self):
        r = np.array([1.0, 2.0, 3.0, 2.0, 4.0, -2.0, 5.0])
        s = np.array([1.0, 2.0, 3.0, 1.0, 2.0, -1.0, 1.0])
        self.assert_matches_reference(r, s, TauGrid.from_count(19))

    def test_breakpoint_at_zero(self):
        r = np.array([0.0, 1.0, -2.0, 3.0, 0.0])
        s = np.array([1.0, 2.0, 1.0, 0.5, -2.0])
        self.assert_matches_reference(r, s, TauGrid.from_count(19))

    def test_flat_valley_containing_zero(self):
        r, s = np.array([-1.0, 1.0]), np.array([1.0, 1.0])
        assert estimators._DirectionSteps(r, s)(0.5) == 0.0
        self.assert_matches_reference(r, s, TauGrid.from_count(9))

    def test_target_on_a_cumulative_weight(self):
        # tau * P = 1 is the first cumulative weight: the slope is exactly 0
        # between the breakpoints 1 and 2, and the flat valley's point of
        # least |c| is 1
        r, s = np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4)
        assert estimators._DirectionSteps(r, s)(0.25) == 1.0
        self.assert_matches_reference(r, s, [0.25, 0.5, 0.75])

    def test_random_integer_ties(self):
        rng = np.random.default_rng(404)
        for _ in range(500):
            n = int(rng.integers(1, 12))
            r = rng.integers(-4, 5, size=n).astype(float)
            s = rng.choice([-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0], size=n)
            taus = np.concatenate([rng.integers(1, 8, size=3) / 8.0, rng.random(2)])
            self.assert_matches_reference(r, s, taus)

    def test_search_lands_next_to_the_minimum(self, monkeypatch):
        # the walk would still find the minimum from a wrong start, but at
        # O(n) evaluations a level; a right start needs the minimum and one
        # candidate on each side
        real = estimators._DirectionSteps._objective
        evals = []

        def counted(self, j, tau):
            evals.append(j)
            return real(self, j, tau)

        monkeypatch.setattr(estimators._DirectionSteps, "_objective", counted)
        rng = np.random.default_rng(77)
        r, s = rng.normal(size=2000), rng.normal(size=2000)
        step = estimators._DirectionSteps(r, s)
        for tau in TauGrid.from_count(49):
            evals.clear()
            step(tau)
            assert len(evals) == 3, tau

    def test_memory_stays_linear(self):
        # the quadratic candidate matrix would take 3.2 GB at this size
        rng = np.random.default_rng(20000)
        r, s = rng.normal(size=20000), rng.normal(size=20000)
        tracemalloc.start()
        try:
            step = estimators._DirectionSteps(r, s)
            for tau in (0.05, 0.5, 0.95):
                step(tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestFitGrid:
    def test_two_point_grid(self):
        data = line_dataset([0.0, 1.0], [1.0, 3.0])
        out = fit_grid(data, TauGrid(np.array([0.25, 0.5, 0.75])), "srq")
        assert out.coefficients.shape == (3, 2)
        assert out.statuses == [CONVERGED] * 3
        assert out.curve is not None
        assert (np.diff(out.curve.counts) >= 0).all()

    def test_method_validation(self):
        data = intercept_only([1.0, 2.0, 4.0])
        with pytest.raises(ValueError, match="unknown method"):
            fit_grid(data, [0.5], "ols")
        with pytest.raises(ValueError, match="needs explicit"):
            fit_grid(data, [0.5], "flex")
        # params shape only flex; any other method would silently drop them
        for method in ("rq", "srq", "smrq", "rrq"):
            with pytest.raises(ValueError, match=f"only method 'flex', not '{method}'"):
                fit_grid(data, [0.5], method, params=FlexCheckParams(c=0.5))

    def test_flex_method_runs(self):
        data = intercept_only([1.0, 2.0, 4.0])
        params = FlexCheckParams(c=5.0, h=0.0, s=0.5, v=0.0)
        out = fit_grid(data, [0.3, 0.7], "flex", params=params)
        assert out.method == "flex"
        assert np.isfinite(out.coefficients).all()

    def test_rrq_status_note_on_collapse(self):
        x = np.arange(1.0, 7.0)
        out = fit_grid(line_dataset(x, x.copy()), [0.25, 0.5, 0.75], "rrq")
        assert all("homoscedastic-degenerate" in s for s in out.statuses)

    def test_failed_level_recorded(self, monkeypatch):
        real = estimators.fit_smooth

        def flaky(data, tau, params=estimators.SRQ):
            if tau == 0.5:
                raise SolverError("synthetic failure for the error path")
            return real(data, tau, params=params)

        monkeypatch.setattr(estimators, "fit_smooth", flaky)
        data = line_dataset([0.0, 1.0, 2.0], [1.0, 3.0, 5.5])
        out = fit_grid(data, [0.25, 0.5, 0.75], "srq")
        assert out.statuses[1].startswith("failed:")
        assert np.isnan(out.coefficients[1]).all()
        assert np.isfinite(out.coefficients[[0, 2]]).all()
        assert out.curve is None

    def test_failed_rrq_family_fails_every_level(self, monkeypatch):
        def broken(data, tau):
            raise SolverError("synthetic rq failure")

        monkeypatch.setattr(estimators, "fit_rq_lp", broken)
        data = line_dataset([0.0, 1.0, 2.0], [1.0, 3.0, 5.5])
        out = fit_grid(data, [0.25, 0.5, 0.75], "rrq")
        assert out.statuses == [estimators.FAILED + "synthetic rq failure"] * 3
        assert np.isnan(out.coefficients).all()
        assert out.curve is None

    def test_rq_grid_statuses_recorded(self):
        out = fit_grid(intercept_only([1.0, 2.0]), [0.5], "rq")
        assert out.statuses == [DEGENERATE_MULTIPLE]


class TestSmoothGridWork:
    def test_pareto_smrq_grid_fits_every_level(self):
        # Armijo-only line searches left tau=0.29 at the iteration cap here,
        # 4% above the fit tolerance
        data = gen_pareto(SynthConfig(400, 20460819, kind=KIND_PARETO))
        result = fit_grid(data, TauGrid.from_count(99), "smrq")
        assert result.statuses == [CONVERGED] * 99
        for tau, beta in zip(result.taus, result.coefficients):
            _, g = loss_and_grad(data, beta, tau, SMOOTH_PRESETS["smrq"])
            assert np.abs(g).max() <= FIT_GRAD_RTOL * max(1.0, np.abs(beta).max())

    def test_srq_grid_objective_evaluations(self, monkeypatch):
        # damped Newton steps take 1,248 objective evaluations and 1,110
        # Hessians here; BFGS with Wolfe steps took 2,674 evaluations, and
        # with Armijo-only steps 10,185
        calls = {"loss_and_grad": 0, "hess_total": 0}

        def counted(name):
            real = getattr(estimators, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(estimators, name, counted(name))
        data = gen_hetero_normal(SynthConfig(n=400, seed=20660819))
        result = fit_grid(data, TauGrid.from_count(99), "srq")
        assert result.statuses == [CONVERGED] * 99
        assert 0 < calls["loss_and_grad"] <= 1400
        assert 0 < calls["hess_total"] <= 1250

    def test_swiss_srq_grid_evaluations(self, monkeypatch):
        # from the shifted least-squares start, 3,140 evaluations; from the
        # zero vector it took 7,280
        calls = []
        monkeypatch.setattr(estimators, "loss_and_grad",
                            lambda *args: calls.append(None) or loss_and_grad(*args))
        result = fit_grid(load_swiss(), TauGrid.from_count(99), "srq")
        assert result.statuses == [CONVERGED] * 99
        assert len(calls) <= 3300


class TestObjectiveConsistency:
    """The LP is exact for the classic loss, the smooth fit for the smooth one."""

    def datasets(self):
        yield load_anscombe()
        yield load_swiss()
        yield gen_hetero_normal(SynthConfig(n=40, seed=11, kind=KIND_HETERO_NORMAL))
        yield gen_pareto(SynthConfig(n=40, seed=12, kind=KIND_PARETO))

    def test_each_solver_wins_its_own_objective(self):
        for data in self.datasets():
            for tau in (0.1, 0.5, 0.9):
                lp = fit_rq_lp(data, tau)
                sm = fit_smooth(data, tau)
                qc_lp = classic_total(data, lp.beta, tau)
                qc_sm = classic_total(data, sm.beta, tau)
                assert qc_lp <= qc_sm + 1e-9 * (1.0 + abs(qc_sm))
                qs_sm = loss_and_grad(data, sm.beta, tau)[0]
                qs_lp = loss_and_grad(data, lp.beta, tau)[0]
                assert qs_sm <= qs_lp + 1e-9 * (1.0 + abs(qs_lp))

    def test_large_c_approaches_classic_optimum(self):
        sharp = FlexCheckParams(c=200.0, h=0.0, s=0.5, v=0.0)
        for data in self.datasets():
            for tau in (0.25, 0.5, 0.75):
                lp = fit_rq_lp(data, tau)
                sm = fit_smooth(data, tau, params=sharp)
                qc_lp = classic_total(data, lp.beta, tau)
                qc_sm = classic_total(data, sm.beta, tau)
                assert qc_sm - qc_lp <= 1e-2 * (1.0 + qc_lp)
