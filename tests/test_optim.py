"""Solver behavior: quasi-Newton descent, dense simplex."""

import numpy as np
import pytest

from smoothrq import (
    LPProblem,
    QNConfig,
    SolverError,
    minimize_qn,
    solve_lp_simplex,
)
from smoothrq.optim import CONVERGED, DEGENERATE_MULTIPLE, INFEASIBLE, UNBOUNDED


class TestMinimizeQN:
    def test_scalar_quadratic(self):
        rep = minimize_qn(lambda x: (float((x[0] - 3) ** 2), np.array([2 * (x[0] - 3)])),
                          [0.0])
        assert rep.status == CONVERGED
        assert rep.x[0] == pytest.approx(3.0, abs=1e-8)

    def test_logcosh_shifted(self):
        def fg(x):
            z = 10.0 * (x[0] - 2.0)
            return float(np.log(np.cosh(z)) / 20.0), np.array([np.tanh(z) / 2.0])

        rep = minimize_qn(fg, [0.0])
        assert rep.status == CONVERGED
        assert rep.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_separable_quadratic(self):
        def fg(x):
            f = (x[0] - 1) ** 2 + 10 * (x[1] + 2) ** 2
            return float(f), np.array([2 * (x[0] - 1), 20 * (x[1] + 2)])

        rep = minimize_qn(fg, [0.0, 0.0])
        assert rep.status == CONVERGED
        assert rep.x == pytest.approx([1.0, -2.0], abs=1e-7)

    def test_nonfinite_start_raises(self):
        with pytest.raises(SolverError):
            minimize_qn(lambda x: (np.inf, np.array([1.0])), [0.0])

    def test_iteration_cap_status(self):
        def fg(x):
            return float((x[0] - 3) ** 4), np.array([4 * (x[0] - 3) ** 3])

        rep = minimize_qn(fg, [0.0], QNConfig(grad_tol=1e-14, max_iter=1))
        assert rep.status == "iteration-cap"
        assert rep.iterations == 1
        assert rep.grad_norm > 1e-14

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(8, 3))
        b = rng.normal(size=8)

        def fg(x):
            r = A @ x - b
            return float(r @ r), 2 * (A.T @ r)

        r1 = minimize_qn(fg, np.zeros(3))
        r2 = minimize_qn(fg, np.zeros(3))
        assert r1.x.tobytes() == r2.x.tobytes()
        assert r1.fun == r2.fun
        assert r1.iterations == r2.iterations

    def test_flat_tail_traversal(self):
        # exactly linear until |x| nears the minimum at 1e4: fixed-size steps
        # would need ~1e4 iterations, the forward step growth needs far fewer
        def fg(x):
            z = x[0] - 1e4
            f = abs(z) if abs(z) > 1.0 else 0.5 * (z * z + 1.0)
            g = np.sign(z) if abs(z) > 1.0 else z
            return float(f), np.array([g])

        rep = minimize_qn(fg, [0.0])
        assert rep.status == CONVERGED
        assert rep.x[0] == pytest.approx(1e4, rel=1e-6)
        assert rep.iterations < 100

    def test_validates_config(self):
        with pytest.raises(ValueError):
            QNConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            QNConfig(max_iter=0)
        with pytest.raises(ValueError):
            QNConfig(armijo_c=1.0)
        with pytest.raises(ValueError):
            QNConfig(backtrack=0.0)


class TestSimplex:
    def test_tiny_lp(self):
        rep = solve_lp_simplex(LPProblem(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[1.0]))
        assert rep.status == CONVERGED
        assert rep.x == pytest.approx([1.0, 0.0], abs=1e-12)
        assert rep.fun == pytest.approx(-1.0, abs=1e-12)

    def test_infeasible(self):
        rep = solve_lp_simplex(LPProblem(c=[1.0], A=[[1.0], [1.0]], b=[1.0, 2.0]))
        assert rep.status == INFEASIBLE
        assert rep.x is None

    def test_unbounded(self):
        rep = solve_lp_simplex(LPProblem(c=[-1.0, 0.0], A=[[0.0, 1.0]], b=[1.0]))
        assert rep.status == UNBOUNDED
        assert rep.x is None

    def test_degenerate_multiple_flagged(self):
        # min x1 + x2 over the simplex: every feasible point is optimal
        rep = solve_lp_simplex(LPProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0]))
        assert rep.status == DEGENERATE_MULTIPLE
        assert rep.fun == pytest.approx(1.0, abs=1e-12)
        assert len(rep.zero_rc_columns) >= 1

    def test_unique_optimum_not_flagged(self):
        rep = solve_lp_simplex(LPProblem(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0]))
        assert rep.status == CONVERGED
        assert rep.x == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_negative_rhs_handled(self):
        # row sign normalization: -x1 = -3 means x1 = 3
        rep = solve_lp_simplex(LPProblem(c=[1.0, 1.0], A=[[-1.0, 0.0], [0.0, 1.0]],
                                         b=[-3.0, 2.0]))
        assert rep.status in (CONVERGED, DEGENERATE_MULTIPLE)
        assert rep.x == pytest.approx([3.0, 2.0], abs=1e-12)

    def test_redundant_row(self):
        # second row is twice the first; phase 1 must not declare infeasible
        rep = solve_lp_simplex(LPProblem(c=[0.0, 1.0],
                                         A=[[1.0, 1.0], [2.0, 2.0]],
                                         b=[1.0, 2.0]))
        assert rep.status in (CONVERGED, DEGENERATE_MULTIPLE)
        assert rep.x[0] + rep.x[1] == pytest.approx(1.0, abs=1e-12)
        assert rep.fun == pytest.approx(0.0, abs=1e-12)

    def test_beale_cycling_instance(self):
        # classic Dantzig-pivot cycling example; Bland's rule must terminate
        A = np.array([
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ])
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        rep = solve_lp_simplex(LPProblem(c=c, A=A, b=b))
        assert rep.status in (CONVERGED, DEGENERATE_MULTIPLE)
        assert rep.fun == pytest.approx(-0.05, abs=1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(17)
        A = rng.normal(size=(4, 9))
        x_feas = np.abs(rng.normal(size=9))
        b = A @ x_feas
        c = rng.normal(size=9)
        r1 = solve_lp_simplex(LPProblem(c=c, A=A, b=b))
        r2 = solve_lp_simplex(LPProblem(c=c, A=A, b=b))
        assert r1.status == r2.status
        if r1.x is not None:
            assert r1.x.tobytes() == r2.x.tobytes()
            assert r1.fun == r2.fun
            assert r1.basis == r2.basis

    def test_random_lps_against_vertex_enumeration(self):
        # brute-force all basic feasible solutions and compare objectives
        from itertools import combinations

        rng = np.random.default_rng(23)
        solved = 0
        for _ in range(40):
            m, n = 3, 6
            A = rng.normal(size=(m, n))
            b = A @ np.abs(rng.normal(size=n))
            # strictly positive costs keep every instance bounded below
            c = np.abs(rng.normal(size=n)) + 0.1
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
            if rep.status in (CONVERGED, DEGENERATE_MULTIPLE):
                assert best is not None
                assert rep.fun == pytest.approx(best, abs=1e-7 * (1 + abs(best)))
                solved += 1
        assert solved >= 38

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LPProblem(c=[1.0], A=[[1.0, 2.0]], b=[1.0])
        with pytest.raises(ValueError):
            LPProblem(c=[1.0, 2.0], A=[[1.0, 2.0]], b=[1.0, 2.0])
        with pytest.raises(ValueError):
            LPProblem(c=[np.nan, 1.0], A=[[1.0, 2.0]], b=[1.0])
