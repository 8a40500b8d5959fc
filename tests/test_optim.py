"""Solver behavior: quasi-Newton descent, slack-basis simplex."""

import numpy as np
import pytest

from smoothrq import (
    LPProblem,
    SolverError,
    minimize_qn,
    solve_lp_simplex,
)
from smoothrq import optim
from smoothrq.optim import CONVERGED, DEGENERATE_MULTIPLE, UNBOUNDED


def slack_form(rng, m, k):
    """[B | I] with positive B and a positive rhs: feasible at x = (0, b) and
    bounded, because every structural column is nonnegative with a positive
    entry in some row."""
    B = np.abs(rng.normal(size=(m, k))) + 0.05
    A = np.hstack([B, np.eye(m)])
    b = np.abs(rng.normal(size=m)) + 0.1
    return A, b


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

    def test_iteration_cap_status(self, monkeypatch):
        def fg(x):
            return float((x[0] - 3) ** 4), np.array([4 * (x[0] - 3) ** 3])

        monkeypatch.setattr(optim, "_QN_MAX_ITER", 1)
        rep = minimize_qn(fg, [0.0])
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
        A, b = slack_form(rng, 4, 9)
        c = rng.normal(size=13)
        r1 = solve_lp_simplex(LPProblem(c=c, A=A, b=b))
        r2 = solve_lp_simplex(LPProblem(c=c, A=A, b=b))
        assert r1.status in (CONVERGED, DEGENERATE_MULTIPLE)
        assert r1.iterations > 0
        assert r1.status == r2.status
        assert r1.x.tobytes() == r2.x.tobytes()
        assert r1.fun == r2.fun
        assert r1.iterations == r2.iterations
        assert r1.zero_rc_columns == r2.zero_rc_columns

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
            assert rep.status in (CONVERGED, DEGENERATE_MULTIPLE)
            assert rep.fun == pytest.approx(best, abs=1e-7 * (1 + abs(best)))
            pivoted += rep.iterations > 0
        assert pivoted >= 30

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LPProblem(c=[1.0], A=[[1.0, 2.0]], b=[1.0])
        with pytest.raises(ValueError):
            LPProblem(c=[1.0, 2.0], A=[[1.0, 2.0]], b=[1.0, 2.0])
        with pytest.raises(ValueError):
            LPProblem(c=[np.nan, 1.0], A=[[1.0, 2.0]], b=[1.0])
