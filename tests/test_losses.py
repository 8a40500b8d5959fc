"""Checks for the classic and smooth check functions and their dataset sums.

Non-trivial expected values below were computed independently with mpmath at
50 significant digits and frozen as literals.
"""

import mpmath
import numpy as np
import pytest

from smoothrq import (
    SMRQ,
    SRQ,
    Dataset,
    FlexCheckParams,
    SynthConfig,
    check_classic,
    check_smooth,
    gen_hetero_normal,
    grad_total,
    hess_total,
    load_swiss,
    loss_and_grad,
    loss_total,
)

# mpmath, 50 dps: log(cosh(10))/20 + 0.25
SRQ_AT_1_TAU75 = 0.7153426410750604
# mpmath, 50 dps: log(cosh(1.4))/1.4 + 0.4
SMRQ_AT_2_TAU50 = 0.9470611755200186
# mpmath, 50 dps: tanh(1)/2
HALF_TANH_1 = 0.3807970779778824
# mpmath, 50 dps: log(cosh(10))/20
SRQ_SINGLE_UNIT = 0.4653426410750604
LOG2_OVER_20 = 0.03465735902799727


class TestCheckClassic:
    def test_positive_residual(self):
        assert check_classic(1.0, 0.75) == pytest.approx(0.75, abs=1e-15)

    def test_zero_residual(self):
        assert check_classic(0.0, 0.3) == 0.0

    def test_negative_residual(self):
        assert check_classic(-2.0, 0.75) == pytest.approx(0.5, abs=1e-15)

    def test_nonnegative_and_zero_only_at_zero(self):
        rng = np.random.default_rng(7)
        r = rng.normal(size=200)
        for tau in (0.05, 0.5, 0.95):
            vals = check_classic(r, tau)
            assert (vals > 0).all()
            assert check_classic(0.0, tau) == 0.0

    def test_rejects_bad_tau_and_nonfinite(self):
        with pytest.raises(ValueError):
            check_classic(1.0, 0.0)
        with pytest.raises(ValueError):
            check_classic(1.0, 1.0)
        with pytest.raises(ValueError):
            check_classic(np.nan, 0.5)


class TestCheckSmooth:
    def test_srq_zero(self):
        assert check_smooth(0.0, 0.5, SRQ) == 0.0

    def test_srq_unit_residual(self):
        assert check_smooth(1.0, 0.75, SRQ) == pytest.approx(SRQ_AT_1_TAU75, rel=1e-14)

    def test_smrq_zero_is_vertical_shift(self):
        assert check_smooth(0.0, 0.5, SMRQ) == pytest.approx(0.4, abs=1e-15)

    def test_smrq_at_two(self):
        assert check_smooth(2.0, 0.5, SMRQ) == pytest.approx(SMRQ_AT_2_TAU50, rel=1e-14)

    def test_overflow_safe_far_out(self):
        # for huge residuals the smooth loss approaches tau*r - log(2)/(2c)
        val = check_smooth(1e6, 0.5, SRQ)
        assert np.isfinite(val)
        assert val == pytest.approx(0.5e6 - LOG2_OVER_20, abs=1e-9)
        val_neg = check_smooth(-1e6, 0.5, SRQ)
        assert val_neg == pytest.approx(0.5e6 - LOG2_OVER_20, abs=1e-9)

    def test_array_input_matches_scalar(self):
        r = np.array([-3.0, -0.2, 0.0, 0.4, 5.0])
        out = check_smooth(r, 0.3, SMRQ)
        for i, ri in enumerate(r):
            assert out[i] == check_smooth(float(ri), 0.3, SMRQ)

    def test_gap_bound_against_classic(self):
        r = np.linspace(-40.0, 40.0, 4001)
        for tau in (0.1, 0.5, 0.9):
            gap = np.abs(check_smooth(r, tau, SRQ) - check_classic(r, tau))
            assert gap.max() <= LOG2_OVER_20 + 1e-12

    def test_strict_convexity_sampled(self):
        # midpoint below the chord on random triples; strictness is asserted
        # only where the curvature term is above float resolution (far out on
        # the tail sech2 underflows and the loss is exactly linear in floats)
        rng = np.random.default_rng(11)
        strict_checked = 0
        for _ in range(200):
            a, b = np.sort(rng.uniform(-4, 4, size=2))
            if b - a < 1e-3:
                continue
            tau = rng.uniform(0.05, 0.95)
            p = FlexCheckParams(c=rng.uniform(0.3, 12.0), h=rng.uniform(-1, 1),
                                s=rng.uniform(0, 1), v=rng.uniform(-1, 1))
            m = (a + b) / 2
            mid = check_smooth(m, tau, p)
            chord = 0.5 * (check_smooth(a, tau, p) + check_smooth(b, tau, p))
            assert mid <= chord + 1e-15 * (1 + abs(chord))
            curvature_term = (p.c / 2) / np.cosh(min(p.c * abs(m - p.h), 300.0)) ** 2
            gain = 0.5 * curvature_term * ((b - a) / 2) ** 2
            if gain > 1e-12 * (1 + abs(chord)):
                assert mid < chord
                strict_checked += 1
        assert strict_checked > 100


def _tiny_dataset(y):
    y = np.asarray(y, dtype=float)
    return Dataset(X=np.ones((y.size, 1)), y=y, column_names=("intercept",))


def _deriv(r, tau, params):
    # F'(r) through grad_total: one row y = r at intercept b = 0 has
    # residual r and gradient -F'(r)
    return -grad_total(_tiny_dataset([r]), [0.0], tau, params)[0]


class TestCheckSmoothDeriv:
    def test_zero_cases(self):
        assert _deriv(0.0, 0.5, SRQ) == 0.0
        assert _deriv(0.0, 0.7, SRQ) == pytest.approx(0.2, abs=1e-15)

    def test_tanh_value(self):
        assert _deriv(0.1, 0.5, SRQ) == pytest.approx(HALF_TANH_1, rel=1e-14)

    def test_monotone_and_bounded(self):
        r = np.linspace(-50, 50, 2001)
        for tau, s in ((0.2, 0.5), (0.5, 0.0), (0.8, 1.0)):
            p = FlexCheckParams(c=2.0, s=s)
            d = np.array([_deriv(ri, tau, p) for ri in r])
            assert (np.diff(d) >= 0).all()
            assert d.min() > tau - s - 0.5 - 1e-12
            assert d.max() < tau - s + 0.5 + 1e-12

    def test_matches_numerical_derivative(self):
        rng = np.random.default_rng(3)
        step = 1e-6
        for _ in range(1000):
            r = rng.uniform(-5, 5)
            tau = rng.uniform(0.05, 0.95)
            p = FlexCheckParams(c=rng.uniform(0.5, 11.0), h=rng.uniform(-0.5, 0.5),
                                s=rng.uniform(0.0, 1.0), v=rng.uniform(-1.0, 1.0))
            num = (check_smooth(r + step, tau, p) - check_smooth(r - step, tau, p)) / (2 * step)
            assert _deriv(r, tau, p) == pytest.approx(num, abs=1e-8)

    def test_asymptotic_slopes(self):
        assert _deriv(1e4, 0.85, SRQ) == pytest.approx(0.85, abs=1e-12)
        assert _deriv(-1e4, 0.85, SRQ) == pytest.approx(-0.15, abs=1e-12)


def _masked_log_cosh(z):
    # the two-branch kernel the package used before: log(cosh z) up to
    # |z| = 30, the asymptotic form past it; kept as the reference
    az = np.abs(z)
    out = np.empty_like(az)
    small = az <= 30.0
    out[small] = np.log(np.cosh(az[small]))
    big = ~small
    out[big] = az[big] - np.log(2.0) + np.log1p(np.exp(-2.0 * az[big]))
    return out


def _reference_loss_and_grad(data, beta, tau, params):
    r = data.residuals(beta)
    z = params.c * (r - params.h)
    f = _masked_log_cosh(z) / (2.0 * params.c) + (tau - params.s) * r + params.v
    return float(f.sum()), -(data.X.T @ (0.5 * np.tanh(z) + (tau - params.s)))


class TestKernelAgainstMaskedReference:
    @pytest.mark.parametrize("data", [
        load_swiss(),
        gen_hetero_normal(SynthConfig(n=400, seed=20260819)),
        gen_hetero_normal(SynthConfig(n=100_000, seed=5)),
    ], ids=["swiss", "hetero-n400", "hetero-n1e5"])
    @pytest.mark.parametrize("params", [SRQ, SMRQ, FlexCheckParams(c=3.0, h=0.4, s=0.3, v=0.1)],
                             ids=["srq", "smrq", "flex"])
    def test_gradient_bits_and_objective(self, data, params):
        rng = np.random.default_rng(17)
        beta_ls = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        for k in range(20):
            # the least-squares plane, then ever larger moves off it, so the
            # residuals fall on both sides of the old |z| = 30 cutover
            beta = beta_ls + rng.normal(scale=0.2 * k, size=data.n_coef)
            tau = rng.uniform(0.02, 0.98)
            f, g = loss_and_grad(data, beta, tau, params)
            f_ref, g_ref = _reference_loss_and_grad(data, beta, tau, params)
            assert np.array_equal(g, g_ref)
            assert abs(f - f_ref) <= 1e-15 * abs(f_ref)

    @pytest.mark.parametrize("kernel", ["check_smooth", "masked"])
    def test_log_cosh_accuracy_against_mpmath(self, kernel):
        # with c = 1 at tau = 1/2, 2 F(z) is log cosh z
        grid = np.logspace(-10, np.log10(700.0), 300)
        z = np.concatenate([[0.0, 29.9, 30.0, 30.1], grid])
        z = np.concatenate([z, -z])
        if kernel == "check_smooth":
            got = 2.0 * check_smooth(z, 0.5, FlexCheckParams(c=1.0))
        else:
            got = _masked_log_cosh(z)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            for zi, gi in zip(z.tolist(), got.tolist()):
                exact = mpmath.log(mpmath.cosh(mpmath.mpf(zi)))
                err = abs(mpmath.mpf(gi) - exact)
                assert err <= 2 * eps * (abs(zi) + np.log(2.0)), zi


class TestDatasetSums:
    def test_single_zero_point(self):
        d = _tiny_dataset([0.0])
        assert loss_total(d, [0.0], 0.5, SRQ) == 0.0
        assert grad_total(d, [0.0], 0.5, SRQ) == pytest.approx([0.0])

    def test_symmetric_pair(self):
        d = _tiny_dataset([1.0, -1.0])
        assert loss_total(d, [0.0], 0.5, SRQ) == pytest.approx(2 * SRQ_SINGLE_UNIT, rel=1e-14)

    def test_componentwise_sum(self):
        d = _tiny_dataset([1.0, 2.0, 4.0])
        expect = sum(check_smooth(r, 0.5, SRQ) for r in (-1.0, 0.0, 2.0))
        assert loss_total(d, [2.0], 0.5, SRQ) == pytest.approx(expect, rel=1e-15)

    def test_gradient_at_zero_residual(self):
        d = _tiny_dataset([0.0])
        assert grad_total(d, [0.0], 0.75, SRQ) == pytest.approx([-0.25], abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        step = 1e-6
        for _ in range(60):
            n = rng.integers(3, 50)
            p = rng.integers(1, 6)
            X = np.hstack([rng.normal(size=(n, p - 1)), np.ones((n, 1))]) if p > 1 \
                else np.ones((n, 1))
            d = Dataset(X=X, y=rng.normal(scale=3.0, size=n),
                        column_names=tuple(f"x{j}" for j in range(p - 1)) + ("intercept",))
            beta = rng.normal(size=p)
            tau = rng.uniform(0.05, 0.95)
            params = FlexCheckParams(c=rng.uniform(0.5, 11.0), h=rng.uniform(-0.5, 0.5),
                                     s=rng.uniform(0.0, 1.0), v=rng.uniform(-0.5, 0.5))
            grad = grad_total(d, beta, tau, params)
            for k in range(p):
                e = np.zeros(p)
                e[k] = step
                num = (loss_total(d, beta + e, tau, params)
                       - loss_total(d, beta - e, tau, params)) / (2 * step)
                denom = max(1.0, abs(num))
                assert abs(grad[k] - num) / denom < 1e-6

    def test_hessian_matches_finite_differences_of_the_gradient(self):
        rng = np.random.default_rng(43)
        step = 1e-6
        for _ in range(40):
            n, p = rng.integers(6, 50), rng.integers(1, 6)
            X = np.hstack([rng.normal(size=(n, p - 1)), np.ones((n, 1))])
            d = Dataset(X=X, y=rng.normal(scale=3.0, size=n),
                        column_names=tuple(f"x{j}" for j in range(p - 1)) + ("intercept",))
            beta, tau = rng.normal(size=p), rng.uniform(0.05, 0.95)
            params = FlexCheckParams(c=rng.uniform(0.5, 11.0), h=rng.uniform(-0.5, 0.5),
                                     s=rng.uniform(0.0, 1.0), v=rng.uniform(-0.5, 0.5))
            H = hess_total(d, beta, params)
            for k in range(p):
                e = np.zeros(p)
                e[k] = step
                num = (grad_total(d, beta + e, tau, params)
                       - grad_total(d, beta - e, tau, params)) / (2 * step)
                assert np.abs(H[:, k] - num).max() / max(1.0, np.abs(num).max()) < 1e-6

    def test_hessian_weight_is_half_c_sech_squared(self):
        # one row y = r and an intercept of 0: the Hessian is F''(r) = (c/2) sech^2(c r),
        # which stays finite, and reaches 0, far out where cosh overflows
        for r in (0.0, 0.03, -0.4, 2.0, 50.0, -1e3):
            expected = 5.0 / np.cosh(10.0 * r) ** 2 if abs(r) < 50 else 0.0
            got = hess_total(_tiny_dataset([r]), [0.0], SRQ)
            assert got.shape == (1, 1)
            assert got[0, 0] == pytest.approx(expected, rel=1e-14, abs=1e-300)

    def test_loss_and_grad_consistent(self):
        d = _tiny_dataset([1.0, 2.0, 4.0])
        f, g = loss_and_grad(d, [1.5], 0.3, SMRQ)
        assert f == loss_total(d, [1.5], 0.3, SMRQ)
        assert g == pytest.approx(grad_total(d, [1.5], 0.3, SMRQ), rel=1e-15)

    def test_dimension_mismatch(self):
        d = _tiny_dataset([1.0, 2.0])
        with pytest.raises(Exception):
            loss_total(d, [1.0, 2.0], 0.5, SRQ)


def test_params_validation():
    with pytest.raises(ValueError):
        FlexCheckParams(c=0.0)
    with pytest.raises(ValueError):
        FlexCheckParams(c=-1.0)
    with pytest.raises(ValueError):
        FlexCheckParams(c=1.0, s=1.5)
    assert SRQ.c == 10.0 and SRQ.h == 0.0 and SRQ.s == 0.5 and SRQ.v == 0.0
    assert SMRQ.c == 0.7 and SMRQ.v == 0.4
