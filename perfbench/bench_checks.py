"""Correctness checks on workload results, run outside the timed region.

Every check returns the indices of the grid levels it rejects, so a failure
counts toward the benchmark's fail ratio level by level.  The checks use
code paths independent of the ones they check: HiGHS for the exact LP
optimum, a fresh gradient evaluation for smooth fits, a one-dimensional
subgradient certificate (backed by an exact sorted-breakpoint minimum) for
the restricted family, and a vectorized recount for count curves.
"""

from __future__ import annotations

import numpy as np

RQ_RTOL = 1e-9  # rq objective versus the HiGHS optimum
ZERO_TOL = 1e-9  # relative size below which a residual counts as zero
SLOPE_TOL = 1e-9  # relative slack allowed in the subgradient certificate


def pinball(data, beta, tau: float) -> float:
    r = data.y - data.X @ np.asarray(beta, dtype=float)
    return float(np.sum(np.where(r >= 0, tau * r, (tau - 1.0) * r)))


def highs_objective(data, tau: float) -> float:
    """Pinball loss at the coefficients HiGHS returns for the quantile LP."""
    # imported here so the fresh-process set-up timing does not pay for them
    from scipy import sparse
    from scipy.optimize import linprog

    n, p = data.X.shape
    eye = sparse.identity(n, format="csr")
    X = sparse.csr_matrix(data.X)
    A = sparse.hstack([X, -X, eye, -eye], format="csr")
    cost = np.concatenate([np.zeros(2 * p), np.full(n, tau), np.full(n, 1.0 - tau)])
    res = linprog(cost, A_eq=A, b_eq=data.y, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed at tau={tau}: {res.message}")
    return pinball(data, res.x[:p] - res.x[p:2 * p], tau)


def bad_rq_levels(data, taus, coefs, oracle=highs_objective) -> list[int]:
    """Levels whose pinball objective misses the HiGHS optimum by more than RQ_RTOL."""
    bad = []
    for k, (tau, beta) in enumerate(zip(taus, coefs)):
        if not np.isfinite(beta).all():
            bad.append(k)
            continue
        best = oracle(data, float(tau))
        if abs(pinball(data, beta, float(tau)) - best) > RQ_RTOL * max(1.0, abs(best)):
            bad.append(k)
    return bad


def bad_smooth_levels(data, taus, coefs, params) -> list[int]:
    """Levels failing the fit-level gradient test, re-evaluated with loss_and_grad."""
    from smoothrq.estimators import FIT_GRAD_RTOL
    from smoothrq.losses import loss_and_grad

    bad = []
    for k, (tau, beta) in enumerate(zip(taus, coefs)):
        if not np.isfinite(beta).all():
            bad.append(k)
            continue
        _, grad = loss_and_grad(data, beta, float(tau), params)
        if np.abs(grad).max() > FIT_GRAD_RTOL * max(1.0, float(np.abs(beta).max())):
            bad.append(k)
    return bad


def step_slopes(r, s, t: float, tau: float) -> tuple[float, float]:
    """Left and right slopes of t -> sum pinball(r - t s, tau), in O(n)."""
    u = r - t * s
    zero = np.abs(u) <= ZERO_TOL * (1.0 + np.abs(r) + np.abs(t * s))
    pos = ~zero & (u > 0)
    neg = ~zero & (u < 0)
    base = float(-tau * s[pos].sum() + (1.0 - tau) * s[neg].sum())
    up = (1.0 - tau) * s[zero]
    down = -tau * s[zero]
    return base + float(np.minimum(up, down).sum()), base + float(np.maximum(up, down).sum())


def step_objective(r, s, t: float, tau: float) -> float:
    u = r - t * s
    return float(np.sum(np.where(u >= 0, tau * u, (tau - 1.0) * u)))


def step_minimum(r, s, tau: float) -> float:
    """Least value of t -> sum pinball(r - t s, tau), found by sorting breakpoints.

    Far left every term with s_i != 0 falls, so the slope starts at
    -tau sum(s > 0) + (1 - tau) sum(s < 0) < 0; passing breakpoint r_i / s_i
    raises it by |s_i|.  The minimum sits at the first breakpoint where the
    slope turns non-negative.
    """
    nz = s != 0
    if not nz.any():
        return step_objective(r, s, 0.0, tau)
    b = r[nz] / s[nz]
    order = np.argsort(b, kind="stable")
    start = -tau * float(s[s > 0].sum()) + (1.0 - tau) * float(s[s < 0].sum())
    k = int(np.searchsorted(start + np.cumsum(np.abs(s[nz])[order]), 0.0))
    return step_objective(r, s, float(b[order][min(k, order.size - 1)]), tau)


def bad_rrq_levels(data, taus, coefs, oracle=highs_objective) -> list[int]:
    """Certify each rrq plane as the best step along the family's direction.

    The family is beta_med + c[k] * gamma with beta_med the plane at tau = 0.5
    (where c = 0).  gamma is recovered up to scale from the plane farthest
    from beta_med; each level must lie on that line, and its step must satisfy
    left slope <= 0 <= right slope.  A step that misses the certificate still
    passes when its objective is within RQ_RTOL of the exact least value
    along the line, the same tolerance the rq check grants a vertex.  The
    median plane itself is checked against the HiGHS optimum.
    """
    taus = np.asarray(taus, dtype=float)
    coefs = np.asarray(coefs, dtype=float)
    if not np.isfinite(coefs).all():
        return [k for k in range(len(taus)) if not np.isfinite(coefs[k]).all()]
    anchor = np.nonzero(taus == 0.5)[0]
    if anchor.size != 1:
        raise ValueError("the rrq certificate needs tau = 0.5 in the grid")
    a = int(anchor[0])
    bad = bad_rq_levels(data, [0.5], coefs[a:a + 1], oracle)
    bad = [a] if bad else []
    beta_med = coefs[a]
    d = coefs - beta_med
    j = int(np.argmax(np.abs(d).max(axis=1)))
    gamma = d[j]
    gg = float(gamma @ gamma)
    if gg == 0.0:
        return bad  # every plane is the median plane: the collapsed family
    r = data.y - data.X @ beta_med
    s = data.X @ gamma
    scale = 1e-9 * (1.0 + float(np.abs(coefs).max()))
    slack = SLOPE_TOL * float(np.abs(s).sum())
    for k, tau in enumerate(taus):
        if k == a:
            continue
        t = float(d[k] @ gamma) / gg
        if np.abs(d[k] - t * gamma).max() > scale:
            bad.append(k)  # not on the family's line
            continue
        left, right = step_slopes(r, s, t, float(tau))
        if left > slack or right < -slack:
            best = step_minimum(r, s, float(tau))
            if step_objective(r, s, t, float(tau)) - best > RQ_RTOL * max(1.0, abs(best)):
                bad.append(k)
    return sorted(bad)


def bad_counts(data, coefs, counts) -> list[int]:
    """Levels whose below-count disagrees with a vectorized recount.

    Points within rounding distance of a plane may fall on either side, so a
    count passes when it lies between the strict recounts with the plane
    lowered and raised by that distance.
    """
    coefs = np.asarray(coefs, dtype=float)
    counts = np.asarray(counts)
    pred = data.X @ coefs.T
    tol = (ZERO_TOL * (1.0 + np.abs(data.y)))[:, None]
    y = data.y[:, None]
    lo = (y < pred - tol).sum(axis=0)
    hi = (y < pred + tol).sum(axis=0)
    ok = (lo <= counts) & (counts <= hi) & np.isfinite(coefs).all(axis=1)
    return [int(k) for k in np.nonzero(~ok)[0]]
