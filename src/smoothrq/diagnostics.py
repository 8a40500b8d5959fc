"""Monotonicity diagnostics for families of quantile fits.

For a grid of quantile levels tau_1 < ... < tau_m and fitted planes
beta(tau_k), the curve k -> #{i : y_i < x_i' beta(tau_k)} should be
nondecreasing; any local decrease means two fitted planes cross inside the
data.  This module counts those violations, classifies them into narrow
events (single-point spikes, two-point pulses) and wide ones, and repairs the
narrow ones by replacing the offending planes with neighbor-based candidates.

Classification works on windows.  A window [a, b] of grid indices can be
repaired iff clamping its counts into the band [v[a-1], v[b+1]] restores
local order, i.e. v[b+1] >= v[a-1] (missing neighbors count as infinite).
Scanning left to right, each descent v[k] > v[k+1] is assigned the smallest
feasible window touching it (leftmost on ties):

* width 1, value above the band -> positive spike; below -> negative spike
* width 2, both values above -> positive pulse; both below -> negative pulse
* anything wider -> wide event, reported but never repaired

Windows never overlap, so one grid index belongs to at most one event and
the classified widths add up to exactly the violating indices they cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .datagen import DataError, Dataset

__all__ = [
    "MIN_EVENT_LEVELS",
    "Spike",
    "Pulse",
    "WideEvent",
    "Crossing",
    "CountCurve",
    "EventReport",
    "GridResult",
    "count_below",
    "count_curve",
    "detect_events",
    "suppress_events",
    "detect_crossings_1d",
]

POSITIVE = "positive"
NEGATIVE = "negative"

# event windows need a neighbor on each side of an interior index
MIN_EVENT_LEVELS = 3
# repair passes suppress_events makes before it reports non-convergence
_SUPPRESS_PASSES = 3
# count_below predicts this many planes at a time, so a stack of m planes
# holds a 64 x n block of predictions rather than the whole m x n
_COUNT_BLOCK = 64


class Spike(NamedTuple):
    index: int
    polarity: str


class Pulse(NamedTuple):
    start: int  # covers grid indices (start, start + 1)
    polarity: str


class WideEvent(NamedTuple):
    start: int
    width: int  # >= 3


class Crossing(NamedTuple):
    tau_low: float
    tau_high: float
    x: float


@dataclass
class CountCurve:
    """Below-counts along a tau grid, for a dataset of n observations."""

    taus: np.ndarray
    counts: np.ndarray
    n: int

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float).ravel()
        self.counts = np.asarray(self.counts, dtype=int).ravel()
        if self.taus.shape != self.counts.shape:
            raise ValueError(f"{self.taus.size} taus vs {self.counts.size} counts")
        if self.counts.size and (self.counts.min() < 0 or self.counts.max() > self.n):
            raise ValueError(f"counts must lie in [0, {self.n}]")


@dataclass
class EventReport:
    """Classified monotonicity violations of one count curve."""

    spikes: list[Spike] = field(default_factory=list)
    pulses: list[Pulse] = field(default_factory=list)
    wide_events: list[WideEvent] = field(default_factory=list)

    @property
    def spike_count(self) -> int:
        return len(self.spikes)

    @property
    def pulse_count(self) -> int:
        return len(self.pulses)

    @property
    def wide_count(self) -> int:
        return len(self.wide_events)

    def windows(self) -> list[tuple[int, int]]:
        """(start, width) extents of all events, in grid order."""
        spans = [(s.index, 1) for s in self.spikes]
        spans += [(p.start, 2) for p in self.pulses]
        spans += [(w.start, w.width) for w in self.wide_events]
        return sorted(spans)

    def coverage(self) -> int:
        """Total number of grid indices inside classified events."""
        return self.spike_count + 2 * self.pulse_count + sum(w.width for w in self.wide_events)

    def cell(self) -> str:
        """Compact spikes/pulses rendering used in result tables."""
        return f"{self.spike_count}/{self.pulse_count}"


@dataclass
class GridResult:
    """Per-tau coefficients for one method on one dataset, plus diagnostics."""

    taus: np.ndarray
    coefficients: np.ndarray
    dataset: Dataset
    method: str
    statuses: list[str] = field(default_factory=list)
    curve: CountCurve | None = None
    events: EventReport | None = None
    suppression_passes: int | None = None
    suppression_converged: bool | None = None

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float).ravel()
        self.coefficients = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if self.coefficients.shape[0] != self.taus.size:
            raise ValueError(
                f"{self.coefficients.shape[0]} coefficient rows for {self.taus.size} taus"
            )


def count_below(data: Dataset, beta):
    """Number of observations strictly below the fitted plane (ties excluded).

    beta is one plane, giving an int, or an (m, p) stack of planes, giving an
    array of m counts.  Each plane is predicted by its own matrix-vector
    product, so a stacked count equals the per-plane counts bit for bit even
    when a plane passes within an ulp of a data point.  Planes are predicted
    64 at a time, so memory stays O(64 n) for any m.  A plane with a NaN
    or infinite coefficient, such as a failed level's row, raises DataError.
    """
    beta = np.asarray(beta, dtype=float)
    betas = np.atleast_2d(beta)
    if betas.ndim != 2 or betas.shape[1] != data.n_coef:
        raise DataError(f"planes have shape {beta.shape}, expected ({data.n_coef},) "
                        f"or (m, {data.n_coef})")
    finite = np.isfinite(betas).all(axis=1)
    if not finite.all():
        raise DataError(f"plane row {int(np.argmin(finite))} has a non-finite coefficient")
    counts = np.empty(len(betas), dtype=int)
    for i in range(0, len(betas), _COUNT_BLOCK):
        block = betas[i:i + _COUNT_BLOCK, :, None]
        counts[i:i + len(block)] = (data.y < (data.X @ block)[:, :, 0]).sum(axis=1)
    return int(counts[0]) if beta.ndim < 2 else counts


def count_curve(data: Dataset, grid_result: GridResult) -> CountCurve:
    """Below-count at every grid row of a fitted family."""
    return CountCurve(taus=grid_result.taus.copy(),
                      counts=count_below(data, grid_result.coefficients), n=data.n_obs)


def _find_window(v, i, lo):
    """Smallest classifiable window touching the descent edge (i, i+1).

    Returns (start, width, kind, polarity) with kind in {spike, pulse, wide}.
    Windows are tried by growing width, leftmost start first, and may not
    begin before lo (the end of the previous event).
    """
    L = len(v)
    for w in range(1, L - lo + 1):
        amin = max(lo, i - w + 1)
        amax = min(i + 1, L - w)
        for a in range(amin, amax + 1):
            b = a + w - 1
            band_lo = float(v[a - 1]) if a > 0 else -np.inf
            band_hi = float(v[b + 1]) if b < L - 1 else np.inf
            if band_hi < band_lo:
                continue
            if w == 1:
                if v[a] > band_hi:
                    return a, w, "spike", POSITIVE
                if v[a] < band_lo:
                    return a, w, "spike", NEGATIVE
                continue
            if w == 2:
                if v[a] > band_hi and v[b] > band_hi:
                    return a, w, "pulse", POSITIVE
                if v[a] < band_lo and v[b] < band_lo:
                    return a, w, "pulse", NEGATIVE
                continue
            return a, w, "wide", ""
    raise AssertionError("the full remaining window is always feasible")


def detect_events(curve: CountCurve) -> EventReport:
    """Classify every monotonicity violation of a count curve.

    Scans for descents v[k] > v[k+1] left to right and assigns each the
    smallest repairable window (see the module docstring).  Classification
    depends only on count differences, so adding a constant to all counts
    changes nothing.
    """
    v = curve.counts
    L = v.size
    if L < MIN_EVENT_LEVELS:
        raise ValueError(
            f"need at least {MIN_EVENT_LEVELS} grid points to classify events, got {L}")
    report = EventReport()
    lo = 0
    pos = 0
    while pos < L - 1:
        edge = -1
        for k in range(pos, L - 1):
            if v[k] > v[k + 1]:
                edge = k
                break
        if edge < 0:
            break
        a, w, kind, polarity = _find_window(v, edge, lo)
        if kind == "spike":
            report.spikes.append(Spike(a, polarity))
        elif kind == "pulse":
            report.pulses.append(Pulse(a, polarity))
        else:
            report.wide_events.append(WideEvent(a, w))
        lo = a + w
        pos = a + w
    return report


def _replace_with_best_candidate(data, betas, counts, j):
    """Swap plane j for the neighbor-derived candidate with fewest local descents.

    Candidates, in tie-break order: midpoint of the two neighbor planes, copy
    of the left plane, copy of the right plane.  Counts are recomputed from
    the data for every candidate.
    """
    L = counts.size
    cands = []
    if 0 < j < L - 1:
        cands.append(0.5 * (betas[j - 1] + betas[j + 1]))
    if j > 0:
        cands.append(betas[j - 1])
    if j < L - 1:
        cands.append(betas[j + 1])
    best = None
    for cand, cj in zip(cands, count_below(data, np.array(cands))):
        viol = 0
        if j > 0 and cj < counts[j - 1]:
            viol += 1
        if j < L - 1 and counts[j + 1] < cj:
            viol += 1
        if best is None or viol < best[0]:
            best = (viol, cand, cj)
    betas[j] = best[1]
    counts[j] = best[2]


def _touches_descent(counts, j):
    L = counts.size
    left = j > 0 and counts[j] < counts[j - 1]
    right = j < L - 1 and counts[j + 1] < counts[j]
    return left or right


def _suppress_pulse(data, betas, counts, j):
    """Collapse the pulse at (j, j+1) to a spike, then repair what remains.

    The index replaced first is the one farther outside the neighbor band
    (ties go to the left index); if the other index still sits on a descent
    afterwards it is repaired as a spike.
    """
    L = counts.size
    band_lo = float(counts[j - 1]) if j > 0 else -np.inf
    band_hi = float(counts[j + 2]) if j + 2 < L else np.inf

    def offset(value):
        if value > band_hi:
            return value - band_hi
        if value < band_lo:
            return band_lo - value
        return 0.0

    worse = j if offset(counts[j]) >= offset(counts[j + 1]) else j + 1
    other = j + 1 if worse == j else j
    _replace_with_best_candidate(data, betas, counts, worse)
    if _touches_descent(counts, other):
        _replace_with_best_candidate(data, betas, counts, other)


def suppress_events(grid_result: GridResult, report: EventReport) -> GridResult:
    """Repair spikes and pulses by neighbor substitution; leave wide events alone.

    Each pass walks the report's spikes and pulses in grid order, replaces the
    offending planes, recomputes all counts from the data, and re-classifies.
    Repair stops after three passes; suppression_converged records whether
    the final curve is free of spikes and pulses.  An event-free report
    returns the grid unchanged.
    """
    data = grid_result.dataset
    betas = grid_result.coefficients.copy()
    counts = count_below(data, betas)
    current = report
    passes = 0
    while (current.spike_count or current.pulse_count) and passes < _SUPPRESS_PASSES:
        passes += 1
        narrow = [("spike", s.index) for s in current.spikes]
        narrow += [("pulse", p.start) for p in current.pulses]
        for kind, j in sorted(narrow, key=lambda item: item[1]):
            if kind == "spike":
                _replace_with_best_candidate(data, betas, counts, j)
            else:
                _suppress_pulse(data, betas, counts, j)
        counts = count_below(data, betas)
        current = detect_events(CountCurve(grid_result.taus.copy(), counts, data.n_obs))

    curve = CountCurve(grid_result.taus.copy(), counts.copy(), data.n_obs)
    return GridResult(
        taus=grid_result.taus.copy(),
        coefficients=betas,
        dataset=data,
        method=grid_result.method,
        statuses=list(grid_result.statuses),
        curve=curve,
        events=current,
        suppression_passes=passes,
        suppression_converged=not (current.spike_count or current.pulse_count),
    )


def detect_crossings_1d(grid_result: GridResult, x_range) -> list[Crossing]:
    """Pairwise intersections of adjacent fitted lines inside an x interval.

    Only defined for simple regression (one predictor plus intercept, p = 2);
    other shapes raise ValueError.  Parallel neighbors never cross.
    """
    coef = grid_result.coefficients
    if coef.shape[1] != 2:
        raise ValueError(
            "crossing detection is only supported for one predictor plus an "
            f"intercept (p = 2); this grid has p = {coef.shape[1]}"
        )
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    if x_lo > x_hi:
        x_lo, x_hi = x_hi, x_lo
    slopes = coef[:, 0]
    icepts = coef[:, 1]
    scale = max(1.0, float(np.abs(slopes).max()))
    out = []
    for k in range(coef.shape[0] - 1):
        denom = slopes[k] - slopes[k + 1]
        if abs(denom) <= 1e-12 * scale:
            continue
        x_star = (icepts[k + 1] - icepts[k]) / denom
        if x_lo <= x_star <= x_hi:
            out.append(Crossing(float(grid_result.taus[k]),
                                float(grid_result.taus[k + 1]), float(x_star)))
    return out
