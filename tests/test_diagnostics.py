"""Count curves, event classification, suppression, crossing detection."""

import tracemalloc

import numpy as np
import pytest

from smoothrq import (
    CountCurve,
    DataError,
    Dataset,
    EventReport,
    GridResult,
    count_below,
    count_curve,
    detect_crossings_1d,
    detect_events,
    suppress_events,
)
from smoothrq.datagen import load_anscombe, load_swiss
from smoothrq.diagnostics import NEGATIVE, POSITIVE, Pulse, Spike, WideEvent
from smoothrq.estimators import TauGrid, fit_grid


def curve_of(counts, n=None):
    counts = np.asarray(counts, dtype=int)
    if n is None:
        n = int(counts.max()) + 1
    taus = np.linspace(0.1, 0.9, counts.size)
    return CountCurve(taus=taus, counts=counts, n=n)


def grid_for_counts(counts):
    """Intercept-only grid whose below-counts equal the given sequence.

    With y = 0..n-1 and plane height c - 0.5, exactly c points lie strictly
    below, so any integer count sequence is realizable.
    """
    counts = np.asarray(counts, dtype=int)
    n = int(counts.max()) + 1
    data = Dataset(X=np.ones((n, 1)), y=np.arange(n, dtype=float))
    betas = (counts - 0.5)[:, None].astype(float)
    taus = np.linspace(0.1, 0.9, counts.size)
    g = GridResult(taus=taus, coefficients=betas, dataset=data, method="rq")
    g.curve = count_curve(data, g)
    assert (g.curve.counts == counts).all()
    return g


class TestCountBelow:
    def test_strict_inequality_excludes_ties(self):
        d = Dataset(X=np.ones((3, 1)), y=[1.0, 2.0, 3.0])
        assert count_below(d, [2.0]) == 1

    def test_plane_above_all(self):
        d = Dataset(X=np.ones((3, 1)), y=[1.0, 2.0, 3.0])
        assert count_below(d, [99.0]) == 3

    def test_plane_below_all(self):
        d = Dataset(X=np.ones((3, 1)), y=[1.0, 2.0, 3.0])
        assert count_below(d, [-99.0]) == 0

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        d = Dataset.from_predictors(x, y)
        perm = rng.permutation(20)
        dp = Dataset.from_predictors(x[perm], y[perm])
        for beta in ([0.5, 0.1], [-1.0, 0.3], [0.0, 0.0]):
            assert count_below(d, beta) == count_below(dp, beta)

    def test_stack_matches_per_plane_counts_exactly(self):
        # rq vertices pass through data points, so a prediction one ulp off
        # flips a count; the stacked form must predict each plane as alone
        data = load_swiss()
        coefs = fit_grid(data, TauGrid.from_count(19), "rq").coefficients
        per_plane = [int((data.y < data.predict(b)).sum()) for b in coefs]
        assert count_below(data, coefs).tolist() == per_plane

    def test_stack_counts_in_bounded_memory(self):
        # the whole 999 x 20000 prediction block would take 152 MiB; the
        # stack is predicted in blocks, each plane still by its own product
        rng = np.random.default_rng(3)
        data = Dataset.from_predictors(rng.normal(size=(20000, 3)), rng.normal(size=20000))
        stack = 0.3 * rng.normal(size=(999, 4))
        tracemalloc.start()
        try:
            counts = count_below(data, stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20
        assert counts.tolist() == [int((data.y < data.predict(b)).sum()) for b in stack]

    def test_wrong_stack_shape_rejected(self):
        d = Dataset(X=np.ones((3, 1)), y=[1.0, 2.0, 3.0])
        for bad in (np.zeros((2, 2)), np.zeros((2, 1, 1)), [1.0, 2.0]):
            with pytest.raises(DataError, match="planes have shape"):
                count_below(d, bad)

    def test_non_finite_plane_rejected(self):
        # a failed level leaves a NaN row; it must not count as 0 below
        d = Dataset.from_predictors([0.0, 1.0, 2.0], [1.0, 2.0, 4.0])
        stack = np.array([[1.0, 0.0], [1.0, 0.5], [np.nan, 1.0], [np.inf, 0.0]])
        with pytest.raises(DataError, match="plane row 2 has a non-finite coefficient"):
            count_below(d, stack)
        with pytest.raises(DataError, match="plane row 0 "):
            count_below(d, [1.0, -np.inf])


class TestCountCurve:
    def test_order_preserved(self):
        g = grid_for_counts([2, 0, 5])
        assert list(g.curve.counts) == [2, 0, 5]

    def test_counts_bound_validation(self):
        with pytest.raises(ValueError):
            CountCurve(taus=[0.1, 0.5, 0.9], counts=[0, 7, 1], n=5)

    def test_smooth_staircase_on_bundled_points(self):
        # 99-level family on the 11-point set: an uneven but monotone
        # staircase running from 0 to 11
        g = fit_grid(load_anscombe(), TauGrid.from_count(99), "srq")
        c = g.curve.counts
        assert (np.diff(c) >= 0).all()
        assert c.min() == 0
        assert c.max() == 11
        report = detect_events(g.curve)
        assert (report.spike_count, report.pulse_count, report.wide_count) == (0, 0, 0)

    def test_classic_family_can_break_monotonicity(self):
        # the LP baseline picks among tied optimal vertices, and on the
        # 47-point data those choices cross inside the data range
        g = fit_grid(load_swiss(), TauGrid.from_count(99), "rq")
        report = detect_events(g.curve)
        assert report.spike_count + report.pulse_count + report.wide_count >= 1


class TestDetectEvents:
    def test_positive_spike(self):
        r = detect_events(curve_of([3, 4, 6, 5, 6]))
        assert r.spikes == [Spike(2, POSITIVE)]
        assert r.pulses == [] and r.wide_events == []

    def test_negative_spike(self):
        r = detect_events(curve_of([3, 4, 2, 5, 6]))
        assert r.spikes == [Spike(2, NEGATIVE)]
        assert r.pulses == [] and r.wide_events == []

    def test_positive_pulse(self):
        r = detect_events(curve_of([2, 5, 5, 3, 4]))
        assert r.pulses == [Pulse(1, POSITIVE)]
        assert r.spikes == [] and r.wide_events == []

    def test_negative_pulse(self):
        # narrower windows around the dip are all band-infeasible
        r = detect_events(curve_of([5, 6, 7, 2, 1, 9]))
        assert r.pulses == [Pulse(3, NEGATIVE)]
        assert r.spikes == [] and r.wide_events == []

    def test_monotone_empty(self):
        r = detect_events(curve_of([0, 1, 1, 3, 7]))
        assert (r.spike_count, r.pulse_count, r.wide_count) == (0, 0, 0)

    def test_ties_are_monotone(self):
        r = detect_events(curve_of([2, 2, 2, 2, 2]))
        assert r.coverage() == 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            detect_events(curve_of([1, 0]))

    def test_shift_invariance(self):
        base = np.array([3, 4, 6, 5, 6, 2, 7, 7, 9])
        r0 = detect_events(curve_of(base))
        r1 = detect_events(curve_of(base + 5))
        assert r0.spikes == r1.spikes
        assert r0.pulses == r1.pulses
        assert r0.wide_events == r1.wide_events

    def test_cell_format(self):
        r = detect_events(curve_of([3, 4, 6, 5, 6]))
        assert r.cell() == "1/0"

    def test_wide_event_reported(self):
        # the steep three-step descent leaves no feasible narrow window
        r = detect_events(curve_of([5, 6, 7, 2, 1, 0, 9]))
        assert r.wide_count >= 1
        assert all(w.width >= 3 for w in r.wide_events)


def _windows_sound(counts, report):
    """Check the report's windows against the curve they classify.

    Windows must be disjoint, in bounds, and band-feasible; every descent
    edge must touch a window; spikes and pulses must sit outside their band
    on the reported side.  Clamping a narrow window into the band of its
    original neighbors must restore order on that window's own slice.  When
    no window abuts another (and none is wide), the local repairs chain, so
    one clamping pass over the whole curve must leave it nondecreasing.
    Back-to-back windows give no such one-pass promise: each band quotes the
    other window's corrupted value, and their joint repair is the multi-pass
    suppression loop's job.
    """
    v = np.asarray(counts, dtype=float)
    L = v.size
    kinds = {(s.index, 1): ("spike", s.polarity) for s in report.spikes}
    kinds.update({(p.start, 2): ("pulse", p.polarity) for p in report.pulses})
    kinds.update({(w.start, w.width): ("wide", "") for w in report.wide_events})
    wins = report.windows()
    assert len(kinds) == len(wins)
    covered = set()
    for start, width in wins:
        assert 0 <= start and start + width <= L
        lo = v[start - 1] if start > 0 else -np.inf
        hi = v[start + width] if start + width < L else np.inf
        assert hi >= lo
        kind, polarity = kinds[(start, width)]
        block = v[start:start + width]
        if kind == "spike":
            assert width == 1
            assert block[0] > hi if polarity == "positive" else block[0] < lo
        elif kind == "pulse":
            assert width == 2
            if polarity == "positive":
                assert (block > hi).all()
            else:
                assert (block < lo).all()
        else:
            assert width >= 3
        if kind != "wide":
            slab = np.concatenate(([lo], np.clip(block, lo, hi), [hi]))
            assert (np.diff(slab) >= 0).all(), f"window ({start},{width}) of {list(v)}"
        span = set(range(start, start + width))
        assert not (span & covered)
        covered |= span
    for k in range(L - 1):
        if v[k] > v[k + 1]:
            touching = [
                (a, w) for a, w in wins if a <= k + 1 and k <= a + w - 1
            ]
            assert len(touching) >= 1, f"descent at {k} not covered"
    separated = all(
        wins[i][0] + wins[i][1] < wins[i + 1][0] for i in range(len(wins) - 1)
    )
    if not report.wide_events and separated:
        repaired = v.copy()
        for start, width in wins:
            lo = v[start - 1] if start > 0 else -np.inf
            hi = v[start + width] if start + width < L else np.inf
            repaired[start:start + width] = np.clip(
                repaired[start:start + width], lo, hi)
        assert (np.diff(repaired) >= 0).all(), f"clamping failed to repair {list(v)}"
    return len(covered)


class TestClassificationPartition:
    def test_random_curves(self):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            L = int(rng.integers(3, 30))
            n = int(rng.integers(1, 15))
            counts = rng.integers(0, n + 1, size=L)
            report = detect_events(curve_of(counts, n=n))
            covered = _windows_sound(counts, report)
            assert report.coverage() == covered

    def test_random_monotone_with_spikes(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            L = int(rng.integers(5, 40))
            base = np.sort(rng.integers(0, 12, size=L))
            k = int(rng.integers(1, 4))
            for j in rng.choice(np.arange(1, L - 1), size=k, replace=False):
                base[j] += rng.choice([-3, 3])
            base = np.clip(base, 0, 14)
            report = detect_events(curve_of(base, n=14))
            covered = _windows_sound(base, report)
            assert report.coverage() == covered


class TestSuppression:
    def test_spike_repaired_to_monotone(self):
        g = grid_for_counts([3, 4, 6, 5, 6])
        report = detect_events(g.curve)
        out = suppress_events(g, report)
        assert (np.diff(out.curve.counts) >= 0).all()
        assert out.events.spike_count == 0
        assert out.suppression_converged is True
        assert out.suppression_passes >= 1

    def test_empty_report_identity(self):
        g = grid_for_counts([0, 2, 5, 5, 7])
        out = suppress_events(g, EventReport())
        assert out.coefficients.tobytes() == g.coefficients.tobytes()
        assert (out.curve.counts == g.curve.counts).all()
        assert out.suppression_passes == 0
        assert out.suppression_converged is True

    def test_wide_event_untouched(self):
        g = grid_for_counts([1, 1, 1, 1, 0, 0, 0, 0])
        report = detect_events(g.curve)
        assert report.wide_events == [WideEvent(0, 4)]
        assert report.spike_count == 0 and report.pulse_count == 0
        out = suppress_events(g, report)
        assert (out.curve.counts == g.curve.counts).all()
        assert out.coefficients.tobytes() == g.coefficients.tobytes()
        assert out.events.wide_events == [WideEvent(0, 4)]

    def test_pulse_conversion_and_repair(self):
        g = grid_for_counts([2, 5, 5, 3, 4])
        report = detect_events(g.curve)
        assert report.pulse_count == 1
        out = suppress_events(g, report)
        assert out.events.spike_count == 0
        assert out.events.pulse_count == 0
        assert out.suppression_converged is True

    def test_pass_cap_respected(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            L = int(rng.integers(5, 25))
            counts = rng.integers(0, 10, size=L)
            g = grid_for_counts(counts)
            report = detect_events(g.curve)
            out = suppress_events(g, report)
            assert out.suppression_passes <= 3
            if out.suppression_converged:
                assert out.events.spike_count == 0
                assert out.events.pulse_count == 0

    def test_second_pass_never_adds_narrow_events(self):
        rng = np.random.default_rng(3000)
        for _ in range(300):
            L = int(rng.integers(3, 30))
            counts = rng.integers(0, int(rng.integers(1, 15)) + 1, size=L)
            g = grid_for_counts(counts)
            report = detect_events(g.curve)
            first = suppress_events(g, report)
            second = suppress_events(first, first.events)
            narrow = second.events.spike_count + second.events.pulse_count
            assert narrow <= first.events.spike_count + first.events.pulse_count
            assert narrow <= report.spike_count + report.pulse_count

    def test_spike_only_reports_clear_or_flag(self):
        rng = np.random.default_rng(31)
        seen = 0
        for _ in range(300):
            L = int(rng.integers(5, 30))
            base = np.sort(rng.integers(0, 10, size=L))
            for j in rng.choice(np.arange(1, L - 1), size=2, replace=False):
                base[j] += rng.choice([-4, 4])
            base = np.clip(base, 0, 12)
            g = grid_for_counts(base)
            report = detect_events(g.curve)
            if report.pulse_count or report.wide_count or not report.spike_count:
                continue
            seen += 1
            out = suppress_events(g, report)
            assert out.events.spike_count == 0 or out.suppression_converged is False
        assert seen >= 50


def _reference_replace(data, betas, counts, j):
    """The repair step as it stood before the window rule: a scored loop."""
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
    _reference_replace(data, betas, counts, worse)
    if _touches_descent(counts, other):
        _reference_replace(data, betas, counts, other)


def reference_suppress(grid_result, report):
    """suppress_events with a spike/pulse branch and a full recount after each pass."""
    data = grid_result.dataset
    betas = grid_result.coefficients.copy()
    counts = count_below(data, betas)
    current = report
    passes = 0
    while (current.spike_count or current.pulse_count) and passes < 3:
        passes += 1
        narrow = [("spike", s.index) for s in current.spikes]
        narrow += [("pulse", p.start) for p in current.pulses]
        for kind, j in sorted(narrow, key=lambda item: item[1]):
            if kind == "spike":
                _reference_replace(data, betas, counts, j)
            else:
                _suppress_pulse(data, betas, counts, j)
        counts = count_below(data, betas)
        current = detect_events(CountCurve(grid_result.taus.copy(), counts, data.n_obs))
    return betas, counts, current, passes


def _random_event_curve(rng):
    """A count curve with spikes, pulses or wide events, or plain random counts."""
    L = int(rng.integers(3, 40))
    top = int(rng.integers(1, 20))
    if rng.random() < 0.25:
        return rng.integers(0, top + 1, size=L)
    counts = np.sort(rng.integers(0, top + 1, size=L))
    for _ in range(int(rng.integers(1, 5))):
        width = int(rng.choice([1, 1, 2, 2, 3, 4]))
        start = int(rng.integers(0, max(1, L - width + 1)))
        counts[start:start + width] += int(rng.choice([-4, -2, -1, 1, 2, 4]))
    return np.clip(counts, 0, top + 4)


class TestSuppressionAgainstReference:
    def _compare(self, g):
        report = detect_events(g.curve)
        out = suppress_events(g, report)
        betas, counts, events, passes = reference_suppress(g, report)
        assert out.coefficients.tobytes() == betas.tobytes()
        assert out.curve.counts.tobytes() == counts.tobytes()
        assert out.suppression_passes == passes
        assert out.suppression_converged is not bool(events.spike_count or events.pulse_count)
        assert out.events == events
        return report, out

    def test_random_curves(self):
        rng = np.random.default_rng(1313)
        seen = {"spike": 0, "pulse": 0, "wide": 0, "multi-pass": 0, "unconverged": 0}
        for _ in range(2500):
            report, out = self._compare(grid_for_counts(_random_event_curve(rng)))
            seen["spike"] += report.spike_count > 0
            seen["pulse"] += report.pulse_count > 0
            seen["wide"] += report.wide_count > 0
            seen["multi-pass"] += out.suppression_passes > 1
            seen["unconverged"] += not out.suppression_converged
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("loader, method", [(load_swiss, "rq"), (load_anscombe, "rq"),
                                                (load_anscombe, "rrq")])
    def test_fitted_families(self, loader, method):
        # real planes pass within an ulp of data points, so the candidates'
        # stored counts must match what a recount of the whole stack gives
        data = loader()
        self._compare(fit_grid(data, TauGrid.from_count(99), method))


class TestCrossings:
    def _grid(self, rows):
        rows = np.asarray(rows, dtype=float)
        data = Dataset.from_predictors([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        taus = np.linspace(0.2, 0.8, rows.shape[0])
        return GridResult(taus=taus, coefficients=rows, dataset=data, method="rq")

    def test_parallel_lines(self):
        g = self._grid([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        assert detect_crossings_1d(g, (0.0, 10.0)) == []

    def test_crossing_inside_range(self):
        # y = x and y = 2x - 1 meet at x = 1
        g = self._grid([[1.0, 0.0], [2.0, -1.0]])
        out = detect_crossings_1d(g, (0.0, 2.0))
        assert len(out) == 1
        assert out[0].x == pytest.approx(1.0, abs=1e-12)
        assert out[0].tau_low == pytest.approx(0.2)
        assert out[0].tau_high == pytest.approx(0.8)

    def test_crossing_outside_range(self):
        # meet at x = 5, outside the observed range
        g = self._grid([[1.0, 0.0], [2.0, -5.0]])
        assert detect_crossings_1d(g, (0.0, 2.0)) == []

    def test_adjacent_pairs_only(self):
        # rows 0 and 2 cross inside range, but they are not adjacent
        g = self._grid([[1.0, 0.0], [1.0, 0.5], [2.0, -1.0]])
        out = detect_crossings_1d(g, (0.0, 2.0))
        assert len(out) == 1
        assert out[0].tau_low == pytest.approx(0.5)

    def test_rejects_other_dimensions(self):
        data = Dataset.from_predictors(np.arange(15.0).reshape(5, 3),
                                       [1.0, 2.0, 3.0, 4.0, 5.0])
        g = GridResult(taus=[0.5], coefficients=np.zeros((1, 4)),
                       dataset=data, method="rq")
        with pytest.raises(ValueError, match="p = 2"):
            detect_crossings_1d(g, (0.0, 1.0))
