"""Tests of the benchmark's own machinery: self time, wrapping, checks."""

import json
from pathlib import Path

import numpy as np
import pytest

from smoothrq import cli, diagnostics, estimators
from smoothrq.datagen import SynthConfig, gen_hetero_normal
from smoothrq.estimators import TauGrid
from smoothrq.losses import SRQ

import bench_checks
from bench_layers import PER_LAYER, layer_metrics, trace_points
from bench_trace import UNOBSERVED, Span, Tracer, self_times
from run import END_TO_END, WORKLOAD_NAMES, check_runs

GRID = TauGrid.from_count(9)


@pytest.fixture(scope="module")
def data():
    return gen_hetero_normal(SynthConfig(n=60, seed=7))


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.inner", 1, 2.0, 3.0),
        Span("b", 0, 3.5, 6.0),  # overlaps a: the union [1, 6] is covered once
        Span("late", 0, 9.0, 12.0),  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_events_count_first_detections_not_suppression_rechecks():
    spans = [
        Span("request", -1, 0.0, 10.0),
        Span("diagnostics", 0, 1.0, 2.0, {"events": 3}),
        Span("diagnostics.suppress", 0, 2.0, 6.0, {"passes": 2}),
        Span("diagnostics", 2, 3.0, 4.0, {"events": 1}),
        Span("diagnostics", 2, 4.0, 5.0, {"events": 0}),
    ]
    m = layer_metrics(spans)
    assert m["diagnostics.events"] == 3
    assert m["diagnostics.suppress.passes"] == 2
    assert m["diagnostics.s"] == pytest.approx(4.0 + 1.0)


def test_wrappers_are_restored_after_a_traced_run(data, tmp_path):
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in trace_points()]
    fit_grid = estimators.fit_grid
    tracer = Tracer()
    with tracer.patched(trace_points()):
        assert estimators.fit_grid is not fit_grid
        estimators.fit_grid(data, GRID, "srq")
        cli.main(["grid", "--data", "anscombe", "--grid", "9", "--methods", "rq",
                  "--suppress", "--out", str(tmp_path)])
    for mod, attr, fn in originals:
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} left wrapped"

    m = layer_metrics(tracer.spans)
    assert m["optim.qn.calls"] == len(GRID)
    assert m["losses.evals"] >= m["optim.qn.iterations"] > 0
    assert m["estimators.levels"] == 2 * len(GRID)
    assert m["cli.bytes_written"] > 0 and m["diagnostics.suppress.passes"] >= 0
    unobserved = {k for k, v in m.items() if v == UNOBSERVED}
    assert unobserved == {"estimators.rrq_step.s", "estimators.rrq_step.cells"}
    assert all(v >= 0 for k, v in m.items() if k not in unobserved)


def test_wrappers_are_restored_when_the_traced_block_raises():
    original = diagnostics.count_below
    with pytest.raises(RuntimeError):
        with Tracer().patched(trace_points()):
            raise RuntimeError("boom")
    assert diagnostics.count_below is original


def test_rq_check_rejects_a_nudged_beta(data):
    res = estimators.fit_grid(data, GRID, "rq")
    assert bench_checks.bad_rq_levels(data, res.taus, res.coefficients) == []
    coefs = res.coefficients.copy()
    coefs[3, 0] += 1e-3
    assert bench_checks.bad_rq_levels(data, res.taus, coefs) == [3]


def test_gradient_check_rejects_a_nudged_beta(data):
    res = estimators.fit_grid(data, GRID, "srq")
    assert bench_checks.bad_smooth_levels(data, res.taus, res.coefficients, SRQ) == []
    coefs = res.coefficients.copy()
    coefs[5, 1] += 1e-3
    assert bench_checks.bad_smooth_levels(data, res.taus, coefs, SRQ) == [5]


def test_rrq_certificate_rejects_a_shifted_step(data):
    model = estimators.fit_rrq(data, GRID)
    coefs = model.planes()
    assert bench_checks.bad_rrq_levels(data, GRID.values, coefs) == []
    shifted = coefs.copy()
    shifted[2] += 0.1 * (1.0 + abs(model.c[2])) * model.gamma  # c[2] moved along gamma
    assert bench_checks.bad_rrq_levels(data, GRID.values, shifted) == [2]
    off_line = coefs.copy()
    off_line[5, 0] += 1e-3  # no longer on the family's line
    assert bench_checks.bad_rrq_levels(data, GRID.values, off_line) == [5]


def test_step_minimum_matches_a_search_over_breakpoints():
    rng = np.random.default_rng(3)
    r, s = rng.normal(size=50), rng.normal(size=50)
    s[:3] = 0.0  # terms that do not move with the step
    for tau in (0.1, 0.5, 0.83):
        brute = min(bench_checks.step_objective(r, s, b, tau) for b in r[3:] / s[3:])
        assert bench_checks.step_minimum(r, s, tau) == pytest.approx(brute, rel=1e-12)


def test_rrq_certificate_grants_the_rq_objective_tolerance(data):
    """A step just off its kink passes within RQ_RTOL of the best objective, not beyond."""
    model = estimators.fit_rrq(data, GRID)
    r, s = data.residuals(model.beta_med), data.X @ model.gamma
    k, tau = 2, float(GRID.values[2])
    _, right = bench_checks.step_slopes(r, s, model.c[k], tau)
    best = bench_checks.step_objective(r, s, model.c[k], tau)
    shift = bench_checks.RQ_RTOL * max(1.0, best) / right  # raises the objective by the tolerance
    slack = bench_checks.SLOPE_TOL * float(np.abs(s).sum())
    for factor, expected in ((0.5, []), (2.0, [k])):
        left, _ = bench_checks.step_slopes(r, s, model.c[k] + factor * shift, tau)
        assert left > slack  # the slope certificate alone rejects the step
        planes = model.planes()
        planes[k] += factor * shift * model.gamma
        assert bench_checks.bad_rrq_levels(data, GRID.values, planes) == expected


def test_recount_rejects_a_changed_count(data):
    res = estimators.fit_grid(data, GRID, "srq")
    counts = res.curve.counts.copy()
    assert bench_checks.bad_counts(data, res.coefficients, counts) == []
    counts[4] += 1
    assert bench_checks.bad_counts(data, res.coefficients, counts) == [4]


def test_outputs_that_differ_between_runs_fail_every_level():
    same = ([], 9, b"tsv bytes")
    assert check_runs([(0, same), (0, same)])[:2] == (18, 0)
    changed = ([], 9, b"tsv bytez")
    assert check_runs([(0, same), (0, changed)])[:2] == (18, 9)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES
