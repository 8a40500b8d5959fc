"""Where the tracer wraps smoothrq, and the per-layer metrics read from the spans.

Layers are the package's modules: datagen, losses, optim, estimators,
diagnostics and cli.  Every ``.s`` metric is self time (span time minus the
time of the spans it caused), summed over one request.  Sizes marked
"computed" are derived from call arguments, not measured.  A metric whose
functions were never called in the request reads UNOBSERVED (-1), never 0.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from smoothrq import cli, datagen, diagnostics, estimators
from smoothrq.optim import DEGENERATE_MULTIPLE

from bench_trace import UNOBSERVED, self_times

# name -> unit, in report order; BENCHMARK.json lists the same names
PER_LAYER = {
    "datagen.s": "s",
    "optim.lp.calls": "count",
    "optim.lp.pivots": "count",
    "optim.lp.degenerate": "count",
    "optim.lp.s": "s",
    "optim.lp.tableau_mb": "MiB",
    "optim.qn.calls": "count",
    "optim.qn.iterations": "count",
    "optim.qn.s": "s",
    "losses.evals": "count",
    "losses.s": "s",
    "losses.rows": "count",
    "losses.evals_per_iter": "ratio",
    "estimators.levels": "count",
    "estimators.failed": "count",
    "estimators.rq_build.s": "s",
    "estimators.smooth.s": "s",
    "estimators.rrq_step.s": "s",
    "estimators.rrq_step.cells": "count",
    "diagnostics.s": "s",
    "diagnostics.count_below.calls": "count",
    "diagnostics.events": "count",
    "diagnostics.suppress.passes": "count",
    "cli.s": "s",
    "cli.bytes_written": "B",
    "trace.overhead": "ratio",
    "fail_ratio": "ratio",
}

# counters that must repeat exactly when the same request runs twice
COUNTERS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "B", "MiB"))


def _lp(args, kwargs, report):
    rows, cols = args[0].A.shape
    return {"pivots": report.iterations,
            # dense tableau with the rhs column, 8-byte floats (computed)
            "tableau_mb": rows * (cols + 1) * 8 / 2 ** 20}


def _rq_fit(args, kwargs, fit):
    # the LP solver flags every rq optimum (the mirrored coefficient columns
    # always tie); fit_rq_lp keeps only optima whose coefficients can move
    return {"degenerate": int(fit.report.status == DEGENERATE_MULTIPLE)}


def _qn(args, kwargs, report):
    return {"iterations": report.iterations}


def _loss(args, kwargs, result):
    return {"rows": args[0].n_obs}  # rows evaluated (computed)


def _grid(args, kwargs, result):
    return {"levels": len(result.taus),
            "failed": sum(s.startswith("failed") for s in result.statuses)}


def _rrq(args, kwargs, model):
    n = args[0].n_obs
    return {"cells": len(model.taus) * (n + 1) * n}  # candidate matrix size (computed)


def _events(args, kwargs, report):
    return {"events": report.spike_count + report.pulse_count + report.wide_count}


def _suppress(args, kwargs, result):
    return {"passes": result.suppression_passes}


def _cli(args, kwargs, code):
    argv = args[0]
    out = Path(argv[argv.index("--out") + 1])
    # the TSVs only: the manifest holds wall-clock values and varies run to run
    return {"bytes": sum(p.stat().st_size for p in out.glob("*.tsv"))}


def trace_points():
    """(module, attribute, span name, counter) for every wrapped public function.

    The attribute is the name the caller looks the function up by at call
    time: estimators imported the solvers and losses, cli imported the
    estimators and diagnostics, and the benchmark itself calls through the
    estimators, diagnostics, datagen and cli modules.
    """
    return [
        (datagen, "gen_hetero_normal", "datagen", None),
        (datagen, "gen_pareto", "datagen", None),
        (datagen, "load_csv", "datagen", None),
        (cli, "dataset_fingerprint", "datagen", None),
        (estimators, "solve_lp_simplex", "optim.lp", _lp),
        (estimators, "minimize_qn", "optim.qn", _qn),
        (estimators, "loss_and_grad", "losses", _loss),
        (estimators, "fit_grid", "estimators.grid", _grid),
        (cli, "fit_grid", "estimators.grid", _grid),
        (estimators, "fit_rq_lp", "estimators.rq_build", _rq_fit),
        (estimators, "fit_smooth", "estimators.smooth", None),
        (estimators, "fit_rrq", "estimators.rrq_step", _rrq),
        (estimators, "count_curve", "diagnostics", None),
        (diagnostics, "count_below", "diagnostics.count_below", None),
        (diagnostics, "detect_events", "diagnostics", _events),
        (cli, "detect_events", "diagnostics", _events),
        (cli, "suppress_events", "diagnostics.suppress", _suppress),
        (cli, "main", "cli", _cli),
    ]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer values for one traced request (all but trace.overhead and fail_ratio)."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    sums: dict[tuple[str, str], float] = {}
    peaks: dict[tuple[str, str], float] = {}
    events = UNOBSERVED
    for sp, own in zip(spans, self_times(spans)):
        calls[sp.name] += 1
        busy[sp.name] += own
        # suppress_events re-detects after every pass; count first detections only
        if "events" in sp.counts and (sp.parent < 0
                                      or spans[sp.parent].name != "diagnostics.suppress"):
            events = max(events, 0) + sp.counts["events"]
        for key, value in sp.counts.items():
            sums[(sp.name, key)] = sums.get((sp.name, key), 0.0) + value
            peaks[(sp.name, key)] = max(peaks.get((sp.name, key), 0.0), value)

    def self_s(*names):
        return sum(busy[n] for n in names) if any(calls[n] for n in names) else UNOBSERVED

    def n_calls(name):
        return calls[name] or UNOBSERVED

    def total(name, key):
        return sums.get((name, key), UNOBSERVED)

    iterations = sums.get(("optim.qn", "iterations"), 0)
    return {
        "datagen.s": self_s("datagen"),
        "optim.lp.calls": n_calls("optim.lp"),
        "optim.lp.pivots": total("optim.lp", "pivots"),
        "optim.lp.degenerate": total("estimators.rq_build", "degenerate"),
        "optim.lp.s": self_s("optim.lp"),
        "optim.lp.tableau_mb": peaks.get(("optim.lp", "tableau_mb"), UNOBSERVED),
        "optim.qn.calls": n_calls("optim.qn"),
        "optim.qn.iterations": total("optim.qn", "iterations"),
        "optim.qn.s": self_s("optim.qn"),
        "losses.evals": n_calls("losses"),
        "losses.s": self_s("losses"),
        "losses.rows": total("losses", "rows"),
        "losses.evals_per_iter": (calls["losses"] / iterations
                                  if calls["losses"] and iterations else UNOBSERVED),
        "estimators.levels": total("estimators.grid", "levels"),
        "estimators.failed": total("estimators.grid", "failed"),
        "estimators.rq_build.s": self_s("estimators.rq_build"),
        "estimators.smooth.s": self_s("estimators.smooth"),
        "estimators.rrq_step.s": self_s("estimators.rrq_step"),
        "estimators.rrq_step.cells": total("estimators.rrq_step", "cells"),
        "diagnostics.s": self_s("diagnostics", "diagnostics.count_below",
                                "diagnostics.suppress"),
        "diagnostics.count_below.calls": n_calls("diagnostics.count_below"),
        "diagnostics.events": events,
        "diagnostics.suppress.passes": total("diagnostics.suppress", "passes"),
        "cli.s": self_s("cli"),
        "cli.bytes_written": total("cli", "bytes"),
    }
