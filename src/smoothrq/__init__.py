"""smoothrq: quantile regression with smooth check losses.

The classic quantile-regression loss is piecewise linear, so its linear-
programming minimizers jump between vertices as the level tau moves, which
shows up as crossing planes and non-monotone below-count curves.  This
package fits quantiles by minimizing a smooth, strictly convex log-cosh
check function instead (plus the exact LP baseline and a restricted
location-scale family for comparison), and ships the diagnostics used to
measure the difference: below-count curves, event classification (spikes,
pulses and wide events), event suppression, crossing detection, seeded
synthetic generators, and a command-line harness.
"""

from .datagen import (
    DataError,
    Dataset,
    SynthConfig,
    dataset_fingerprint,
    gen_hetero_normal,
    gen_pareto,
    load_anscombe,
    load_csv,
    load_swiss,
    write_csv,
)
from .diagnostics import (
    CountCurve,
    Crossing,
    Event,
    EventReport,
    GridResult,
    count_below,
    count_curve,
    detect_crossings_1d,
    detect_events,
    suppress_events,
)
from .estimators import (
    FAILED,
    QuantileFit,
    RRQModel,
    TauGrid,
    fit_grid,
    fit_rq_lp,
    fit_rrq,
    fit_smooth,
)
from .losses import (
    SMRQ,
    SRQ,
    FlexCheckParams,
    check_classic,
    check_smooth,
    classic_total,
    grad_total,
    hess_total,
    loss_and_grad,
    loss_total,
)
from .optim import SolveReport, SolverError

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data
    "DataError", "Dataset", "SynthConfig", "dataset_fingerprint",
    "gen_hetero_normal", "gen_pareto", "load_anscombe", "load_csv",
    "load_swiss", "write_csv",
    # losses
    "FlexCheckParams", "SRQ", "SMRQ", "check_classic", "check_smooth",
    "classic_total", "grad_total", "hess_total", "loss_and_grad", "loss_total",
    # solver reports and failures (the solvers themselves are internal)
    "SolveReport", "SolverError",
    # estimators
    "FAILED", "QuantileFit", "RRQModel", "TauGrid", "fit_grid", "fit_rq_lp", "fit_rrq",
    "fit_smooth",
    # diagnostics
    "CountCurve", "Crossing", "Event", "EventReport", "GridResult",
    "count_below", "count_curve", "detect_crossings_1d", "detect_events",
    "suppress_events",
]
