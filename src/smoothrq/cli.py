"""Command-line harness: single fits, tau-grid comparisons, synthetic benches.

Three subcommands share one layout convention:

* ``fit``   fits a one-level grid and prints its plane plus its objectives
  to standard output.
* ``grid``  fits several methods across a tau grid and writes counts.tsv,
  events.tsv, coefficients.tsv (and optionally curves.svg) to a directory.
* ``bench`` generates seeded synthetic datasets over a size ladder and
  tabulates median spike/pulse counts per method, one row per size.

Every run emits a manifest (seeds, dataset fingerprints, full flag echo,
toolkit version) so it can be reproduced exactly.  Tabular outputs are
tab-delimited with a header row and are byte-identical across repeated runs;
wall-clock lives only in the manifest.

Exit codes: 0 success, 2 bad flags or flag semantics, 3 data problems
(missing file, parse failure, invariant violation), 4 solver failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import (
    DataError,
    Dataset,
    KIND_HETERO_NORMAL,
    KIND_PARETO,
    SynthConfig,
    dataset_fingerprint,
    gen_hetero_normal,
    gen_pareto,
    load_anscombe,
    load_csv,
    load_swiss,
)
from .diagnostics import (
    MIN_EVENT_LEVELS,
    CountCurve,
    GridResult,
    detect_events,
    suppress_events,
)
from .estimators import FAILED, METHODS, SMOOTH_PRESETS, TauGrid, fit_grid
from .losses import SRQ, FlexCheckParams, _check_tau, classic_total, loss_total
from .optim import SolverError

__all__ = ["build_parser", "main", "entrypoint", "run_bench"]

_BUILTINS = {"swiss": load_swiss, "anscombe": load_anscombe}

# fixed palette so repeated runs color methods identically
_COLORS = ("#1b6ca8", "#c23b22", "#2e7d32", "#8e44ad", "#e67e22", "#00838f")
# SVG canvas width and height, then the plot box's left, right, top and bottom margins
_W, _H, _ML, _MR, _MT, _MB = 720, 480, 60, 20, 24, 48


# ---------------------------------------------------------------------------
# manifest

def _manifest(args: argparse.Namespace, seeds: list[int], datasets: list[dict],
              started: float) -> dict:
    """Everything needed to reproduce a run: command, flags, seeds, data identity."""
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "argv"):
            continue
        if isinstance(value, TauGrid):
            value = [float(t) for t in value.values]
        config[key] = list(value) if isinstance(value, (tuple, list)) else value
    return {
        "command": ["smoothrq", *args.argv],
        "config": config,
        "seeds": seeds,
        "datasets": datasets,
        "version": __version__,
        "wall_clock_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    }


# ---------------------------------------------------------------------------
# flag parsing helpers

def _parse_grid(text: str) -> TauGrid:
    """Either a point count m (levels i/(m+1)) or a start,end,step triple."""
    try:
        if "," not in text:
            grid = TauGrid.from_count(int(text))
        else:
            parts = [float(tok) for tok in text.split(",")]
            if len(parts) != 3:
                raise ValueError(f"expected start,end,step, got {text!r}")
            grid = TauGrid.from_step(*parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if len(grid) < MIN_EVENT_LEVELS:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has {len(grid)} levels; classifying events needs "
            f"at least {MIN_EVENT_LEVELS}")
    return grid


def _parse_methods(text: str, choices=METHODS) -> list[str]:
    methods = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not methods:
        raise argparse.ArgumentTypeError("empty method list")
    for m in methods:
        if m not in choices:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r}, choose from {', '.join(choices)}")
    if len(set(methods)) != len(methods):
        raise argparse.ArgumentTypeError(f"duplicate method in {text!r}")
    return methods


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip()]
        for n in sizes:  # SynthConfig holds the size limits and allocates nothing
            SynthConfig(n=n, seed=0)
    except ValueError as exc:  # DataError included
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not sizes:
        raise argparse.ArgumentTypeError(f"no sizes in {text!r}")
    return sizes


def _seed_flag(text: str) -> int:
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {text}")
    return seed


def _tau_flag(text: str) -> float:
    try:
        return _check_tau(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_dataset(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Dataset:
    name = args.data
    if name in _BUILTINS and not Path(name).exists():
        data = _BUILTINS[name]()
        if args.response not in (None, data.response_name):
            parser.error(f"builtin dataset {name!r} has fixed response "
                         f"{data.response_name!r}; pass a CSV path to regress on "
                         "another column")
        return data
    if args.response is None:
        parser.error("--response is required for CSV input")
    return load_csv(name, args.response)


def _out_dir(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create output directory: {exc}")
    return out


def _resolve_flex(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  needed: bool) -> FlexCheckParams | None:
    flags = (args.c, args.h, args.s, args.v)
    if not needed:
        if any(f is not None for f in flags):
            parser.error("--c/--h/--s/--v apply only when method flex is requested")
        return None
    if any(f is None for f in flags):
        parser.error("method flex requires all of --c, --h, --s and --v")
    try:
        return FlexCheckParams(c=args.c, h=args.h, s=args.s, v=args.v)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# output helpers

def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_tsv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_manifest(out: Path, manifest: dict) -> None:
    _write_text(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# fit

def cmd_fit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    started = time.perf_counter()
    data = _load_dataset(args, parser)
    flex = _resolve_flex(args, parser, needed=args.method == "flex")

    result = fit_grid(data, [args.tau], args.method, params=flex)
    status = result.statuses[0]
    if status.startswith(FAILED):
        raise SolverError(status.removeprefix(FAILED))
    beta = result.coefficients[0]

    # the piecewise methods have no smoothing of their own; report Q_S under
    # the default sharp smoothing so the smooth-vs-exact gap is visible
    qs = flex or SMOOTH_PRESETS.get(args.method, SRQ)
    q_classic = classic_total(data, beta, args.tau)
    q_smooth = loss_total(data, beta, args.tau, qs)

    width = max(len(name) for name in data.column_names)
    print(f"method: {args.method}")
    print(f"tau: {_fmt(args.tau)}")
    print("coefficients:")
    for name, value in zip(data.column_names, beta):
        print(f"  {name:<{width}}  {_fmt(value)}")
    print(f"below_count: {result.curve.counts[0]} / {data.n_obs}")
    print(f"objective_classic: {_fmt(q_classic)}")
    print(f"objective_smooth[c={_fmt(qs.c)},h={_fmt(qs.h)},s={_fmt(qs.s)},v={_fmt(qs.v)}]: "
          f"{_fmt(q_smooth)}")
    print(f"status: {status}")

    manifest = _manifest(args, seeds=[], datasets=[dataset_fingerprint(data)],
                         started=started)
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# grid

def _grid_columns(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  data: Dataset) -> dict[str, GridResult]:
    """Fit every requested method, interleaving "<m>-s" right after each "<m>"."""
    flex = _resolve_flex(args, parser, needed="flex" in args.methods)
    columns: dict[str, GridResult] = {}
    for method in args.methods:
        result = fit_grid(data, args.grid, method,
                          params=flex if method == "flex" else None)
        if result.curve is not None:
            result.events = detect_events(result.curve)
        columns[method] = result
        if args.suppress:  # a family with a failed level has no curve to repair
            columns[method + "-s"] = (result if result.curve is None
                                      else suppress_events(result, result.events))
    return columns


def cmd_grid(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    started = time.perf_counter()
    data = _load_dataset(args, parser)
    out = _out_dir(args, parser)

    columns = _grid_columns(args, parser, data)
    names = list(columns)
    taus = args.grid.values

    count_rows = []
    for i, tau in enumerate(taus):
        row = [_fmt(tau)]
        for name in names:
            curve = columns[name].curve
            row.append(str(int(curve.counts[i])) if curve is not None else "")
        count_rows.append(row)
    _write_tsv(out / "counts.tsv", ["tau"] + names, count_rows)

    def event_cell(name: str) -> tuple[str, str]:
        events = columns[name].events
        if events is None:
            return "-", "-"
        return events.cell(), str(events.wide_count)

    cells = [event_cell(name) for name in names]
    _write_tsv(out / "events.tsv", ["measure"] + names,
               [["spikes/pulses"] + [c[0] for c in cells],
                ["wide"] + [c[1] for c in cells]])

    coef_rows = []
    for name in names:
        for i, tau in enumerate(taus):
            beta = columns[name].coefficients[i]
            coef_rows.append([name, _fmt(tau)]
                             + [format(v, ".17g") for v in beta])
    _write_tsv(out / "coefficients.tsv",
               ["method", "tau"] + list(data.column_names), coef_rows)

    if args.svg:
        curves = {n: c.curve for n, c in columns.items() if c.curve is not None}
        _write_text(out / "curves.svg", _render_count_curves(curves, data.n_obs))
        if data.n_coef == 2:
            for name in names:
                svg = _render_line_overlay(data, columns[name])
                _write_text(out / f"lines-{name}.svg", svg)

    failures = [f"{name}: {status}" for name in names
                for status in columns[name].statuses if status.startswith(FAILED)]
    _write_manifest(out, _manifest(args, seeds=[], datasets=[dataset_fingerprint(data)],
                                   started=started))

    for name in names:
        events = columns[name].events
        summary = events.cell() + f" (wide {events.wide_count})" if events else "n/a"
        print(f"{name}: events {summary}")
    print(f"wrote counts.tsv, events.tsv, coefficients.tsv to {out}")
    if failures:
        print("solver failures:\n  " + "\n  ".join(sorted(set(failures))),
              file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# bench

def _replicate_seed(seed: int, i: int, j: int) -> int:
    """Data seed of replicate j at the i-th size."""
    return seed + 100000 * i + j


def run_bench(kind: str, sizes: list[int], replicates: int, seed: int,
              methods: list[str]) -> dict:
    """Median spike/pulse counts per (size, method) over seeded replicates.

    Replicate (i, j) draws its dataset with seed = base + 100000*i + j, so
    cells are independent of method order and reproducible in isolation.
    Every fit runs on the 99-level grid.  Returns
    {(n, method): (median_spikes, median_pulses)}.
    """
    grid = TauGrid.from_count(99)
    generate = gen_hetero_normal if kind == KIND_HETERO_NORMAL else gen_pareto
    table: dict[tuple[int, str], tuple[float, float]] = {}
    for i, n in enumerate(sizes):
        tally = {m: ([], []) for m in methods}
        for j in range(replicates):
            rep_seed = _replicate_seed(seed, i, j)
            data = generate(SynthConfig(n=n, seed=rep_seed, kind=kind))
            for m in methods:
                result = fit_grid(data, grid, m)
                if result.curve is None:
                    bad = next(s for s in result.statuses if s.startswith(FAILED))
                    raise SolverError(
                        f"bench fit failed (n={n}, seed={rep_seed}, method={m}): {bad}")
                events = detect_events(result.curve)
                tally[m][0].append(events.spike_count)
                tally[m][1].append(events.pulse_count)
        for m in methods:
            table[(n, m)] = (float(np.median(tally[m][0])),
                             float(np.median(tally[m][1])))
    return table


def cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    started = time.perf_counter()
    kind = KIND_HETERO_NORMAL if args.kind == "normal" else KIND_PARETO
    last = _replicate_seed(args.seed, len(args.sizes) - 1, args.replicates - 1)
    try:  # run_bench's largest replicate seed, checked before any fit
        SynthConfig(n=args.sizes[-1], seed=last)  # which holds the seed limit
    except DataError as exc:
        parser.error(f"--seed {args.seed} derives replicate seeds up to {last}: {exc}")
    out = _out_dir(args, parser)

    table = run_bench(kind, args.sizes, args.replicates, args.seed, args.methods)

    rows = []
    for n in args.sizes:
        row = [str(n)]
        for m in args.methods:
            spikes, pulses = table[(n, m)]
            row.append(f"{spikes:g}/{pulses:g}")
        rows.append(row)
    _write_tsv(out / "bench.tsv", ["n"] + list(args.methods), rows)

    seeds = [_replicate_seed(args.seed, i, j)
             for i in range(len(args.sizes)) for j in range(args.replicates)]
    _write_manifest(out, _manifest(args, seeds=seeds, datasets=[], started=started))

    print(f"wrote bench.tsv ({len(args.sizes)} sizes x {len(args.methods)} methods, "
          f"{args.replicates} replicates) to {out}")
    return 0


# ---------------------------------------------------------------------------
# SVG rendering (static 1.1, no external assets)

def _svg_frame(x_lo: float, x_hi: float, y_lo: float, y_hi: float):
    """Opening elements and plot box of a figure, and its two axis maps to pixels."""
    def sx(v):
        return _ML + (v - x_lo) / max(x_hi - x_lo, 1e-12) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / max(y_hi - y_lo, 1e-12) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#444"/>',
    ]
    return parts, sx, sy


def _render_count_curves(curves: dict[str, CountCurve], n_obs: int) -> str:
    """Count curves over tau plus the dashed ideal line, one polyline each."""
    taus = next(iter(curves.values())).taus if curves else np.array([0.0, 1.0])
    t_lo, t_hi = float(taus[0]), float(taus[-1])
    parts, sx, sy = _svg_frame(t_lo, t_hi, 0.0, float(n_obs))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t_lo + frac * (t_hi - t_lo)
        c = frac * n_obs
        parts.append(f'<text x="{sx(t):.2f}" y="{_H - _MB + 16}" font-size="11" '
                     f'text-anchor="middle" fill="#222">{t:.2f}</text>')
        parts.append(f'<text x="{_ML - 6}" y="{sy(c) + 4:.2f}" font-size="11" '
                     f'text-anchor="end" fill="#222">{c:.0f}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 10}" font-size="12" '
                 f'text-anchor="middle" fill="#222">tau</text>')
    parts.append(f'<text x="14" y="{(_MT + _H - _MB) / 2:.2f}" font-size="12" '
                 f'text-anchor="middle" fill="#222" '
                 f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.2f})">below count</text>')
    parts.append(f'<line x1="{sx(t_lo):.2f}" y1="{sy(0.0):.2f}" x2="{sx(t_hi):.2f}" '
                 f'y2="{sy(float(n_obs)):.2f}" stroke="#888" stroke-dasharray="5,4"/>')

    for k, (name, curve) in enumerate(curves.items()):
        color = _COLORS[k % len(_COLORS)]
        points = " ".join(f"{sx(t):.2f},{sy(c):.2f}"
                          for t, c in zip(curve.taus, curve.counts))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{_ML + 10}" y="{_MT + 18 + 16 * k}" font-size="12" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_line_overlay(data: Dataset, result: GridResult) -> str:
    """Scatter of (x, y) with one fitted line per grid level (p = 2 only)."""
    x, y = data.X[:, 0], data.y
    x_lo, x_hi = float(x.min()), float(x.max())
    planes = result.coefficients
    ends = np.concatenate([planes @ [x_lo, 1.0], planes @ [x_hi, 1.0], y])
    ends = ends[np.isfinite(ends)]
    y_lo, y_hi = float(ends.min()), float(ends.max())
    pad = 0.05 * max(y_hi - y_lo, 1e-12)
    parts, sx, sy = _svg_frame(x_lo, x_hi, y_lo - pad, y_hi + pad)
    for slope, icept in planes:
        if not (np.isfinite(slope) and np.isfinite(icept)):
            continue
        parts.append(f'<line x1="{sx(x_lo):.2f}" y1="{sy(slope * x_lo + icept):.2f}" '
                     f'x2="{sx(x_hi):.2f}" y2="{sy(slope * x_hi + icept):.2f}" '
                     f'stroke="#1b6ca8" stroke-width="0.8" stroke-opacity="0.5"/>')
    for xi, yi in zip(x, y):
        parts.append(f'<circle cx="{sx(xi):.2f}" cy="{sy(yi):.2f}" r="3" fill="#111"/>')
    parts.append(f'<text x="{_ML + 10}" y="{_MT + 18}" font-size="12" fill="#222">'
                 f'{result.method}: {planes.shape[0]} levels</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# parser

def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True,
                     help="CSV path, or a builtin name: swiss, anscombe")
    sub.add_argument("--response", default=None,
                     help="response column (required for CSV input)")


def _add_flex_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("flex loss shape (method=flex only)")
    group.add_argument("--c", type=float, default=None, help="curvature, > 0")
    group.add_argument("--h", type=float, default=None, help="horizontal kink shift")
    group.add_argument("--s", type=float, default=None, help="tilt, in [0, 1]")
    group.add_argument("--v", type=float, default=None, help="vertical offset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothrq",
        description="Quantile regression with smooth check losses: single fits, "
                    "tau-grid diagnostics, and synthetic benchmarks.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit one quantile level")
    _add_data_flags(fit)
    fit.add_argument("--tau", type=_tau_flag, required=True,
                     help="quantile level in (0, 1)")
    fit.add_argument("--method", choices=METHODS, required=True)
    _add_flex_flags(fit)
    fit.set_defaults(func=cmd_fit)

    grid = subs.add_parser("grid", help="fit a tau grid for several methods")
    _add_data_flags(grid)
    grid.add_argument("--grid", type=_parse_grid, required=True,
                      help="point count m (levels i/(m+1)), or start,end,step")
    grid.add_argument("--methods", type=_parse_methods, required=True,
                      help=f"comma-separated subset of {','.join(METHODS)}")
    grid.add_argument("--suppress", action="store_true",
                      help="also report each method after event suppression (-s columns)")
    grid.add_argument("--svg", action="store_true",
                      help="render curves.svg (and per-method line overlays when p=2)")
    grid.add_argument("--out", required=True, help="output directory")
    _add_flex_flags(grid)
    grid.set_defaults(func=cmd_grid)

    bench = subs.add_parser("bench", help="synthetic benchmark over a size ladder")
    bench.add_argument("--kind", choices=("normal", "pareto"), required=True)
    bench.add_argument("--sizes", type=_parse_sizes, required=True,
                       help="comma-separated observation counts, each >= 3")
    bench.add_argument("--replicates", type=int, default=10)
    bench.add_argument("--seed", type=_seed_flag, required=True)
    # bench has no --c/--h/--s/--v, so it cannot shape a flex loss
    bench.add_argument("--methods", required=True, type=partial(
        _parse_methods, choices=tuple(m for m in METHODS if m != "flex")))
    bench.add_argument("--out", required=True, help="output directory")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv  # the manifest's "command", also when main runs in-process
    if getattr(args, "replicates", 1) < 1:
        parser.error("--replicates must be at least 1")
    # smoothrq's own checks report every numeric failure; numpy's warnings
    # would only repeat them on stderr with source lines
    with np.errstate(all="ignore"):
        return args.func(args, parser)


def entrypoint(argv=None) -> int:
    try:
        return main(argv)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
