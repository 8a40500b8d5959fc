"""The three benchmark workloads and how their results are checked.

A workload is a closed loop of requests from one caller.  Request i of a run
with workload seed s gets its inputs from (s, i) alone; the program only sees
those inputs.  Each workload calls smoothrq through module attributes
(``estimators.fit_grid``, ``cli.main``) at call time, so the tracer's
wrappers see every call.

* synth-n400: the n = 400 slice of the criterion-7 bench (hetero-normal and
  Pareto data; rq, rrq and srq, then detect_events) on a 9-level grid.  Cold
  per-level simplex solves on a 400-row tableau dominate; the smooth solver
  is a few percent.
* swiss-999: the ``grid --suppress`` CLI run on the bundled swiss data over a
  seeded tenth of the 999-level grid.  The smooth solver and the loss kernel
  dominate; it is the only workload that suppresses events and writes TSVs.
* rrq-n1000: the restricted family on n = 1000 hetero-normal data over 499
  levels.  The O(n^2) direction step dominates (about 80% of self time), the
  two median LPs take the rest; no smooth fit runs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from smoothrq import cli, datagen, diagnostics, estimators
from smoothrq.datagen import KIND_PARETO, SynthConfig
from smoothrq.estimators import TauGrid
from smoothrq.losses import SMRQ, SRQ

import bench_checks

SYNTH_BASE_SEED = 20260819 + 4 * 100000  # criterion 7, n = 400, replicate 0
RRQ_BASE_SEED = 20260819
SEED_STRIDE = 1000  # request i of workload seed s uses data seed base + 1000 s + i
SMOOTH_PARAMS = {"srq": SRQ, "smrq": SMRQ}


def data_seed(base: int, seed: int, i: int) -> int:
    return base + SEED_STRIDE * seed + i


@dataclass
class Family:
    """One fitted family over a grid, as the checks need it."""

    label: str  # fitted family whose levels a failure is charged to
    method: str  # rq, rrq, srq, smrq; "" for a derived (suppressed) family
    data: object
    taus: np.ndarray
    coefs: np.ndarray
    counts: np.ndarray | None
    failed_levels: tuple[int, ...] = ()

    @classmethod
    def from_grid(cls, label: str, result) -> "Family":
        failed = tuple(k for k, s in enumerate(result.statuses) if s.startswith("failed"))
        counts = result.curve.counts if result.curve is not None else None
        return cls(label, result.method, result.dataset, result.taus,
                   result.coefficients, counts, failed)


def check_families(families: list[Family]) -> dict[str, set[int]]:
    """Run every check; return the rejected level indices per fitted family."""
    cache: dict[tuple[int, float], float] = {}

    def oracle(data, tau):
        key = (id(data), tau)
        if key not in cache:
            cache[key] = bench_checks.highs_objective(data, tau)
        return cache[key]

    bad: dict[str, set[int]] = {}
    for fam in families:
        rejected = bad.setdefault(fam.label, set())
        rejected.update(fam.failed_levels)
        if fam.method == "rq":
            rejected.update(bench_checks.bad_rq_levels(fam.data, fam.taus, fam.coefs, oracle))
        elif fam.method == "rrq":
            rejected.update(bench_checks.bad_rrq_levels(fam.data, fam.taus, fam.coefs, oracle))
        elif fam.method in SMOOTH_PARAMS:
            rejected.update(bench_checks.bad_smooth_levels(
                fam.data, fam.taus, fam.coefs, SMOOTH_PARAMS[fam.method]))
        if fam.counts is None:
            rejected.update(range(len(fam.taus)))
        else:
            rejected.update(bench_checks.bad_counts(fam.data, fam.coefs, fam.counts))
    return {label: levels for label, levels in bad.items() if levels}


def _grid_blob(results) -> bytes:
    parts = []
    for res in results:
        parts.append(np.ascontiguousarray(res.coefficients).tobytes())
        if res.curve is not None:
            parts.append(res.curve.counts.astype(np.int64).tobytes())
    return b"".join(parts)


class SynthN400:
    name = "synth-n400"
    grid = TauGrid.from_count(9)
    methods = ("rq", "rrq", "srq")

    def key(self, seed: int, i: int):
        return i

    def inputs(self, seed: int, i: int):
        s = data_seed(SYNTH_BASE_SEED, seed, i)
        return [datagen.gen_hetero_normal(SynthConfig(n=400, seed=s)),
                datagen.gen_pareto(SynthConfig(n=400, seed=s, kind=KIND_PARETO))]

    def setup(self, seed: int):
        """What a fresh process builds before the first request."""
        return self.inputs(seed, 0)

    def solve(self, datasets):
        out = []
        for data in datasets:
            for method in self.methods:
                res = estimators.fit_grid(data, self.grid, method)
                if res.curve is not None:
                    res.events = diagnostics.detect_events(res.curve)
                out.append(res)
        return out

    def collect(self, datasets, results):
        """(families to check, fitted levels, bytes that must repeat for these inputs)."""
        kinds = ("hetero-normal", "pareto")
        fams = [Family.from_grid(f"{kinds[k // len(self.methods)]}/{r.method}", r)
                for k, r in enumerate(results)]
        return fams, sum(len(f.taus) for f in fams), _grid_blob(results)


class RrqN1000:
    name = "rrq-n1000"
    grid = TauGrid.from_count(499)

    def key(self, seed: int, i: int):
        return i

    def inputs(self, seed: int, i: int):
        return datagen.gen_hetero_normal(
            SynthConfig(n=1000, seed=data_seed(RRQ_BASE_SEED, seed, i)))

    def setup(self, seed: int):
        return self.inputs(seed, 0)

    def solve(self, data):
        res = estimators.fit_grid(data, self.grid, "rrq")
        if res.curve is not None:
            res.events = diagnostics.detect_events(res.curve)
        return [res]

    def collect(self, data, results):
        fams = [Family.from_grid("rrq", results[0])]
        return fams, len(fams[0].taus), _grid_blob(results)


class Swiss999:
    name = "swiss-999"
    methods = ("rq", "srq", "smrq")
    outputs = ("counts.tsv", "events.tsv", "coefficients.tsv")

    def __init__(self, workdir: Path | None):
        self.workdir = workdir
        self._swiss = None

    @staticmethod
    def grid_flag(seed: int) -> str:
        """Levels (o + 10 j) / 1000 of the 999-level grid, offset o = 1 + seed mod 10."""
        return f"{(1 + seed % 10) / 1000:g},0.999,0.01"

    def key(self, seed: int, i: int):
        return 0

    def inputs(self, seed: int, i: int):
        return ["grid", "--data", "swiss", "--grid", self.grid_flag(seed),
                "--methods", ",".join(self.methods), "--suppress",
                "--out", str(self.workdir / f"req{i}")]

    def setup(self, seed: int):
        return datagen.load_swiss()

    def solve(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def collect(self, argv, code):
        out = Path(argv[argv.index("--out") + 1])
        blobs = {name: (out / name).read_bytes() for name in self.outputs}
        shutil.rmtree(out)
        grid = TauGrid.from_step(*map(float, argv[argv.index("--grid") + 1].split(",")))
        if self._swiss is None:
            self._swiss = datagen.load_swiss()
        # a non-zero exit means some level failed; the CLI does not say which
        failed = tuple(range(len(grid))) if code != 0 else ()
        counts = list(csv.reader(io.StringIO(blobs["counts.tsv"].decode()), delimiter="\t"))
        coef_rows = list(csv.reader(io.StringIO(blobs["coefficients.tsv"].decode()),
                                    delimiter="\t"))
        fams = []
        for j, column in enumerate(counts[0][1:], start=1):
            coefs = np.array([[float(v) for v in r[2:]] for r in coef_rows[1:]
                              if r[0] == column])
            col = [r[j] for r in counts[1:]]
            curve = np.array([int(v) for v in col]) if all(col) else None
            fams.append(Family(column.removesuffix("-s"),
                               column if column in self.methods else "",
                               self._swiss, grid.values, coefs, curve, failed))
        return (fams, len(self.methods) * len(grid),
                b"".join(blobs[name] for name in self.outputs))


def make_workloads(workdir: Path | None) -> dict:
    return {w.name: w for w in (SynthN400(), Swiss999(workdir), RrqN1000())}
