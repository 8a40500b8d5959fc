"""Dataset container, CSV ingestion, and seeded synthetic generators.

The design matrix convention used throughout the package: the intercept is an
explicit column of ones and it is always the *last* column.  Estimators never
add or remove columns behind the caller's back.

Synthetic data is drawn from a Philox counter-based generator so that a
dataset is fully determined by (algorithm, seed).  All randomness is consumed
as a single stream of uniform doubles in a documented order; the non-uniform
variates are produced by explicit transforms (Box-Muller, inverse CDF) rather
than by opaque library distributions, so the streams can be reproduced
outside this package.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

__all__ = [
    "DataError",
    "Dataset",
    "SynthConfig",
    "KIND_HETERO_NORMAL",
    "KIND_PARETO",
    "load_csv",
    "write_csv",
    "gen_hetero_normal",
    "gen_pareto",
    "load_swiss",
    "load_anscombe",
    "dataset_fingerprint",
]

KIND_HETERO_NORMAL = "hetero-normal"
KIND_PARETO = "pareto"

INTERCEPT_NAME = "intercept"

# smallest uniform draw accepted by the log/power transforms below
_U_FLOOR = 2.0 ** -53

# the fixed line and noise of both generators (see SynthConfig)
_X_MAX = 10.0
_BETA0, _BETA1 = 1.0, 2.0
_SIGMA0, _SIGMA1 = 0.5, 0.3
_PARETO_ALPHA = 2.5


class DataError(ValueError):
    """Raised for malformed input data: bad CSV cells, shape problems, etc."""


@dataclass
class Dataset:
    """Regression data with an explicit intercept column.

    Attributes
    ----------
    X : ndarray, shape (n, p)
        Design matrix.  The last column is all ones (the intercept); exactly
        one such column may be present.
    y : ndarray, shape (n,)
        Response vector.
    column_names : tuple of str
        One name per column of ``X``; the last is ``"intercept"``.
    response_name : str
    """

    X: np.ndarray
    y: np.ndarray
    column_names: tuple[str, ...] = ()
    response_name: str = "y"

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        n, p = self.X.shape
        if not self.column_names:
            self.column_names = tuple(f"x{j}" for j in range(p - 1)) + (INTERCEPT_NAME,)
        else:
            self.column_names = tuple(self.column_names)
        if len(self.column_names) != p:
            raise DataError(f"{len(self.column_names)} column names for {p} columns")
        if self.y.shape[0] != n:
            raise DataError(f"X has {n} rows but y has {self.y.shape[0]}")
        if not (n >= p >= 1):
            raise DataError(f"need n >= p >= 1, got n={n}, p={p}")
        if not np.isfinite(self.X).all() or not np.isfinite(self.y).all():
            raise DataError("dataset contains non-finite values")
        ones = [j for j in range(p) if np.all(self.X[:, j] == 1.0)]
        if ones != [p - 1]:
            raise DataError(
                "design matrix must contain exactly one all-ones intercept "
                f"column, in the last position (found ones columns at {ones})"
            )

    @classmethod
    def from_predictors(cls, x, y, names: Sequence[str] | None = None,
                        response_name: str = "y") -> "Dataset":
        """Build a Dataset from raw predictors, appending the intercept column."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        n = x.shape[0]
        X = np.hstack([x, np.ones((n, 1))])
        if names is None:
            names = [f"x{j}" for j in range(x.shape[1])]
        return cls(X=X, y=y, column_names=tuple(names) + (INTERCEPT_NAME,),
                   response_name=response_name)

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    @property
    def n_coef(self) -> int:
        return self.X.shape[1]

    def predict(self, beta) -> np.ndarray:
        beta = np.asarray(beta, dtype=float).ravel()
        if beta.shape[0] != self.n_coef:
            raise DataError(f"beta has {beta.shape[0]} entries, expected {self.n_coef}")
        return self.X @ beta

    def residuals(self, beta) -> np.ndarray:
        return self.y - self.predict(beta)


def load_csv(path, response: str) -> Dataset:
    """Read a comma-separated file with a header row into a Dataset.

    response names the response column.  Blank lines are skipped.  All cells
    must parse as floats; a cell that does not is reported with its row and
    column.  Predictor order follows the file; the intercept column is
    appended last.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    rows = [(i, r) for i, r in enumerate(rows, start=1) if any(c.strip() for c in r)]
    if not rows:
        raise DataError(f"{path}: file is empty")
    _, header = rows[0]
    header = [h.strip() for h in header]
    if response not in header:
        raise DataError(f"{path}: response column {response!r} not in header {header}")
    if len(rows) == 1:
        raise DataError(f"{path}: no data rows")
    values = np.empty((len(rows) - 1, len(header)))
    for out_i, (line_no, cells) in enumerate(rows[1:]):
        if len(cells) != len(header):
            raise DataError(f"{path}: line {line_no} has {len(cells)} fields, expected {len(header)}")
        for j, cell in enumerate(cells):
            try:
                values[out_i, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value {cell.strip()!r} at line {line_no}, "
                    f"column {header[j]!r}"
                ) from None
    ri = header.index(response)
    pred_idx = [j for j in range(len(header)) if j != ri]
    names = [header[j] for j in pred_idx]
    return Dataset.from_predictors(values[:, pred_idx], values[:, ri],
                                   names=names, response_name=response)


def _serialize_csv(dataset: Dataset) -> str:
    buf = io.StringIO()
    names = list(dataset.column_names[:-1]) + [dataset.response_name]
    buf.write(",".join(names) + "\n")
    body = np.column_stack([dataset.X[:, :-1], dataset.y])
    for row in body:
        buf.write(",".join(format(v, ".17g") for v in row) + "\n")
    return buf.getvalue()


def write_csv(dataset: Dataset, path) -> None:
    """Write predictors and response with 17 significant digits.

    17 digits round-trip IEEE doubles exactly, so load_csv(write_csv(d))
    reproduces the values bit for bit.  The intercept column is not written.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_serialize_csv(dataset))


def dataset_fingerprint(dataset: Dataset) -> dict:
    """Rows, columns, and a content hash of the canonical serialization."""
    digest = hashlib.sha256(_serialize_csv(dataset).encode("utf-8")).hexdigest()
    return {"rows": dataset.n_obs, "cols": dataset.n_coef, "sha256": digest}


@dataclass(frozen=True)
class SynthConfig:
    """Size, seed and noise family of one synthetic dataset.

    The seed keys a Philox generator, so it must lie in [0, 2**128).

    Both families share the line y = 1 + 2x with x uniform on [0, 10).
    kind "hetero-normal" adds (0.5 + 0.3x)*z with z standard normal, and
    "pareto" adds a one-sided Pareto error e = U**(-1/2.5), so e >= 1.
    """

    n: int
    seed: int
    kind: str = KIND_HETERO_NORMAL

    def __post_init__(self):
        if self.n < 3:
            raise DataError(f"need at least 3 observations, got n={self.n}")
        if not 0 <= self.seed < 2 ** 128:
            raise DataError(f"seed must lie in [0, 2**128), got {self.seed}")
        if self.kind not in (KIND_HETERO_NORMAL, KIND_PARETO):
            raise DataError(f"unknown kind {self.kind!r}")


def _uniforms(seed: int, count: int) -> np.ndarray:
    # Philox4x64-10, keyed by the seed; one stream of doubles in [2^-53, 1).
    gen = np.random.Generator(np.random.Philox(key=seed))
    return np.maximum(gen.random(count), _U_FLOOR)


def gen_hetero_normal(config: SynthConfig) -> Dataset:
    """Line plus heteroscedastic normal noise, variance growing linearly in x.

    Stream layout: the first n uniforms give x (scaled into [0, 10)); the next
    2n give normals via Box-Muller, z_i = sqrt(-2 ln u_{2i}) * cos(2 pi u_{2i+1}).
    """
    if config.kind != KIND_HETERO_NORMAL:
        raise DataError(f"config.kind is {config.kind!r}, expected {KIND_HETERO_NORMAL!r}")
    n = config.n
    u = _uniforms(config.seed, 3 * n)
    x = _X_MAX * u[:n]
    u1 = u[n:3 * n:2]
    u2 = u[n + 1:3 * n:2]
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    sigma = _SIGMA0 + _SIGMA1 * x
    y = _BETA0 + _BETA1 * x + sigma * z
    return Dataset.from_predictors(x, y, names=("x",))


def gen_pareto(config: SynthConfig) -> Dataset:
    """Line plus one-sided Pareto noise: e = U**(-1/alpha), so e >= 1.

    Stream layout: first n uniforms give x, the next n give the Pareto draws.
    """
    if config.kind != KIND_PARETO:
        raise DataError(f"config.kind is {config.kind!r}, expected {KIND_PARETO!r}")
    n = config.n
    u = _uniforms(config.seed, 2 * n)
    x = _X_MAX * u[:n]
    e = u[n:] ** (-1.0 / _PARETO_ALPHA)
    y = _BETA0 + _BETA1 * x + e
    return Dataset.from_predictors(x, y, names=("x",))


def _bundled(name: str) -> Dataset:
    ref = resources.files(__package__).joinpath(f"datasets/{name}.csv")
    with resources.as_file(ref) as path:
        return load_csv(path, "Fertility" if name == "swiss" else "y1")


def load_swiss() -> Dataset:
    """The 47-province fertility dataset: Fertility on five predictors."""
    return _bundled("swiss")


def load_anscombe() -> Dataset:
    """The y1-vs-x2 pair from the classic quartet (11 points, one predictor)."""
    full = _bundled("anscombe")
    j = full.column_names.index("x2")
    return Dataset.from_predictors(full.X[:, j], full.y,
                                   names=("x2",), response_name="y1")
