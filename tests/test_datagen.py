"""Dataset container, CSV ingestion, synthetic generators, bundled data."""

import hashlib

import numpy as np
import pytest

from smoothrq import (
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
from smoothrq.datagen import KIND_PARETO


class TestDataset:
    def test_from_predictors_appends_intercept(self):
        d = Dataset.from_predictors([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert d.n_obs == 3
        assert d.n_coef == 2
        assert (d.X[:, -1] == 1.0).all()
        assert d.column_names == ("x0", "intercept")

    def test_intercept_must_be_last(self):
        X = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        with pytest.raises(DataError):
            Dataset(X=X, y=[1.0, 2.0, 3.0])

    def test_exactly_one_ones_column(self):
        X = np.ones((3, 2))
        with pytest.raises(DataError):
            Dataset(X=X, y=[1.0, 2.0, 3.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            Dataset.from_predictors([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset.from_predictors([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_rejects_more_coef_than_rows(self):
        with pytest.raises(DataError):
            Dataset.from_predictors(np.ones((2, 3)) * [[1, 2, 3], [4, 5, 6]],
                                    [1.0, 2.0])

    def test_predict_and_residuals(self):
        d = Dataset.from_predictors([1.0, 2.0, 3.0], [3.0, 5.0, 7.0])
        r = d.residuals([2.0, 1.0])
        assert r == pytest.approx([0.0, 0.0, 0.0], abs=0)
        with pytest.raises(DataError):
            d.predict([1.0])


class TestCsv:
    def test_round_trip_bitwise(self, tmp_path):
        d = gen_hetero_normal(SynthConfig(n=25, seed=3))
        p = tmp_path / "d.csv"
        write_csv(d, p)
        back = load_csv(p, "y")
        assert back.X.tobytes() == d.X.tobytes()
        assert back.y.tobytes() == d.y.tobytes()
        assert back.column_names == d.column_names

    def test_small_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,10\n2,20\n3,30\n")
        d = load_csv(p, "y")
        assert (d.n_obs, d.n_coef) == (3, 2)
        assert d.y == pytest.approx([10.0, 20.0, 30.0])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,10\n\n2,20\n\n\n3,30\n")
        d = load_csv(p, "y")
        assert d.n_obs == 3

    def test_non_numeric_cell_names_position(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,10\n2,oops\n")
        with pytest.raises(DataError, match=r"'oops'.*line 3.*'y'"):
            load_csv(p, "y")

    def test_missing_response(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="'y' not in header"):
            load_csv(p, "y")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(p, "y")

    def test_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, "y")

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,10\n1,2,3\n")
        with pytest.raises(DataError, match="line 3 has 3 fields"):
            load_csv(p, "y")

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "absent.csv", "y")

    def test_fingerprint_matches_serialization(self, tmp_path):
        d = Dataset.from_predictors([1.5, 2.5, 3.5], [1.0, 2.0, 3.0],
                                    names=("x",), response_name="y")
        text = "x,y\n1.5,1\n2.5,2\n3.5,3\n"
        fp = dataset_fingerprint(d)
        assert fp["rows"] == 3
        assert fp["cols"] == 2
        assert fp["sha256"] == hashlib.sha256(text.encode()).hexdigest()


class TestGenerators:
    def test_deterministic(self):
        cfg = SynthConfig(n=50, seed=99)
        a, b = gen_hetero_normal(cfg), gen_hetero_normal(cfg)
        assert a.X.tobytes() == b.X.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        cfp = SynthConfig(n=50, seed=99, kind=KIND_PARETO)
        c, d = gen_pareto(cfp), gen_pareto(cfp)
        assert c.y.tobytes() == d.y.tobytes()

    def test_seed_changes_output(self):
        a = gen_hetero_normal(SynthConfig(n=50, seed=1))
        b = gen_hetero_normal(SynthConfig(n=50, seed=2))
        assert not np.array_equal(a.y, b.y)

    def test_x_within_range(self):
        for d in (gen_hetero_normal(SynthConfig(n=200, seed=4)),
                  gen_pareto(SynthConfig(n=200, seed=4, kind=KIND_PARETO))):
            assert d.X[:, 0].min() >= 0.0
            assert d.X[:, 0].max() < 10.0

    def test_kind_mismatch(self):
        with pytest.raises(DataError):
            gen_pareto(SynthConfig(n=10, seed=1))
        with pytest.raises(DataError):
            gen_hetero_normal(SynthConfig(n=10, seed=1, kind=KIND_PARETO))

    def test_config_validation(self):
        with pytest.raises(DataError):
            SynthConfig(n=2, seed=1)
        with pytest.raises(DataError):
            SynthConfig(n=10, seed=1, kind="cauchy")

    @pytest.mark.parametrize("seed", [-3, 2 ** 128])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(DataError, match=r"seed must lie in \[0, 2\*\*128\)"):
            SynthConfig(n=10, seed=seed)

    def test_largest_seed_generates(self):
        assert gen_hetero_normal(SynthConfig(n=10, seed=2 ** 128 - 1)).n_obs == 10

    def test_hetero_spread_ratio(self):
        # spread grows linearly in x; the fitted |residual| profile at the
        # range endpoints should recover (sigma0 + 10*sigma1)/sigma0 = 7
        d = gen_hetero_normal(SynthConfig(n=10000, seed=42))
        x = d.X[:, 0]
        r = np.abs(d.y - (1.0 + 2.0 * x))
        slope, intercept = np.polyfit(x, r, 1)
        ratio = (intercept + 10.0 * slope) / intercept
        assert ratio == pytest.approx(7.0, rel=0.10)

    def test_pareto_one_sided(self):
        d = gen_pareto(SynthConfig(n=500, seed=11, kind=KIND_PARETO))
        e = d.y - (1.0 + 2.0 * d.X[:, 0])
        assert (e >= 1.0).all()

    def test_pareto_mean(self):
        # E[e] = alpha*scale/(alpha-1) = 2.5/1.5 for the defaults
        d = gen_pareto(SynthConfig(n=10000, seed=42, kind=KIND_PARETO))
        e = d.y - (1.0 + 2.0 * d.X[:, 0])
        assert e.mean() == pytest.approx(2.5 / 1.5, rel=0.05)

    def test_generated_dataset_is_valid(self):
        d = gen_pareto(SynthConfig(n=30, seed=8, kind=KIND_PARETO))
        assert d.column_names == ("x", "intercept")
        assert np.isfinite(d.y).all()


class TestBundled:
    def test_swiss_shape(self):
        d = load_swiss()
        assert (d.n_obs, d.n_coef) == (47, 6)
        assert d.response_name == "Fertility"
        assert d.column_names[-1] == "intercept"

    def test_anscombe_pair(self):
        d = load_anscombe()
        assert (d.n_obs, d.n_coef) == (11, 2)
        assert d.response_name == "y1"
        assert d.column_names == ("x2", "intercept")
        # the quartet shares x2 = 10, 8, 13, ... for its first series
        assert d.X[0, 0] == 10.0
        assert d.y[0] == pytest.approx(8.04)
