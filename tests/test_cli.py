"""Command-line behavior: flags, exit codes, output files, reproducibility."""

import hashlib
import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import smoothrq.cli as cli
from smoothrq import SolverError, SynthConfig, __version__, estimators, gen_hetero_normal
from smoothrq.cli import entrypoint, run_bench
from smoothrq.diagnostics import GridResult
from smoothrq.estimators import TauGrid


def run_cli(argv, capsys):
    code = entrypoint(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        entrypoint(argv)
    return exc.value.code


def write_line_csv(path, n=7):
    rows = ["x,y"]
    for i in range(n):
        rows.append(f"{float(i)},{2.0 * i + 1.0 + (0.1 if i % 2 else -0.1)}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def write_overflow_csv(path):
    # x near 1e200 and y near +-1e300: rq fits, but X'X, which the smooth
    # fits' Newton system holds, overflows
    rows = ["x,y"] + [f"{(1.0 + 0.1 * i) * 1e200!r},{(-1.0) ** i * (1.0 + 0.05 * i) * 1e300!r}"
                      for i in range(8)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def write_huge_csv(path):
    # four rows with y = +-1.7e308: the residuals from any plane through
    # them, and the right-hand side of the rq LP, lie past the float range
    rows = ["x,y"] + [f"{float(i)!r},{(-1.0) ** i * 1.7e308!r}" for i in range(4)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestFlagValidation:
    def test_flex_requires_shape_flags(self):
        assert exit_code(["fit", "--data", "anscombe", "--tau", "0.5",
                          "--method", "flex", "--c", "5"]) == 2

    def test_shape_flags_rejected_for_other_methods(self):
        assert exit_code(["fit", "--data", "anscombe", "--tau", "0.5",
                          "--method", "srq", "--c", "5"]) == 2

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(["fit", "--data", "no/such/file.csv",
                                "--response", "y", "--tau", "0.5",
                                "--method", "rq"], capsys)
        assert code == 3
        assert "no/such/file.csv" in err

    def test_builtin_response_is_fixed(self):
        assert exit_code(["fit", "--data", "swiss", "--response", "Agriculture",
                          "--tau", "0.5", "--method", "rq"]) == 2

    def test_csv_needs_response(self, tmp_path):
        path = write_line_csv(tmp_path / "d.csv")
        assert exit_code(["fit", "--data", path, "--tau", "0.5",
                          "--method", "rq"]) == 2

    def test_tau_out_of_range(self):
        assert exit_code(["fit", "--data", "anscombe", "--tau", "1.5",
                          "--method", "rq"]) == 2

    @pytest.mark.parametrize("tau", ["0", "1", "nan", "inf"])
    def test_tau_edges_and_non_finite_rejected(self, tau, capsys):
        assert exit_code(["fit", "--data", "anscombe", "--tau", tau,
                          "--method", "rq"]) == 2
        assert "strictly inside (0, 1)" in capsys.readouterr().err

    def test_unknown_method_in_grid(self, tmp_path):
        assert exit_code(["grid", "--data", "anscombe", "--grid", "3",
                          "--methods", "rq,bogus",
                          "--out", str(tmp_path)]) == 2

    def test_duplicate_methods(self, tmp_path):
        assert exit_code(["grid", "--data", "anscombe", "--grid", "3",
                          "--methods", "rq,rq", "--out", str(tmp_path)]) == 2

    def test_grid_too_short_to_classify(self, tmp_path, capsys):
        for i, grid in enumerate(("1", "2", "0.4,0.6,0.2")):
            out_dir = tmp_path / f"g{i}"
            assert exit_code(["grid", "--data", "anscombe", "--grid", grid,
                              "--methods", "rq", "--out", str(out_dir)]) == 2
            assert "at least 3" in capsys.readouterr().err
            assert not out_dir.exists()

    def test_grid_size_limit(self, tmp_path, capsys):
        for i, grid in enumerate(("0,inf,0.1", "0,1,1e-9", "1000000000")):
            out_dir = tmp_path / f"g{i}"
            assert exit_code(["grid", "--data", "anscombe", "--grid", grid,
                              "--methods", "rq", "--out", str(out_dir)]) == 2
            assert "argument --grid" in capsys.readouterr().err
            assert not out_dir.exists()

    def test_bench_rejects_flex(self, tmp_path, capsys):
        assert exit_code(["bench", "--kind", "normal", "--sizes", "20",
                          "--seed", "1", "--methods", "rq,flex",
                          "--out", str(tmp_path / "b")]) == 2
        assert "choose from rq, srq, smrq, rrq\n" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_bench_size_limit(self, tmp_path, capsys, monkeypatch):
        # 10**7 rows reach the generator, stubbed here so that no data is
        # allocated; one row more exits 2 before --out exists or any fit runs
        asked = []

        def stub(config):
            asked.append(config.n)
            return gen_hetero_normal(SynthConfig(n=20, seed=config.seed))

        monkeypatch.setattr(cli, "gen_hetero_normal", stub)
        code, _, err = run_cli(["bench", "--kind", "normal", "--sizes", "10000000",
                                "--replicates", "1", "--seed", "1", "--methods", "rq",
                                "--out", str(tmp_path / "a")], capsys)
        assert code == 0, err
        assert asked == [10_000_000]
        fitted = []
        monkeypatch.setattr(cli, "fit_grid", lambda *args: fitted.append(args))
        assert exit_code(["bench", "--kind", "normal", "--sizes", "20,10000001",
                          "--replicates", "1", "--seed", "1", "--methods", "rq",
                          "--out", str(tmp_path / "b")]) == 2
        assert "limit of 10000000 observations" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()
        assert asked == [10_000_000] and fitted == []

    def test_bench_sizes_too_small(self, tmp_path):
        assert exit_code(["bench", "--kind", "normal", "--sizes", "2",
                          "--seed", "1", "--methods", "rq",
                          "--out", str(tmp_path)]) == 2

    def test_bench_replicates_positive(self, tmp_path):
        assert exit_code(["bench", "--kind", "normal", "--sizes", "20",
                          "--replicates", "0", "--seed", "1",
                          "--methods", "rq", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["grid", "bench"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        flags = (["--data", "anscombe", "--grid", "3", "--methods", "rq"]
                 if command == "grid" else
                 ["--kind", "normal", "--sizes", "20", "--replicates", "1",
                  "--seed", "1", "--methods", "rq"])
        assert exit_code([command, *flags, "--out", str(taken)]) == 2
        assert "File exists" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert exit_code(["bench", "--kind", "normal", "--sizes", "20",
                          "--seed", "-3", "--methods", "rq",
                          "--out", str(tmp_path / "b")]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()
        # a seed past the generator's range is refused with the flags, before
        # the output directory exists
        assert exit_code(["bench", "--kind", "normal", "--sizes", "20",
                          "--seed", str(2 ** 128), "--methods", "rq",
                          "--out", str(tmp_path / "b")]) == 2
        assert f"--seed {2 ** 128} derives" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_largest_derived_seed_checked_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # replicate (i, j) uses seed + 100000*i + j; the n=20 row would need 2**128 + 99999
        fitted = []
        monkeypatch.setattr(cli, "fit_grid", lambda *args: fitted.append(args))
        seed = 2 ** 128 - 1
        assert exit_code(["bench", "--kind", "normal", "--sizes", "400,20",
                          "--replicates", "1", "--seed", str(seed), "--methods", "rq",
                          "--out", str(tmp_path / "b")]) == 2
        assert f"--seed {seed} derives replicate seeds up to {seed + 100000}" in \
            capsys.readouterr().err
        assert not (tmp_path / "b").exists()
        assert fitted == []

    def test_largest_derived_seed_may_be_the_last_generator_seed(self, tmp_path, capsys):
        seed = 2 ** 128 - 1 - 100000
        code, _, err = run_cli(["bench", "--kind", "normal", "--sizes", "20,30",
                                "--replicates", "1", "--seed", str(seed), "--methods", "rq",
                                "--out", str(tmp_path / "b")], capsys)
        assert code == 0, err
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["seeds"] == [seed, 2 ** 128 - 1]

    def test_non_utf8_csv_exits_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,y\n1,2\n2,4\n3,\xe96\n".encode("latin-1"))
        code, _, err = run_cli(["fit", "--data", str(path), "--response", "y",
                                "--tau", "0.5", "--method", "rq"], capsys)
        assert code == 3
        assert str(path) in err and "UTF-8" in err

    def test_version_flag(self, capsys):
        assert exit_code(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_subcommand_required(self):
        assert exit_code([]) == 2


class TestFit:
    def test_rq_report_layout(self, capsys):
        code, out, _ = run_cli(["fit", "--data", "anscombe", "--tau", "0.5",
                                "--method", "rq"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method: rq"
        assert lines[1] == "tau: 0.5"
        assert lines[2] == "coefficients:"
        assert lines[3].split()[0] == "x2"
        assert lines[4].split()[0] == "intercept"
        below = lines[5]
        assert below.startswith("below_count: ") and below.endswith(" / 11")
        assert lines[6].startswith("objective_classic: ")
        assert lines[7].startswith("objective_smooth[c=10,h=0,s=0.5,v=0]: ")
        assert lines[8].startswith("status: ")

    def test_manifest_line_is_json(self, capsys):
        _, out, _ = run_cli(["fit", "--data", "anscombe", "--tau", "0.5",
                             "--method", "srq"], capsys)
        line = [l for l in out.splitlines() if l.startswith("manifest: ")][0]
        manifest = json.loads(line[len("manifest: "):])
        assert manifest["version"] == __version__
        assert manifest["config"]["tau"] == 0.5
        assert manifest["config"]["method"] == "srq"
        assert manifest["datasets"][0]["rows"] == 11
        assert len(manifest["datasets"][0]["sha256"]) == 64
        assert manifest["seeds"] == []

    def _coefs(self, out):
        lines = out.splitlines()
        k = lines.index("coefficients:")
        return [float(l.split()[-1]) for l in lines[k + 1:k + 3]]

    @pytest.mark.parametrize("method, solver", [("rq", "fit_rq_lp"), ("srq", "fit_smooth"),
                                                ("rrq", "fit_rq_lp")])
    def test_failed_level_exits_4(self, capsys, monkeypatch, method, solver):
        def broken(*args, **kwargs):
            raise SolverError("synthetic solver outage")

        monkeypatch.setattr(estimators, solver, broken)
        code, out, err = run_cli(["fit", "--data", "anscombe", "--tau", "0.3",
                                  "--method", method], capsys)
        assert code == 4
        assert out == ""
        assert err == "error: synthetic solver outage\n"

    def test_oversized_rq_exits_4(self, tmp_path, capsys):
        # 3000 rows need a 137 MiB simplex tableau, above the 128 MiB limit
        path = write_line_csv(tmp_path / "d.csv", n=3000)
        code, _, err = run_cli(["fit", "--data", path, "--response", "y",
                                "--tau", "0.5", "--method", "rq"], capsys)
        assert code == 4
        assert "n=3000, p=2" in err and "limited to 128 MiB" in err

    def test_overflowing_smooth_fit_exits_4(self, tmp_path, capsys):
        path = write_overflow_csv(tmp_path / "big.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print on stderr
            code, out, err = run_cli(["fit", "--data", path, "--response", "y",
                                      "--tau", "0.5", "--method", "srq"], capsys)
        assert code == 4
        assert out == ""
        assert err == "error: smooth fit failed at tau=0.5: X'X overflows the float range\n"

    def test_overflowing_rq_fit_exits_4(self, tmp_path, capsys):
        path = write_huge_csv(tmp_path / "huge.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print on stderr
            code, out, err = run_cli(["fit", "--data", path, "--response", "y",
                                      "--tau", "0.5", "--method", "rq"], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("error: quantile LP failed at tau=0.5: ")
        assert err.count("\n") == 1

    def test_flex_fit_runs(self, tmp_path, capsys):
        path = write_line_csv(tmp_path / "d.csv")
        code, out, _ = run_cli(["fit", "--data", path, "--response", "y",
                                "--tau", "0.5", "--method", "flex",
                                "--c", "5", "--h", "0", "--s", "0.5", "--v", "0"],
                               capsys)
        assert code == 0
        assert out.splitlines()[0] == "method: flex"
        assert "objective_smooth[c=5,h=0,s=0.5,v=0]" in out

    @pytest.mark.parametrize("method, flags", [
        ("srq", []), ("smrq", []), ("flex", ["--c", "5", "--h", "0", "--s", "0.5", "--v", "0"])])
    def test_fit_prints_its_grid_row(self, tmp_path, capsys, method, flags):
        code, _, _ = run_cli(["grid", "--data", "swiss", "--grid", "9", "--methods", method,
                              *flags, "--out", str(tmp_path)], capsys)
        assert code == 0
        for row in (tmp_path / "coefficients.tsv").read_text().splitlines()[1:]:
            _, tau, *coefs = row.split("\t")
            code, out, _ = run_cli(["fit", "--data", "swiss", "--tau", tau,
                                    "--method", method, *flags], capsys)
            assert code == 0
            lines = out.splitlines()
            k = lines.index("coefficients:")
            assert [l.split()[-1] for l in lines[k + 1:k + 1 + len(coefs)]] == [
                cli._fmt(float(v)) for v in coefs]

    def test_rrq_fit_reports_plane(self, tmp_path, capsys):
        path = write_line_csv(tmp_path / "d.csv")
        code, out, _ = run_cli(["fit", "--data", path, "--response", "y",
                                "--tau", "0.75", "--method", "rrq"], capsys)
        assert code == 0
        slope, intercept = self._coefs(out)
        assert slope == pytest.approx(2.0, abs=0.5)
        assert intercept == pytest.approx(1.0, abs=1.0)


class TestGrid:
    def run_grid(self, tmp_path, capsys, name="g", extra=()):
        out_dir = tmp_path / name
        code, out, err = run_cli(["grid", "--data", "anscombe", "--grid", "9",
                                  "--methods", "srq,rq", "--out", str(out_dir),
                                  *extra], capsys)
        return code, out_dir, out, err

    def test_output_files(self, tmp_path, capsys):
        code, out_dir, out, _ = self.run_grid(tmp_path, capsys)
        assert code == 0
        counts = (out_dir / "counts.tsv").read_text().splitlines()
        assert counts[0] == "tau\tsrq\trq"
        assert len(counts) == 10
        first = counts[1].split("\t")
        assert first[0] == "0.1"
        assert all(cell.isdigit() for cell in first[1:])

        events = (out_dir / "events.tsv").read_text().splitlines()
        assert events[0] == "measure\tsrq\trq"
        assert events[1].startswith("spikes/pulses\t")
        assert events[2].startswith("wide\t")
        for cell in events[1].split("\t")[1:]:
            s, p = cell.split("/")
            assert s.isdigit() and p.isdigit()

        coefs = (out_dir / "coefficients.tsv").read_text().splitlines()
        assert coefs[0] == "method\ttau\tx2\tintercept"
        assert len(coefs) == 1 + 2 * 9
        assert coefs[1].split("\t")[0] == "srq"
        assert coefs[10].split("\t")[0] == "rq"

        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["methods"] == ["srq", "rq"]
        assert manifest["datasets"][0]["rows"] == 11
        assert "events" in out

    def test_manifest_records_the_parsed_command(self, tmp_path, capsys):
        # in-process, sys.argv is the host's (["-c"] under python -c), not the command
        code, out_dir, _, _ = self.run_grid(tmp_path, capsys, extra=["--suppress"])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"][0] == "smoothrq"
        assert manifest["command"][1:] == ["grid", "--data", "anscombe", "--grid", "9",
                                           "--methods", "srq,rq", "--out", str(out_dir),
                                           "--suppress"]
        assert "argv" not in manifest["config"]

    def test_suppressed_columns_interleaved(self, tmp_path, capsys):
        code, out_dir, _, _ = self.run_grid(tmp_path, capsys, extra=["--suppress"])
        assert code == 0
        header = (out_dir / "counts.tsv").read_text().splitlines()[0]
        assert header == "tau\tsrq\tsrq-s\trq\trq-s"
        events = (out_dir / "events.tsv").read_text().splitlines()
        assert events[0] == "measure\tsrq\tsrq-s\trq\trq-s"

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        _, dir_a, _, _ = self.run_grid(tmp_path, capsys, name="a")
        _, dir_b, _, _ = self.run_grid(tmp_path, capsys, name="b")
        for name in ("counts.tsv", "events.tsv", "coefficients.tsv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_svg_outputs(self, tmp_path, capsys):
        code, out_dir, _, _ = self.run_grid(tmp_path, capsys, extra=["--svg"])
        assert code == 0
        svg = (out_dir / "curves.svg").read_text()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert svg.count("<polyline") == 2
        for method in ("srq", "rq"):
            overlay = (out_dir / f"lines-{method}.svg").read_text()
            ET.fromstring(overlay)
            assert "<circle" in overlay

    def test_svg_and_manifest_layout_pinned(self, tmp_path, capsys):
        # curves.svg recorded before the two renderers shared one SVG frame and
        # the manifest became a plain dict; lines-rq.svg recorded when rq fits
        # began at the tau-shifted plane, which moved 9 degenerate-multiple
        # levels to other optimal vertices
        out_dir = tmp_path / "pinned"
        code, _, _ = run_cli(["grid", "--data", "anscombe", "--grid", "99",
                              "--methods", "rq,srq,smrq,rrq", "--suppress", "--svg",
                              "--out", str(out_dir)], capsys)
        assert code == 0
        digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                   for name in ("curves.svg", "lines-rq.svg")}
        assert digests == {
            "curves.svg": "c36eb0ffa0911dca7a29368348496618709626a6fab1d47436d851710731723d",
            "lines-rq.svg": "546ab4ef2a8f92ead32fb82d11fa42ab0c157b0cdfbf203a5b19cdf9b9057208",
        }
        text = (out_dir / "manifest.json").read_text()
        manifest = json.loads(text)
        assert list(manifest) == ["command", "config", "datasets", "elapsed_seconds",
                                  "seeds", "version", "wall_clock_utc"]
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    def test_swiss_events_pinned(self, tmp_path, capsys):
        # recorded before the three event types became one Event
        out_dir = tmp_path / "swiss"
        code, out, _ = run_cli(["grid", "--data", "swiss", "--grid", "99",
                                "--methods", "rq,srq,smrq,rrq", "--suppress",
                                "--out", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "events.tsv").read_text() == (
            "measure\trq\trq-s\tsrq\tsrq-s\tsmrq\tsmrq-s\trrq\trrq-s\n"
            "spikes/pulses\t2/2\t0/1\t4/0\t0/0\t0/0\t0/0\t0/0\t0/0\n"
            "wide\t0\t0\t0\t0\t0\t0\t0\t0\n")
        assert hashlib.sha256((out_dir / "counts.tsv").read_bytes()).hexdigest() == (
            "5bacf319bd6782a32867f63cb23fd5778915eb82126b9763e103bab065ffecd8")
        assert [line for line in out.splitlines() if ": events " in line] == [
            "rq: events 2/2 (wide 0)", "rq-s: events 0/1 (wide 0)",
            "srq: events 4/0 (wide 0)", "srq-s: events 0/0 (wide 0)",
            "smrq: events 0/0 (wide 0)", "smrq-s: events 0/0 (wide 0)",
            "rrq: events 0/0 (wide 0)", "rrq-s: events 0/0 (wide 0)",
        ]

    def test_overflowing_smooth_levels_fail_and_tsvs_are_written(self, tmp_path, capsys):
        path = write_overflow_csv(tmp_path / "big.csv")
        out_dir = tmp_path / "big"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print on stderr
            code, _, err = run_cli(["grid", "--data", path, "--response", "y", "--grid", "9",
                                    "--methods", "rq,srq", "--out", str(out_dir)], capsys)
        assert code == 4
        counts = [line.split("\t") for line in
                  (out_dir / "counts.tsv").read_text().splitlines()]
        assert counts[0] == ["tau", "rq", "srq"]
        assert all(row[1].isdigit() and row[2] == "" for row in counts[1:])
        assert (out_dir / "events.tsv").exists() and (out_dir / "coefficients.tsv").exists()
        failures = err.splitlines()[1:]
        assert len(failures) == 9
        assert all(line.startswith("  srq: failed: smooth fit failed at tau=")
                   and line.endswith(": X'X overflows the float range") for line in failures)

    def test_overflowing_levels_fail_by_name_and_tsvs_are_written(self, tmp_path, capsys):
        path = write_huge_csv(tmp_path / "huge.csv")
        out_dir = tmp_path / "huge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print on stderr
            code, out, err = run_cli(["grid", "--data", path, "--response", "y", "--grid", "9",
                                      "--methods", "rq,rrq,srq", "--out", str(out_dir)], capsys)
        assert code == 4
        for name in ("counts.tsv", "events.tsv", "coefficients.tsv"):
            assert (out_dir / name).exists()
        assert out.endswith(f"wrote counts.tsv, events.tsv, coefficients.tsv to {out_dir}\n")
        lines = err.splitlines()
        assert lines[0] == "solver failures:"
        failures = lines[1:]
        assert {line.split(":")[0] for line in failures} == {"  rq", "  rrq", "  srq"}
        assert all("tau=" in line for line in failures)

    def test_failed_level_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(data, tau_grid, method, params=None):
            grid = TauGrid.coerce(tau_grid)
            m = len(grid)
            return GridResult(taus=grid.values.copy(),
                              coefficients=np.full((m, data.n_coef), np.nan),
                              dataset=data, method=method,
                              statuses=["failed: synthetic solver outage"] * m)

        monkeypatch.setattr(cli, "fit_grid", broken)
        out_dir = tmp_path / "broken"
        code, out, err = run_cli(["grid", "--data", "anscombe", "--grid", "3",
                                  "--methods", "srq", "--suppress",
                                  "--out", str(out_dir)], capsys)
        assert code == 4
        assert "solver failures" in err
        counts = (out_dir / "counts.tsv").read_text().splitlines()
        assert counts[0] == "tau\tsrq\tsrq-s"
        assert counts[1].split("\t")[1:] == ["", ""]
        events = (out_dir / "events.tsv").read_text().splitlines()
        assert events[1].split("\t")[1:] == ["-", "-"]
        assert events[2].split("\t")[1:] == ["-", "-"]

    def test_failed_level_skips_suppression(self, tmp_path, capsys, monkeypatch):
        # one failed level leaves a NaN row and no curve (see
        # test_failed_level_recorded); grid --suppress must then not hand
        # that family to the diagnostics
        real = estimators.fit_smooth

        def flaky(data, tau, params=estimators.SRQ):
            if tau == 0.5:
                raise SolverError("synthetic failure for the error path")
            return real(data, tau, params=params)

        def no_suppression(result, report):
            raise AssertionError("suppress_events called on a failed family")

        monkeypatch.setattr(estimators, "fit_smooth", flaky)
        monkeypatch.setattr(cli, "suppress_events", no_suppression)
        out_dir = tmp_path / "partial"
        code, _, err = run_cli(["grid", "--data", "anscombe", "--grid", "3",
                                "--methods", "srq", "--suppress",
                                "--out", str(out_dir)], capsys)
        assert code == 4
        assert "synthetic failure" in err
        events = (out_dir / "events.tsv").read_text().splitlines()
        assert events[1].split("\t")[1:] == ["-", "-"]


    def test_failed_rq_level_keeps_other_columns(self, tmp_path, capsys, monkeypatch):
        real = estimators.fit_rq_lp

        def flaky(data, tau):
            if tau == 0.5:
                raise SolverError("synthetic rq failure")
            return real(data, tau)

        monkeypatch.setattr(estimators, "fit_rq_lp", flaky)
        out_dir = tmp_path / "partial"
        code, _, err = run_cli(["grid", "--data", "anscombe", "--grid", "3",
                                "--methods", "rq,srq", "--out", str(out_dir)], capsys)
        assert code == 4
        assert "rq: failed: synthetic rq failure" in err
        counts = [line.split("\t") for line in
                  (out_dir / "counts.tsv").read_text().splitlines()]
        assert counts[0] == ["tau", "rq", "srq"]
        assert all(row[1] == "" and row[2].isdigit() for row in counts[1:])
        events = (out_dir / "events.tsv").read_text().splitlines()
        assert events[1].split("\t")[1] == "-" and events[2].split("\t")[1] == "-"
        assert "/" in events[1].split("\t")[2] and events[2].split("\t")[2].isdigit()
        coefs = (out_dir / "coefficients.tsv").read_text().splitlines()
        assert coefs[2].split("\t")[:2] == ["rq", "0.5"]
        assert coefs[2].split("\t")[2:] == ["nan", "nan"]
        assert all("nan" not in row for row in coefs[4:])


class TestBench:
    def test_bench_outputs_and_determinism(self, tmp_path, capsys):
        argv = ["bench", "--kind", "normal", "--sizes", "20", "--replicates", "1",
                "--seed", "99", "--methods", "rq,srq"]
        code_a, _, _ = run_cli(argv + ["--out", str(tmp_path / "a")], capsys)
        code_b, _, _ = run_cli(argv + ["--out", str(tmp_path / "b")], capsys)
        assert code_a == 0 and code_b == 0
        bench_a = (tmp_path / "a" / "bench.tsv").read_bytes()
        bench_b = (tmp_path / "b" / "bench.tsv").read_bytes()
        assert bench_a == bench_b

        lines = bench_a.decode().splitlines()
        assert lines[0] == "n\trq\tsrq"
        row = lines[1].split("\t")
        assert row[0] == "20"
        for cell in row[1:]:
            s, p = cell.split("/")
            float(s), float(p)

        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["seeds"] == [99]
        assert manifest["config"]["kind"] == "normal"

    def test_run_bench_propagates_failures(self, monkeypatch):
        def broken(data, tau_grid, method, params=None):
            grid = TauGrid.coerce(tau_grid)
            m = len(grid)
            return GridResult(taus=grid.values.copy(),
                              coefficients=np.full((m, data.n_coef), np.nan),
                              dataset=data, method=method,
                              statuses=["failed: synthetic solver outage"] * m)

        monkeypatch.setattr(cli, "fit_grid", broken)
        with pytest.raises(SolverError, match="bench fit failed"):
            run_bench("hetero-normal", [20], 1, 7, ["srq"])
