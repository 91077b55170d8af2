import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from leadlag import (EigenCurve, ModelSpec, dense_eigenvalues, eigencurves_from_panel,
                     factor_eigencurve, load_curves, load_fits, load_panel,
                     sample_correlation, save_curves, simulate_panel)
from leadlag.cli import main

DYADIC = "1,2,4,8,16,32,64,128"


def run(*argv):
    return main(list(argv))


def ranked_curve(n_assets, strength, alpha, taus, rank):
    # factor_eigencurve's curve under another rank
    curve = factor_eigencurve(n_assets, strength, alpha, taus)
    return EigenCurve(curve.taus, curve.values, rank=rank)


class TestSimulate:
    def test_writes_iid_panel(self, tmp_path, capsys):
        out = tmp_path / "panel.csv"
        code = run("simulate", "--assets", "10", "--factors", "1", "--alpha", "0",
                   "--beta", "0", "--steps", "1000", "--seed", "7", "--out", str(out))
        assert code == 0
        assert "10 assets x 1000 steps" in capsys.readouterr().out
        panel = load_panel(out)
        assert panel.returns.shape == (10, 1000)
        corr = sample_correlation(panel).values
        off = corr[~np.eye(10, dtype=bool)]
        assert np.max(np.abs(off)) < 0.2

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--assets", "4", "--alpha", "0.3", "--gamma", "0.2",
                       "--steps", "500", "--seed", "11", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_alpha_one_rejected_with_exit_2(self, tmp_path, capsys):
        code = run("simulate", "--assets", "4", "--alpha", "1.0", "--beta", "0.1",
                   "--steps", "10", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_requires_exactly_one_beta_source(self, tmp_path, capsys):
        code = run("simulate", "--assets", "4", "--alpha", "0.1",
                   "--steps", "10", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_beta_file(self, tmp_path):
        beta = tmp_path / "beta.csv"
        beta.write_text("0.5,0.1\n0.4,0.2\n0.3,0.3\n")
        out = tmp_path / "p.csv"
        code = run("simulate", "--assets", "3", "--factors", "2", "--alpha", "0.2",
                   "--beta-file", str(beta), "--steps", "64", "--out", str(out))
        assert code == 0
        assert load_panel(out).returns.shape == (3, 64)

    def test_beta_file_quoted_numbers_and_empty_lines(self, tmp_path):
        beta = tmp_path / "beta.csv"
        beta.write_text('"0.5",0.1\n\n0.4,"0.2"\n0.3,0.3\n')
        out = tmp_path / "p.csv"
        assert run("simulate", "--assets", "3", "--factors", "2", "--alpha", "0.2",
                   "--beta-file", str(beta), "--steps", "64", "--seed", "5",
                   "--out", str(out)) == 0
        spec = ModelSpec(3, 2, 0.2, 1.0, 1.0, [[0.5, 0.1], [0.4, 0.2], [0.3, 0.3]], seed=5)
        assert np.array_equal(load_panel(out).returns, simulate_panel(spec, 64).returns)

    def test_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_assets": 3, "n_factors": 1, "alpha": 0.25,
            "sigma": 1.0, "factor_sigma": 1.0, "beta": 0.4, "seed": 3,
        }))
        out = tmp_path / "p.csv"
        assert run("simulate", "--spec-file", str(spec_path), "--steps", "128",
                   "--out", str(out)) == 0
        spec = ModelSpec(3, 1, 0.25, 1.0, 1.0, 0.4, seed=3)
        expected = simulate_panel(spec, 128)
        assert np.array_equal(load_panel(out).returns, expected.returns)


class TestSpectrum:
    def make_panel(self, tmp_path, steps=4096, beta="0.4", alpha="0.2", assets=6):
        out = tmp_path / "panel.csv"
        assert run("simulate", "--assets", str(assets), "--alpha", alpha,
                   "--beta", beta, "--steps", str(steps), "--seed", "5",
                   "--out", str(out)) == 0
        return out

    def test_identity_like_panel_keeps_unit_curves(self, tmp_path):
        panel_path = self.make_panel(tmp_path, steps=60_000, beta="0", alpha="0.5")
        curves_path = tmp_path / "curves.json"
        assert run("spectrum", "--in", str(panel_path), "--taus", "1,2,4,8",
                   "--top-k", "3", "--out", str(curves_path)) == 0
        curves, meta = load_curves(curves_path)
        assert meta["n_assets"] == 6
        for curve in curves:
            assert np.all(np.abs(curve.values - 1.0) < 0.25)

    def test_covariance_mode_grows_linearly_on_iid_panel(self):
        # diffusion of aggregated variance: eigenvalues ~ tau * sigma^2, the
        # same code path the CLI drives, at the documented panel length
        spec = ModelSpec(8, 1, 0.0, 1.0, 1.0, 0.0, seed=13)
        panel = simulate_panel(spec, 1_000_000)
        curves = eigencurves_from_panel(panel, (1, 2, 4, 8, 16, 32, 64, 128),
                                        top_k=4, kind="covariance")
        for curve in curves:
            assert np.all(np.abs(curve.values / curve.taus - 1.0) < 0.10)

    def test_tau_exceeding_length_lists_offenders(self, tmp_path, capsys):
        panel_path = self.make_panel(tmp_path, steps=100)
        code = run("spectrum", "--in", str(panel_path), "--taus", "1,64,128",
                   "--out", str(tmp_path / "c.json"))
        assert code == 3
        err = capsys.readouterr().err
        assert "64" in err and "128" in err

    def test_empty_taus_is_exit_2(self, tmp_path, capsys):
        panel_path = self.make_panel(tmp_path, steps=100)
        code = run("spectrum", "--in", str(panel_path), "--taus", "",
                   "--out", str(tmp_path / "c.json"))
        assert code == 2
        assert "--taus expects a comma-separated list" in capsys.readouterr().err

    def test_non_integer_taus_is_exit_2(self, tmp_path, capsys):
        panel_path = self.make_panel(tmp_path, steps=100)
        code = run("spectrum", "--in", str(panel_path), "--taus", "1,x",
                   "--out", str(tmp_path / "c.json"))
        assert code == 2
        assert ("--taus expects a comma-separated list of integers"
                in capsys.readouterr().err)

    def test_covariance_mode_file_path(self, tmp_path):
        panel_path = self.make_panel(tmp_path, steps=2000)
        curves_path = tmp_path / "cov.json"
        assert run("spectrum", "--in", str(panel_path), "--taus", "1,2",
                   "--kind", "cov", "--top-k", "2", "--out", str(curves_path)) == 0
        curves, _ = load_curves(curves_path)
        panel = load_panel(panel_path)
        from leadlag import sample_covariance
        expected = dense_eigenvalues(sample_covariance(panel)).eigenvalues[:2]
        got = np.array([c.values[0] for c in curves])
        assert np.array_equal(got, expected)

    def test_top_k_exceeding_assets_is_exit_2(self, tmp_path, capsys):
        panel_path = self.make_panel(tmp_path, steps=200)
        code = run("spectrum", "--in", str(panel_path), "--taus", "1",
                   "--top-k", "99", "--out", str(tmp_path / "c.json"))
        assert code == 2
        assert "top_k" in capsys.readouterr().err

    def test_tau_one_equals_dense_of_sample_correlation(self, tmp_path):
        panel_path = self.make_panel(tmp_path, steps=2000)
        curves_path = tmp_path / "curves.json"
        assert run("spectrum", "--in", str(panel_path), "--taus", "1",
                   "--top-k", "4", "--out", str(curves_path)) == 0
        curves, _ = load_curves(curves_path)
        panel = load_panel(panel_path)
        expected = dense_eigenvalues(sample_correlation(panel)).eigenvalues[:4]
        got = np.array([c.values[0] for c in curves])
        assert np.array_equal(got, expected)

    def test_deterministic_output_bytes(self, tmp_path):
        panel_path = self.make_panel(tmp_path, steps=2048)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("spectrum", "--in", str(panel_path), "--taus", "1,2,4",
                       "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_one_factor_curve_tracks_closed_form(self, tmp_path):
        spec = ModelSpec.single_factor(40, 0.3, 0.25, seed=19)
        panel = simulate_panel(spec, 300_000)
        curves = eigencurves_from_panel(panel, (1, 4, 16), top_k=1)
        from leadlag import correlation_loading
        for tau, value in zip(curves[0].taus, curves[0].values):
            rho_sq = correlation_loading(0.3, 0.25, int(tau)) ** 2
            expected = 1 + 39 * rho_sq
            assert abs(value - expected) / expected < 0.05


class TestFitAndPlot:
    def write_reference_curves(self, tmp_path):
        curves = [
            ranked_curve(533, g, a, (1, 2, 4, 8, 16, 32, 64, 128), r + 1)
            for r, (g, a) in enumerate([(0.17, 0.16), (0.03, 0.25),
                                        (0.02, 0.18), (0.01, 0.26)])
        ]
        path = tmp_path / "curves.json"
        save_curves(curves, path, n_assets=533, base_scale_minutes=1.0)
        return path

    def test_fit_reference_curves_round_trip(self, tmp_path, capsys):
        curves_path = self.write_reference_curves(tmp_path)
        fits_path = tmp_path / "fits.json"
        assert run("fit", "--in", str(curves_path), "--out", str(fits_path)) == 0
        out = capsys.readouterr().out
        assert "gamma_f" in out and "t_alpha" in out
        fits, meta = load_fits(fits_path)
        assert meta["n_assets"] == 533
        expected = {1: (0.16, 0.17), 2: (0.25, 0.03), 3: (0.18, 0.02), 4: (0.26, 0.01)}
        for rank, fit in fits:
            alpha, gamma_f = expected[rank]
            assert abs(fit.alpha - alpha) < 1e-6
            assert abs(fit.amplitude - 533 * gamma_f) < 1e-6

    def test_fit_missing_rank_is_exit_3(self, tmp_path, capsys):
        curves_path = self.write_reference_curves(tmp_path)
        code = run("fit", "--in", str(curves_path), "--ranks", "9",
                   "--out", str(tmp_path / "f.json"))
        assert code == 3
        assert "9" in capsys.readouterr().err

    def test_fit_empty_ranks_is_exit_2(self, tmp_path, capsys):
        curves_path = self.write_reference_curves(tmp_path)
        code = run("fit", "--in", str(curves_path), "--ranks", "",
                   "--out", str(tmp_path / "f.json"))
        assert code == 2
        assert "--ranks expects a comma-separated list" in capsys.readouterr().err

    def test_fit_short_curves_skip_but_continue(self, tmp_path, capsys):
        curves = [
            factor_eigencurve(100, 0.1, 0.2, (1, 2, 4, 8)),
            ranked_curve(100, 0.05, 0.2, (1, 2), 2),  # too short to fit
        ]
        curves_path = tmp_path / "curves.json"
        save_curves(curves, curves_path, n_assets=100)
        fits_path = tmp_path / "fits.json"
        assert run("fit", "--in", str(curves_path), "--out", str(fits_path)) == 0
        assert "rank 2: fit skipped" in capsys.readouterr().err
        fits, _ = load_fits(fits_path)
        assert [rank for rank, _ in fits] == [1]

    def test_fit_all_short_is_exit_4(self, tmp_path):
        curves = [factor_eigencurve(100, 0.1, 0.2, (1, 2))]
        curves_path = tmp_path / "curves.json"
        save_curves(curves, curves_path, n_assets=100)
        assert run("fit", "--in", str(curves_path),
                   "--out", str(tmp_path / "f.json")) == 4

    def test_plot_writes_one_svg_per_rank(self, tmp_path):
        curves_path = self.write_reference_curves(tmp_path)
        fits_path = tmp_path / "fits.json"
        assert run("fit", "--in", str(curves_path), "--out", str(fits_path)) == 0
        out_dir = tmp_path / "plots"
        assert run("plot", "--curves", str(curves_path), "--fits", str(fits_path),
                   "--out-dir", str(out_dir), "--log-x") == 0
        files = sorted(p.name for p in out_dir.glob("*.svg"))
        assert files == [f"eigencurve_rank{r}.svg" for r in (1, 2, 3, 4)]

    def test_plot_deterministic_bytes(self, tmp_path):
        curves_path = self.write_reference_curves(tmp_path)
        d1, d2 = tmp_path / "p1", tmp_path / "p2"
        for d in (d1, d2):
            assert run("plot", "--curves", str(curves_path), "--out-dir", str(d)) == 0
        for name in ("eigencurve_rank1.svg", "eigencurve_rank4.svg"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_plot_mismatched_ranks_names_missing(self, tmp_path, capsys):
        curves_path = self.write_reference_curves(tmp_path)
        fits_path = tmp_path / "fits.json"
        assert run("fit", "--in", str(curves_path), "--ranks", "1,2",
                   "--out", str(fits_path)) == 0
        code = run("plot", "--curves", str(curves_path), "--fits", str(fits_path),
                   "--out-dir", str(tmp_path / "p"))
        assert code == 3
        err = capsys.readouterr().err
        assert "3" in err and "4" in err

    def test_plot_out_of_range_alpha_is_exit_3(self, tmp_path, capsys):
        # alpha = 1 would put nan coordinates into the SVG
        curves_path = self.write_reference_curves(tmp_path)
        fits_path = tmp_path / "fits.json"
        assert run("fit", "--in", str(curves_path), "--out", str(fits_path)) == 0
        doc = json.loads(fits_path.read_text())
        doc["fits"][0]["alpha"] = 1.0
        fits_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "p"
        code = run("plot", "--curves", str(curves_path), "--fits", str(fits_path),
                   "--out-dir", str(out_dir))
        assert code == 3
        assert "alpha" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_plot_out_dir_naming_a_file_is_exit_3(self, tmp_path, capsys):
        curves_path = self.write_reference_curves(tmp_path)
        out_dir = tmp_path / "taken"
        out_dir.write_text("")
        code = run("plot", "--curves", str(curves_path), "--out-dir", str(out_dir))
        assert code == 3
        assert capsys.readouterr().err.startswith("i/o error:")


class TestReproduce:
    def test_small_smoke_report(self, tmp_path):
        out = tmp_path / "report"
        assert run("reproduce", "--out-dir", str(out), "--assets", "80",
                   "--gammas", "0.3,0.1", "--alpha", "0.2", "--steps", "4096",
                   "--taus", "1,2,4,8,16", "--seed", "1") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "report"
        assert {e["rank"] for e in report["recovery"]} == {1, 2}
        assert all("fitted" in e for e in report["recovery"])
        for name in ("curves.json", "fits.json", "report.txt",
                     "eigencurve_rank1.svg", "eigencurve_rank2.svg"):
            assert (out / name).exists()

    def test_market_scale_counterfactual_anchors(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert run("reproduce", "--out-dir", str(out), "--steps", "2048",
                   "--seed", "3") == 0
        report = json.loads((out / "report.json").read_text())
        counter = report["counterfactual"]
        assert abs(counter["amplitude_alpha0"] - 90.0) < 1.0
        assert abs(counter["limit_with_memory"] - 128.0) < 2.0
        text = (out / "report.txt").read_text()
        assert "90.61" in text and "128.42" in text
        printed = capsys.readouterr().out
        assert "90.61" in printed and "128.42" in printed

    def test_seed_spread_of_fitted_alpha(self, tmp_path):
        from leadlag import reproduce_report
        alphas = []
        for seed in range(5):
            report = reproduce_report(tmp_path / f"run{seed}", n_assets=120,
                                      strengths=(0.2,), alpha=0.2,
                                      n_steps=1 << 14, seed=seed,
                                      taus=(1, 2, 4, 8, 16, 32, 64, 128))
            alphas.append(report["recovery"][0]["fitted"]["alpha"])
        assert max(alphas) - min(alphas) < 0.1

    @pytest.mark.parametrize("flags", [
        ("--gammas", "0.1,0.2"),
        ("--gammas", ""),
        ("--taus", "1,2,4,1000", "--steps", "512", "--assets", "8"),
    ], ids=["ascending", "empty", "too-long"])
    def test_refused_call_creates_nothing(self, tmp_path, flags):
        out = tmp_path / "report"
        assert run("reproduce", "--out-dir", str(out), *flags) != 0
        assert not out.exists()

    @pytest.mark.parametrize("strengths", [("0.5",), (True, 0.5)], ids=["string", "bool"])
    def test_strengths_refuse_bools_and_strings(self, tmp_path, strengths):
        from leadlag import ValidationError, reproduce_report
        with pytest.raises(ValidationError, match="strengths must be a number"):
            reproduce_report(tmp_path, n_assets=3, strengths=strengths, n_steps=64, taus=(1, 2))


class TestMalformedInput:
    """Every file the program reads from outside fails with a data error."""

    def assert_data_error(self, capsys, *argv):
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        return err

    def curves_argv(self, command, path, tmp_path):
        if command == "fit":
            return ("fit", "--in", str(path), "--out", str(tmp_path / "fits.json"))
        return ("plot", "--curves", str(path), "--out-dir", str(tmp_path / "plots"))

    def test_panel_csv_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"time,a,b\n0,0.1,\xff\n")
        self.assert_data_error(capsys, "spectrum", "--in", str(path),
                               "--out", str(tmp_path / "curves.json"))

    def test_panel_csv_time_index_not_increasing(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text("time,a\n5,0.1\n5,0.2\n3,0.3\n")
        self.assert_data_error(capsys, "spectrum", "--in", str(path), "--taus", "1",
                               "--top-k", "1", "--out", str(tmp_path / "curves.json"))

    @pytest.mark.parametrize("command", ["fit", "plot"])
    def test_results_json_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "curves.json"
        path.write_bytes(b'{"schema": 1, "kind": "curves\xff"}')
        self.assert_data_error(capsys, *self.curves_argv(command, path, tmp_path))

    def test_curves_not_json(self, tmp_path, capsys):
        path = tmp_path / "curves.json"
        path.write_text("curves")
        err = self.assert_data_error(capsys, *self.curves_argv("fit", path, tmp_path))
        assert "invalid JSON" in err

    @pytest.mark.parametrize("command", ["fit", "plot"])
    def test_curves_top_level_list(self, tmp_path, capsys, command):
        path = tmp_path / "curves.json"
        path.write_text("[1, 2]")
        self.assert_data_error(capsys, *self.curves_argv(command, path, tmp_path))

    @pytest.mark.parametrize("command", ["fit", "plot"])
    def test_curves_entry_without_taus(self, tmp_path, capsys, command):
        path = tmp_path / "curves.json"
        path.write_text(json.dumps({"schema": 1, "kind": "curves", "n_assets": 3,
                                    "curves": [{"rank": 1, "values": [1.0, 2.0]}]}))
        self.assert_data_error(capsys, *self.curves_argv(command, path, tmp_path))

    @pytest.mark.parametrize("command", ["fit", "plot"])
    def test_curves_repeated_rank(self, tmp_path, capsys, command):
        # the second rank-1 curve would take the first's fit and overwrite its plot
        entry = {"rank": 1, "taus": [1, 2, 4, 8], "values": [1.0, 2.0, 3.0, 4.0]}
        path = tmp_path / "curves.json"
        path.write_text(json.dumps({"schema": 1, "kind": "curves", "n_assets": 3,
                                    "curves": [entry, entry]}))
        self.assert_data_error(capsys, *self.curves_argv(command, path, tmp_path))
        assert not (tmp_path / "fits.json").exists() and not (tmp_path / "plots").exists()

    @pytest.mark.parametrize("field", ["n_assets", "base_scale_minutes"])
    def test_curves_metadata_not_a_number(self, tmp_path, capsys, field):
        path = tmp_path / "curves.json"
        save_curves([factor_eigencurve(5, 0.2, 0.2, (1, 2, 4, 8))], path, n_assets=5)
        document = json.loads(path.read_text())
        document[field] = "abc"
        path.write_text(json.dumps(document))
        self.assert_data_error(capsys, *self.curves_argv("fit", path, tmp_path))

    @pytest.mark.parametrize("field, value", [
        ("n_assets", 0), ("base_scale_minutes", -2.0), ("n_assets", 2.7), ("n_assets", True),
        ("n_assets", "3")])
    def test_curves_metadata_out_of_range(self, tmp_path, capsys, field, value):
        path = tmp_path / "curves.json"
        save_curves([factor_eigencurve(5, 0.2, 0.2, (1, 2, 4, 8))], path, n_assets=5)
        document = json.loads(path.read_text())
        document[field] = value
        path.write_text(json.dumps(document))
        self.assert_data_error(capsys, *self.curves_argv("fit", path, tmp_path))

    @pytest.mark.parametrize("flag, value", [
        ("--assets", "0"), ("--base-scale-minutes", "0"), ("--base-scale-minutes", "-1"),
        ("--base-scale-minutes", "nan"), ("--base-scale-minutes", "inf")])
    def test_fit_bad_run_flag_is_exit_2(self, tmp_path, capsys, flag, value):
        # one check for the whole run, not one skipped fit per curve (exit 4)
        path = tmp_path / "curves.json"
        save_curves([factor_eigencurve(5, 0.2, 0.2, (1, 2, 4, 8))], path, n_assets=5)
        assert run(*self.curves_argv("fit", path, tmp_path), flag, value) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "fits.json").exists()

    def test_beta_file_not_utf8(self, tmp_path, capsys):
        beta = tmp_path / "beta.csv"
        beta.write_bytes(b"0.5\n0.\xff\n")
        self.assert_data_error(capsys, "simulate", "--assets", "2", "--alpha", "0.2",
                               "--beta-file", str(beta), "--steps", "8",
                               "--out", str(tmp_path / "p.csv"))

    def test_beta_file_ragged(self, tmp_path, capsys):
        beta = tmp_path / "beta.csv"
        beta.write_text("0.5,0.1\n0.4\n0.3,0.3\n")
        self.assert_data_error(capsys, "simulate", "--assets", "3", "--factors", "2",
                               "--alpha", "0.2", "--beta-file", str(beta), "--steps", "8",
                               "--out", str(tmp_path / "p.csv"))
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_beta_file_empty(self, tmp_path, capsys, text):
        # a data error, and no numpy warning before it
        beta = tmp_path / "beta.csv"
        beta.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_data_error(capsys, "simulate", "--assets", "3", "--alpha", "0.2",
                                   "--beta-file", str(beta), "--steps", "8",
                                   "--out", str(tmp_path / "p.csv"))
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("beta", "abc"), ("n_assets", "x"), ("alpha", [0.1]), ("n_assets", 2.7),
        ("n_factors", 1.0), ("seed", True), ("alpha", 1.5), ("sigma", -1.0),
        ("sigma", "1.5"), ("sigma", True), ("factor_sigma", "2"), ("beta", [0.4, 0.4, True])])
    def test_spec_file_bad_field(self, tmp_path, capsys, field, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_assets": 3, "alpha": 0.25, "beta": 0.4, field: value}))
        self.assert_data_error(capsys, "simulate", "--spec-file", str(spec),
                               "--steps", "8", "--out", str(tmp_path / "p.csv"))
        assert not (tmp_path / "p.csv").exists()

    def test_spec_file_is_a_list(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[3, 1, 0.25]")
        self.assert_data_error(capsys, "simulate", "--spec-file", str(spec),
                               "--steps", "8", "--out", str(tmp_path / "p.csv"))

    def test_spec_file_not_utf8(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"n_assets": 3, "alpha": 0.25, "beta": 0.4, "x": "\xff"}')
        self.assert_data_error(capsys, "simulate", "--spec-file", str(spec),
                               "--steps", "8", "--out", str(tmp_path / "p.csv"))


def test_module_invocation_smoke(tmp_path):
    out = tmp_path / "p.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "leadlag", "simulate", "--assets", "2",
         "--alpha", "0", "--beta", "0", "--steps", "8", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_usage_error_is_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "leadlag", "simulate", "--steps", "nope"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
