import errno
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from leadlag import (DataError, EigenCurve, ModelSpec, ReturnPanel, dense_eigenvalues,
                     eigencurves_from_panel, factor_eigencurve, load_curves, load_fits,
                     load_panel, model, moments, panel_io, sample_correlation,
                     save_curves, simulate_panel)
from leadlag.cli import main
from leadlag.panel_io import save_panel

DYADIC = "1,2,4,8,16,32,64,128"
# line separators of str.splitlines that files break no line at: only LF, CRLF and CR do
DATA_SEPARATORS = list("\v\f\x1c\x1d\x1e\x85\u2028\u2029")
# other str.isspace characters, which numpy would take for blanks at a token's edge
OTHER_SPACES = {"no_break": "\u00a0", "em": "\u2003", "ideographic": "\u3000",
                "unit_separator": "\x1f"}
# a child process's environment that holds BLAS to one thread
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
MISREAD = ("could not convert a line holding whitespace other than spaces and tabs, "
           "or a quote left open")


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

    @pytest.mark.parametrize("flags, message", [
        (("--assets", "4", "--gamma", "0.1"),
         "--assets and --alpha are required (or use --spec-file)"),
        (("--assets", "4", "--alpha", "0.2", "--factors", "2", "--gamma", "0.1"),
         "--gamma defines a one-factor model; use --beta-file for more"),
    ], ids=["no_alpha", "gamma_with_two_factors"])
    def test_model_flags_refused_with_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.csv"
        assert run("simulate", *flags, "--steps", "8", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_refused_write_names_the_destination(self, tmp_path, capsys):
        # not the temporary file the write goes through first, whose name is random
        out = tmp_path / "missing" / "q.csv"
        errs = []
        for _ in range(2):
            assert run("simulate", "--assets", "3", "--alpha", "0.2", "--gamma", "0.1",
                       "--steps", "8", "--out", str(out)) == 3
            errs.append(capsys.readouterr().err)
        assert errs == [f"data error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"] * 2

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

    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_beta_file_rows_break_at_cr_and_crlf(self, tmp_path, newline):
        beta = tmp_path / "beta.csv"
        beta.write_bytes(newline.join(["0.5", "0.7", "0.9", ""]).encode())
        out = tmp_path / "p.csv"
        assert run("simulate", "--assets", "3", "--alpha", "0.2", "--beta-file", str(beta),
                   "--steps", "64", "--seed", "5", "--out", str(out)) == 0
        spec = ModelSpec(3, 1, 0.2, 1.0, 1.0, [0.5, 0.7, 0.9], seed=5)
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

    def test_streamed_file_is_the_saved_panel(self, tmp_path):
        # three 1,024-step blocks and a remainder of 100, after a burn-in longer
        # than one factor chunk, give save_panel's bytes for simulate_panel's panel
        beta = [[0.5, -0.2, 0.1], [0.3, 0.4, -0.6], [0.1, 0.2, 0.3], [-0.4, 0.1, 0.5]]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_assets": 4, "n_factors": 3, "alpha": 0.3,
                                         "factor_sigma": [1.0, 0.5, 2.0], "beta": beta,
                                         "seed": 9}))
        steps, burn_in = 3 * 1024 + 100, model._CHUNK + 4_464
        out = tmp_path / "simulated.csv"
        assert run("simulate", "--spec-file", str(spec_path), "--steps", str(steps),
                   "--burn-in", str(burn_in), "--out", str(out)) == 0
        spec = ModelSpec(4, 3, 0.3, 1.0, [1.0, 0.5, 2.0], beta, seed=9)
        save_panel(simulate_panel(spec, steps, burn_in), tmp_path / "saved.csv")
        assert out.read_bytes() == (tmp_path / "saved.csv").read_bytes()

    def test_non_finite_panel_leaves_no_file(self, tmp_path, capsys):
        # the writer refuses the first block, as ReturnPanel refused the panel
        out = tmp_path / "p.csv"
        assert run("simulate", "--assets", "3", "--alpha", "0.2", "--beta", "1e308",
                   "--factor-sigma", "10", "--steps", "3000", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: panel entries must all be finite\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (("--steps", "0"), "n_steps must lie in [1, inf], got 0"),
        (("--steps", "8", "--burn-in", "-1"), "burn_in must lie in [0, inf], got -1")])
    def test_bad_run_length_is_exit_2(self, tmp_path, capsys, flags, message):
        assert run("simulate", "--assets", "3", "--alpha", "0.2", "--beta", "0.3", *flags,
                   "--out", str(tmp_path / "p.csv")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's VmHWM")
    def test_memory_stays_below_the_panel(self, tmp_path, run_python):
        # a 64 x 32,768 panel (16 MiB, cli-csv's) goes to the file one
        # 1,024-step block at a time: the peak resident set rises by less than
        # a quarter of the panel (it rose by the panel and 1.4 MiB when the
        # panel was built first).  The simulator's lazy imports come before
        # the first reading; the peak is VmHWM, as for `spectrum` below.
        n_assets, n_steps = 64, 32_768
        script = (
            "import sys\n"
            "import concurrent.futures, numpy.random\n"
            "from leadlag.cli import main\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return int(status.read().split('VmHWM:')[1].split()[0])\n"
            "before = peak()\n"
            f"code = main(['simulate', '--assets', '{n_assets}', '--alpha', '0.2',\n"
            f"             '--gamma', '0.2', '--steps', '{n_steps}', '--out', sys.argv[1]])\n"
            "print(code, peak() - before)\n")
        result = run_python("-c", script, str(tmp_path / "p.csv"), **ONE_BLAS_THREAD)
        assert result.returncode == 0, result.stderr
        code, rise_kib = map(int, result.stdout.splitlines()[-1].split())
        assert code == 0
        assert rise_kib * 1024 < n_assets * n_steps * 8 / 4, f"rise {rise_kib / 1024:.1f} MiB"


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

    def test_tau_exceeding_length_lists_offenders(self, tmp_path, capsys):
        panel_path = self.make_panel(tmp_path, steps=100)
        code = run("spectrum", "--in", str(panel_path), "--taus", "1,64,128",
                   "--out", str(tmp_path / "c.json"))
        assert code == 3
        err = capsys.readouterr().err
        assert "64" in err and "128" in err

    @pytest.mark.parametrize("top_k", [4, 8])
    def test_scales_with_too_few_blocks_for_top_k_are_refused(self, tmp_path, capsys, top_k):
        # m blocks give a sample matrix of rank m - 1 at most: tau = 64 and 128
        # leave 4 and 2 blocks of 256 steps, too few for 4 nonzero eigenvalues
        panel_path = self.make_panel(tmp_path, steps=256, assets=8)
        code = run("spectrum", "--in", str(panel_path), "--top-k", str(top_k),
                   "--out", str(tmp_path / "c.json"))
        assert code == 3
        assert capsys.readouterr().err.rstrip().endswith(
            "aggregation scale(s) exceed usable series length: "
            + ("64, 128" if top_k == 4 else "32, 64, 128"))
        assert not (tmp_path / "c.json").exists()

    def test_collinear_assets_are_a_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 4096))
        save_panel(ReturnPanel(np.vstack([x, x.sum(axis=0)])), tmp_path / "p.csv")
        code = run("spectrum", "--in", str(tmp_path / "p.csv"), "--top-k", "5",
                   "--out", str(tmp_path / "c.json"))
        assert code == 3
        assert "eigenvalue 5 at tau=1 is zero to rounding" in capsys.readouterr().err

    @pytest.mark.parametrize("text, taus, label", [
        ("time,A,B\n0,1e200,0.0\n1,-1e200,1\n2,0,0\n", (1,), "A"),
        ('time,A,b c,"d,e"\n0,0,0,0\n1,0,0,0\n2,0,0,0\n3,1.0,2.0,8.98846567431158e+307\n',
         (1, 2), "d,e"),
    ], ids=["curve_of_ones", "linalg_error"])
    def test_variance_overflowing_float64_is_a_data_error(self, tmp_path, capsys, text, taus,
                                                          label):
        # squares of returns past about 1.3e154 overflow float64; warnings are errors
        # here, so the refusal comes with no numpy warning
        path, out = tmp_path / "p.csv", tmp_path / "curves.json"
        path.write_text(text)
        message = f"asset {label!r} has a sample variance that overflows float64"
        assert run("spectrum", "--in", str(path), "--taus", ",".join(map(str, taus)),
                   "--top-k", "1", "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()
        panel = load_panel(path)
        for compute in (sample_correlation, lambda p: eigencurves_from_panel(p, taus, 1)):
            with pytest.raises(DataError) as refused:
                compute(panel)
            assert str(refused.value) == message

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

    @pytest.mark.parametrize("kind", ["cov", "corr"])
    def test_kind_is_no_option(self, tmp_path, capsys, kind):
        # curves hold correlation eigenvalues, with no option to choose
        panel_path = self.make_panel(tmp_path, steps=200)
        with pytest.raises(SystemExit) as caught:
            run("spectrum", "--in", str(panel_path), "--kind", kind,
                "--out", str(tmp_path / "c.json"))
        assert caught.value.code == 2
        assert "unrecognized arguments: --kind" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

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


class TestStreamedSpectrum:
    """`leadlag spectrum` streams the CSV's rows into the engine: its curves
    are the bytes of eigencurves_from_panel on the loaded panel, and it
    refuses a bad file with load_panel's message, wherever the fault lies."""

    def write_csv(self, tmp_path, compounding):
        # CRLF rows with blank lines between some, after a byte-order mark; bar length 2
        returns = simulate_panel(ModelSpec.single_factor(3, 0.3, 0.4, seed=4), 301).returns
        panel = ReturnPanel(returns * 0.01 if compounding == "geometric" else returns,
                            base_scale=2, asset_labels=("A", "B", "C"))
        save_panel(panel, tmp_path / "lf.csv")
        lines = (tmp_path / "lf.csv").read_text(encoding="utf-8").splitlines()
        text = "\r\n".join(line + "\r\n" * (i % 7 == 3) for i, line in enumerate(lines))
        path = tmp_path / "p.csv"
        path.write_text("\ufeff" + text + "\r\n", encoding="utf-8", newline="")
        return path, text + "\r\n"

    @pytest.mark.parametrize("compounding", ["arithmetic", "geometric"])
    @pytest.mark.parametrize("boundary", ["crlf", "line_break"])
    def test_curves_match_the_loaded_panel_bit_for_bit(self, tmp_path, monkeypatch, capsys,
                                                       compounding, boundary):
        path, text = self.write_csv(tmp_path, compounding)
        # a readlines hint that ends between a CR and its LF, or right after
        # the LF, ends the first several-line batch after that same whole line
        chars = text.index("\r\n", 500) + (1 if boundary == "crlf" else 2)
        assert text[chars - 1] == ("\r" if boundary == "crlf" else "\n")
        monkeypatch.setattr(panel_io, "_READ_CHARS", chars)
        # 5-step chunks: lcm(taus) does not fit, so the sums of 3 steps carry tails
        taus = (1, 3, 6)
        monkeypatch.setattr(moments, "_CHUNK_BYTES", 8 * 3 * 5)
        assert moments._chunk_length(3, taus) == 5 and len(text) > 8 * chars
        out = tmp_path / "curves.json"
        assert run("spectrum", "--in", str(path), "--taus", "1,3,6", "--top-k", "3",
                   "--compounding", compounding, "--out", str(out)) == 0
        assert "curve(s) over taus [1, 3, 6] (correlation)" in capsys.readouterr().out
        curves, meta = load_curves(out)

        panel = load_panel(path)
        if compounding == "geometric":
            panel = ReturnPanel(np.log1p(panel.returns), base_scale=panel.base_scale)
        expected = eigencurves_from_panel(panel, taus, top_k=3)
        assert [c.values.tobytes() for c in curves] == [c.values.tobytes() for c in expected]
        assert meta == {"n_assets": 3, "base_scale_minutes": 2.0}

    # the refusals of test_panel_io's TestPanelCsv: (labels, body, line, compounding)
    REFUSALS = {
        "repeated_time": ("A", "5,0.1\n5,0.2\n3,0.3\n", 3, "arithmetic"),
        "descending_time": ("A", "0,0.1\n2,0.2\n\n1,0.3\n", 5, "arithmetic"),
        "ragged": ("A,B", "0,0.1,0.2\n1,0.3\n", 3, "arithmetic"),
        "nan": ("A,B", "0,0.1,nan\n", 2, "arithmetic"),
        "inf": ("A", "0,inf\n", 2, "arithmetic"),
        "bad_time_index": ("A", "x,0.1\n", 2, "arithmetic"),
        "after_blank_line": ("A", "0,0.1\n\n1,x\n", 4, "arithmetic"),
        "bisection": ("A,B", "".join(f"{i},0.1,{'x' if i == 1234 else '0.2'}\n"
                                     for i in range(4096)), 1236, "arithmetic"),
        "comment": ("A", "0,0.1 # note\n", 2, "arithmetic"),
        "digit_separator": ("A", "0,1_000\n", 2, "arithmetic"),
        "time_separator": ("A", "1_0,0.1\n", 2, "arithmetic"),
        "arabic_digit": ("A", "0,\u0661\n", 2, "arithmetic"),
        "time_beyond_int64": ("A", "99999999999999999999,0.1\n", 2, "arithmetic"),
        "total_loss": ("A", "0,-1.0\n", 2, "geometric"),
        "first_bad_cell_geometric": ("A,B", "0,0.1,-1.5\n\n1,nan,0.2\n", 2, "geometric"),
        "first_bad_cell": ("A,B", "0,0.1,-1.5\n\n1,nan,0.2\n", 4, "arithmetic"),
        "open_quote_last_row": ("a", '0,0.1\n1,"0.2', 3, "arithmetic"),
        "open_quote": ("a", '0,"0.1\n1,0.2\n', 2, "arithmetic"),
        "separator_at_edge": ("A", "0,0.1\n1,0.2\u2028\n", 3, "arithmetic"),
        **{f"{name}_space_at_edge": ("A", f"0,0.1\n1,0.2{space}\n", 3, "arithmetic")
           for name, space in OTHER_SPACES.items()},
    }

    @staticmethod
    def refusal(path, compounding):
        # load_panel's message, or under geometric compounding that of its reader
        with pytest.raises(DataError) as caught:
            if compounding == "arithmetic":
                load_panel(path)
            else:
                list(panel_io._panel_batches(path, compounding))
        return str(caught.value)

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refusal_past_the_first_block(self, tmp_path, monkeypatch, capsys, name):
        labels, body, line, compounding = self.REFUSALS[name]
        header = f"time,{labels}\n"
        alone = tmp_path / "alone.csv"
        alone.write_text(header + body, encoding="utf-8")
        message = self.refusal(alone, compounding)
        assert f"{alone}: line {line}: " in message

        # 40 rows of times -40..-1 ahead of the body, past the first 64-character block
        monkeypatch.setattr(panel_io, "_READ_CHARS", 64)
        cells = ",0.5" * len(labels.split(","))
        prefix = "".join(f"{t}{cells}\n" for t in range(-40, 0))
        shifted = tmp_path / "shifted.csv"
        shifted.write_text(header + prefix + body, encoding="utf-8")
        expected = message.replace(f"{alone}: line {line}: ", f"{shifted}: line {line + 40}: ")
        assert self.refusal(shifted, compounding) == expected

        out = tmp_path / "curves.json"
        assert run("spectrum", "--in", str(shifted), "--taus", "1", "--top-k", "1",
                   "--compounding", compounding, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize("separator", DATA_SEPARATORS)
    def test_row_holding_another_line_separator_is_refused(self, tmp_path, capsys,
                                                           separator):
        path = tmp_path / "p.csv"
        path.write_text(f"time,A,B\n0,0.1,0.2\n1,0.3,0.4{separator}2,0.5,0.6\n3,0.7,0.8\n",
                        encoding="utf-8")
        message = self.refusal(path, "arithmetic")
        assert message.startswith(f"{path}: line 3: bad time index or return value")
        out = tmp_path / "curves.json"
        assert run("spectrum", "--in", str(path), "--taus", "1", "--top-k", "1",
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("separator", DATA_SEPARATORS)
    def test_label_holding_another_line_separator_is_refused(self, tmp_path, capsys,
                                                             separator):
        # save_panel refuses such a label, so no panel loads that cannot be written back
        path = tmp_path / "p.csv"
        path.write_text(f"time,A{separator}B,C\n0,0.1,0.2\n1,0.3,0.4\n2,0.5,0.6\n3,0.7,0.8\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match="contains a line break") as caught:
            load_panel(path)
        out = tmp_path / "curves.json"
        assert run("spectrum", "--in", str(path), "--taus", "1", "--top-k", "1",
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {caught.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("labels, reason", [
        ("A,A", "duplicate asset label 'A' in header"),
        ("A,", "asset labels must be non-empty"),
        ("A\u2028B,C", "asset label 'A\\u2028B' contains a line break"),
        ('"A,C', "malformed header (unexpected end of data)"),
        ('A,"B', "malformed header (unexpected end of data)"),
        ('"A"x,C', "malformed header (',' expected after '\"')"),
    ], ids=["duplicate", "empty", "line_separator", "unclosed_quote", "unclosed_last_quote",
            "text_after_quote"])
    def test_label_refusal_names_the_file(self, tmp_path, capsys, labels, reason):
        # as every other refusal of a panel CSV does, under the header's line
        path = tmp_path / "p.csv"
        path.write_text(f"time,{labels}\n0,0.1,0.2\n1,0.3,0.4\n", encoding="utf-8")
        with pytest.raises(DataError) as caught:
            load_panel(path)
        assert str(caught.value) == f"{path}: line 1: {reason}"
        out = tmp_path / "curves.json"
        assert run("spectrum", "--in", str(path), "--taus", "1", "--top-k", "1",
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {path}: line 1: {reason}\n"
        assert not out.exists()

    def test_scale_refusal_comes_after_the_rows(self, tmp_path, monkeypatch, capsys):
        # the bar count is known only at the end of the file, as is a bad row
        monkeypatch.setattr(panel_io, "_READ_CHARS", 16)
        path = tmp_path / "p.csv"
        path.write_text("time,A\n" + "".join(f"{t},0.{t}\n" for t in range(9)), encoding="utf-8")
        assert run("spectrum", "--in", str(path), "--taus", "1,4,8", "--top-k", "1",
                   "--out", str(tmp_path / "c.json")) == 3
        assert capsys.readouterr().err == ("data error: aggregation scale(s) exceed usable "
                                           "series length: 8\n")
        with path.open("a", encoding="utf-8") as handle:
            handle.write("9,x\n")
        assert run("spectrum", "--in", str(path), "--taus", "1,4,8", "--top-k", "1",
                   "--out", str(tmp_path / "c.json")) == 3
        assert "line 11: bad time index" in capsys.readouterr().err

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's VmHWM")
    def test_memory_stays_below_the_panel(self, tmp_path, run_python):
        # 64 x 131,072 returns (a 64 MiB panel) as 38 MB of short tokens: the
        # process's peak resident set rises by less than the panel over its
        # imports.  One BLAS thread, so that the core count does not matter.
        # The peak is VmHWM, not ru_maxrss, which a child also takes from the
        # process that started it: from pytest's peak it hid most of the rise.
        n_assets, n_steps = 64, 131_072
        rng = np.random.default_rng(11)
        rows = [",".join(f"{v:.1f}" for v in rng.normal(size=n_assets)) for _ in range(97)]
        path = tmp_path / "p.csv"
        with path.open("w", encoding="utf-8") as handle:
            handle.write("time," + ",".join(f"a{j}" for j in range(n_assets)) + "\n")
            handle.writelines(f"{t},{rows[t % 97]}\n" for t in range(n_steps))
        script = (
            "import sys\n"
            "from leadlag.cli import main\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return int(status.read().split('VmHWM:')[1].split()[0])\n"
            "before = peak()\n"
            "code = main(['spectrum', '--in', sys.argv[1], '--taus', '1,2', '--top-k', '1',\n"
            "             '--out', sys.argv[2]])\n"
            "print(code, peak() - before)\n")
        result = run_python("-c", script, str(path), str(tmp_path / "c.json"),
                            **ONE_BLAS_THREAD)
        assert result.returncode == 0, result.stderr
        code, rise_kib = map(int, result.stdout.splitlines()[-1].split())
        assert code == 0
        assert rise_kib * 1024 < n_assets * n_steps * 8, f"rise {rise_kib / 1024:.1f} MiB"


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

    def test_fit_curves_without_asset_count_need_assets(self, tmp_path, capsys):
        curves_path = self.write_reference_curves(tmp_path)
        document = json.loads(curves_path.read_text())
        del document["n_assets"]
        curves_path.write_text(json.dumps(document))
        fits_path = tmp_path / "fits.json"
        assert run("fit", "--in", str(curves_path), "--out", str(fits_path)) == 2
        assert capsys.readouterr().err == "error: curves file carries no n_assets; pass --assets\n"
        assert not fits_path.exists()
        assert run("fit", "--in", str(curves_path), "--assets", "533",
                   "--out", str(fits_path)) == 0

    def test_fit_of_a_directory_is_exit_3(self, tmp_path, capsys):
        fits_path = tmp_path / "fits.json"
        assert run("fit", "--in", str(tmp_path), "--out", str(fits_path)) == 3
        assert capsys.readouterr().err == (f"data error: cannot read {tmp_path}: [Errno "
                                           f"{errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                                           f"'{tmp_path}'\n")
        assert not fits_path.exists()

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

    def test_failed_fits_are_reported(self, tmp_path):
        # two scales give two points, too few to fit (alpha, amplitude): every rank's
        # fit fails, and the report records it while the run succeeds
        out = tmp_path / "report"
        assert run("reproduce", "--out-dir", str(out), "--taus", "1,2", "--steps", "4096",
                   "--assets", "20") == 0
        reason = "curve must contain at least 3 points to fit 2 parameters"
        recovery = json.loads((out / "report.json").read_text())["recovery"]
        assert [(e["rank"], e.get("error"), "fitted" in e) for e in recovery] == [
            (rank, reason, False) for rank in (1, 2, 3, 4)]
        lines = (out / "report.txt").read_text().splitlines()
        assert [line for line in lines if "fit failed" in line] == [
            f"     {rank} fit failed: {reason}" for rank in (1, 2, 3, 4)]

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

    @pytest.mark.parametrize("alpha", [np.float32(0.16), 0], ids=["float32", "int"])
    def test_report_writes_the_checked_alpha(self, tmp_path, alpha):
        # the model's float everywhere: config, counterfactual, recovery and report.txt
        from leadlag import reproduce_report
        report = reproduce_report(tmp_path, n_assets=8, strengths=(0.3,), alpha=alpha,
                                  n_steps=512, taus=(1, 2, 4, 8))
        for document in (report, json.loads((tmp_path / "report.json").read_text())):
            written = [document["config"]["alpha"], document["counterfactual"]["alpha"],
                       *(entry["generating"]["alpha"] for entry in document["recovery"])]
            assert [(type(a), a) for a in written] == [(float, float(alpha))] * 3
        assert f"alpha={float(alpha)}, " in (tmp_path / "report.txt").read_text()

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

    @pytest.mark.parametrize("values", [["1.5", True, 2, 3.0], [1.5, 2.0, True, 3.0],
                                        ["1.5", "2", "2.5", "3"]])
    def test_curve_values_refuse_bools_and_strings(self, tmp_path, capsys, values):
        # refused, as the API refuses them, never read as 1 or parsed
        entry = {"rank": 1, "taus": [1, 2, 4, 8], "values": values}
        path = tmp_path / "curves.json"
        path.write_text(json.dumps({"schema": 1, "kind": "curves", "n_assets": 3,
                                    "curves": [entry]}))
        with pytest.raises(DataError, match="malformed curves .*values must be numbers"):
            load_curves(path)
        err = self.assert_data_error(capsys, *self.curves_argv("fit", path, tmp_path))
        assert "values must be numbers" in err
        assert not (tmp_path / "fits.json").exists()

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_curves_schema_not_the_integer_1(self, tmp_path, capsys, schema):
        path = tmp_path / "curves.json"
        save_curves([factor_eigencurve(5, 0.2, 0.2, (1, 2, 4, 8))], path, n_assets=5)
        document = json.loads(path.read_text())
        document["schema"] = schema
        path.write_text(json.dumps(document))
        err = self.assert_data_error(capsys, *self.curves_argv("fit", path, tmp_path))
        assert err == f"data error: {path}: unsupported schema {schema!r}\n"
        assert not (tmp_path / "fits.json").exists()

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

    @pytest.mark.parametrize("separator", DATA_SEPARATORS)
    def test_beta_file_row_holding_another_line_separator(self, tmp_path, capsys, separator):
        # three lines by str.splitlines, two rows of which one is malformed by csv's rule
        beta = tmp_path / "beta.csv"
        beta.write_text(f"0.5{separator}0.7\n0.9\n", encoding="utf-8")
        err = self.assert_data_error(capsys, "simulate", "--assets", "3", "--alpha", "0.2",
                                     "--beta-file", str(beta), "--steps", "8",
                                     "--out", str(tmp_path / "p.csv"))
        assert "could not convert" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("text, line", [('0.1,"0.2', 1), ('0.1,"0.2\n0.3,0.4', 1),
                                            ("0.1,0.2\n\n0.3\x85,0.4\n", 3)])
    def test_beta_file_line_numpy_would_misread_is_named(self, tmp_path, capsys, text, line):
        # numpy would close the open quote on the next line or at the end of
        # the file, and take a line separator at a token's edge for a blank
        beta = tmp_path / "beta.csv"
        beta.write_text(text, encoding="utf-8")
        err = self.assert_data_error(capsys, "simulate", "--assets", "2", "--factors", "2",
                                     "--alpha", "0.2", "--beta-file", str(beta), "--steps", "8",
                                     "--out", str(tmp_path / "p.csv"))
        assert err == f"data error: beta file {beta}: line {line}: {MISREAD}\n"
        assert not (tmp_path / "p.csv").exists()

    def test_beta_file_quoted_number_is_its_whole_field(self, tmp_path, capsys):
        # numpy would read "0."5 as 0.5, joining what follows the closing quote
        beta = tmp_path / "beta.csv"
        beta.write_text('"0.5"\n\n"0."5\n0.9\n', encoding="utf-8")
        err = self.assert_data_error(capsys, "simulate", "--assets", "3", "--alpha", "0.2",
                                     "--beta-file", str(beta), "--steps", "8",
                                     "--out", str(tmp_path / "p.csv"))
        assert err == (f"data error: beta file {beta}: line 3: could not convert a field "
                       "holding more than a number between quotes\n")

    @pytest.mark.parametrize("space", OTHER_SPACES.values(), ids=OTHER_SPACES.keys())
    def test_beta_file_blanks_are_spaces_and_tabs(self, tmp_path, capsys, space):
        beta = tmp_path / "beta.csv"
        beta.write_text(f"0.5\n\n0.7{space}\n0.9\n", encoding="utf-8")
        err = self.assert_data_error(capsys, "simulate", "--assets", "3", "--alpha", "0.2",
                                     "--beta-file", str(beta), "--steps", "8",
                                     "--out", str(tmp_path / "p.csv"))
        assert err == f"data error: beta file {beta}: line 3: {MISREAD}\n"
        beta.write_text(" 0.5\t\n\t0.7 \n0.9\n", encoding="utf-8")
        assert run("simulate", "--assets", "3", "--alpha", "0.2", "--beta-file", str(beta),
                   "--steps", "8", "--out", str(tmp_path / "p.csv")) == 0

    @pytest.mark.parametrize("text, factors, reason", [
        ("0.5,0.1\n\n0.4\n0.3,0.3", "2", "the number of columns changed from 2 to 1"),
        ("0.5\n\nx", "1", "could not convert string 'x' to float64")],
        ids=["ragged", "not_a_number"])
    def test_beta_file_refusal_names_the_physical_line(self, tmp_path, capsys, text, factors,
                                                       reason):
        # numpy's row counts nonempty lines only, and its `usecols` hint speaks to its API
        beta = tmp_path / "beta.csv"
        beta.write_text(text, encoding="utf-8")
        err = self.assert_data_error(capsys, "simulate", "--assets", "2", "--factors", factors,
                                     "--alpha", "0.2", "--beta-file", str(beta), "--steps", "8",
                                     "--out", str(tmp_path / "p.csv"))
        assert err == f"data error: beta file {beta}: line 3: {reason}\n"
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("text, factors, line", [("0.5\n\nnan\n0.2\n", "1", 3),
                                                     ("0.5,0.1\n0.4,inf\n0.3,0.3\n", "2", 2),
                                                     ("0.5\nnan\nx", "1", 2)],
                             ids=["nan", "inf", "nan_before_bad_number"])
    def test_beta_file_non_finite_names_its_line(self, tmp_path, capsys, text, factors, line):
        # a data error in a file, as in a spec file; on the command line a usage
        # error.  The first fault in file order is named, whatever its kind
        beta = tmp_path / "beta.csv"
        beta.write_text(text)
        err = self.assert_data_error(capsys, "simulate", "--assets", "3", "--factors", factors,
                                     "--alpha", "0.2", "--beta-file", str(beta), "--steps", "8",
                                     "--out", str(tmp_path / "p.csv"))
        assert err == (f"data error: beta file {beta}: line {line}: "
                       "beta entries must all be finite\n")
        assert not (tmp_path / "p.csv").exists()
        assert run("simulate", "--assets", "3", "--alpha", "0.2", "--beta", "nan",
                   "--steps", "8", "--out", str(tmp_path / "p.csv")) == 2
        assert capsys.readouterr().err == "error: beta entries must all be finite\n"

    @pytest.mark.parametrize("text, assets, factors, shape", [
        ("0.5\n0.4\n0.3\n", "3", "2", "(3, 1)"), ("0.5,0.1\n0.4,0.2\n", "3", "2", "(2, 2)"),
        ("0.5,0.4,0.3\n", "3", "1", "(1, 3)")], ids=["columns", "rows", "transposed"])
    def test_beta_file_shape_names_the_file(self, tmp_path, capsys, text, assets, factors,
                                            shape):
        # the same fault as in a spec file, a data error naming the file
        beta = tmp_path / "beta.csv"
        beta.write_text(text)
        err = self.assert_data_error(capsys, "simulate", "--assets", assets, "--factors",
                                     factors, "--alpha", "0.2", "--beta-file", str(beta),
                                     "--steps", "8", "--out", str(tmp_path / "p.csv"))
        assert err == (f"data error: beta file {beta}: shape {shape}, not --assets x "
                       f"--factors ({assets}, {factors})\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("assets, factors, name", [("0", "1", "n_assets"),
                                                       ("3", "0", "n_factors")])
    def test_beta_file_with_bad_counts_is_a_usage_error(self, tmp_path, capsys, assets,
                                                        factors, name):
        # --assets and --factors are checked before the file is read
        beta = tmp_path / "beta.csv"
        beta.write_text("0.5\n0.4\n0.3\n")
        assert run("simulate", "--assets", assets, "--factors", factors, "--alpha", "0.2",
                   "--beta-file", str(beta), "--steps", "8",
                   "--out", str(tmp_path / "p.csv")) == 2
        assert capsys.readouterr().err == f"error: {name} must lie in [1, inf], got 0\n"
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


def test_module_invocation_smoke(tmp_path, run_python):
    out = tmp_path / "p.csv"
    proc = run_python("-m", "leadlag", "simulate", "--assets", "2", "--alpha", "0",
                      "--beta", "0", "--steps", "8", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_usage_error_is_exit_2(run_python):
    proc = run_python("-m", "leadlag", "simulate", "--steps", "nope")
    assert proc.returncode == 2
