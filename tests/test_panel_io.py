import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leadlag import (DataError, EigenCurve, FitResult, ReturnPanel,
                     ValidationError, aggregate_returns, load_curves, load_fits,
                     load_panel, panel_io, sample_correlation, save_curves,
                     save_fits, save_panel)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestPanelCsv:
    def test_zero_panel(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,X,Y\n0,0.0,0.0\n1,0.0,0.0\n2,0.0,0.0\n")
        panel = load_panel(path)
        assert panel.returns.shape == (2, 3)
        assert np.array_equal(panel.returns, np.zeros((2, 3)))
        assert panel.asset_labels == ("X", "Y")

    def test_identical_columns_are_perfectly_correlated(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "time,A,B\n0,0.01,0.01\n1,-0.02,-0.02\n2,0.005,0.005\n")
        corr = sample_correlation(load_panel(path)).values
        assert np.allclose(corr, np.ones((2, 2)))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        panel = ReturnPanel(rng.normal(scale=1e-3, size=(3, 50)),
                            asset_labels=("AAA", "BBB", "CCC"))
        path = tmp_path / "out.csv"
        save_panel(panel, path)
        back = load_panel(path)
        assert np.array_equal(back.returns, panel.returns)
        assert back.asset_labels == panel.asset_labels
        assert back.base_scale == panel.base_scale

    def test_base_scale_round_trips_via_time_stride(self, tmp_path):
        panel = ReturnPanel(np.random.default_rng(2).normal(size=(2, 40)))
        agg = aggregate_returns(panel, 8)
        path = tmp_path / "agg.csv"
        save_panel(agg, path)
        back = load_panel(path)
        assert back.base_scale == 8
        assert np.array_equal(back.returns, agg.returns)

    def test_crlf_accepted(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\r\n0,0.1\r\n1,0.2\r\n")
        panel = load_panel(path)
        assert panel.returns.shape == (1, 2)

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A,B\n0,0.1,0.2\n1,0.3\n")
        with pytest.raises(DataError, match="line 3"):
            load_panel(path)

    def test_nan_is_rejected_with_coordinates(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A,B\n0,0.1,nan\n")
        with pytest.raises(DataError, match="line 2.*'B'"):
            load_panel(path)

    def test_inf_is_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\n0,inf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_panel(path)

    def test_duplicate_label_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A,A\n0,0.1,0.2\n")
        with pytest.raises(DataError, match="duplicate asset label"):
            load_panel(path)

    def test_empty_label_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A, \n0,0.1,0.2\n")
        with pytest.raises(DataError, match="non-empty"):
            load_panel(path)

    def test_bad_time_index(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\nx,0.1\n")
        with pytest.raises(DataError, match="time index"):
            load_panel(path)

    def test_error_after_blank_line_names_physical_line(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\n0,0.1\n\n1,x\n")
        with pytest.raises(DataError, match="line 4"):
            load_panel(path)

    @pytest.mark.parametrize("bad", [0, 1234, 4095])
    def test_bad_line_is_found_by_bisection(self, tmp_path, monkeypatch, bad):
        # a few parses name the first bad line, not one parse per line
        n = 4096
        rows = [f"{i},0.1,{'x' if i == bad else '0.2'}" for i in range(n)]
        path = write(tmp_path, "p.csv", "time,A,B\n" + "\n".join(rows) + "\n")
        calls = []
        parse = panel_io._parse_rows
        monkeypatch.setattr(panel_io, "_parse_rows",
                            lambda lines, width: calls.append(1) or parse(lines, width))
        with pytest.raises(DataError, match=rf"line {bad + 2}: bad .*could not convert .*'x'"):
            load_panel(path)
        assert len(calls) <= 2 * math.log2(n)

    def test_quoted_number_loads(self, tmp_path):
        path = write(tmp_path, "p.csv", 'time,A\n0,"0.1"\n1,0.2\n')
        assert load_panel(path).returns.tolist() == [[0.1, 0.2]]

    @pytest.mark.parametrize("row", ["0,0.1 # note", "0,1_000", "1_0,0.1", "0,\u0661",
                                     "99999999999999999999,0.1"])
    def test_tokens_outside_the_row_grammar_are_refused(self, tmp_path, row):
        # no comments; and Python's int()/float() accept the others, numpy does not
        path = write(tmp_path, "p.csv", f"time,A\n{row}\n")
        with pytest.raises(DataError, match="line 2"):
            load_panel(path)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "p.csv", "0,0.1\n1,0.2\n")
        with pytest.raises(DataError, match="header"):
            load_panel(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "p.csv", "")
        with pytest.raises(DataError):
            load_panel(path)

    def test_empty_body(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\n")
        with pytest.raises(DataError, match="no data rows"):
            load_panel(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_panel(tmp_path / "absent.csv")

    def test_geometric_compounding_loads_log_gross(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\n0,0.1\n1,-0.05\n")
        panel = load_panel(path, compounding="geometric")
        assert panel.returns[0, 0] == pytest.approx(math.log1p(0.1), rel=1e-15)
        # arithmetic block sums of log-gross returns compound multiplicatively
        agg = aggregate_returns(panel, 2)
        assert math.expm1(agg.returns[0, 0]) == pytest.approx(1.1 * 0.95 - 1, rel=1e-12)

    def test_geometric_rejects_total_loss(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\n0,-1.0\n")
        with pytest.raises(DataError, match="geometric"):
            load_panel(path, compounding="geometric")

    def test_first_bad_cell_in_file_order_is_named(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A,B\n0,0.1,-1.5\n\n1,nan,0.2\n")
        with pytest.raises(DataError, match="line 2.*'B'.*geometric"):
            load_panel(path, compounding="geometric")
        with pytest.raises(DataError, match="line 4.*'A'"):
            load_panel(path)

    def test_unknown_compounding(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\n0,0.1\n")
        with pytest.raises(ValidationError, match="compounding"):
            load_panel(path, compounding="product")

    @given(values=st.lists(st.floats(min_value=-0.5, max_value=0.5,
                                     allow_nan=False, allow_infinity=False),
                           min_size=4, max_size=24))
    def test_round_trip_property(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("roundtrip")
        arr = np.asarray(values)[None, :]
        panel = ReturnPanel(np.vstack([arr, 2 * arr]))
        path = tmp / "p.csv"
        save_panel(panel, path)
        assert np.array_equal(load_panel(path).returns, panel.returns)


class TestPanelLabels:
    def panel(self, labels):
        return ReturnPanel(np.arange(4.0).reshape(2, 2), asset_labels=labels)

    @pytest.mark.parametrize("label", ["a,b", 'say "hi"'])
    def test_csv_special_labels_round_trip(self, tmp_path, label):
        path = tmp_path / "p.csv"
        save_panel(self.panel((label, "plain")), path)
        assert load_panel(path).asset_labels == (label, "plain")

    def test_plain_labels_keep_their_bytes(self, tmp_path):
        path = tmp_path / "p.csv"
        save_panel(self.panel(("A", "B")), path)
        assert path.read_bytes().startswith(b"time,A,B\n0,0.0,2.0\n")

    @pytest.mark.parametrize("label", ["a\nb", "a\r", "a\u2028b"])
    def test_label_with_line_break_rejected(self, tmp_path, label):
        path = tmp_path / "p.csv"
        with pytest.raises(DataError, match="line break"):
            save_panel(self.panel((label, "plain")), path)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("label", [" a", "b ", "\tc"])
    def test_label_with_outer_whitespace_rejected(self, tmp_path, label):
        # load_panel strips header labels, so such a label could not round-trip
        path = tmp_path / "p.csv"
        with pytest.raises(DataError, match="whitespace"):
            save_panel(self.panel((label, "plain")), path)
        assert not list(tmp_path.iterdir())

    def test_hand_written_spaced_header_loads(self, tmp_path):
        path = write(tmp_path, "p.csv", "time, A, B\n0,0.1,0.2\n1,0.3,0.4\n")
        assert load_panel(path).asset_labels == ("A", "B")


class TestResultsJson:
    def curves(self):
        taus = np.array([1, 2, 4, 8, 16, 32, 64, 128])
        rng = np.random.default_rng(4)
        return [EigenCurve(taus, rng.uniform(1.0, 99.0, taus.size), rank=r)
                for r in (1, 2, 3)]

    def test_curves_round_trip_exact(self, tmp_path):
        curves = self.curves()
        path = tmp_path / "curves.json"
        save_curves(curves, path, n_assets=50, base_scale_minutes=1.0)
        back, meta = load_curves(path)
        assert meta["n_assets"] == 50
        for a, b in zip(curves, back):
            assert a.rank == b.rank
            assert np.array_equal(a.taus, b.taus)
            assert np.array_equal(a.values, b.values)

    def test_curve_rows_are_ascending_in_tau(self, tmp_path):
        path = tmp_path / "curves.json"
        save_curves(self.curves()[:1], path, n_assets=10)
        doc = json.loads(path.read_text())
        taus = doc["curves"][0]["taus"]
        assert taus == sorted(taus) and len(taus) == 8

    def test_empty_curve_list_is_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        save_curves([], path, n_assets=5)
        back, meta = load_curves(path)
        assert back == [] and meta["n_assets"] == 5

    def test_fits_round_trip_exact(self, tmp_path):
        fits = [
            (1, FitResult(0.16, 90.61, 0.17, 0.5456787137181701, 1.25e-9, 17, True)),
            (2, FitResult(0.25, 15.99, 0.03, 0.7213475204444817, 0.0, 9, True)),
        ]
        path = tmp_path / "fits.json"
        save_fits(fits, path, n_assets=533)
        back, meta = load_fits(path)
        assert meta["n_assets"] == 533
        assert back == fits

    @pytest.mark.parametrize("field, value", [
        ("n_assets", 0), ("n_assets", -3), ("base_scale_minutes", 0.0),
        ("base_scale_minutes", -2.0), ("base_scale_minutes", math.nan),
        ("base_scale_minutes", math.inf), ("n_assets", 2.7), ("n_assets", True),
        ("n_assets", "3")])
    def test_bad_run_metadata_rejected(self, tmp_path, field, value):
        path = tmp_path / "curves.json"
        save_curves(self.curves(), path, n_assets=9)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=field):
            load_curves(path)

    @pytest.mark.parametrize("field, value", [
        ("n_assets", 0), ("base_scale_minutes", math.nan), ("base_scale_minutes", math.inf),
        ("base_scale_minutes", 0.0), ("base_scale_minutes", -1.0)])
    @pytest.mark.parametrize("kind", ["curves", "fits"])
    def test_writers_refuse_bad_run_metadata(self, tmp_path, kind, field, value):
        # the writers apply the loaders' rule, so they never write a file load rejects
        path = tmp_path / f"{kind}.json"
        meta = {"n_assets": 3, "base_scale_minutes": 1.0, field: value}
        save = save_curves if kind == "curves" else save_fits
        with pytest.raises(DataError, match=field):
            save([], path, **meta)
        assert not list(tmp_path.iterdir())

    def test_schema_is_versioned_and_checked(self, tmp_path):
        path = tmp_path / "curves.json"
        save_curves([], path, n_assets=3)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        doc["schema"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="schema"):
            load_curves(path)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_fit_converged_must_be_a_json_boolean(self, tmp_path, value):
        # bool("false") is True, so a string used to load as converged
        path = tmp_path / "fits.json"
        save_fits([(1, FitResult(0.16, 90.61, 0.17, 0.55, 1e-9, 17, False))], path, n_assets=533)
        doc = json.loads(path.read_text())
        doc["fits"][0]["converged"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="converged"):
            load_fits(path)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "curves.json"
        save_curves([], path, n_assets=3)
        with pytest.raises(DataError, match="kind"):
            load_fits(path)

    def test_atomic_rewrite_replaces_content(self, tmp_path):
        path = tmp_path / "curves.json"
        save_curves(self.curves(), path, n_assets=9)
        save_curves(self.curves()[:1], path, n_assets=9)
        back, _ = load_curves(path)
        assert len(back) == 1
        assert not list(tmp_path.glob("*.json.*"))  # no temp litter

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "target.json"
        target.mkdir()  # the final rename onto a directory fails
        with pytest.raises(DataError, match="cannot write"):
            save_curves(self.curves(), target, n_assets=9)
        assert not list(tmp_path.glob("*.json.*"))
