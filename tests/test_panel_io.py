import contextlib
import io
import json
import math
import os
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag import (DataError, EigenCurve, FitResult, ReturnPanel, ValidationError,
                     aggregate_returns, eigencurves_from_panel, load_curves, load_fits,
                     load_panel, panel_io, sample_correlation, save_curves,
                     save_fits)
from leadlag.cli import main
from leadlag.panel_io import save_panel
from oracles import reference_beta, reference_panel


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_geometric(path):
    # the panel `leadlag spectrum --compounding geometric` streams from `path`
    batches = panel_io._panel_batches(path, "geometric")
    labels = next(batches)
    returns, scales = zip(*batches)
    return ReturnPanel(np.concatenate(returns).T, base_scale=scales[-1], asset_labels=labels)


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

    @pytest.mark.parametrize("body, line", [
        ("5,0.1\n5,0.2\n3,0.3\n", 3),
        ("0,0.1\n2,0.2\n\n1,0.3\n", 5),  # after a blank line
    ], ids=["repeated", "descending"])
    def test_time_index_must_increase(self, tmp_path, body, line):
        path = write(tmp_path, "p.csv", "time,A\n" + body)
        with pytest.raises(DataError, match=f"line {line}: time index"):
            load_panel(path)

    def test_gappy_increasing_time_index_has_unit_base_scale(self, tmp_path):
        panel = load_panel(write(tmp_path, "p.csv", "time,A\n0,0.1\n1,0.2\n5,0.3\n"))
        assert panel.base_scale == 1
        assert np.array_equal(panel.returns, [[0.1, 0.2, 0.3]])

    def test_crlf_accepted(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\r\n0,0.1\r\n1,0.2\r\n")
        panel = load_panel(path)
        assert panel.returns.shape == (1, 2)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" opens the file with U+FEFF
        text = "time,A,B\n0,0.1,0.2\n1,0.3,0.4\n"
        plain = load_panel(write(tmp_path, "plain.csv", text))
        marked = load_panel(write(tmp_path, "bom.csv", "\ufeff" + text))
        assert marked.asset_labels == plain.asset_labels == ("A", "B")
        assert np.array_equal(marked.returns, plain.returns)

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
                            lambda *args: calls.append(1) or parse(*args))
        with pytest.raises(DataError, match=rf"line {bad + 2}: bad .*could not convert .*'x'"):
            load_panel(path)
        assert len(calls) <= 2 * math.log2(n)

    def test_quoted_number_loads(self, tmp_path):
        path = write(tmp_path, "p.csv", 'time,A\n0,"0.1"\n1,0.2\n')
        assert load_panel(path).returns.tolist() == [[0.1, 0.2]]

    @pytest.mark.parametrize("row", ['0,"0."5', '0,""0.5', '0,"1"e5', '"1"0,0.5', '0," 0.5"',
                                     '0,"0.5\t"', '0,"0.5" '])
    def test_a_quoted_number_is_its_whole_field(self, tmp_path, row):
        # numpy joins what follows a field's closing quote to what the quotes
        # hold, and strips blanks inside them: "0."5 would read as 0.5
        path = write(tmp_path, "p.csv", f'time,A\n"0","0.1"\n{row}\n')
        with pytest.raises(DataError) as refused:
            load_panel(path)
        assert str(refused.value) == (f"{path}: line 3: bad time index or return value (could "
                                      "not convert a field holding more than a number between "
                                      "quotes)")

    @pytest.mark.parametrize("row, reason", [
        ("1,0.3", "the dtype passed requires 3 columns but 2 were found"),
        ("1,0.3,x", "could not convert string 'x' to float64")], ids=["short_row", "bad_token"])
    def test_refusal_gives_numpys_reason_without_its_row_count(self, tmp_path, row, reason):
        # numpy counts the rows of the shortest refused prefix, from 0 or 1, and
        # its `usecols` hint speaks to its API, not to the file's author
        path = write(tmp_path, "p.csv", f"time,A,B\n0,0.1,0.2\n\n{row}\n")
        with pytest.raises(DataError) as refused:
            load_panel(path)
        assert str(refused.value) == f"{path}: line 4: bad time index or return value ({reason})"

    @pytest.mark.parametrize("row", ["0,0.1 # note", "0,1_000", "1_0,0.1", "0,\u0661",
                                     "99999999999999999999,0.1", "1,0.2\u2028", "1\u2028,0.2",
                                     "1,0.2\x85", "1,0.2\v", "1,0.2\f", "1,0.2\x1c"])
    def test_tokens_outside_the_row_grammar_are_refused(self, tmp_path, row):
        # no comments; Python's int()/float() accept the next four, numpy does
        # not; and numpy would take a line separator at a token's edge for a blank
        path = write(tmp_path, "p.csv", f"time,A\n{row}\n")
        with pytest.raises(DataError, match="line 2"):
            load_panel(path)

    @pytest.mark.parametrize("separator", list("\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_rows_break_only_at_lf_crlf_or_cr(self, tmp_path, separator):
        # as csv reads the file: another Unicode line separator is data, so the
        # row holding one is refused under its physical line number
        path = write(tmp_path, "p.csv",
                     f"time,A,B\r0,0.1,0.2\r\n1,0.3,0.4{separator}2,0.5,0.6\n3,0.7,0.8\n")
        with pytest.raises(DataError, match="p.csv: line 3: bad time index or return value"):
            load_panel(path)
        whole = path.read_text(encoding="utf-8").replace(separator, "\n")
        assert load_panel(write(tmp_path, "q.csv", whole)).returns.shape == (2, 4)

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000", "\x1f"],
                             ids=["no_break", "em", "ideographic", "unit_separator"])
    def test_a_rows_only_blanks_are_spaces_and_tabs(self, tmp_path, space):
        # numpy would take any str.isspace character at a token's edge for a blank
        path = write(tmp_path, "p.csv", f"time,A\n0,0.1\n1,0.2{space}\n")
        with pytest.raises(DataError, match="p.csv: line 3: bad time index or return value"):
            load_panel(path)
        spaced = write(tmp_path, "q.csv", "time,A\n0, 0.1\t\n1,\t0.2 \n")
        assert load_panel(spaced).returns.tolist() == [[0.1, 0.2]]

    def test_ascii_spaces_are_those_of_str_isspace(self):
        # the six that ASCII text is scanned for: all but a row's blanks and line breaks
        assert set(panel_io._ASCII_SPACES) == {
            c for c in map(chr, range(128)) if c.isspace()} - set(" \t\n\r")

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
        panel = load_geometric(path)
        assert panel.returns[0, 0] == pytest.approx(math.log1p(0.1), rel=1e-15)
        # arithmetic block sums of log-gross returns compound multiplicatively
        agg = aggregate_returns(panel, 2)
        assert math.expm1(agg.returns[0, 0]) == pytest.approx(1.1 * 0.95 - 1, rel=1e-12)

    def test_geometric_rejects_total_loss(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\n0,-1.0\n")
        with pytest.raises(DataError, match="geometric"):
            load_geometric(path)

    def test_first_bad_cell_in_file_order_is_named(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A,B\n0,0.1,-1.5\n\n1,nan,0.2\n")
        with pytest.raises(DataError, match="line 2.*'B'.*geometric"):
            load_geometric(path)
        with pytest.raises(DataError, match="line 4.*'A'"):
            load_panel(path)

    @pytest.mark.parametrize("text, line, reason", [
        ("time,A\n0,nan\n1,0.1\n2,x\n", 2, "asset 'A': non-finite return"),
        ("time,A\n0,0.1\n0,0.2\n1,x\n", 3, "time index 0 does not exceed the previous one (0)"),
    ], ids=["nan_before_bad_number", "repeated_time_before_bad_number"])
    def test_value_or_time_fault_before_a_bad_number_is_named(self, tmp_path, text, line,
                                                               reason):
        # the first fault in file order, whatever its kind: the bisection that finds a
        # number numpy refuses finds a bad value or time index as well
        path = write(tmp_path, "p.csv", text)
        for read in (load_panel, load_geometric):
            with pytest.raises(DataError) as refused:
                read(path)
            assert str(refused.value) == f"{path}: line {line}: {reason}"

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


class TestPanelStreams:
    """The reader takes the file in batches of whole lines, as many as
    readlines(_READ_CHARS) gives and at least one, and checks each batch at
    once; the writer writes rows as it formats them."""

    @pytest.mark.parametrize("chars", [None, *range(1, 50)])
    def test_time_indices_more_than_int64_apart(self, tmp_path, monkeypatch, chars):
        # neighbours are compared, never subtracted in int64, within a batch
        # and across two
        if chars is not None:
            monkeypatch.setattr(panel_io, "_READ_CHARS", chars)
        lo, hi = -(2**63 - 1), 2**63 - 1
        path = write(tmp_path, "p.csv", f"time,A\n{lo},0.1\n{hi},0.2\n")
        assert load_panel(path).base_scale == 2**64 - 2
        path = write(tmp_path, "p.csv", f"time,A\n{lo},0.1\n{hi - 1},0.2\n{hi},0.3\n")
        assert load_panel(path).base_scale == 1
        path = write(tmp_path, "p.csv", f"time,A\n{hi},0.1\n{lo - 1},0.2\n")
        with pytest.raises(DataError, match=rf"line 3: time index {lo - 1} does not exceed "
                                            rf"the previous one \({hi}\)"):
            load_panel(path)

    @pytest.mark.parametrize("chars", [1, 2, 3, 7, 8, 9, 64])
    def test_batches_concatenate_to_the_whole_file(self, tmp_path, monkeypatch, chars):
        # readlines hints of 1 to 9 characters give batches of one line, or of
        # a blank line and the next, and 64 gives one batch of several lines;
        # with blank lines, a byte-order mark and a uniform stride of 3
        text = "\ufefftime,AA,B\r\n0,0.1,-0.2\r\n\r\n3,1e-3,5\n6,0.5,0.25\r\n\n9,-1,2"
        whole = load_panel(write(tmp_path, "p.csv", text))
        monkeypatch.setattr(panel_io, "_READ_CHARS", chars)
        panel = load_panel(tmp_path / "p.csv")
        assert panel.returns.tobytes() == whole.returns.tobytes()
        assert panel.returns.strides == whole.returns.strides
        assert (panel.asset_labels, panel.base_scale) == (("AA", "B"), 3) == (
            whole.asset_labels, whole.base_scale)
        assert whole.returns.tolist() == [[0.1, 1e-3, 0.5, -1], [-0.2, 5, 0.25, 2]]

    def test_writer_failing_mid_stream_keeps_the_destination(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,A\n0,0.1\n")

        def pieces():
            yield "time,B\n"
            yield "0,0.2\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            panel_io._atomic_write_text(path, pieces())
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text(encoding="utf-8") == "time,A\n0,0.1\n"

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX file modes")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_get_the_umask_mode(self, tmp_path, umask, mode):
        # as open() would make them, not mkstemp's 0600
        old = os.umask(umask)
        try:
            panel_io._atomic_write_text(tmp_path / "new.txt", "x")
            save_curves([], tmp_path / "c.json", n_assets=1)
        finally:
            os.umask(old)
        for name in ("new.txt", "c.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's VmHWM")
    def test_load_panel_holds_the_panel_once(self, tmp_path, run_python):
        # 64 x 131,072 returns (a 64 MiB panel) as 38 MB of short tokens: the
        # process's peak resident set rises by less than 1.5 panels over its
        # imports (concatenated batches took 2.1).  The peak is VmHWM, as in
        # test_cli's TestSpectrum.test_memory_stays_below_the_panel.
        n_assets, n_steps = 64, 131_072
        rng = np.random.default_rng(11)
        rows = [",".join(f"{v:.1f}" for v in rng.normal(size=n_assets)) for _ in range(97)]
        path = tmp_path / "p.csv"
        with path.open("w", encoding="utf-8") as handle:
            handle.write("time," + ",".join(f"a{j}" for j in range(n_assets)) + "\n")
            handle.writelines(f"{t},{rows[t % 97]}\n" for t in range(n_steps))
        script = (
            "import sys\n"
            "from leadlag import load_panel\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return int(status.read().split('VmHWM:')[1].split()[0])\n"
            "before = peak()\n"
            "panel = load_panel(sys.argv[1])\n"
            "print(panel.returns.shape[1], peak() - before)\n")
        result = run_python("-c", script, str(path))
        assert result.returncode == 0, result.stderr
        steps, rise_kib = map(int, result.stdout.splitlines()[-1].split())
        assert steps == n_steps
        panel_bytes = n_assets * n_steps * 8
        assert rise_kib * 1024 < 1.5 * panel_bytes, f"rise {rise_kib / 1024:.1f} MiB"

    def test_non_finite_block_keeps_the_destination(self, tmp_path):
        # rows of the finite first block are written, then the second is
        # refused with ReturnPanel's message and the temp file goes
        path = write(tmp_path, "p.csv", "time,A\n0,0.1\n")
        blocks = iter([np.ones((2, 3)), np.array([[0.5, np.inf], [0.5, 0.5]])])
        with pytest.raises(ValidationError, match="^panel entries must all be finite$"):
            panel_io._write_panel(path, ("A", "B"), 1, 5, blocks)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text(encoding="utf-8") == "time,A\n0,0.1\n"

    def test_save_panel_bytes(self, tmp_path):
        # the rows as repr formats them, one line each, after a CSV header
        panel = ReturnPanel(np.array([[0.1, -2.5e-07, 3.0], [1 / 3, 0.0, -1e300]]),
                            base_scale=7, asset_labels=("A", "b,c"))
        save_panel(panel, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == (
            b'time,A,"b,c"\n0,0.1,0.3333333333333333\n7,-2.5e-07,0.0\n14,3.0,-1e+300\n')


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

    @pytest.mark.parametrize("labels, message", [
        (("A", "A"), "duplicate asset label 'A' in header"),
        (("", "B"), "asset labels must be non-empty")], ids=["duplicate", "empty"])
    def test_labels_load_panel_refuses_are_refused_at_save(self, tmp_path, labels, message):
        path = tmp_path / "p.csv"
        with pytest.raises(DataError, match=message):
            save_panel(self.panel(labels), path)
        assert not list(tmp_path.iterdir())

    def test_panel_of_no_assets_is_refused_at_save(self, tmp_path):
        # load_panel refuses the header 'time' alone, so no such file is written
        with pytest.raises(DataError, match="at least one asset"):
            save_panel(ReturnPanel(np.empty((0, 3))), tmp_path / "p.csv")
        assert not list(tmp_path.iterdir())

    def test_time_index_beyond_int64_is_refused_at_save(self, tmp_path):
        # load_panel reads int64 time indices, so 2**62 * 2 would not load back
        with pytest.raises(DataError, match="last time index 9223372036854775808 exceeds"):
            save_panel(ReturnPanel(np.ones((1, 3)), base_scale=2**62), tmp_path / "p.csv")
        assert not list(tmp_path.iterdir())

    def test_largest_int64_time_index_round_trips(self, tmp_path):
        panel = ReturnPanel(np.ones((1, 2)), base_scale=2**63 - 1)
        save_panel(panel, tmp_path / "p.csv")
        assert load_panel(tmp_path / "p.csv").base_scale == panel.base_scale

    def test_hand_written_spaced_header_loads(self, tmp_path):
        path = write(tmp_path, "p.csv", "time, A, B\n0,0.1,0.2\n1,0.3,0.4\n")
        assert load_panel(path).asset_labels == ("A", "B")

    def test_hand_written_quoted_header_loads(self, tmp_path):
        # strict CSV still reads a quoted ',' and a doubled '"' as label text
        path = write(tmp_path, "p.csv", 'time,"a,b","c""d"\n0,0.1,0.2\n1,0.3,0.4\n')
        assert load_panel(path).asset_labels == ("a,b", 'c"d')


# the grammar's alphabet: quotes, commas, blanks, the BOM, line breaks and
# separators, other Unicode spaces, comments, digit separators, signs,
# exponents, non-finite words and digits, ASCII and not
PIECES = ('"', ",", " ", "\t", "\ufeff", "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1f",
          "\x85", "\u2028", "\u2029", "\u00a0", "\u2003", "\u3000", "#", "_", "+", "-",
          "e", "E", ".", "nan", "inf", "0", "7", "\u0661")
NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["0.1", "-2.5e-07", "+1", '"0.5"', " 3 ", "\t-0", ".5", "5."])


def mutated(draw, lines):
    # `lines` joined at one line end, after an optional BOM, then up to four
    # pieces inserted or put in place of a character
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + draw(st.sampled_from(["", end]))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(PIECES)) + text[at + draw(st.integers(0, 1)):]
    return text


@st.composite
def mutated_panel_texts(draw):
    # a valid panel CSV, mutated
    n_assets = draw(st.integers(1, 3))
    labels = draw(st.lists(st.sampled_from(["A", "b c", '"d,e"', '"f""g"', " h"]),
                           min_size=n_assets, max_size=n_assets, unique=True))
    times = sorted(draw(st.sets(st.integers(-9, 60), min_size=1, max_size=4)))
    return mutated(draw, [",".join(["time", *labels])] + [
        ",".join([str(t), *(draw(NUMBERS) for _ in labels)]) for t in times])


@st.composite
def mutated_beta_texts(draw):
    # a valid beta file of one to four rows, mutated
    n_factors = draw(st.integers(1, 3))
    return mutated(draw, [",".join(draw(NUMBERS) for _ in range(n_factors))
                          for _ in range(draw(st.integers(1, 4)))])


def refusal(call, *args) -> str:
    # the message of the DataError that call(*args) raises: numpy's reason
    # without numpy's row count or its `usecols` hint
    with pytest.raises(DataError) as refused:
        call(*args)
    message = str(refused.value)
    assert " at row " not in message and "usecols" not in message
    return message


def recorded(call):
    # call()'s result, or the exception that escapes it, and the warnings it gave
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as exc:
            result = repr(exc)
    return result, [str(warning.message) for warning in warned]


def spectrum_outcomes(path, out):
    # `leadlag spectrum` on a small grid, and eigencurves_from_panel(load_panel(path))
    # on the same grid with the CLI's exit codes, each recorded as (exit code,
    # stderr, bar length, curve values)
    def cli():
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["spectrum", "--in", str(path), "--taus", "1,2", "--top-k", "1",
                         "--out", str(out)])
        curves, meta = load_curves(out) if code == 0 else ([], {})
        return (code, stderr.getvalue(), meta.get("base_scale_minutes"),
                [curve.values.tolist() for curve in curves])

    def library():
        try:
            panel = load_panel(path)
            curves = eigencurves_from_panel(panel, (1, 2), 1)
        except ValidationError as exc:
            return 2, f"error: {exc}\n", None, []
        except DataError as exc:
            return 3, f"data error: {exc}\n", None, []
        return 0, "", panel.base_scale, [curve.values.tolist() for curve in curves]

    return recorded(cli), recorded(library)


@settings(derandomize=True, max_examples=600)
@given(text=mutated_panel_texts())
def test_reader_accepts_exactly_what_the_file_format_allows(tmp_path_factory, text):
    # load_panel against tests/oracles.reference_panel, the README's grammar:
    # the same labels, bar length and return bits, or a DataError naming the
    # first physical line the grammar refuses.  `leadlag spectrum` refuses as
    # load_panel does, or gives the library's curves
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = reference_panel(text)
    if isinstance(expected, tuple):
        panel = load_panel(path)
        assert (panel.asset_labels, panel.base_scale) == expected[:2]
        assert panel.returns.tobytes() == expected[2].tobytes()
    else:
        message = refusal(load_panel, path)
        assert (f": line {expected}: " if expected else ": no data rows") in message
    cli, library = spectrum_outcomes(path, tmp_path_factory.getbasetemp() / "fuzzed.json")
    assert cli == library


@settings(derandomize=True, max_examples=600)
@given(text=mutated_beta_texts())
def test_beta_reader_accepts_exactly_what_the_file_format_allows(tmp_path_factory, text):
    # the beta file's reader against tests/oracles.reference_beta: the same
    # loadings, bit for bit, or a DataError naming the first physical line the
    # grammar refuses, whatever shape is asked for, since that comes last
    path = tmp_path_factory.getbasetemp() / "fuzzed_beta.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = reference_beta(text)
    if isinstance(expected, np.ndarray):
        beta = panel_io._read_beta_file(path, expected.shape)
        assert beta.tobytes() == expected.tobytes()
    else:
        message = refusal(panel_io._read_beta_file, path, None)
        assert (f": line {expected}: " if expected else ": no data") in message


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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "curves.json"
        save_curves(self.curves(), path, n_assets=50)
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        back, _ = load_curves(path)
        assert [c.rank for c in back] == [1, 2, 3]

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
        ("n_assets", "3"), ("base_scale_minutes", True), ("base_scale_minutes", "2")])
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

    def test_repeated_rank_rejected_on_load(self, tmp_path):
        path = tmp_path / "curves.json"
        save_curves(self.curves(), path, n_assets=9)
        doc = json.loads(path.read_text())
        doc["curves"][2]["rank"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="repeated rank 2"):
            load_curves(path)

    @pytest.mark.parametrize("kind", ["curves", "fits"])
    def test_writers_refuse_repeated_rank(self, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        if kind == "curves":
            a, b = self.curves()[:2]
            entries = [a, EigenCurve(b.taus, b.values, rank=1)]
            save = save_curves
        else:
            fit = FitResult(0.16, 90.61, 0.17, 0.5456787137181701, 1.25e-9, 17, True)
            entries, save = [(1, fit), (1, fit)], save_fits
        with pytest.raises(DataError, match="repeated rank 1"):
            save(entries, path, n_assets=3)
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

    @pytest.mark.parametrize("schema", [True, 1.0, "1"])
    @pytest.mark.parametrize("kind", ["curves", "fits"])
    def test_schema_must_be_the_json_integer_1(self, tmp_path, kind, schema):
        # as every other integer field, a bool or a float equal to 1 is refused
        path = tmp_path / f"{kind}.json"
        (save_curves if kind == "curves" else save_fits)([], path, n_assets=3)
        doc = json.loads(path.read_text())
        doc["schema"] = schema
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"unsupported schema {schema!r}$"):
            (load_curves if kind == "curves" else load_fits)(path)

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

    @pytest.mark.parametrize("field, value", [
        ("alpha", True), ("alpha", 1.0), ("alpha", -0.5), ("alpha", "0.5"),
        ("amplitude", 0), ("amplitude", "3")])
    def test_fit_parameters_must_be_numbers_in_range(self, tmp_path, field, value):
        # a bare float() would take a bool or a numeric string, and any value
        path = tmp_path / "fits.json"
        save_fits([(1, FitResult(0.16, 90.61, 0.17, 0.55, 1e-9, 17, True))], path, n_assets=533)
        doc = json.loads(path.read_text())
        doc["fits"][0][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=field):
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
