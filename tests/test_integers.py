"""Counts, scales, ranks, tau grids and seeds are integers.

A float (even an integral one such as 2.0), a bool or a string is refused with
an error naming the field, never truncated; numpy integers are accepted.  The
API raises ValidationError; the results files raise DataError, and the CLI
exits 3 on them.
"""

import json

import numpy as np
import pytest

from leadlag import (DataError, EigenCurve, FitResult, ModelSpec, ReturnPanel,
                     ValidationError, aggregate_returns,
                     eigencurves_from_panel, factor_eigencurve,
                     factor_variance_sum, fit_eigencurve, load_curves,
                     load_fits, loading_matrix, loading_vector, save_curves,
                     save_fits, simulate_panel, theoretical_covariance)
from leadlag.cli import main

SPEC = ModelSpec(4, 1, 0.2, 1.0, 1.0, 0.5, seed=1)
PANEL = simulate_panel(SPEC, 64)
CURVE = factor_eigencurve(4, 0.2, 0.2, (1, 2, 4, 8))
VALUES = [1.0, 2.0, 3.0]


def spec(**fields):
    return ModelSpec(**{"n_assets": 3, "n_factors": 1, "alpha": 0.2, "sigma": 1.0,
                        "factor_sigma": 1.0, "beta": 0.5, **fields})


@pytest.mark.parametrize("field, call", [
    ("n_steps", lambda: simulate_panel(SPEC, 1000.7)),
    ("n_steps", lambda: simulate_panel(SPEC, 1e3)),
    ("burn_in", lambda: simulate_panel(SPEC, 8, burn_in=2.0)),
    ("burn_in", lambda: simulate_panel(SPEC, 8, burn_in=2.5)),
    ("tau", lambda: aggregate_returns(PANEL, 2.5)),
    ("tau", lambda: aggregate_returns(PANEL, 2.0)),
    ("tau", lambda: loading_matrix(SPEC, 2.5)),
    ("tau", lambda: loading_vector(SPEC, True)),
    ("tau", lambda: factor_variance_sum(0.2, 2.5)),
    ("tau", lambda: theoretical_covariance(SPEC, "3")),
    ("tau grid", lambda: eigencurves_from_panel(PANEL, [1, 2.5, 4])),
    ("top_k", lambda: eigencurves_from_panel(PANEL, [1, 2], top_k=1.5)),
    ("taus", lambda: EigenCurve([1, 2.5, 4], VALUES)),
    ("taus", lambda: EigenCurve([1.0, 2.0, 4.0], VALUES)),
    ("taus", lambda: EigenCurve(np.array([1, 2, 2**63], dtype=np.uint64), VALUES)),
    ("taus", lambda: EigenCurve(np.array([5, 1 - 2**63]), VALUES[:2])),
    ("taus", lambda: factor_eigencurve(4, 0.2, 0.2, [1, 2.5, 4])),
    ("rank", lambda: EigenCurve([1, 2, 4], VALUES, rank=1.9)),
    ("n_assets", lambda: spec(n_assets=2.7)),
    ("n_assets", lambda: spec(n_assets=3.0)),
    ("n_assets", lambda: spec(n_assets="3")),
    ("n_factors", lambda: spec(n_factors=True)),
    ("seed", lambda: spec(seed=3.9)),
    ("seed", lambda: spec(seed=2**64)),
    ("seed", lambda: ModelSpec.orthogonal_factors(4, [0.2], 0.2, seed=3.9)),
    ("n_assets", lambda: ModelSpec.orthogonal_factors(4.0, [0.2], 0.2)),
    ("base_scale", lambda: ReturnPanel(np.zeros((2, 4)), base_scale=1.5)),
    ("n_assets", lambda: fit_eigencurve(CURVE, 2.7)),
    ("n_assets", lambda: factor_eigencurve(4.0, 0.2, 0.2, (1, 2, 4))),
])
def test_api_refuses_non_integers(field, call):
    with pytest.raises(ValidationError, match=field):
        call()


@pytest.mark.parametrize("call", [
    lambda: EigenCurve([True, 2, 4], VALUES),
    lambda: factor_eigencurve(4, 0.2, 0.2, [True, 2, 4]),
    lambda: eigencurves_from_panel(PANEL, [True, 2]),
], ids=["EigenCurve", "factor_eigencurve", "eigencurves_from_panel"])
def test_tau_grids_refuse_a_bool_entry(call):
    # np.asarray([True, 2]) is int64, so its dtype would read the bool as 1
    with pytest.raises(ValidationError, match="must be integers"):
        call()


@pytest.mark.parametrize("taus", [np.array([], dtype=np.int64), np.array([[1, 2], [4, 8]])],
                         ids=["empty", "2-D"])
def test_tau_grid_must_be_a_nonempty_vector(taus):
    with pytest.raises(ValidationError, match="tau grid must be a nonempty vector of integers"):
        eigencurves_from_panel(PANEL, taus)


def rewrite(path, edit):
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))


def curves_file(tmp_path, edit):
    path = tmp_path / "curves.json"
    save_curves([CURVE], path, n_assets=4)
    rewrite(path, edit)
    return path


def fits_file(tmp_path, edit):
    path = tmp_path / "fits.json"
    save_fits([(1, fit_eigencurve(CURVE, 4))], path, n_assets=4)
    rewrite(path, edit)
    return path


@pytest.mark.parametrize("kind, edit", [
    ("curves", lambda doc: doc["curves"][0].update(rank=1.5)),
    ("curves", lambda doc: doc["curves"][0].update(taus=[1, 2.5, 4, 8])),
    ("curves", lambda doc: doc["curves"][0].update(taus=[1.0, 2.0, 4.0, 8.0])),
    ("curves", lambda doc: doc["curves"][0].update(taus=[True, 2, 4, 8])),
    ("fits", lambda doc: doc["fits"][0].update(iterations=2.7)),
    ("fits", lambda doc: doc["fits"][0].update(rank=1.5)),
])
def test_files_refuse_non_integers(tmp_path, capsys, kind, edit):
    curves = curves_file(tmp_path, lambda doc: None)
    if kind == "curves":
        curves = curves_file(tmp_path, edit)
        with pytest.raises(DataError):
            load_curves(curves)
        argv = ["fit", "--in", str(curves), "--out", str(tmp_path / "fits.json")]
    else:
        fits = fits_file(tmp_path, edit)
        with pytest.raises(DataError):
            load_fits(fits)
        argv = ["plot", "--curves", str(curves), "--fits", str(fits),
                "--out-dir", str(tmp_path / "plots")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("data error:")


def test_numpy_integers_are_accepted(tmp_path):
    spec = ModelSpec(np.int64(4), np.uint64(1), 0.2, 1.0, 1.0, 0.5, seed=np.uint64(2**64 - 1))
    assert (spec.n_assets, spec.n_factors, spec.seed) == (4, 1, 2**64 - 1)
    assert all(type(v) is int for v in (spec.n_assets, spec.n_factors, spec.seed))
    panel = simulate_panel(spec, np.int64(16), burn_in=np.uint64(3))
    assert panel.n_steps == 16
    assert aggregate_returns(panel, np.uint64(2)).base_scale == 2
    assert loading_matrix(spec, np.int64(4)).scale == 4
    curve = EigenCurve(np.array([1, 2, 4], dtype=np.uint64), VALUES, rank=np.int64(2))
    assert curve.taus.dtype == np.int64 and type(curve.rank) is int
    assert fit_eigencurve(CURVE, np.int64(4)).gamma_f == fit_eigencurve(CURVE, 4).gamma_f
    # the writers turn a numpy count into a JSON integer
    path = tmp_path / "fits.json"
    fit = FitResult(0.2, 1.0, 0.25, 1.0, 0.0, 7, True)
    save_fits([(np.int64(1), fit)], path, n_assets=np.uint64(4))
    document = json.loads(path.read_text())
    assert document["n_assets"] == 4 and document["fits"][0]["rank"] == 1
    assert load_fits(path)[0] == [(1, fit)]
