import re

import numpy as np

from leadlag import EigenCurve, FitResult, factor_eigencurve, render_eigencurve

DYADIC = (1, 2, 4, 8, 16, 32, 64, 128)


def polyline_points(svg, index=0):
    matches = re.findall(r'<polyline points="([^"]+)"', svg)
    pairs = matches[index].split()
    return [tuple(float(v) for v in p.split(",")) for p in pairs]


def test_identical_inputs_identical_bytes():
    curve = factor_eigencurve(100, 0.2, 0.3, DYADIC)
    fit = FitResult(0.3, 20.0, 0.2, 0.83, 0.0, 5, True)
    a = render_eigencurve(curve, fit, log_x=True)
    b = render_eigencurve(curve, fit, log_x=True)
    assert a == b


def test_flat_curve_renders_horizontal_polyline():
    curve = EigenCurve(np.array(DYADIC), np.full(len(DYADIC), 3.0))
    svg = render_eigencurve(curve)
    ys = {y for _, y in polyline_points(svg)}
    assert len(ys) == 1


def test_one_scale_curve_sits_on_the_left_edge():
    # a lone scale has no x range, so the axis spans one unit from it
    svg = render_eigencurve(EigenCurve(np.array([4]), np.array([2.5])))
    assert polyline_points(svg) == [(70.0, 235.0)]


def test_fit_overlay_adds_second_polyline():
    curve = factor_eigencurve(100, 0.2, 0.3, DYADIC)
    without = render_eigencurve(curve)
    with_fit = render_eigencurve(curve, FitResult(0.3, 20.0, 0.2, 0.83, 0.0, 5, True))
    assert without.count("<polyline") == 1
    assert with_fit.count("<polyline") == 2


def test_log_axis_spaces_dyadic_points_evenly():
    curve = factor_eigencurve(100, 0.2, 0.3, DYADIC)
    xs = [x for x, _ in polyline_points(render_eigencurve(curve, log_x=True))]
    gaps = np.diff(xs)
    assert np.allclose(gaps, gaps[0], atol=0.02)


def test_caption_names_rank_and_fit():
    rank1 = factor_eigencurve(100, 0.2, 0.3, DYADIC)
    curve = EigenCurve(rank1.taus, rank1.values, rank=2)
    svg = render_eigencurve(curve, FitResult(0.3, 20.0, 0.2, 0.83, 0.0, 5, True))
    assert "rank 2" in svg
    assert "alpha=0.3000" in svg
