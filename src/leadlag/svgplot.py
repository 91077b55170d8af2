"""Dependency-free, byte-deterministic SVG rendering of eigenvalue curves.

Each chart shows the empirical points of one eigenvalue rank (circles joined
by a thin polyline) and, when a fit is supplied, the fitted curve
amplitude / attenuation(alpha, tau) sampled densely across the scale range.
Output depends only on the inputs: no timestamps, random ids, or library
version strings, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .fitting import EigenCurve, FitResult
from .moments import _attenuation_array

__all__ = ["render_eigencurve"]

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50
_N_FIT_SAMPLES = 200


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_eigencurve(curve: EigenCurve, fit: FitResult | None = None, *,
                      log_x: bool = False) -> str:
    """Render one eigenvalue curve (and optional fit overlay) as an SVG string."""
    taus = curve.taus.astype(np.float64)
    xs_data = np.log2(taus) if log_x else taus

    if fit is not None:
        if log_x:
            dense = np.geomspace(taus[0], taus[-1], _N_FIT_SAMPLES)
        else:
            dense = np.linspace(taus[0], taus[-1], _N_FIT_SAMPLES)
        fit_values = fit.amplitude / _attenuation_array(fit.alpha, dense)
        xs_fit = np.log2(dense) if log_x else dense
    else:
        fit_values = np.empty(0)
        xs_fit = np.empty(0)

    x_lo = float(xs_data.min())
    x_hi = float(xs_data.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_all = np.concatenate([curve.values, fit_values]) if fit_values.size else curve.values
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    pad = 0.05 * (y_hi - y_lo) or max(0.05 * abs(y_hi), 0.5)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]

    for y in _ticks(y_lo + pad, y_hi - pad):
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{_fmt(py(y))}" x2="{_MARGIN_L}" '
                     f'y2="{_fmt(py(y))}" stroke="#000000" stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{_fmt(py(y) + 4)}" font-size="12" '
                     f'text-anchor="end" font-family="monospace">{y:.4g}</text>')
    tick_taus = taus if taus.size <= 12 else taus[:: max(1, taus.size // 12)]
    for tau, x in zip(tick_taus, (np.log2(tick_taus) if log_x else tick_taus)):
        parts.append(f'<line x1="{_fmt(px(x))}" y1="{_HEIGHT - _MARGIN_B}" x2="{_fmt(px(x))}" '
                     f'y2="{_HEIGHT - _MARGIN_B + 4}" stroke="#000000" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px(x))}" y="{_HEIGHT - _MARGIN_B + 18}" font-size="12" '
                     f'text-anchor="middle" font-family="monospace">{int(tau)}</text>')

    data_points = " ".join(f"{_fmt(px(x))},{_fmt(py(v))}"
                           for x, v in zip(xs_data, curve.values))
    parts.append(f'<polyline points="{data_points}" fill="none" stroke="#555555" '
                 'stroke-width="1"/>')
    if fit_values.size:
        fit_points = " ".join(f"{_fmt(px(x))},{_fmt(py(v))}"
                              for x, v in zip(xs_fit, fit_values))
        parts.append(f'<polyline points="{fit_points}" fill="none" stroke="#cc3311" '
                     'stroke-width="2"/>')
    for x, v in zip(xs_data, curve.values):
        parts.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(v))}" r="3" '
                     'fill="#0077bb"/>')

    axis_label = "aggregation scale tau (log2)" if log_x else "aggregation scale tau"
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 12}" font-size="13" '
                 f'text-anchor="middle" font-family="monospace">{axis_label}</text>')
    parts.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.2f}" font-size="13" '
                 f'text-anchor="middle" font-family="monospace" '
                 f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.2f})">eigenvalue</text>')
    caption = f"eigenvalue rank {curve.rank}"
    if fit is not None:
        caption += (f" | fit: alpha={fit.alpha:.4f}, amplitude={fit.amplitude:.4f}"
                    + ("" if fit.converged else " (not converged)"))
    parts.append(f'<text x="{_MARGIN_L}" y="24" font-size="14" '
                 f'font-family="monospace">{caption}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
