"""Simplex scatter plots written directly as SVG text.

No plotting library: the output is a small, deterministic vector-graphics
file with a fixed header and fixed-precision coordinates, so byte-level
golden tests are possible. One point per posterior draw, placed at the
barycentric embedding of that draw's region probabilities.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .decision import DecisionTriple, RopeInterval, classify_draws, simplex_points

__all__ = ["render_simplex_svg", "draws_to_points", "points_from_triples", "plotted_indices"]

_W = 640
_H = 600
_SIDE = 480.0
_X0 = 80.0
_Y0 = 520.0
_TOP_Y = _Y0 - _SIDE * math.sqrt(3.0) / 2.0


def _px(x: float) -> float:
    return _X0 + _SIDE * x


def _py(y: float) -> float:
    return _Y0 - _SIDE * y


def draws_to_points(
    delta0: np.ndarray, sigma0: np.ndarray, nu: np.ndarray, rope_halfwidth: float
) -> tuple[np.ndarray, DecisionTriple]:
    """Simplex coordinates for every draw, plus the aggregated triple.

    The rope halfwidth must already be on the same scale as the draws.
    """
    (_, p_rope, p_right), triple = classify_draws(delta0, sigma0, nu, RopeInterval(rope_halfwidth))
    return simplex_points(p_rope, p_right), triple


def plotted_indices(n: int, max_points: int) -> np.ndarray:
    """Indices of the points a plot of ``n`` shows: all of them, or
    ``max_points`` spaced by a deterministic even stride."""
    if max_points < 1:
        raise ValueError("max_points must be >= 1")
    if n <= max_points:
        return np.arange(n)
    return np.linspace(0, n - 1, max_points).round().astype(int)


def points_from_triples(triples: Sequence[DecisionTriple]) -> np.ndarray:
    return simplex_points([t.p_rope for t in triples], [t.p_right for t in triples])


def render_simplex_svg(
    points: np.ndarray,
    *,
    label_left: str,
    label_right: str,
    triple: DecisionTriple | None = None,
    title: str | None = None,
    manifest: str | None = None,
) -> str:
    """Render points (N, 2 simplex coordinates) into an SVG document string.

    Every point given is drawn; callers thin huge chains with
    ``plotted_indices`` first. Corner annotations show the final
    probabilities when a triple is given.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {points.shape}")

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
    ]
    if manifest is not None:
        lines.append(f"<!-- manifest: {manifest} -->")
    lines.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>')
    if title:
        lines.append(
            f'<text x="20" y="32" font-family="sans-serif" font-size="16" '
            f'fill="#222222">{_escape(title)}</text>'
        )
    lines.append(
        f'<path d="M {_px(0.0):.4f} {_py(0.0):.4f} L {_px(1.0):.4f} {_py(0.0):.4f} '
        f'L {_px(0.5):.4f} {_TOP_Y:.4f} Z" fill="none" stroke="#444444" stroke-width="1.5"/>'
    )
    for x, y in points:
        lines.append(
            f'<circle cx="{_px(float(x)):.4f}" cy="{_py(float(y)):.4f}" r="1.6" '
            f'fill="#1f6fb2" fill-opacity="0.25"/>'
        )
    anchor = [
        (label_left, _px(0.0), _Y0 + 26.0, "start"),
        (label_right, _px(1.0), _Y0 + 26.0, "end"),
        ("rope", _px(0.5), _TOP_Y - 14.0, "middle"),
    ]
    for text, x, y, align in anchor:
        lines.append(
            f'<text x="{x:.4f}" y="{y:.4f}" font-family="sans-serif" font-size="15" '
            f'text-anchor="{align}" fill="#222222">{_escape(text)}</text>'
        )
    if triple is not None:
        notes = [
            (f"P(left)={triple.p_left:.3f}", _px(0.0), _Y0 + 46.0, "start"),
            (f"P(right)={triple.p_right:.3f}", _px(1.0), _Y0 + 46.0, "end"),
            (f"P(rope)={triple.p_rope:.3f}", _px(0.5), _TOP_Y - 34.0, "middle"),
        ]
        for text, x, y, align in notes:
            lines.append(
                f'<text x="{x:.4f}" y="{y:.4f}" font-family="sans-serif" font-size="13" '
                f'text-anchor="{align}" fill="#555555">{text}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )
