"""Dependency-free heatmap rendering: ASCII art and P2 (ASCII) PGM images.

Values are min-max scaled per map; the scale is printed in the legend so
renders stay comparable across runs. Missing cells render as '?'.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_RAMP = " .:-=+*#%@"


def _scaled(values: np.ndarray) -> tuple[np.ndarray, float, float]:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise ValueError("heatmap has no finite values")
    lo, hi = float(finite.min()), float(finite.max())
    if hi > lo:
        norm = (values - lo) / (hi - lo)
    else:
        norm = np.zeros_like(values)
    return norm, lo, hi


def ascii_heatmap(values: np.ndarray, title: str = "") -> str:
    """Render a (ny, nx) value grid with row j = ny-1 on top (y grows up)."""
    norm, lo, hi = _scaled(values)
    lines = []
    if title:
        lines.append(title)
    for j in range(values.shape[0] - 1, -1, -1):
        chars = []
        for i in range(values.shape[1]):
            v = norm[j, i]
            if not math.isfinite(v):
                chars.append("?")
            else:
                chars.append(_RAMP[min(int(v * len(_RAMP)), len(_RAMP) - 1)])
        lines.append("".join(chars))
    lines.append(f"scale: ' '={lo:.6g} .. '@'={hi:.6g}")
    return "\n".join(lines) + "\n"


def pgm(values: np.ndarray) -> str:
    """The text of an 8-bit P2 PGM, one pixel per cell, row j = ny-1 on top."""
    norm, lo, hi = _scaled(values)
    pixels = np.where(np.isfinite(norm), np.clip(norm * 255.0, 0, 255), 0.0).astype(int)
    ny, nx = values.shape
    lines = [f"P2", f"# scale {lo!r} {hi!r}", f"{nx} {ny}", "255"]
    for j in range(ny - 1, -1, -1):
        lines.append(" ".join(str(int(p)) for p in pixels[j]))
    return "\n".join(lines) + "\n"


def write_pgm(values: np.ndarray, path: str | Path) -> None:
    Path(path).write_text(pgm(values), encoding="utf-8")
