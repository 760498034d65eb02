"""Dependency-free heatmap rendering: ASCII art and P2 (ASCII) PGM images.

Values are min-max scaled per map; the scale is printed in the legend so
renders stay comparable across runs. Missing cells render as '?'.
"""
from __future__ import annotations

import io
from pathlib import Path

import numpy as np

_RAMP = " .:-=+*#%@"
_CODES = np.frombuffer((_RAMP + "?\n").encode(), dtype=np.uint8)  # the ramp, '?', the line end


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
    finite = np.isfinite(norm)
    # a finite cell's ramp index truncates, as int() does; any other cell takes '?'
    ramp = np.minimum((np.where(finite, norm, 0.0) * len(_RAMP)).astype(int), len(_RAMP) - 1)
    index = np.where(finite, ramp, len(_RAMP))[::-1]
    rows = _CODES[np.column_stack([index, np.full(len(index), len(_RAMP) + 1)])]
    head = f"{title}\n" if title else ""
    return f"{head}{rows.tobytes().decode()}scale: ' '={lo:.6g} .. '@'={hi:.6g}\n"


def pgm(values: np.ndarray) -> str:
    """The text of an 8-bit P2 PGM, one pixel per cell, row j = ny-1 on top."""
    norm, lo, hi = _scaled(values)
    pixels = np.where(np.isfinite(norm), np.clip(norm * 255.0, 0, 255), 0.0).astype(int)
    ny, nx = values.shape
    text = io.StringIO()
    np.savetxt(text, pixels[::-1], fmt="%d", header=f"P2\n# scale {lo!r} {hi!r}\n{nx} {ny}\n255",
               comments="")
    return text.getvalue()


def write_pgm(values: np.ndarray, path: str | Path) -> None:
    Path(path).write_text(pgm(values), encoding="utf-8")
