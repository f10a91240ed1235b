"""Dependency-free ASCII rendering for terminals and logs.

Turns tally fields into character heatmaps (the Fig 2 pictures, in text),
so examples and the CLI can show results without a plotting stack.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_heatmap"]

#: Light-to-dark ramp for heatmaps.
_RAMP = " .:-=+*#%@"


def render_heatmap(
    field: np.ndarray,
    width: int = 64,
    height: int = 32,
    log: bool = True,
    title: str | None = None,
) -> str:
    """Render a 2-D field as an ASCII heatmap.

    The field is block-averaged down to at most ``width × height``
    characters; by default intensities are log-compressed, which is what
    makes deposition fields spanning many decades (csp!) readable.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2:
        raise ValueError("heatmap needs a 2-D field")
    if width < 1 or height < 1:
        raise ValueError("output size must be positive")

    ny, nx = field.shape
    by = max(1, int(np.ceil(ny / height)))
    bx = max(1, int(np.ceil(nx / width)))
    # pad to a multiple of the block size, then block-average
    pad_y = (-ny) % by
    pad_x = (-nx) % bx
    padded = np.pad(field, ((0, pad_y), (0, pad_x)))
    blocks = padded.reshape(
        padded.shape[0] // by, by, padded.shape[1] // bx, bx
    ).mean(axis=(1, 3))

    vals = blocks.copy()
    if log:
        positive = vals[vals > 0]
        floor = positive.min() if positive.size else 1.0
        vals = np.log10(np.maximum(vals, floor * 1e-3))
    lo, hi = vals.min(), vals.max()
    if hi - lo < 1e-300:
        levels = np.zeros_like(vals, dtype=np.int64)
    else:
        levels = ((vals - lo) / (hi - lo) * (len(_RAMP) - 1)).astype(np.int64)

    lines = []
    if title:
        lines.append(title)
    # render with y increasing upwards, like the paper's plots
    for row in levels[::-1]:
        lines.append("".join(_RAMP[v] for v in row))
    return "\n".join(lines)
