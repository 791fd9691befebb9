"""Minimal SVG heatmap emission (no plotting dependency)."""

import numpy as np

from .colormap import TABLE
from .errors import InputError
from .serialize import enc_float

_HEX = ["#%02x%02x%02x" % tuple(rgb) for rgb in TABLE]
_CELL_PX = 4


def heatmap_svg(values, bbox, title=""):
    """SVG string for a 2-d scalar field sampled on a regular grid.

    values: (nx, ny) array (axis 0 = x, axis 1 = y); bbox: (lo, hi).  Cells
    are 4 pixels square, colored by the fixed 256-entry table after min-max
    normalization; the value range is recorded in a comment for reference.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InputError("heatmap needs a 2-d scalar field")
    nx, ny = values.shape
    vmin, vmax = float(np.min(values)), float(np.max(values))
    spread = vmax - vmin if vmax > vmin else 1.0
    w, h = nx * _CELL_PX, ny * _CELL_PX
    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
               'viewBox="0 0 %d %d">' % (w, h, w, h))
    out.append("<!-- range [%s, %s] bbox lo=%s hi=%s -->"
               % (enc_float(vmin), enc_float(vmax),
                  [enc_float(v) for v in np.asarray(bbox[0]).ravel()],
                  [enc_float(v) for v in np.asarray(bbox[1]).ravel()]))
    if title:
        out.append("<title>%s</title>" % title)
    idx = np.clip(np.rint((values - vmin) / spread * 255.0), 0, 255).astype(int)
    for i in range(nx):
        for j in range(ny):
            # SVG y grows downward; flip so bbox hi_y is at the top
            out.append('<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>'
                       % (i * _CELL_PX, (ny - 1 - j) * _CELL_PX, _CELL_PX,
                          _CELL_PX, _HEX[idx[i, j]]))
    out.append("</svg>")
    return "\n".join(out)


def write_heatmap(path, values, bbox, title=""):
    # render before opening, so a field that cannot be drawn leaves no file
    text = heatmap_svg(values, bbox, title=title)
    with open(path, "w") as fh:
        fh.write(text)
