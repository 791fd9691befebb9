"""Fixed 256-entry sequential colormap for SVG heatmaps.

The table is generated deterministically by piecewise-linear interpolation
between the anchor colors below (a perceptually-ordered dark-violet to
yellow ramp), so rendered output is reproducible byte for byte without any
plotting dependency.
"""

import numpy as np

_ANCHORS = np.array([
    (68, 1, 84),
    (71, 44, 122),
    (59, 81, 139),
    (44, 113, 142),
    (33, 144, 141),
    (39, 173, 129),
    (92, 200, 99),
    (170, 220, 50),
    (253, 231, 37),
], dtype=float)


def _build_table():
    n = 256
    pos = np.linspace(0.0, 1.0, len(_ANCHORS))
    t = np.linspace(0.0, 1.0, n)
    rgb = np.stack([np.interp(t, pos, _ANCHORS[:, c]) for c in range(3)], axis=1)
    return np.clip(np.rint(rgb), 0, 255).astype(int)


TABLE = _build_table()

