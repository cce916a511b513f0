"""Seeded synthetic grayscale scenes for the benchmark.

Each scene is piecewise smooth (Voronoi cells around a jittered grid, each
carrying a linear ramp), has sharp edges (cell borders and discs) and
texture (gratings in a third of the cells, plus fine noise). The mix gives
the blocks of a scene clearly different gradient energy, so the hyperprior's
top-rho block mask selects distinct blocks instead of breaking ties.

The amount of structure per 64x64 area is fixed, cells have similar sizes,
and every scene is normalised to the same mean and contrast. Only the layout
is random, so quality figures averaged over a few patches are steady across
seeds.
"""

import numpy as np

UNIT = 64            # side, in pixels, of the area the densities refer to
CELLS_PER_SIDE = 3   # Voronoi cells per UNIT along each axis
DISCS_PER_UNIT = 2
RAMP = 0.6           # intensity change across one UNIT
MEAN = 0.5
STD = 0.2


def scene(rng, size):
    """One [size, size] float64 image in [0, 1] drawn from `rng`."""
    scale = size / UNIT
    grid = max(1, round(CELLS_PER_SIDE * scale))
    cells = grid * grid
    yy, xx = np.mgrid[0:size, 0:size] / size

    gy, gx = np.divmod(np.arange(cells), grid)
    centers = np.stack([gy, gx], axis=1) + rng.uniform(0.15, 0.85, (cells, 2))
    centers /= grid
    label = np.zeros((size, size), dtype=np.int64)
    best = np.full((size, size), np.inf)
    for c, (cy, cx) in enumerate(centers):
        d = (yy - cy) ** 2 + (xx - cx) ** 2
        closer = d < best
        best[closer] = d[closer]
        label[closer] = c

    base = rng.random(cells)
    direction = rng.uniform(0, 2 * np.pi, cells)
    dy = (yy - centers[label, 0]) * np.sin(direction[label])
    dx = (xx - centers[label, 1]) * np.cos(direction[label])
    img = base[label] + RAMP * scale * (dy + dx)

    textured = np.zeros(cells, dtype=bool)
    textured[rng.choice(cells, max(1, round(cells / 3)), replace=False)] = True
    freq = rng.uniform(4, 14, cells) * 2 * np.pi * scale
    angle = rng.uniform(0, np.pi, cells)
    phase = freq[label] * (np.cos(angle[label]) * xx + np.sin(angle[label]) * yy)
    img += np.where(textured[label], 0.15 * np.sin(phase), 0.0)

    for _ in range(max(1, round(DISCS_PER_UNIT * scale * scale))):
        cy, cx = rng.random(2)
        radius = rng.uniform(0.08, 0.15) / scale
        img = np.where((yy - cy) ** 2 + (xx - cx) ** 2 < radius ** 2, rng.random(), img)

    img += rng.normal(0, 0.02, img.shape)
    img = (img - img.mean()) / max(img.std(), 1e-6) * STD + MEAN
    return np.clip(img, 0.0, 1.0)
