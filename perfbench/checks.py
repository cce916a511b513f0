"""Correctness checks on the program's outputs.

Every oracle here is plain numpy and calls nothing from the package under
test. Each check returns a list of failure messages; an empty list passes.
"""

import math

import numpy as np

F32_RTOL = 1e-5  # relative tolerance for sums computed in float32


def _blocks(image, block):
    """[H, W] -> [num_blocks, B*B], blocks row-major, each flattened row-major."""
    h, w = image.shape
    grid = image.reshape(h // block, block, w // block, block).transpose(0, 2, 1, 3)
    return grid.reshape(-1, block * block)


def as_f32(image):
    """The float64 values the program sees after casting its input to float32."""
    return np.asarray(image, dtype=np.float32).astype(np.float64)


def measurements(trace, image, w1, w2, block):
    """y1 and y2 equal Phi1 and Phi2 applied to the blocks of the image."""
    blocks = _blocks(as_f32(image), block)
    problems = []
    for name, y, w in (("y1", trace.measurements[0], w1), ("y2", trace.measurements[1], w2)):
        w = w.astype(np.float64)
        expected = blocks @ w.T
        tol = F32_RTOL * (np.abs(blocks) @ np.abs(w).T) + 1e-12
        if y.shape != expected.shape:
            problems.append(f"{name} shape {y.shape} != {expected.shape}")
        elif not np.all(np.abs(y.data - expected) <= tol):
            problems.append(f"{name} differs from Phi*blocks by {np.max(np.abs(y.data - expected)):.3g}")
    return problems


def mse(value, outputs, targets):
    """A loss equals the mean over items of the per-item mean squared error."""
    expected = np.mean([np.mean((o.astype(np.float64) - as_f32(t)) ** 2) for o, t in zip(outputs, targets)])
    if not math.isclose(value, expected, rel_tol=F32_RTOL, abs_tol=1e-12):
        return [f"mse {value!r} != numpy {expected!r}"]
    return []


def psnr(value, output, target):
    """PSNR equals 10*log10(1/MSE) for a peak of 1."""
    err = np.mean((output.astype(np.float64) - np.asarray(target, dtype=np.float64)) ** 2)
    expected = math.inf if err == 0 else 10.0 * math.log10(1.0 / err)
    if not math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-9):
        return [f"psnr {value!r} != numpy {expected!r}"]
    return []


def trace_shape(trace, stages, rho, block):
    """K+1 stage estimates, finite values, and exact hard-mask coverage."""
    problems = []
    if len(trace.stages) != stages + 1:
        problems.append(f"{len(trace.stages)} stage estimates, expected {stages + 1}")
    arrays = [("output", trace.output.data), ("soft_map", trace.guidance.soft_map.data)]
    arrays += [(f"stage {i}", s.data) for i, s in enumerate(trace.stages)]
    arrays += [(f"step map {i}", p.data) for i, p in enumerate(trace.step_maps)]
    problems += [f"{name} has non-finite values" for name, arr in arrays if not np.all(np.isfinite(arr))]
    mask = trace.guidance.hard_mask.data
    nb = mask.size // (block * block)
    coverage = np.count_nonzero(mask) / mask.size
    expected = math.ceil(rho * nb) / nb
    if coverage != expected:
        problems.append(f"hard-mask coverage {coverage!r} != ceil(rho*nb)/nb = {expected!r}")
    return problems


def finite(name, values):
    if not all(np.all(np.isfinite(v)) for v in values):
        return [f"{name} has non-finite values"]
    return []


def same_output(taped, untaped):
    """A no_grad forward reproduces the taped forward within float32 tolerance."""
    scale = max(float(np.max(np.abs(taped))), 1.0)
    diff = float(np.max(np.abs(taped.astype(np.float64) - untaped)))
    if diff > F32_RTOL * scale:
        return [f"no_grad output differs from the taped forward by {diff:.3g}"]
    return []
