"""Binary PGM (P5, 8-bit) image I/O; pixel values map to [0, 1]."""

import os

import numpy as np

from .errors import IngestionError, as_real_array


def _read_token(blob, pos):
    while pos < len(blob):
        if blob[pos:pos + 1].isspace():
            pos += 1
        elif blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] not in (0x0A, 0x0D):
                pos += 1
        else:
            break
    start = pos
    while pos < len(blob) and not blob[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise IngestionError("unexpected end of PGM header")
    return blob[start:pos], pos


def read_pgm(path):
    """Read a P5 grayscale image as a float64 [H,W] array in [0, 1] (pixel / maxval)."""
    try:
        with open(os.fspath(path), "rb") as fh:  # fspath refuses an int, which open() takes as a descriptor it closes
            blob = fh.read()
    except (OSError, TypeError, ValueError) as err:  # TypeError and ValueError: not a path
        raise IngestionError(f"cannot read PGM file {path}: {err}") from err
    magic, pos = _read_token(blob, 0)
    if magic != b"P5":
        raise IngestionError(f"not a binary PGM (P5) file: magic {magic!r}")
    fields = []
    for _ in range(3):
        token, pos = _read_token(blob, pos)
        # ASCII decimal digits only: int() also takes b"+2" and b"1_0". Nine digits bound any real extent.
        if not token.isdigit() or len(token) > 9:
            raise IngestionError(f"bad PGM header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise IngestionError(f"bad PGM extents {width}x{height}")
    if not (0 < maxval <= 255):
        raise IngestionError(f"unsupported PGM maxval {maxval} (only 8-bit supported)")
    pos += 1  # single whitespace byte after maxval
    pixels = blob[pos:pos + width * height]
    if len(pixels) < width * height:
        raise IngestionError("PGM pixel payload truncated")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)
    if arr.max() > maxval:
        raise IngestionError(f"PGM pixel value {arr.max()} exceeds maxval {maxval}")
    return arr.astype(np.float64) / maxval


def write_pgm(path, image):
    """Write an [H,W] array in [0, 1] as an 8-bit P5 file (finite values clipped).

    A non-real, non-2-d or non-finite image, or a path that cannot be written, raises
    IngestionError; the image is checked before the file is opened."""
    arr = np.squeeze(as_real_array(image, IngestionError)).astype(np.float64)
    if arr.ndim != 2:
        raise IngestionError(f"expected a 2-d image, got shape {np.shape(image)}")
    if not np.isfinite(arr).all():
        raise IngestionError("cannot write a non-finite pixel (NaN or inf) to PGM")
    data = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape
    try:
        with open(os.fspath(path), "wb") as fh:  # fspath refuses an int, which open() takes as a descriptor it closes
            fh.write(f"P5\n{w} {h}\n255\n".encode())
            fh.write(data.tobytes())
    except (OSError, TypeError, ValueError) as err:  # TypeError and ValueError: not a path
        raise IngestionError(f"cannot write PGM file {path}: {err}") from err
