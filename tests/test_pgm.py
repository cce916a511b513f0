"""Binary PGM I/O: exact round trips, maxval scaling, header comments, malformed files."""

import numpy as np
import pytest

from dualpath_cs.errors import IngestionError
from dualpath_cs.pgm import read_pgm, write_pgm


def write_bytes(tmp_path, blob):
    path = tmp_path / "image.pgm"
    path.write_bytes(blob)
    return path


class TestRoundTrip:
    def test_every_8bit_level_round_trips_exactly(self, tmp_path):
        image = (np.arange(256, dtype=np.float64) / 255.0).reshape(16, 16)
        path = tmp_path / "levels.pgm"
        write_pgm(path, image)
        again = read_pgm(path)
        assert again.dtype == np.float64
        assert np.array_equal(again, image)

    def test_maxval_scales_to_unit_interval(self, tmp_path):
        path = write_bytes(tmp_path, b"P5\n3 1\n100\n" + bytes([100, 50, 0]))
        assert np.array_equal(read_pgm(path), np.array([[1.0, 0.5, 0.0]]))

    def test_header_comments_skipped(self, tmp_path):
        blob = b"P5\n# made by hand\n2 2 # extents\n# depth next\n255\n" + bytes([0, 255, 51, 102])
        got = read_pgm(write_bytes(tmp_path, blob))
        assert np.array_equal(got, np.array([[0.0, 1.0], [0.2, 0.4]]))


class TestMalformed:
    @pytest.mark.parametrize(
        "blob",
        [
            b"P5\n2 2\n255\n" + bytes([1, 2, 3]),  # truncated payload
            b"P2\n2 2\n255\n" + bytes(4),  # bad magic
            b"P5\n2 2\n0\n" + bytes(4),  # maxval 0
            b"P5\n2 2\n256\n" + bytes(4),  # maxval above 8 bits
            b"P5\n2 2\n100\n" + bytes([0, 100, 101, 7]),  # pixel above maxval
        ],
        ids=["truncated", "magic", "maxval0", "maxval256", "pixel_above_maxval"],
    )
    def test_rejected_with_ingestion_error(self, tmp_path, blob):
        with pytest.raises(IngestionError):
            read_pgm(write_bytes(tmp_path, blob))
