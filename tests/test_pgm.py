"""Binary PGM I/O: exact round trips, maxval scaling, header comments, malformed and fuzzed files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            b"P5\n+2 1\n255\n" + bytes(2),  # signed extent
            b"P5\n1_0 1\n255\n" + bytes(10),  # digit separator
            b"P5\n2 1\n" + b"1" * 5000 + b"\n" + bytes(2),  # past int()'s digit limit
        ],
        ids=["truncated", "magic", "maxval0", "maxval256", "pixel_above_maxval", "sign", "underscore", "long_token"],
    )
    def test_rejected_with_ingestion_error(self, tmp_path, blob):
        with pytest.raises(IngestionError):
            read_pgm(write_bytes(tmp_path, blob))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_refused_before_the_file_is_made(self, tmp_path, bad):
        image = np.full((3, 4), 0.5)
        image[1, 2] = bad
        path = tmp_path / "bad.pgm"
        with pytest.raises(IngestionError):
            write_pgm(path, image)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["missing.pgm", "."])
    def test_unreadable_path_rejected_with_ingestion_error(self, tmp_path, name):
        with pytest.raises(IngestionError) as err:
            read_pgm(tmp_path / name)
        assert isinstance(err.value.__cause__, OSError)


_TOKENS = st.one_of(
    st.integers(min_value=-3, max_value=300).map(lambda n: str(n).encode()),
    st.sampled_from([b"1" * 5000, b"9" * 30, b"1_0", b"+2", b"0x10", b"2.0", b"\xff", b"\x1c3", b"#"]),
    st.binary(min_size=1, max_size=4),
)
_SEPARATORS = st.sampled_from([b"", b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\n# note\n", b"# open comment"])


@st.composite
def pgm_blobs(draw):
    """A magic number, up to four header tokens with separators, then payload bytes."""
    parts = [draw(st.one_of(st.sampled_from([b"P5", b"P2", b"P5P5", b""]), st.binary(max_size=3)))]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        parts += [draw(_SEPARATORS), draw(_TOKENS)]
    parts += [draw(_SEPARATORS), draw(st.binary(max_size=40))]
    return b"".join(parts)


class TestHeaderFuzz:
    @settings(max_examples=500)
    @given(blob=pgm_blobs())
    def test_only_ingestion_error_escapes(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        path.write_bytes(blob)
        try:
            image = read_pgm(path)
        except IngestionError:
            return
        assert image.ndim == 2 and image.dtype == np.float64
        assert 0.0 <= image.min() and image.max() <= 1.0
