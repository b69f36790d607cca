"""Property tests of the archive parser on arbitrary and mutated bytes."""

import struct

import numpy as np
import pytest

from glvq.codebook import GroupCodec
from glvq.container import ArchiveError, GlvqArchive, read_archive, write_archive

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# derandomized and without an example database: the same examples on
# every run, and no files left behind
FUZZ = hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                           database=None)


def _valid_archive() -> bytes:
    rng = np.random.default_rng(0)
    records = []
    for mu, bits, rows, cols in ((100.0, 2, 3, 5), (0.0, 3, 3, 4)):
        codec = GroupCodec(basis=0.3 * np.eye(2) + 0.05 * rng.standard_normal((2, 2)),
                           mu=mu, bits=bits, scale=1.5, dim=2, rows=rows, cols=cols)
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        records.append((codec, rng.integers(lo, hi + 1, size=(2, codec.columns))))
    return write_archive(records)


VALID = _valid_archive()


def check_parse_and_decode(data: bytes) -> None:
    """Parsing gives an archive or ArchiveError; a parsed archive's
    to_bytes gives back the input bytes, and its decode gives a finite
    array or ArchiveError.  Any other exception fails."""
    try:
        archive = read_archive(data)
    except ArchiveError:
        return
    assert isinstance(archive, GlvqArchive)
    assert archive.to_bytes() == data
    try:
        matrix = archive.decode_matrix()
    except ArchiveError:
        return
    assert np.all(np.isfinite(matrix))


def test_valid_archive_decodes():
    assert read_archive(VALID).decode_matrix().shape == (3, 9)


@FUZZ
@hypothesis.given(st.binary(max_size=200))
def test_arbitrary_bytes(data):
    check_parse_and_decode(data)


@FUZZ
@hypothesis.given(st.binary(max_size=200))
def test_arbitrary_records_after_valid_header(data):
    check_parse_and_decode(struct.pack("<4sHI", b"GLVQ", 1, 1) + data)


@FUZZ
@hypothesis.given(st.lists(st.tuples(st.integers(0, len(VALID) - 1),
                                     st.integers(0, 255)),
                           min_size=1, max_size=3))
def test_mutated_valid_archive(edits):
    data = bytearray(VALID)
    for pos, byte in edits:
        data[pos] = byte
    check_parse_and_decode(bytes(data))
