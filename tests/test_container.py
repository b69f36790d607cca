import struct
import tracemalloc

import numpy as np
import pytest

from glvq.codebook import GroupCodec, reconstruct
from glvq.container import (ArchiveError, BadMagicError,
                            TruncatedArchiveError, TruncatedPayloadError,
                            UnsupportedVersionError, overhead_report,
                            pack_codes, read_archive, read_tensor_file,
                            record_side_bytes, unpack_codes, write_archive,
                            write_tensor_file, TensorFormatError)


def make_codec(rng, dim, bits, rows, cols, mu=100.0):
    basis = np.float16(0.3 * np.eye(dim) + 0.05 * rng.standard_normal((dim, dim)))
    pad = (-(rows * cols)) % dim
    return GroupCodec(basis=basis.astype(float), mu=mu, bits=bits, scale=1.5,
                      dim=dim, pad=pad, rows=rows, cols=cols)


def random_codes(rng, bits, dim, columns):
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return rng.integers(lo, hi + 1, size=(dim, columns))


# ------------------------------------------------------------------- codes

def test_pack_hand_example():
    codes = np.array([[-2, 0], [-1, 1]])  # column-major: -2, -1, 0, 1
    assert pack_codes(codes, 2) == b"\xe4"


def test_pack_full_byte_codes():
    assert pack_codes(np.array([[-128, 127]]), 8) == b"\x00\xff"


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack_codes(np.array([[2]]), 2)
    with pytest.raises(ValueError):
        pack_codes(np.array([[0]]), 9)


def test_unpack_hand_example():
    codes = unpack_codes(b"\xe4", 2, 2, 2)
    assert np.array_equal(codes, [[-2, 0], [-1, 1]])


def test_unpack_empty():
    assert unpack_codes(b"", 3, 4, 0).shape == (4, 0)


def test_unpack_length_mismatch():
    with pytest.raises(TruncatedPayloadError):
        unpack_codes(b"\xe4", 2, 2, 3)
    with pytest.raises(TruncatedPayloadError):
        unpack_codes(b"\xe4\x00", 2, 2, 2)


def test_pack_unpack_round_trip_all_widths():
    rng = np.random.default_rng(0)
    for _ in range(25):
        for bits in range(1, 9):
            dim = int(rng.integers(1, 9))
            cols = int(rng.integers(0, 40))
            z = random_codes(rng, bits, dim, cols)
            back = unpack_codes(pack_codes(z, bits), bits, dim, cols)
            assert np.array_equal(back, z)


# ----------------------------------------------------------------- archive

def test_archive_single_zero_group():
    codec = GroupCodec(basis=0.5 * np.eye(2), mu=0.0, bits=2, scale=1.0,
                       dim=2, pad=0, rows=2, cols=2)
    codes = np.zeros((2, 2), dtype=np.int64)
    data = write_archive([(codec, codes)])
    arch = read_archive(data)
    assert len(arch) == 1
    assert np.array_equal(arch[0].codes, codes)
    assert not arch[0].decode().any()
    assert not arch.decode_matrix().any()


def test_archive_write_read_write_byte_identical():
    rng = np.random.default_rng(1)
    records = []
    for bits, dim in ((2, 4), (3, 2), (8, 3)):
        codec = make_codec(rng, dim, bits, 6, 5)
        codes = random_codes(rng, bits, dim, codec.columns)
        records.append((codec, codes))
    data1 = write_archive(records)
    arch = read_archive(data1)
    data2 = arch.to_bytes()
    assert data1 == data2
    # determinism: same inputs, same bytes
    assert write_archive(records) == data1


def test_archive_codes_bit_exact_and_sideinfo_fp16():
    rng = np.random.default_rng(2)
    codec = make_codec(rng, 4, 3, 8, 6)
    codes = random_codes(rng, 3, 4, codec.columns)
    arch = read_archive(write_archive([(codec, codes)]))
    got = arch[0].codec
    assert np.array_equal(arch[0].codes, codes)
    # side info was already fp16-representable, so it round-trips exactly
    assert np.array_equal(got.basis, codec.basis)
    assert got.scale == np.float16(codec.scale)
    assert got.mu == np.float16(codec.mu)


def test_archive_fp16_rounding_bounded():
    rng = np.random.default_rng(3)
    basis = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    codec = GroupCodec(basis=basis, mu=77.7, bits=2, scale=1.234, dim=3,
                       pad=0, rows=3, cols=4)
    codes = random_codes(rng, 2, 3, 4)
    got = read_archive(write_archive([(codec, codes)]))[0].codec
    rel = np.abs(got.basis - basis) / np.maximum(np.abs(basis), 1e-12)
    assert rel.max() <= 2.0**-10


@pytest.mark.parametrize("scale, basis_entry", [
    (1e5, 1.0),  # scale overflows fp16
    (1e-9, 1.0),  # scale rounds to 0: the group would decode to zeros
    (1e-6, 1.0),  # subnormal scale keeps only a few significant bits
    (1.0, 1e5),  # basis entry overflows fp16
])
def test_archive_rejects_side_info_beyond_fp16(scale, basis_entry):
    codec = GroupCodec(basis=basis_entry * np.eye(2), mu=0.0, bits=2,
                       scale=scale, dim=2, pad=0, rows=2, cols=2)
    with pytest.raises(ArchiveError):
        write_archive([(codec, np.zeros((2, 2), int))])


def test_archive_accepts_fp16_normal_range_limits():
    for scale in (2.0**-14, 65504.0):
        codec = GroupCodec(basis=np.eye(2), mu=0.0, bits=2, scale=scale,
                           dim=2, pad=0, rows=2, cols=2)
        got = read_archive(write_archive([(codec, np.zeros((2, 2), int))]))
        assert got[0].codec.scale == scale


def test_archive_decode_matches_reconstruct():
    rng = np.random.default_rng(4)
    codec = make_codec(rng, 4, 2, 10, 6)
    codes = random_codes(rng, 2, 4, codec.columns)
    arch = read_archive(write_archive([(codec, codes)]))
    expected = reconstruct(arch[0].codes, arch[0].codec)
    assert np.array_equal(arch[0].decode(), expected)


def test_decode_matrix_is_the_row_major_float32_tensor():
    # widths 1-3, padded groups (5 * cols is not a multiple of 4), mu = 0 and mu > 0
    rng = np.random.default_rng(6)
    records = []
    for cols, mu in ((1, 0.0), (3, 100.0), (2, 0.0), (3, 50.0)):
        codec = make_codec(rng, 4, 3, 5, cols, mu=mu)
        records.append((codec, random_codes(rng, 3, 4, codec.columns)))
    arch = read_archive(write_archive(records))
    out = arch.decode_matrix()
    expected = np.hstack([g.decode() for g in arch]).astype("<f4")
    assert out.dtype == np.float32 and out.flags.c_contiguous
    assert out.shape == expected.shape == (5, 9)
    assert out.tobytes() == expected.tobytes()
    empty = read_archive(write_archive([])).decode_matrix()
    assert empty.dtype == np.float32 and empty.shape == (0, 0)


def test_decode_matrix_peak_memory_stays_near_its_output():
    # the decode holds the float32 output plus the float64 temporaries of
    # a group or two, not a float64 copy of the whole layer
    rng = np.random.default_rng(7)
    records = []
    for _ in range(16):
        codec = make_codec(rng, 8, 2, 256, 64)
        records.append((codec, random_codes(rng, 2, 8, codec.columns)))
    arch = read_archive(write_archive(records))
    tracemalloc.start()
    try:
        out = arch.decode_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 4 * out.size


def test_archive_parse_errors_distinct():
    rng = np.random.default_rng(5)
    codec = make_codec(rng, 2, 2, 4, 4)
    codes = random_codes(rng, 2, 2, codec.columns)
    data = write_archive([(codec, codes)])
    with pytest.raises(BadMagicError):
        read_archive(b"X" + data[1:])
    bad_version = data[:4] + b"\x09\x00" + data[6:]
    with pytest.raises(UnsupportedVersionError):
        read_archive(bad_version)
    with pytest.raises(TruncatedArchiveError):
        read_archive(data[:len(data) - 3])
    with pytest.raises(TruncatedArchiveError):
        read_archive(data[:8])
    with pytest.raises(ArchiveError):
        read_archive(data + b"\x00")


def raw_archive(rows=2, cols=2, dim=2, bits=2, pad=0, scale=1.0, mu=0.0,
                basis_entry=1.0):
    """One-record archive packed field by field, bypassing write_archive's
    checks; the basis is basis_entry * I and every payload byte is zero,
    so every code is -2^(bits-1)."""
    columns = (rows * cols + pad) // dim
    payload = bytes((dim * columns * bits + 7) // 8)
    return (struct.pack("<4sHI", b"GLVQ", 1, 1)
            + struct.pack("<IIHBHee", rows, cols, dim, bits, pad, scale, mu)
            + np.diag(np.full(dim, basis_entry)).astype("<f2").tobytes()
            + struct.pack("<Q", len(payload)) + payload)


def test_archive_reads_valid_raw_record():
    for mu in (0.0, 10.0, 255.0):
        codec = read_archive(raw_archive(mu=mu, scale=2.0**-20))[0].codec
        assert (codec.mu, codec.scale) == (mu, 2.0**-20)


@pytest.mark.parametrize("fields", [
    {"rows": 0}, {"cols": 0},
    {"mu": 5.0}, {"mu": 300.0}, {"mu": np.inf}, {"mu": np.nan}, {"mu": -20.0},
    {"scale": np.nan}, {"scale": np.inf}, {"scale": 0.0}, {"scale": -1.0},
    {"basis_entry": np.nan}, {"basis_entry": -np.inf},
])
def test_archive_rejects_undecodable_side_info(fields):
    with pytest.raises(ArchiveError):
        read_archive(raw_archive(**fields))


@pytest.mark.parametrize("mu,basis_entry", [(5.0, 1.0), (0.0, np.nan)])
def test_archive_write_rejects_undecodable_side_info(mu, basis_entry):
    codec = GroupCodec(basis=np.diag([basis_entry, 1.0]), mu=mu, bits=2,
                       scale=1.0, dim=2, pad=0, rows=2, cols=2)
    with pytest.raises(ArchiveError):
        write_archive([(codec, np.zeros((2, 2), int))])


@pytest.mark.parametrize("dim, pad, codes_shape", [
    (4, 0, (4, 1)),  # dim disagrees with the 2 x 2 basis
    (2, 2, (2, 3)),  # pad is not (-rows * cols) mod dim
    (2, 0, (2, 3)),  # codes are not dim x columns
])
def test_archive_write_rejects_what_read_rejects(dim, pad, codes_shape):
    codec = GroupCodec(basis=np.eye(2), mu=0.0, bits=2, scale=1.0, dim=dim,
                       pad=pad, rows=2, cols=2)
    with pytest.raises(ArchiveError):
        write_archive([(codec, np.zeros(codes_shape, int))])


@pytest.mark.parametrize("basis_entry", [1000.0, 21.0])
def test_archive_decode_rejects_overflowing_expansion(basis_entry):
    # codes of -2 put the companded latent at -2 * basis_entry, far past
    # [-1, 1]: (1 + mu)^2000 overflows float64, and (1 + mu)^42 at mu=100
    # (about 1e84) float32, in which decoded tensors are written
    arch = read_archive(raw_archive(mu=100.0, bits=2, basis_entry=basis_entry))
    with pytest.raises(ArchiveError):
        arch.decode_matrix()


def test_archive_decode_scans_large_basis_with_small_codes():
    # the basis bound overflows, but zero codes decode to zeros
    codec = GroupCodec(basis=1000.0 * np.eye(2), mu=100.0, bits=2, scale=1.0,
                       dim=2, pad=0, rows=2, cols=2)
    arch = read_archive(write_archive([(codec, np.zeros((2, 2), int))]))
    assert not arch.decode_matrix().any()


def test_record_side_bytes():
    # record header (17) + fp16 basis (2 d^2) + payload length field (8)
    assert record_side_bytes(4) == 17 + 32 + 8


# ---------------------------------------------------------------- overhead

def test_overhead_reference_values():
    assert overhead_report(16, 4096, 128, 4) == pytest.approx(0.196, abs=5e-4)
    assert overhead_report(8, 4096, 128, 2) == pytest.approx(0.099, abs=5e-4)
    assert overhead_report(32, 4096, 128, 2) == pytest.approx(1.564, abs=5e-4)


FULL_TABLE = {
    (8, 128): (0.10, 0.07, 0.05),
    (8, 256): (0.05, 0.03, 0.02),
    (16, 128): (0.39, 0.26, 0.20),
    (16, 256): (0.20, 0.13, 0.10),
    (32, 128): (1.56, 1.04, 0.78),
    (32, 256): (0.78, 0.52, 0.39),
}


def test_overhead_full_table_two_decimals():
    for (d, n), expected in FULL_TABLE.items():
        for b, want in zip((2, 3, 4), expected):
            got = round(overhead_report(d, 4096, n, b), 2)
            assert abs(got - want) <= 0.01


def test_overhead_validates_arguments():
    with pytest.raises(ValueError):
        overhead_report(0, 1, 1, 1)


# ------------------------------------------------------------- tensor file

def test_tensor_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 7)).astype(np.float32)
    path = str(tmp_path / "w.f32")
    write_tensor_file(path, a)
    assert (tmp_path / "w.json").exists()
    back = read_tensor_file(path)
    assert back.shape == (5, 7)
    assert np.array_equal(back.astype(np.float32), a)


def test_tensor_file_manifest_mismatch(tmp_path):
    path = str(tmp_path / "w.f32")
    write_tensor_file(path, np.ones((2, 2), dtype=np.float32))
    (tmp_path / "w.f32").write_bytes(b"\x00" * 12)  # wrong payload size
    with pytest.raises(TensorFormatError):
        read_tensor_file(path)


@pytest.mark.parametrize("manifest", [
    "[1, 2]", "null", '"x"', "3",
    '{"shape": [true, 2], "dtype": "f32", "layout": "row-major"}'])
def test_tensor_file_malformed_manifest(tmp_path, manifest):
    path = str(tmp_path / "w.f32")
    write_tensor_file(path, np.ones((1, 2), dtype=np.float32))
    (tmp_path / "w.json").write_text(manifest)
    with pytest.raises(TensorFormatError):
        read_tensor_file(path)


def test_tensor_file_payload_is_row_major_f32(tmp_path):
    # a column-major float64 matrix is written as the row-major <f4 bytes
    a = np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7.0)
    path = tmp_path / "w.f32"
    write_tensor_file(str(path), a)
    assert path.read_bytes() == a.astype("<f4").tobytes(order="C")
