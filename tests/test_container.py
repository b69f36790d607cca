import json
import math
import struct

import numpy as np
import pytest

from glvq import container
from glvq.codebook import GroupCodec, reconstruct
from glvq.container import (ArchiveError, BadMagicError,
                            TruncatedArchiveError, TruncatedPayloadError,
                            UnsupportedVersionError, overhead_report,
                            pack_codes, read_archive, read_tensor_file,
                            record_side_bytes, unpack_codes, write_archive,
                            write_tensor_file, TensorFormatError)


# numpy's and the file object's fixed cost beyond the arrays
_OVERHEAD = 1 << 16


def make_codec(rng, dim, bits, rows, cols, mu=100.0):
    basis = np.float16(0.3 * np.eye(dim) + 0.05 * rng.standard_normal((dim, dim)))
    return GroupCodec(basis=basis.astype(float), mu=mu, bits=bits, scale=1.5,
                      dim=dim, rows=rows, cols=cols)


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
    for bits in (0, 9, 2.5):  # widths code_range rejects
        with pytest.raises(ValueError, match="bits must be in 1..8"):
            pack_codes(np.array([[0]]), bits)


def test_unpack_hand_example():
    codes = unpack_codes(b"\xe4", 2, 2, 2)
    assert np.array_equal(codes, [[-2, 0], [-1, 1]])


def test_unpack_empty():
    for bits in range(1, 9):  # a (dim, 0) code matrix packs to no bytes
        for dtype in (np.int8, np.int64, float, bool):
            assert pack_codes(np.zeros((4, 0), dtype), bits) == b""
        assert unpack_codes(b"", bits, 4, 0).shape == (4, 0)


def test_unpack_length_mismatch():
    with pytest.raises(TruncatedPayloadError):
        unpack_codes(b"\xe4", 2, 2, 3)
    with pytest.raises(TruncatedPayloadError):
        unpack_codes(b"\xe4\x00", 2, 2, 2)


@pytest.mark.parametrize("bits", [0, 9, 2.5])
def test_unpack_rejects_widths_outside_one_to_eight(bits):
    with pytest.raises(ValueError, match="bits must be in 1..8"):
        unpack_codes(b"\x00", bits, 1, 1)


def test_pack_unpack_round_trip_all_widths():
    rng = np.random.default_rng(0)
    for _ in range(25):
        for bits in range(1, 9):
            dim = int(rng.integers(1, 9))
            cols = int(rng.integers(0, 40))
            z = random_codes(rng, bits, dim, cols)
            back = unpack_codes(pack_codes(z, bits), bits, dim, cols)
            assert np.array_equal(back, z)


def oracle_pack(codes, bits):
    """Bit-by-bit reference packer: offset u = z + 2^(b-1) of the i-th code
    in column-major order puts its bit t at stream position i * bits + t,
    and stream position p is bit p % 8 of byte p // 8."""
    flat = np.asarray(codes).ravel(order="F")
    out = bytearray((flat.size * bits + 7) // 8)
    for i, z in enumerate(flat.tolist()):
        u = z + 2 ** (bits - 1)
        for t in range(bits):
            if (u >> t) & 1:
                p = i * bits + t
                out[p // 8] |= 1 << (p % 8)
    return bytes(out)


@pytest.mark.parametrize("bits", range(1, 9))
def test_pack_unpack_match_bitwise_oracle(bits):
    # code counts below, at and past multiples of 8, both code extremes
    rng = np.random.default_rng(bits)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    for dim, cols in ((1, 1), (1, 7), (3, 5), (2, 4), (8, 1), (3, 3), (5, 13), (4, 17)):
        z = random_codes(rng, bits, dim, cols)
        z.flat[0], z.flat[-1] = lo, hi
        expected = oracle_pack(z, bits)
        assert pack_codes(z, bits) == expected
        back = unpack_codes(expected, bits, dim, cols)
        assert back.dtype == np.int8 and back.shape == (dim, cols)
        assert np.array_equal(back, z)
        # an int8 matrix (what unpack returns) and integral float codes
        # pack to the same bytes
        assert pack_codes(back, bits) == expected
        assert pack_codes(z.astype(float), bits) == expected


def test_pack_unpack_use_no_bit_matrix(monkeypatch):
    # 8 codes fill exactly `bits` bytes, so both directions work by shifts
    # on whole bytes; an n x bits bit matrix must not come back
    def no_bit_matrix(*args, **kwargs):
        raise AssertionError("np.unpackbits/np.packbits while (un)packing codes")

    monkeypatch.setattr(np, "unpackbits", no_bit_matrix)
    monkeypatch.setattr(np, "packbits", no_bit_matrix)
    rng = np.random.default_rng(8)
    for bits in range(1, 9):
        z = random_codes(rng, bits, 3, 11)
        assert np.array_equal(unpack_codes(pack_codes(z, bits), bits, 3, 11), z)


# ----------------------------------------------------------------- archive

def test_archive_single_zero_group():
    codec = GroupCodec(basis=0.5 * np.eye(2), mu=0.0, bits=2, scale=1.0,
                       dim=2, rows=2, cols=2)
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


def test_archive_round_trips_bytes_at_every_width():
    # re-packing the int8 codes read back must give the same bytes, also at
    # 8 bits, where the offset 128 does not fit int8
    rng = np.random.default_rng(9)
    records = []
    for bits in range(1, 9):
        codec = make_codec(rng, 3, bits, 7, 5)
        codes = random_codes(rng, bits, 3, codec.columns)
        codes.flat[0], codes.flat[-1] = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        records.append((codec, codes))
    data = write_archive(records)
    assert read_archive(data).to_bytes() == data


def test_archive_of_int8_codes_is_that_of_their_int64_cast():
    # the encoder's int8 codes and the same codes as int64 pack alike, at
    # every width and at both ends of its range
    rng = np.random.default_rng(13)
    records = []
    for bits in range(1, 9):
        codec = make_codec(rng, 4, bits, 9, 7)
        codes = random_codes(rng, bits, 4, codec.columns).astype(np.int8)
        codes.flat[0], codes.flat[-1] = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        records.append((codec, codes))
    wide = [(codec, codes.astype(np.int64)) for codec, codes in records]
    assert write_archive(records) == write_archive(wide)


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
                       rows=3, cols=4)
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
                       scale=scale, dim=2, rows=2, cols=2)
    with pytest.raises(ArchiveError):
        write_archive([(codec, np.zeros((2, 2), int))])


def test_archive_accepts_fp16_normal_range_limits():
    for scale in (2.0**-14, 65504.0):
        codec = GroupCodec(basis=np.eye(2), mu=0.0, bits=2, scale=scale,
                           dim=2, rows=2, cols=2)
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


def test_decode_matrix_places_whole_blocks_as_the_group_decode():
    # rows = 12 is a multiple of dim 1, 2, 3, 4 and 12, so those groups are
    # placed straight from the latent; dim 5 and 8 groups are padded
    rng = np.random.default_rng(10)
    records = []
    for dim, cols, mu in ((4, 3, 0.0), (3, 2, 100.0), (8, 5, 10.0), (12, 4, 255.0),
                          (1, 6, 0.0), (2, 7, 60.0), (5, 3, 30.0), (4, 1, 75.0)):
        codec = make_codec(rng, dim, 2, 12, cols, mu=mu)
        records.append((codec, random_codes(rng, 2, dim, codec.columns)))
    arch = read_archive(write_archive(records))
    out = arch.decode_matrix()
    expected = np.hstack([g.decode() for g in arch]).astype("<f4")
    assert out.shape == expected.shape == (12, 31)
    assert out.tobytes() == expected.tobytes()
    # a group decoded into a span of a larger array writes that span only
    span = np.full((12, 9), 7.0, dtype=np.float32)
    g = arch[1]
    reconstruct(g.codes, g.codec, span[:, 3:5])
    assert span[:, 3:5].tobytes() == expected[:, 3:5].tobytes()
    assert (span[:, :3] == 7.0).all() and (span[:, 5:] == 7.0).all()


def test_decode_matrix_peak_memory_stays_near_its_output(traced_peak):
    # the decode holds the float32 output plus the float64 temporaries of
    # a group or two, not a float64 copy of the whole layer
    rng = np.random.default_rng(7)
    records = []
    for _ in range(16):
        codec = make_codec(rng, 8, 2, 256, 64)
        records.append((codec, random_codes(rng, 2, 8, codec.columns)))
    arch = read_archive(write_archive(records))
    out, peak = traced_peak(arch.decode_matrix)
    assert peak <= 2 * 4 * out.size


def test_decode_matrix_holds_nothing_layer_sized_beyond_its_output(traced_peak):
    # 64 narrow groups: the temporaries of one group, a 32 KiB buffer
    # among them, stay under one byte per output weight, where a bool
    # mask of the whole tensor alone takes one
    rng = np.random.default_rng(12)
    records = []
    for _ in range(64):
        codec = make_codec(rng, 8, 2, 256, 8, mu=75.0)
        records.append((codec, random_codes(rng, 2, 8, codec.columns)))
    arch = read_archive(write_archive(records))
    out, peak = traced_peak(arch.decode_matrix)
    assert peak - out.nbytes < out.size


def test_decode_matrix_peak_is_its_codes_and_one_buffer_over_its_output(traced_peak):
    # beyond the float32 output the decode holds one group's int8 codes
    # and one buffer for Z as float and G Z that serves every group of the
    # layer, expand's result going where Z was: 17 bytes a weight, 2.125
    # float64 copies of the group; measured 2.39 here, with numpy's small
    # fixed overhead (3.38 when expand's result was a new array)
    rng = np.random.default_rng(11)
    records = []
    for _ in range(4):
        codec = make_codec(rng, 8, 3, 512, 128, mu=75.0)
        records.append((codec, random_codes(rng, 3, 8, codec.columns)))
    arch = read_archive(write_archive(records))
    out, peak = traced_peak(arch.decode_matrix)
    assert peak - out.nbytes <= 2.5 * 8 * 512 * 128


def _mixed_archive(rows):
    # dims 1-5, 8 and 12, mu = 0 and mu > 0; at rows = 24 the dim 5 group
    # is padded (rows % dim != 0), at rows = 13 every group but dim 1 is
    rng = np.random.default_rng(13)
    records = []
    for dim, cols, mu in ((1, 3, 0.0), (2, 2, 100.0), (3, 4, 0.0), (4, 1, 60.0),
                          (5, 3, 10.0), (8, 5, 0.0), (12, 2, 255.0)):
        codec = make_codec(rng, dim, 2, rows, cols, mu=mu)
        records.append((codec, random_codes(rng, 2, dim, codec.columns)))
    return read_archive(write_archive(records))


@pytest.mark.parametrize("rows", [13, 24])
@pytest.mark.parametrize("block_rows", [1, 3, 5, 8, None])
def test_row_blocks_write_the_decode_matrix_bytes(tmp_path, monkeypatch, rows,
                                                  block_rows):
    # block rows that divide no dim, some dims or all of them, and row
    # counts that are no multiple of the block; None keeps the 4 MiB blocks
    arch = _mixed_archive(rows)
    expected = arch.decode_matrix()
    if block_rows:
        monkeypatch.setattr(container, "_BLOCK_BYTES", 4 * expected.shape[1] * block_rows)
    blocks = [b.copy() for b in arch.row_blocks()]
    assert len(blocks) == -(-rows // (block_rows or rows))
    path = tmp_path / "o.f32"
    assert write_tensor_file(str(path), arch.row_blocks()) == expected.shape
    assert path.read_bytes() == np.vstack(blocks).tobytes() == expected.tobytes()
    assert json.loads((tmp_path / "o.json").read_text())["shape"] == list(expected.shape)


def test_every_span_decodes_through_reconstruct(monkeypatch):
    # decode_matrix decodes each group once, and row_blocks each group
    # once per block, through codebook.reconstruct
    arch = _mixed_archive(24)
    expected = arch.decode_matrix()
    calls = []
    real = container.reconstruct

    def counted(codes, codec, *args):
        calls.append(codec.dim)
        return real(codes, codec, *args)

    monkeypatch.setattr(container, "reconstruct", counted)
    assert arch.decode_matrix().tobytes() == expected.tobytes()
    assert calls == [g.codec.dim for g in arch]
    calls.clear()
    monkeypatch.setattr(container, "_BLOCK_BYTES", 4 * expected.shape[1] * 8)
    assert np.vstack([b.copy() for b in arch.row_blocks()]).tobytes() == expected.tobytes()
    assert calls == [g.codec.dim for g in arch] * 3


def test_row_blocks_hold_whole_vectors_when_the_dims_fit(tmp_path, monkeypatch):
    # 13 rows' worth of bytes is no multiple of d = 8: the blocks round
    # down to 8 rows, and every span is a view of its payload, without
    # the gather of the blocks that cover split vectors
    rng = np.random.default_rng(15)
    records = []
    for bits, mu in ((1, 0.0), (2, 100.0), (3, 0.0)):
        codec = make_codec(rng, 8, bits, 40, 3, mu=mu)
        records.append((codec, random_codes(rng, bits, 8, codec.columns)))
    arch = read_archive(write_archive(records))
    expected = arch.decode_matrix()
    monkeypatch.setattr(container, "_BLOCK_BYTES", 4 * expected.shape[1] * 13)

    def no_gather(*args, **kwargs):
        raise AssertionError("a block split a lattice vector")

    monkeypatch.setattr(np, "take", no_gather)
    assert [len(b) for b in arch.row_blocks()] == [8] * 5
    path = tmp_path / "o.f32"
    assert write_tensor_file(str(path), arch.row_blocks()) == expected.shape
    assert path.read_bytes() == expected.tobytes()


@pytest.mark.parametrize("bits", range(1, 9))
def test_row_span_codes_are_the_slice_of_unpack_codes(bits):
    # widths 3, 5, 6 and 7 straddle bytes; rows that are and are not
    # multiples of 8 and of dim, so spans that are views of the payload
    # and spans gathered around split vectors, with and without a last
    # block that the codes end inside
    rng = np.random.default_rng(bits)
    cols = 3
    for dim in (1, 3, 5, 8, 12):
        for rows in (1, 13, 15, 24, 40, 120):
            codec = make_codec(rng, dim, bits, rows, cols)
            payload = pack_codes(random_codes(rng, bits, dim, codec.columns), bits)
            flat = unpack_codes(payload, bits, dim, codec.columns).T.ravel()
            blocks = container._payload_blocks(payload, bits)
            # a view of the payload exactly when bits divides its length,
            # zero-filled past its end
            view = np.frombuffer(payload, np.uint8)
            assert np.shares_memory(blocks, view) == (len(payload) % bits == 0)
            assert blocks.ravel()[:len(payload)].tobytes() == payload
            assert not blocks.ravel()[len(payload):].any()
            for step in (1, 5, 8, 24, rows):
                for r0 in range(0, rows, step):
                    r1 = min(r0 + step, rows)
                    packed, skips = container._row_span(blocks, codec, r0, r1)
                    got = container._unpack_spans([packed], [bits])[0]
                    length = got.shape[1]
                    assert got.shape[0] == cols and length % dim == 0
                    for c in range(cols):
                        s = skips[c % len(skips)]
                        start = c * rows + r0 - s  # the first code of the run
                        assert start % dim == 0 and s + r1 - r0 <= length
                        assert np.array_equal(got[c, s:s + r1 - r0],
                                              flat[c * rows + r0:c * rows + r1])
                        # past the last code the run holds unused values
                        n = min(length, flat.size - start)
                        assert np.array_equal(got[c, :n], flat[start:start + n])


def _archive_at_width(bits, rows):
    # dims 1, 3, 5, 8 and 12 at one width, two dim 8 groups batched into
    # one unpack, and a dim 5 group at the next width; the basis shrinks
    # with the code range so that no width overflows the expansion
    rng = np.random.default_rng(20 + bits)
    records = []
    for dim, cols, width, mu in ((1, 3, bits, 0.0), (3, 4, bits, 100.0),
                                 (8, 5, bits, 0.0), (5, 3, bits % 8 + 1, 10.0),
                                 (12, 2, bits, 255.0), (8, 2, bits, 60.0)):
        codec = make_codec(rng, dim, width, rows, cols, mu=mu)
        codec = GroupCodec(basis=codec.basis / 2 ** (width - 1), mu=mu, bits=width,
                           scale=1.5, dim=dim, rows=rows, cols=cols)
        records.append((codec, random_codes(rng, width, dim, codec.columns)))
    return read_archive(write_archive(records))


@pytest.mark.parametrize("bits", range(1, 9))
@pytest.mark.parametrize("rows", [29, 48])
@pytest.mark.parametrize("block_rows", [1, 3, 8, 16, 24])
def test_row_blocks_write_the_decode_matrix_bytes_at_every_width(monkeypatch, bits,
                                                                 rows, block_rows):
    # the lcm of 8 and the dims, 120, fits no block: at rows = 48 the dim
    # 1 and 8 groups are views in 8- and 16-row blocks and the dim 3 and
    # 12 groups in 24-row ones; every other span is gathered
    arch = _archive_at_width(bits, rows)
    expected = arch.decode_matrix()
    assert expected.tobytes() == np.hstack([g.decode() for g in arch]).astype("<f4").tobytes()
    monkeypatch.setattr(container, "_BLOCK_BYTES", 4 * expected.shape[1] * block_rows)
    blocks = [b.copy() for b in arch.row_blocks()]
    assert len(blocks) == -(-rows // block_rows) > 1
    assert np.vstack(blocks).tobytes() == expected.tobytes()


def test_row_blocks_hold_the_codes_of_one_block(monkeypatch, traced_peak):
    # two dim 8 groups read as views of their payloads and two padded
    # dim 3 groups (2048 % 3 != 0) gathered, over 43 blocks of 48 rows
    # (lcm(8, 3) = 24 rounds 60 down): the stream holds one block's codes
    # at a time, less than one group's at one byte per code, where
    # holding every group's codes takes four groups' worth
    rng = np.random.default_rng(17)
    records = []
    for dim, cols, bits in ((8, 24, 2), (8, 24, 3), (3, 23, 2), (3, 25, 5)):
        codec = make_codec(rng, dim, bits, 2048, cols, mu=50.0)
        records.append((codec, random_codes(rng, bits, dim, codec.columns)))
    arch = read_archive(write_archive(records))
    assert [g.codec.pad for g in arch] == [0, 0, 2, 1]
    monkeypatch.setattr(container, "_BLOCK_BYTES", 4 * 96 * 60)

    def drain():
        return sum(1 for _ in arch.row_blocks())

    count, peak = traced_peak(drain)
    assert count == 43
    group_codes = max(g.codec.dim * g.codec.columns for g in arch)
    block = 4 * 48 * 96
    scratch = 8 * 2 * max(g.codec.cols * (48 + 2 * math.lcm(8, g.codec.dim)) for g in arch)
    assert peak < group_codes + block + scratch + _OVERHEAD


def test_row_blocks_of_an_empty_archive_write_an_empty_tensor(tmp_path):
    path = tmp_path / "o.f32"
    shape = write_tensor_file(str(path), read_archive(write_archive([])).row_blocks())
    assert shape == (0, 0) and path.read_bytes() == b""
    assert json.loads((tmp_path / "o.json").read_text())["shape"] == [0, 0]


def test_row_blocks_name_a_group_that_overflows_in_a_later_block(monkeypatch):
    # group 1's codes are 0 but for the vector of rows 6-7 of its second
    # column: with 2-row blocks the first three blocks decode and the
    # fourth overflows float32, as in test_archive_decode_names_the_group_that_overflows
    fine = GroupCodec(basis=np.eye(2), mu=0.0, bits=2, scale=1.0, dim=2,
                      rows=8, cols=2)
    wild = GroupCodec(basis=21.0 * np.eye(2), mu=100.0, bits=2, scale=1.0,
                      dim=2, rows=8, cols=2)
    codes = np.zeros((2, 8), int)
    codes[:, 7] = -2
    arch = read_archive(write_archive([(fine, codes), (wild, codes)]))
    monkeypatch.setattr(container, "_BLOCK_BYTES", 4 * 4 * 2)
    stream = arch.row_blocks()
    for _ in range(3):
        assert np.isfinite(next(stream)).all()
    with pytest.raises(ArchiveError, match="^group 1 decodes"):
        next(stream)


def test_row_blocks_check_row_counts_before_the_first_block():
    rng = np.random.default_rng(7)
    records = []
    for rows in (4, 6):
        codec = make_codec(rng, 2, 2, rows, 3)
        records.append((codec, random_codes(rng, 2, 2, codec.columns)))
    arch = read_archive(write_archive(records))
    with pytest.raises(ArchiveError, match="groups disagree on row count"):
        next(arch.row_blocks())


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
        codec = read_archive(raw_archive(mu=mu))[0].codec
        assert (codec.mu, codec.scale) == (mu, 1.0)
    # an fp16-subnormal scale would decode, but write_archive never writes
    # it, so read_archive rejects it too
    with pytest.raises(ArchiveError, match="fp16 range"):
        read_archive(raw_archive(scale=2.0**-20))


def test_archive_read_rejects_bits_set_past_the_last_code():
    # 3 codes of 3 bits leave 7 unused bits in the last payload byte;
    # pack_codes zero-fills them, so one set there is not what it writes
    with pytest.raises(ArchiveError, match="past its last code"):
        read_archive(raw_archive(rows=3, cols=1, dim=1, bits=3)[:-1] + b"\x80")


def test_archive_to_bytes_rejects_a_record_edited_after_parsing():
    # to_bytes is write_archive of the parsed codes, so it checks an
    # edited record as write_archive does; a payload cut short fails to
    # unpack
    arch = read_archive(raw_archive())
    arch[0].codec.scale = 2.0**-20
    with pytest.raises(ArchiveError, match="fp16 range"):
        arch.to_bytes()
    arch = read_archive(raw_archive(bits=3))
    arch[0].payload = arch[0].payload[:-1]
    with pytest.raises(TruncatedPayloadError):
        arch.to_bytes()


@pytest.mark.parametrize("fields", [
    {"rows": 0}, {"cols": 0},
    {"mu": 5.0}, {"mu": 300.0}, {"mu": np.inf}, {"mu": np.nan}, {"mu": -20.0},
    {"scale": np.nan}, {"scale": np.inf}, {"scale": 0.0}, {"scale": -1.0},
    {"basis_entry": np.nan}, {"basis_entry": -np.inf},
])
def test_archive_rejects_undecodable_side_info(fields):
    with pytest.raises(ArchiveError):
        read_archive(raw_archive(**fields))


@pytest.mark.parametrize("bits", [0, 9])
def test_archive_rejects_widths_outside_one_to_eight(bits):
    # code_range is the record rule's width test: both directions name the
    # group, where a 9-bit record would otherwise wrap its int8 codes
    codec = GroupCodec(basis=np.eye(2), mu=0.0, bits=bits, scale=1.0, dim=2,
                       rows=2, cols=2)
    with pytest.raises(ArchiveError, match="^group 0: bits must be in 1..8"):
        write_archive([(codec, np.zeros((2, 2), int))])
    with pytest.raises(ArchiveError, match="^group 0: bits must be in 1..8"):
        read_archive(raw_archive(bits=bits))


@pytest.mark.parametrize("mu,basis_entry", [(5.0, 1.0), (0.0, np.nan)])
def test_archive_write_rejects_undecodable_side_info(mu, basis_entry):
    codec = GroupCodec(basis=np.diag([basis_entry, 1.0]), mu=mu, bits=2,
                       scale=1.0, dim=2, rows=2, cols=2)
    with pytest.raises(ArchiveError):
        write_archive([(codec, np.zeros((2, 2), int))])


@pytest.mark.parametrize("fields", [
    {"pad": 2},  # 2 x 2 weights fill dim-2 columns without padding
    {"rows": 3, "cols": 1, "pad": 0},  # 3 weights need 1 zero for dim 2
], ids=["2x2-pad2", "3x1-pad0"])
def test_archive_read_rejects_pad_off_the_rule(fields):
    # a codec derives its pad, so only a stored one can break the rule
    with pytest.raises(ArchiveError, match="does not tile"):
        read_archive(raw_archive(**fields))


@pytest.mark.parametrize("dim, codes_shape", [
    (4, (4, 1)),  # dim disagrees with the 2 x 2 basis
    (2, (2, 3)),  # codes are not dim x columns
    (0, (0, 0)),  # no dim-long columns at all
])
def test_archive_write_rejects_what_read_rejects(dim, codes_shape):
    codec = GroupCodec(basis=np.eye(2), mu=0.0, bits=2, scale=1.0, dim=dim,
                       rows=2, cols=2)
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


def test_archive_decode_names_the_group_that_overflows():
    # the second group's codes of -2 overflow float32 as above; the first
    # group decodes fine
    fine = GroupCodec(basis=np.eye(2), mu=0.0, bits=2, scale=1.0, dim=2,
                      rows=2, cols=2)
    wild = GroupCodec(basis=21.0 * np.eye(2), mu=100.0, bits=2, scale=1.0,
                      dim=2, rows=2, cols=2)
    codes = np.full((2, 2), -2)
    arch = read_archive(write_archive([(fine, codes), (wild, codes)]))
    with pytest.raises(ArchiveError, match="^group 1 decodes"):
        arch.decode_matrix()


def test_archive_decode_rejects_groups_of_different_row_counts():
    rng = np.random.default_rng(7)
    records = []
    for rows in (4, 6):
        codec = make_codec(rng, 2, 2, rows, 3)
        records.append((codec, random_codes(rng, 2, 2, codec.columns)))
    arch = read_archive(write_archive(records))
    with pytest.raises(ArchiveError, match="groups disagree on row count"):
        arch.decode_matrix()


def test_archive_decode_scans_large_basis_with_small_codes():
    # the basis bound overflows, but zero codes decode to zeros
    codec = GroupCodec(basis=1000.0 * np.eye(2), mu=100.0, bits=2, scale=1.0,
                       dim=2, rows=2, cols=2)
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
    # counts are integers >= 1 and bits a width code_range holds
    for args in ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (2.5, 4096, 128, 2),
                 (16, 4096.0, 128, 2), (16, 4096, 128, 0), (16, 4096, 128, 9),
                 (16, 4096, 128, 2.0)):
        with pytest.raises(ValueError):
            overhead_report(*args)


# ------------------------------------------------------------- tensor file

def test_tensor_file_round_trip(tmp_path, traced_peak):
    # a new writable, C-contiguous float32 array, bit for bit what was
    # written, read straight into: the peak is the payload (3 times it
    # when the file's bytes and a float64 copy were alive together)
    a = np.random.default_rng(6).standard_normal((300, 200)).astype(np.float32)
    path = str(tmp_path / "w.f32")
    write_tensor_file(path, a)
    assert (tmp_path / "w.json").exists()
    back, peak = traced_peak(read_tensor_file, path)
    assert back.dtype == np.float32 and back.shape == a.shape
    assert back.flags.writeable and back.flags.c_contiguous
    assert back.tobytes() == a.tobytes()
    assert peak <= a.nbytes + _OVERHEAD


def test_tensor_file_write_rejects_other_than_2d(tmp_path):
    path = tmp_path / "w.f32"
    with pytest.raises(ValueError, match="2-D"):
        write_tensor_file(str(path), np.ones(3, dtype=np.float32))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("blocks", [
    [np.ones((2, 3)), np.ones((1, 4))], [np.ones((2, 3)), np.ones(3)]])
def test_tensor_file_write_rejects_blocks_that_do_not_stack(tmp_path, blocks):
    with pytest.raises(ValueError):
        write_tensor_file(str(tmp_path / "w.f32"), iter(blocks))
    assert list(tmp_path.iterdir()) == []


def test_tensor_file_write_leaves_no_payload_without_its_manifest(tmp_path):
    (tmp_path / "w.json").mkdir()
    with pytest.raises(OSError):
        write_tensor_file(str(tmp_path / "w.f32"), np.ones((2, 2)))
    assert [p.name for p in tmp_path.iterdir()] == ["w.json"]


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
