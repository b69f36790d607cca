"""Bit-exact persistence for tensors and quantized archives.

Tensor files are raw little-endian float32 payloads (row-major) with a
JSON sidecar manifest: {"shape": [rows, cols], "dtype": "f32",
"layout": "row-major"}.

Archive layout (".glvq", all multi-byte integers little-endian):

    magic    4 bytes   b"GLVQ"
    version  u16       1
    count    u32       number of group records
  per record:
    rows u32, cols u32, dim u16, bits u8, pad u16,
    scale float16, mu float16,
    basis dim*dim float16 (row-major),
    payload_len u64, payload bytes

Codes are stored column-major as unsigned offsets u = z + 2^(bits-1),
packed LSB-first within each byte; the final partial byte is zero
padded.  So 8 consecutive codes fill exactly `bits` bytes, and
pack_codes and unpack_codes work by shifts on those whole bytes, 8 codes
at a time.  unpack_codes returns int8 codes, which hold every width up
to MAX_BITS = 8.  Side information is rounded to IEEE binary16 (nearest-even);
a scale outside binary16's normal range, or a basis entry beyond its
maximum, is rejected at write time.  Codes round-trip bit exactly.

Reading rejects a record with zero rows or columns, a pad that does not
tile rows*cols into dim-long columns, a mu that companding does not
accept (neither 0 nor in [MU_MIN, MU_MAX]), a scale that is not finite
and positive, or a non-finite basis entry; writing rejects the same
records, so whatever it writes parses.  `decode_matrix` rejects an archive
whose decoded values do not fit float32, naming the group.  ArchiveError
covers each case.

DataError, a ValueError defined in codebook and re-exported here, marks
bad input data rather than bad settings.  ArchiveError,
TruncatedPayloadError (unpack_codes) and TensorFormatError
(read_tensor_file) derive from it.
"""

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import companding
from .codebook import MAX_BITS, DataError, GroupCodec, _decode, code_range, reconstruct

MAGIC = b"GLVQ"
VERSION = 1
_FP16_MAX = float(np.finfo(np.float16).max)  # 65504
_FP16_MIN_NORMAL = float(np.finfo(np.float16).tiny)  # 2^-14
_MAX_AXIS = np.iinfo(np.intp).max // 8  # longest axis of a float64 array

_HEADER = struct.Struct("<4sHI")
_RECORD = struct.Struct("<IIHBHee")
_PAYLEN = struct.Struct("<Q")


class ArchiveError(DataError):
    """Malformed archive bytes, or side information the format cannot hold."""


class BadMagicError(ArchiveError):
    pass


class UnsupportedVersionError(ArchiveError):
    pass


class TruncatedArchiveError(ArchiveError):
    pass


class TruncatedPayloadError(DataError):
    """Packed code payload does not match the declared geometry."""


class TensorFormatError(DataError):
    """Unreadable tensor manifest, or a payload that disagrees with it."""


def pack_codes(codes, bits: int) -> bytes:
    """Pack an integer code matrix into b-bit offsets, LSB-first."""
    lo, hi = code_range(bits)
    if bits > MAX_BITS:
        raise ValueError(f"packing supports bits <= {MAX_BITS}, got {bits}")
    z = np.asarray(codes)
    if z.size and (z.min() < lo or z.max() > hi):
        raise ValueError(f"codes outside [{lo}, {hi}] for bits={bits}")
    if z.dtype.kind not in "iu":  # integral floats or bools: cast exactly first
        z = z.astype(np.int64)
    n = z.size
    if n == 0:
        return b""
    # offsets u = z + 2^(b-1) in column-major order, then zeros up to a
    # whole number of 8-code blocks; the cast wraps mod 256, so adding the
    # offset in uint8 gives u exactly whatever the integer dtype of z
    u = np.zeros((n + 7) // 8 * 8, dtype=np.uint8)
    head = u[:n]
    np.copyto(head.reshape(z.shape[::-1]), z.T, casting="unsafe")
    head += np.uint8(2 ** (bits - 1))
    u = u.reshape(-1, 8)
    out = np.zeros((u.shape[0], bits), dtype=np.uint8)
    for k in range(8):  # code k of a block starts k * bits bits in
        byte, shift = divmod(k * bits, 8)
        out[:, byte] |= u[:, k] << shift
        if shift + bits > 8:  # its high bits run into the next byte
            out[:, byte + 1] |= u[:, k] >> (8 - shift)
    return out.tobytes()[: (n * bits + 7) // 8]


def unpack_codes(payload: bytes, bits: int, dim: int, columns: int) -> np.ndarray:
    """Exact inverse of pack_codes; returns a dim x columns int8 matrix."""
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in 1..{MAX_BITS}, got {bits}")
    n = dim * columns
    need = (n * bits + 7) // 8
    if len(payload) != need:
        raise TruncatedPayloadError(
            f"payload is {len(payload)} bytes, expected {need}")
    blocks = (n + 7) // 8
    raw = np.frombuffer(payload, dtype=np.uint8)
    if raw.size != blocks * bits:  # a partial last block: zero-fill it
        raw = np.concatenate([raw, np.zeros(blocks * bits - raw.size, np.uint8)])
    raw = raw.reshape(blocks, bits)
    u = np.empty((blocks, 8), dtype=np.uint8)
    mask = np.uint8(2 ** bits - 1)
    for k in range(8):
        byte, shift = divmod(k * bits, 8)
        code = np.right_shift(raw[:, byte], shift, out=u[:, k])
        if shift + bits > 8:
            code |= raw[:, byte + 1] << (8 - shift)
        code &= mask
    # z = u - 2^(b-1) wraps mod 256 in uint8; read as int8 it is exact
    u -= np.uint8(2 ** (bits - 1))
    return u.view(np.int8).ravel()[:n].reshape(columns, dim).T


@dataclass
class ArchiveGroup:
    """One parsed group record; codes are unpacked on each access and not
    kept, so a decoded archive holds only the packed payloads."""

    codec: GroupCodec
    payload: bytes

    @property
    def codes(self) -> np.ndarray:
        return unpack_codes(self.payload, self.codec.bits, self.codec.dim,
                            self.codec.columns)

    def decode(self, out=None) -> np.ndarray:
        """The group as float64 rows x cols, or written into ``out`` (a
        float rows x cols array, cast to its dtype); decode_matrix checks
        the range of what it writes."""
        return reconstruct(self.codes, self.codec, out)


class GlvqArchive(list):
    """Parsed archive: the list of its ArchiveGroup records."""

    def decode_matrix(self) -> np.ndarray:
        """Decode every group into its column span of one row-major float32
        tensor; ArchiveError if row counts differ, or naming the first group
        with a value that overflows it.  The groups share one float64
        buffer for Z as float and G Z, sized for the largest, and each span
        is checked as it is written, so beyond the output the decode holds
        one group's temporaries."""
        rows = {g.codec.rows for g in self}
        if len(rows) > 1:
            raise ArchiveError("groups disagree on row count")
        stops = np.cumsum([0] + [g.codec.cols for g in self])
        out = np.empty((max(rows, default=0), stops[-1]), dtype=np.float32)
        scratch = np.empty(2 * max((g.codec.dim * g.codec.columns for g in self),
                                   default=0))
        with np.errstate(over="ignore"):  # an overflow leaves an inf, rejected below
            for idx, (g, a, b) in enumerate(zip(self, stops, stops[1:])):
                span = _decode(g.codes, g.codec, out[:, a:b], scratch)[2]
                if not np.isfinite(span).all():
                    raise ArchiveError(
                        f"group {idx} decodes to values outside the float32 range")
        return out

    def to_bytes(self) -> bytes:
        """The archive bytes, each record checked as write_archive checks it and
        written with its payload as stored: for records write_archive accepts,
        read_archive(b).to_bytes() == b.  Any other record raises ArchiveError,
        except a payload of the wrong length, which raises
        TruncatedPayloadError (a DataError, not an ArchiveError)."""
        out = bytearray(_HEADER.pack(MAGIC, VERSION, len(self)))
        for idx, g in enumerate(self):
            _check_record(idx, g.codec, (g.codec.dim, g.codec.columns))
            need = _payload_len(g.codec)
            if len(g.payload) != need:
                raise TruncatedPayloadError(
                    f"group {idx}: payload is {len(g.payload)} bytes, expected {need}")
            out += _record_bytes(g.codec, g.payload)
        return bytes(out)


def write_archive(records) -> bytes:
    """Serialize (codec, codes) pairs; deterministic for equal inputs."""
    records = list(records)
    out = bytearray(_HEADER.pack(MAGIC, VERSION, len(records)))
    for idx, (codec, codes) in enumerate(records):
        _check_record(idx, codec, np.shape(codes))
        out += _record_bytes(codec, pack_codes(codes, codec.bits))
    return bytes(out)


def _payload_len(codec: GroupCodec) -> int:
    """Bytes of a record's packed codes: dim * columns codes of bits each."""
    return (codec.dim * codec.columns * codec.bits + 7) // 8


def _record_bytes(codec: GroupCodec, payload: bytes) -> bytes:
    """One record: side info, payload length and the packed payload."""
    return b"".join((
        _RECORD.pack(codec.rows, codec.cols, codec.dim, codec.bits, codec.pad,
                     float(codec.scale), float(codec.mu)),
        np.ascontiguousarray(codec.basis, dtype="<f2").tobytes(),
        _PAYLEN.pack(len(payload)), payload))


def _check_geometry(idx: int, rows: int, cols: int, dim: int, bits: int) -> None:
    """Reject sizes below 1 and bits above MAX_BITS."""
    if rows < 1 or cols < 1 or dim < 1 or not 1 <= bits <= MAX_BITS:
        raise ArchiveError(f"record {idx} has invalid geometry")


def _check_decodable(idx: int, scale: float, mu: float, basis) -> None:
    """Reject side info that cannot decode: a mu that companding rejects,
    a scale that is not finite and positive, or a non-finite basis entry."""
    try:
        companding._check_mu(mu)
    except ValueError as e:
        raise ArchiveError(f"group {idx}: {e}") from None
    if not (math.isfinite(scale) and scale > 0.0):
        raise ArchiveError(f"group {idx}: scale {scale:g} is not finite and positive")
    if not np.isfinite(basis).all():
        raise ArchiveError(f"group {idx}: basis has non-finite entries")


def _check_record(idx: int, codec: GroupCodec, codes_shape) -> None:
    """Reject a record that read_archive would reject, or whose side info
    binary16 cannot hold faithfully.  The scale (a group's max |w|) must
    be a normal binary16 number: below that range it loses relative
    precision and below 2^-24 it rounds to 0, so the group would decode
    to zeros; above 65504 it overflows."""
    _check_geometry(idx, codec.rows, codec.cols, codec.dim, codec.bits)
    shapes = (np.shape(codec.basis), tuple(codes_shape))
    if shapes != ((codec.dim, codec.dim), (codec.dim, codec.columns)):
        raise ArchiveError(f"group {idx}: basis and codes have shapes {shapes}, "
                           f"not dim x dim and dim x {codec.columns}")
    _check_decodable(idx, codec.scale, codec.mu, codec.basis)
    if not _FP16_MIN_NORMAL <= codec.scale <= _FP16_MAX:
        raise ArchiveError(
            f"group {idx}: scale {codec.scale:g} (max |w| of the group) lies "
            f"outside the fp16 range [{_FP16_MIN_NORMAL:g}, {_FP16_MAX:g}]")
    if np.abs(codec.basis).max() > _FP16_MAX:
        raise ArchiveError(
            f"group {idx}: a basis entry exceeds the fp16 maximum {_FP16_MAX:g}")


def read_archive(data: bytes) -> GlvqArchive:
    """Parse archive bytes; raises a distinct error per failure mode."""
    if len(data) < _HEADER.size:
        raise TruncatedArchiveError("archive shorter than header")
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    off = _HEADER.size
    groups = []
    for idx in range(count):
        if off + _RECORD.size > len(data):
            raise TruncatedArchiveError(f"record {idx} header truncated")
        rows, cols, dim, bits, pad, scale, mu = _RECORD.unpack_from(data, off)
        off += _RECORD.size
        _check_geometry(idx, rows, cols, dim, bits)
        basis_bytes = 2 * dim * dim
        if off + basis_bytes + _PAYLEN.size > len(data):
            raise TruncatedArchiveError(f"record {idx} side info truncated")
        basis = np.frombuffer(data[off:off + basis_bytes], dtype="<f2")
        basis = basis.astype(float).reshape(dim, dim)
        _check_decodable(idx, float(scale), float(mu), basis)
        off += basis_bytes
        (payload_len,) = _PAYLEN.unpack_from(data, off)
        off += _PAYLEN.size
        codec = GroupCodec(basis=basis, mu=float(mu), bits=int(bits),
                           scale=float(scale), dim=int(dim), rows=int(rows),
                           cols=int(cols))
        if pad != codec.pad:  # the stored pad must be the one the shape fixes
            raise ArchiveError(
                f"record {idx} geometry does not tile into dim={dim} with pad={pad}")
        expected = _payload_len(codec)
        if payload_len != expected:
            raise ArchiveError(
                f"record {idx} declares {payload_len} payload bytes, expected {expected}")
        if off + payload_len > len(data):
            raise TruncatedArchiveError(f"record {idx} payload truncated")
        groups.append(ArchiveGroup(codec=codec, payload=bytes(data[off:off + payload_len])))
        off += payload_len
    if off != len(data):
        raise ArchiveError(f"{len(data) - off} trailing bytes after last record")
    return GlvqArchive(groups)


def side_info_bits(dim: int) -> int:
    """Side-information bits per group that the overhead figure counts:
    the d x d float16 basis plus one float16 curvature scalar (the
    per-group scale and record framing are excluded; see
    record_side_bytes for the on-disk figure)."""
    return 16 * dim * dim + 16


def overhead_report(dim: int, rows: int, cols: int, bits: int) -> float:
    """Side-information overhead percentage 100 * (16 d^2 + 16) / (m n b):
    side_info_bits against the packed code bits of one group."""
    for name, v in (("dim", dim), ("rows", rows), ("cols", cols), ("bits", bits)):
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    return 100.0 * side_info_bits(dim) / (rows * cols * bits)


def record_side_bytes(dim: int) -> int:
    """Actual archive bytes per group beyond the packed codes."""
    return _RECORD.size + 2 * dim * dim + _PAYLEN.size


def atomic_write_bytes(path, data) -> None:
    """Write via a temp file and rename, so failures leave no partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _manifest_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return (root if ext == ".f32" else path) + ".json"


def write_tensor_file(path, array) -> None:
    """Write a 2-D float32 tensor payload plus its JSON manifest."""
    a = np.ascontiguousarray(array, dtype="<f4")
    if a.ndim != 2:
        raise ValueError(f"tensor files hold 2-D arrays, got shape {a.shape}")
    manifest = {"shape": [int(a.shape[0]), int(a.shape[1])],
                "dtype": "f32", "layout": "row-major"}
    atomic_write_bytes(path, a)
    atomic_write_bytes(_manifest_path(path),
                       (json.dumps(manifest, indent=2) + "\n").encode())


def read_tensor_file(path) -> np.ndarray:
    """Read a tensor file; raises TensorFormatError (naming the file) or OSError."""
    manifest_path = _manifest_path(path)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, too deep
        raise TensorFormatError(f"{manifest_path}: not a JSON manifest: {e}") from e
    if (not isinstance(manifest, dict) or manifest.get("dtype") != "f32"
            or manifest.get("layout") != "row-major"):
        raise TensorFormatError(f"{manifest_path}: not an f32 row-major manifest")
    shape = manifest.get("shape")
    if (not isinstance(shape, list) or len(shape) != 2
            or not all(type(v) is int and 0 <= v <= _MAX_AXIS for v in shape)):
        raise TensorFormatError(f"{manifest_path}: bad shape {shape!r}")
    with open(path, "rb") as fh:
        payload = fh.read()
    rows, cols = shape
    if len(payload) != rows * cols * 4:
        raise TensorFormatError(f"{path}: payload is {len(payload)} bytes, "
                                f"manifest implies {rows * cols * 4}")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(float)
