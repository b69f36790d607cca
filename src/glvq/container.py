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
padded.  Side information is rounded to IEEE binary16 (nearest-even);
a scale outside binary16's normal range, or a basis entry beyond its
maximum, is rejected at write time.  Codes round-trip bit exactly.

Reading rejects a record with zero rows or columns, a pad that does not
tile rows*cols into dim-long columns, a mu that companding does not
accept (neither 0 nor in [MU_MIN, MU_MAX]), a scale that is not finite
and positive, or a non-finite basis entry; writing rejects the same
records, so whatever it writes parses.  `decode_matrix` rejects an archive
whose decoded values do not fit float32.  ArchiveError covers each case.

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
from .codebook import MAX_BITS, DataError, GroupCodec, code_range, reconstruct

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
    u = (z.astype(np.int64).ravel(order="F") + 2 ** (bits - 1)).astype(np.uint8)
    if u.size == 0:
        return b""
    bitmat = np.unpackbits(u[:, None], axis=1, bitorder="little")[:, :bits]
    return np.packbits(bitmat.ravel(), bitorder="little").tobytes()


def unpack_codes(payload: bytes, bits: int, dim: int, columns: int) -> np.ndarray:
    """Exact inverse of pack_codes; returns a dim x columns int matrix."""
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in 1..{MAX_BITS}, got {bits}")
    n = dim * columns
    need = (n * bits + 7) // 8
    if len(payload) != need:
        raise TruncatedPayloadError(
            f"payload is {len(payload)} bytes, expected {need}")
    if n == 0:
        return np.zeros((dim, columns), dtype=np.int64)
    raw = np.frombuffer(payload, dtype=np.uint8)
    bitstream = np.unpackbits(raw, bitorder="little")[: n * bits].reshape(n, bits)
    u = bitstream @ (1 << np.arange(bits, dtype=np.int64))
    z = u.astype(np.int64) - 2 ** (bits - 1)
    return z.reshape((dim, columns), order="F")


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

    def decode(self) -> np.ndarray:
        """The group as float64 rows x cols; decode_matrix checks its range."""
        return reconstruct(self.codes, self.codec)


class GlvqArchive:
    """Parsed archive: a sequence of ArchiveGroup records."""

    def __init__(self, groups):
        self.groups = list(groups)

    def __len__(self):
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def __getitem__(self, i):
        return self.groups[i]

    def decode_matrix(self) -> np.ndarray:
        """Decode every group into its column span of one row-major float32
        tensor; ArchiveError if row counts differ or a value overflows it."""
        rows = {g.codec.rows for g in self.groups}
        if len(rows) > 1:
            raise ArchiveError("groups disagree on row count")
        stops = np.cumsum([0] + [g.codec.cols for g in self.groups])
        out = np.empty((max(rows, default=0), stops[-1]), dtype=np.float32)
        with np.errstate(over="ignore"):  # an overflow leaves an inf, rejected below
            for g, a, b in zip(self.groups, stops, stops[1:]):
                # the name keeps each decode alive through the next, so malloc
                # reuses its temporaries' pages instead of returning them to the OS
                decoded = g.decode()
                out[:, a:b] = decoded
        if not np.isfinite(out).all():
            raise ArchiveError("archive decodes to values outside the float32 range")
        return out

    def to_bytes(self) -> bytes:
        return write_archive((g.codec, g.codes) for g in self.groups)


def write_archive(records) -> bytes:
    """Serialize (codec, codes) pairs; deterministic for equal inputs."""
    records = list(records)
    out = bytearray(_HEADER.pack(MAGIC, VERSION, len(records)))
    for idx, (codec, codes) in enumerate(records):
        _check_record(idx, codec, codes)
        payload = pack_codes(codes, codec.bits)
        out += _RECORD.pack(codec.rows, codec.cols, codec.dim, codec.bits,
                            codec.pad, float(codec.scale), float(codec.mu))
        out += np.ascontiguousarray(codec.basis, dtype="<f2").tobytes()
        out += _PAYLEN.pack(len(payload))
        out += payload
    return bytes(out)


def _check_geometry(idx: int, rows: int, cols: int, dim: int, bits: int,
                    pad: int) -> None:
    """Reject sizes below 1, bits above MAX_BITS, and a pad other than the
    zero count that tiles rows*cols into dim-long columns."""
    if rows < 1 or cols < 1 or dim < 1 or not 1 <= bits <= MAX_BITS:
        raise ArchiveError(f"record {idx} has invalid geometry")
    if pad != (-rows * cols) % dim:
        raise ArchiveError(
            f"record {idx} geometry does not tile into dim={dim} with pad={pad}")


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


def _check_record(idx: int, codec: GroupCodec, codes) -> None:
    """Reject a record that read_archive would reject, or whose side info
    binary16 cannot hold faithfully.  The scale (a group's max |w|) must
    be a normal binary16 number: below that range it loses relative
    precision and below 2^-24 it rounds to 0, so the group would decode
    to zeros; above 65504 it overflows."""
    _check_geometry(idx, codec.rows, codec.cols, codec.dim, codec.bits, codec.pad)
    shapes = (np.shape(codec.basis), np.shape(codes))
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
        _check_geometry(idx, rows, cols, dim, bits, pad)
        basis_bytes = 2 * dim * dim
        if off + basis_bytes + _PAYLEN.size > len(data):
            raise TruncatedArchiveError(f"record {idx} side info truncated")
        basis = np.frombuffer(data[off:off + basis_bytes], dtype="<f2")
        basis = basis.astype(float).reshape(dim, dim)
        _check_decodable(idx, float(scale), float(mu), basis)
        off += basis_bytes
        (payload_len,) = _PAYLEN.unpack_from(data, off)
        off += _PAYLEN.size
        columns = (rows * cols + pad) // dim
        expected = (dim * columns * bits + 7) // 8
        if payload_len != expected:
            raise ArchiveError(
                f"record {idx} declares {payload_len} payload bytes, expected {expected}")
        if off + payload_len > len(data):
            raise TruncatedArchiveError(f"record {idx} payload truncated")
        payload = bytes(data[off:off + payload_len])
        off += payload_len
        codec = GroupCodec(basis=basis, mu=float(mu), bits=int(bits),
                           scale=float(scale), dim=int(dim), pad=int(pad),
                           rows=int(rows), cols=int(cols))
        groups.append(ArchiveGroup(codec=codec, payload=payload))
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
