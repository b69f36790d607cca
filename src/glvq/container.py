"""Bit-exact persistence for tensors and quantized archives.

Tensor files are raw little-endian float32 payloads (row-major) with a
JSON sidecar manifest: {"shape": [rows, cols], "dtype": "f32",
"layout": "row-major"}.  read_tensor_file returns the float32 array as
stored, so a layer in memory takes 4 bytes per weight until a
computation converts it to float64.  write_tensor_file writes an array
or a stream of row blocks, such as GlvqArchive.row_blocks, which decodes
an archive about 4 MiB of rows at a time, each group's run of rows from
its packed codes: a decode to a file need not hold the tensor.  Every
decode is codebook.reconstruct.

Archive layout (".glvq", all multi-byte integers little-endian):

    magic    4 bytes   b"GLVQ"
    version  u16       1
    count    u32       number of group records
  per record:
    rows u32, cols u32, dim u16, bits u8, pad u16,
    scale float16, mu float16,
    basis dim*dim float16 (row-major),
    payload_len u64, payload bytes

Codes are stored column-major as unsigned offsets u = z - lo, with
(lo, hi) = codebook.code_range(bits), the one width rule, packed
LSB-first within each byte; the final partial byte is zero padded.  So 8
consecutive codes fill exactly `bits` bytes, and pack_codes and
unpack_codes work by shifts on those whole bytes, 8 codes at a time.
The reader zero-fills a payload's last block once, mirroring the writer.
Codes are int8 on both sides, which holds every width code_range
accepts: the encoder (codebook.quantize_columns) returns int8 codes and
so does unpack_codes; pack_codes takes any integer dtype.  Side
information is rounded to IEEE binary16 (nearest-even) at write time.
Codes round-trip bit exactly.

One rule, _check_record, says which records are valid, and write_archive
and read_archive both apply it: rows, cols and dim of at least 1, bits
that code_range accepts, a mu that companding accepts (0 or in [MU_MIN,
MU_MAX]), a dim x dim basis of finite entries within binary16's range,
and a scale in binary16's normal range.  Reading also rejects a pad other
than the one rows, cols and dim fix, a payload of the wrong length, set
bits past the last code (pack_codes zero-fills them) and trailing bytes.
So every archive that read_archive accepts is exactly what write_archive
writes for its records: read_archive(b).to_bytes() == b.  `decode_matrix`
and `row_blocks` reject an archive whose decoded values do not fit
float32, naming the group.  ArchiveError covers each case.

DataError, a ValueError defined in codebook and re-exported here, marks
bad input data rather than bad settings.  ArchiveError,
TruncatedPayloadError (unpack_codes) and TensorFormatError
(read_tensor_file) derive from it.
"""

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import companding
from .codebook import DataError, GroupCodec, _check_count, code_range, reconstruct

MAGIC = b"GLVQ"
VERSION = 1
_FP16_MAX = float(np.finfo(np.float16).max)  # 65504
_FP16_MIN_NORMAL = float(np.finfo(np.float16).tiny)  # 2^-14
_MAX_AXIS = np.iinfo(np.intp).max // 8  # longest axis of a float64 array
_BLOCK_BYTES = 1 << 22  # float32 output GlvqArchive.row_blocks decodes at a time: 4 MiB

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
    z = np.asarray(codes)
    if z.size and (z.min() < lo or z.max() > hi):
        raise ValueError(f"codes outside [{lo}, {hi}] for bits={bits}")
    if z.dtype.kind not in "iu":  # integral floats or bools: cast exactly first
        z = z.astype(np.int64)
    n = z.size
    # offsets u = z - lo in column-major order, then zeros up to a
    # whole number of 8-code blocks; the cast wraps mod 256, so adding the
    # offset in uint8 gives u exactly whatever the integer dtype of z
    u = np.zeros((n + 7) // 8 * 8, dtype=np.uint8)
    head = u[:n]
    np.copyto(head.reshape(z.shape[::-1]), z.T, casting="unsafe")
    head += np.uint8(-lo)
    u = u.reshape(-1, 8)
    out = np.zeros((u.shape[0], bits), dtype=np.uint8)
    for k in range(8):  # code k of a block starts k * bits bits in
        byte, shift = divmod(k * bits, 8)
        out[:, byte] |= u[:, k] << shift
        if shift + bits > 8:  # its high bits run into the next byte
            out[:, byte + 1] |= u[:, k] >> (8 - shift)
    return out.tobytes()[: (n * bits + 7) // 8]


def _payload_blocks(payload, bits: int) -> np.ndarray:
    """A payload as one (k, bits) uint8 array of 8-code blocks, the last
    zero-filled past its end: a view of it if bits divides its length."""
    raw = np.frombuffer(payload, dtype=np.uint8)
    if raw.size % bits:
        raw = np.pad(raw, (0, -raw.size % bits))
    return raw.reshape(-1, bits)


def _unpack_blocks(raw, bits: int) -> np.ndarray:
    """The codes of a (k, bits) uint8 array of 8-code blocks, as a new
    (k, 8) int8 array: the one unpack loop, run on a whole payload by
    unpack_codes and on each row block's selection by row_blocks."""
    lo, hi = code_range(bits)
    u = np.empty((raw.shape[0], 8), dtype=np.uint8)
    mask = np.uint8(hi - lo)
    for k in range(8):
        byte, shift = divmod(k * bits, 8)
        code = np.right_shift(raw[:, byte], shift, out=u[:, k])
        if shift + bits > 8:
            code |= raw[:, byte + 1] << (8 - shift)
        code &= mask
    # z = u + lo wraps mod 256 in uint8; read as int8 it is exact
    u -= np.uint8(-lo)
    return u.view(np.int8)


def unpack_codes(payload: bytes, bits: int, dim: int, columns: int) -> np.ndarray:
    """Exact inverse of pack_codes; returns a dim x columns int8 matrix,
    _unpack_blocks of the payload's _payload_blocks array."""
    code_range(bits)
    n = dim * columns
    need = (n * bits + 7) // 8
    if len(payload) != need:
        raise TruncatedPayloadError(
            f"payload is {len(payload)} bytes, expected {need}")
    codes = _unpack_blocks(_payload_blocks(payload, bits), bits).ravel()[:n]
    return codes.reshape(columns, dim).T


def _row_span(blocks, codec: GroupCodec, r0: int, r1: int):
    """The packed codes rows [r0, r1) of a group decode from, a (cols,
    L/8, bits) array, and its skips.  Row c runs from flat code c * rows
    + r0 - s, s = skips[c % len(skips)] its skip back to a multiple of
    lcm(8, dim), a whole block and vector; L, a multiple of that lcm,
    covers every skip plus r1 - r0.  ``blocks`` is a _payload_blocks array."""
    rows, cols = codec.rows, codec.cols
    grid = math.lcm(8, codec.dim)
    if rows % grid == 0 and r0 % grid == 0 and r1 % grid == 0:
        # rows [r0, r1) of column c are flat codes c * rows + r0 ..
        # c * rows + r1: one run of whole blocks per column, a strided view
        return blocks.reshape(cols, rows // 8, -1)[:, r0 // 8:r1 // 8], (0,)
    first = np.arange(cols) * rows + r0
    skip = first % grid
    length = -(-(int(skip.max()) + r1 - r0) // grid) * grid
    idx = (first - skip)[:, None] // 8 + np.arange(length // 8)
    # a block past the payload's last is clipped to it: its codes go unused
    packed = np.take(blocks, idx, axis=0, mode="clip")
    # skips repeat every grid / gcd(rows, grid) columns
    return packed, skip[:grid // math.gcd(rows, grid)]


def _decode_rows(codes, codec: GroupCodec, skips, out, scratch):
    """reconstruct of the rows [r0, r1) of _row_span's span, unpacked to
    (cols, L) ``codes``, by its ``skips`` into ``out``, a float (r1 - r0)
    x cols array, returned.  Unless L == r1 - r0, the span decodes into a
    new L x cols part, and one strided slice per skip copies from it."""
    cols, length = codes.shape
    n = out.shape[0]
    # row c of the codes, cut into dim-long vectors, is column c of a
    # group of `length` rows
    latent = codes.reshape(-1, codec.dim).T
    if length == n:
        return reconstruct(latent, replace(codec, rows=n), out, scratch)
    part = reconstruct(latent, replace(codec, rows=length),
                       np.empty((cols, length), out.dtype).T, scratch)
    period = len(skips)
    for c, s in enumerate(skips):
        out[:, c::period] = part[s:s + n, c::period]
    return out


def _unpack_spans(packed, widths):
    """Each (cols, k, bits) span as its (cols, 8k) int8 codes, with one
    _unpack_blocks call per width."""
    codes = [None] * len(packed)
    for bits in set(widths):
        members = [i for i, w in enumerate(widths) if w == bits]
        raw = np.concatenate([packed[i].reshape(-1, bits) for i in members])
        stops = np.cumsum([packed[i].shape[0] * packed[i].shape[1] for i in members])
        for i, part in zip(members, np.split(_unpack_blocks(raw, bits), stops[:-1])):
            codes[i] = part.reshape(packed[i].shape[0], -1)
    return codes


def _check_span(idx: int, span) -> None:
    """ArchiveError naming group ``idx`` if its decoded ``span`` holds
    the inf an overflow leaves under np.errstate(over="ignore")."""
    if not np.isfinite(span).all():
        raise ArchiveError(f"group {idx} decodes to values outside the float32 range")


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
        """The group as a new float64 rows x cols array (unchecked range;
        decode_matrix checks what it writes)."""
        return reconstruct(self.codes, self.codec)


class GlvqArchive(list):
    """Parsed archive: the list of its ArchiveGroup records."""

    def _layout(self):
        """(rows, the column stops of the groups), or ArchiveError if the
        groups disagree on row count."""
        rows = {g.codec.rows for g in self}
        if len(rows) > 1:
            raise ArchiveError("groups disagree on row count")
        return max(rows, default=0), np.cumsum([0] + [g.codec.cols for g in self])

    def decode_matrix(self) -> np.ndarray:
        """reconstruct every group into its column span of one row-major
        float32 tensor; ArchiveError if row counts differ, or naming the
        first group with a value that overflows it.  The groups share one
        scratch buffer, sized for the largest, and codes are unpacked one
        group at a time, so beyond the output the decode holds one group's
        temporaries.  row_blocks gives the same bytes without holding the
        output."""
        rows, stops = self._layout()
        out = np.empty((rows, stops[-1]), dtype=np.float32)
        scratch = np.empty(2 * max((g.codec.dim * g.codec.columns for g in self),
                                   default=0))
        for idx, (g, a, b) in enumerate(zip(self, stops, stops[1:])):
            with np.errstate(over="ignore"):
                _check_span(idx, reconstruct(g.codes, g.codec, out[:, a:b], scratch))
        return out

    def row_blocks(self):
        """decode_matrix's tensor as consecutive row-major float32 row
        blocks of about _BLOCK_BYTES each, for write_tensor_file.  Each
        block is a view of one buffer that the next block overwrites: copy
        a block to keep it.  Checks row counts before the first block.
        Each block unpacks only its own codes, straight from the payloads
        (_row_span, one _unpack_blocks call per width), for _decode_rows,
        so the stream holds the payloads (padded copies of those that end
        inside a block), one block and its codes.  Rows per block round
        down to a multiple of the lcm of 8 and the groups' dims when it
        fits, so that a group's rows are a view of its payload.  A group
        that overflows float32 in a block raises ArchiveError naming it;
        the blocks before it have been given."""
        rows, stops = self._layout()
        step = min(rows, _BLOCK_BYTES // (4 * max(stops[-1], 1)))
        lcm = math.lcm(8, *(g.codec.dim for g in self))
        if lcm <= step < rows:
            step -= step % lcm  # whole blocks and vectors of every group
        step = max(1, step)
        blocks = [_payload_blocks(g.payload, g.codec.bits) for g in self]
        widths = [g.codec.bits for g in self]
        buf = np.empty((step, stops[-1]), dtype=np.float32)
        # reconstruct's scratch: 2 values a code, step + 2 lcm(8, dim) codes a column
        scratch = np.empty(2 * max((g.codec.cols * (step + 2 * math.lcm(8, g.codec.dim))
                                    for g in self), default=0))
        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            block = buf[:r1 - r0]
            spans = [_row_span(p, g.codec, r0, r1) for p, g in zip(blocks, self)]
            codes = _unpack_spans([packed for packed, _ in spans], widths)
            with np.errstate(over="ignore"):
                for idx, (a, b) in enumerate(zip(stops, stops[1:])):
                    _check_span(idx, _decode_rows(codes[idx], self[idx].codec,
                                                  spans[idx][1], block[:, a:b], scratch))
            del spans, codes  # no codes outlive their block
            yield block

    def to_bytes(self) -> bytes:
        """write_archive of the parsed codes: read_archive(b).to_bytes() == b
        for every archive read_archive accepts.  A record edited after
        parsing is checked as write_archive checks it; a payload of the
        wrong length raises TruncatedPayloadError from unpack_codes."""
        return write_archive((g.codec, g.codes) for g in self)


def write_archive(records) -> bytes:
    """Serialize (codec, codes) pairs; deterministic for equal inputs.
    Each codec must pass _check_record and its codes be dim x columns,
    or ArchiveError names the record."""
    records = list(records)
    out = bytearray(_HEADER.pack(MAGIC, VERSION, len(records)))
    for idx, (codec, codes) in enumerate(records):
        _check_record(idx, codec)
        if np.shape(codes) != (codec.dim, codec.columns):
            raise ArchiveError(f"group {idx}: codes have shape {np.shape(codes)}, "
                               f"not dim x columns {(codec.dim, codec.columns)}")
        payload = pack_codes(codes, codec.bits)
        out += _RECORD.pack(codec.rows, codec.cols, codec.dim, codec.bits, codec.pad,
                            float(codec.scale), float(codec.mu))
        out += np.ascontiguousarray(codec.basis, dtype="<f2").tobytes()
        out += _PAYLEN.pack(len(payload))
        out += payload
    return bytes(out)


def _check_record(idx: int, codec: GroupCodec) -> None:
    """The one record rule, which write_archive and read_archive both apply:
    rows, cols and dim of at least 1, bits code_range accepts, a mu that
    companding accepts, a dim x dim basis of finite entries within fp16's
    range, and a scale (a group's max |w|) that is a normal fp16 number:
    below that range it loses relative precision and below 2^-24 it rounds
    to 0, so the group would decode to zeros; above 65504 it overflows."""
    if codec.rows < 1 or codec.cols < 1 or codec.dim < 1:
        raise ArchiveError(f"record {idx} has invalid geometry")
    try:
        code_range(codec.bits)
        companding._check_mu(codec.mu)
    except ValueError as e:
        raise ArchiveError(f"group {idx}: {e}") from None
    if np.shape(codec.basis) != (codec.dim, codec.dim):
        raise ArchiveError(f"group {idx}: basis has shape {np.shape(codec.basis)}, "
                           f"not dim x dim {(codec.dim, codec.dim)}")
    if not (np.abs(codec.basis) <= _FP16_MAX).all():
        raise ArchiveError(f"group {idx}: basis has entries that are non-finite "
                           f"or beyond the fp16 maximum {_FP16_MAX:g}")
    if not _FP16_MIN_NORMAL <= codec.scale <= _FP16_MAX:
        raise ArchiveError(
            f"group {idx}: scale {codec.scale:g} (max |w| of the group) lies "
            f"outside the fp16 range [{_FP16_MIN_NORMAL:g}, {_FP16_MAX:g}]")


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
        basis_bytes = 2 * dim * dim
        if off + basis_bytes + _PAYLEN.size > len(data):
            raise TruncatedArchiveError(f"record {idx} side info truncated")
        basis = np.frombuffer(data[off:off + basis_bytes], dtype="<f2")
        codec = GroupCodec(basis=basis.astype(float).reshape(dim, dim), mu=mu,
                           bits=bits, scale=scale, dim=dim, rows=rows, cols=cols)
        _check_record(idx, codec)
        off += basis_bytes
        (payload_len,) = _PAYLEN.unpack_from(data, off)
        off += _PAYLEN.size
        if pad != codec.pad:  # the stored pad must be the one the shape fixes
            raise ArchiveError(
                f"record {idx} geometry does not tile into dim={dim} with pad={pad}")
        code_bits = dim * codec.columns * bits
        expected = (code_bits + 7) // 8
        if payload_len != expected:
            raise ArchiveError(
                f"record {idx} declares {payload_len} payload bytes, expected {expected}")
        if off + payload_len > len(data):
            raise TruncatedArchiveError(f"record {idx} payload truncated")
        payload = bytes(data[off:off + payload_len])
        used = code_bits % 8  # code bits of the last byte, 0 if all 8
        if used and payload[-1] >> used:  # pack_codes zero-fills the rest
            raise ArchiveError(f"record {idx} sets bits past its last code")
        groups.append(ArchiveGroup(codec=codec, payload=payload))
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
    side_info_bits against the packed code bits of one group.  ValueError
    unless dim, rows and cols are counts and bits a width code_range holds."""
    for name, v in (("dim", dim), ("rows", rows), ("cols", cols)):
        _check_count(name, v)
    code_range(bits)
    return 100.0 * side_info_bits(dim) / (rows * cols * bits)


def record_side_bytes(dim: int) -> int:
    """Actual archive bytes per group beyond the packed codes."""
    return _RECORD.size + 2 * dim * dim + _PAYLEN.size


@contextlib.contextmanager
def _atomic_file(path):
    """A binary file that replaces ``path`` when the block ends; on any
    failure it is removed, so failures leave no partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, data) -> None:
    """Write via a temp file and rename, so failures leave no partial file."""
    with _atomic_file(path) as fh:
        fh.write(data)


def _manifest_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return (root if ext == ".f32" else path) + ".json"


def write_tensor_file(path, blocks):
    """Write a float32 tensor payload plus its JSON manifest, and return
    its (rows, cols).  ``blocks`` is a 2-D array, or an iterable of 2-D
    row blocks of one column count (GlvqArchive.row_blocks), written as
    they come; no blocks make a 0 x 0 tensor.  The payload goes through a
    temp file and the manifest is written last; if either fails, neither
    file is left.  ValueError for a block that is not 2-D or changes the
    column count."""
    if isinstance(blocks, np.ndarray):
        blocks = (blocks,)
    rows, cols = 0, None
    with _atomic_file(path) as fh:
        for block in blocks:
            a = np.ascontiguousarray(block, dtype="<f4")
            if a.ndim != 2:
                raise ValueError(f"tensor files hold 2-D arrays, got shape {a.shape}")
            if cols not in (None, a.shape[1]):
                raise ValueError(f"a row block of {a.shape[1]} columns "
                                 f"follows blocks of {cols}")
            fh.write(a)
            rows, cols = rows + a.shape[0], a.shape[1]
    shape = (rows, cols or 0)
    manifest = {"shape": list(shape), "dtype": "f32", "layout": "row-major"}
    try:
        atomic_write_bytes(_manifest_path(path),
                           (json.dumps(manifest, indent=2) + "\n").encode())
    except BaseException:  # a payload without its manifest is no tensor file
        os.unlink(path)
        raise
    return shape


def read_tensor_file(path) -> np.ndarray:
    """Read a tensor file as the float32 array it stores: a new writable,
    C-contiguous rows x cols array, read straight from the file, that
    callers convert to float64 where a computation needs it.  Raises
    TensorFormatError (naming the file) or OSError."""
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
    rows, cols = shape
    with open(path, "rb") as fh:
        # the length is checked first, so a bad manifest allocates nothing
        size = os.fstat(fh.fileno()).st_size
        if size != rows * cols * 4:
            raise TensorFormatError(
                f"{path}: payload is {size} bytes, manifest implies {rows * cols * 4}")
        return np.fromfile(fh, dtype="<f4", count=rows * cols).reshape(rows, cols)
