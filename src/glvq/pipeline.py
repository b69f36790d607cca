"""Layer-level quantization pipeline.

Partitions a weight matrix into column groups, optionally runs
salience-driven bit allocation, fits every group's codec, and assembles
archive records plus evaluation metrics.
"""

from dataclasses import dataclass, field

import numpy as np

from . import bitalloc, codebook, container


@dataclass
class RunConfig(codebook.FitConfig):
    """Everything a quantization run needs besides the tensors: the
    optimizer settings of every group's fit plus the layer-level ones."""

    dim: int = 8
    bits: float = 2.0
    group_width: int = 128
    bit_alloc: bool = True

    def validate(self) -> None:
        super().validate()
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 1.0 <= self.bits <= codebook.MAX_BITS:
            raise ValueError(
                f"bits must lie in [1, {codebook.MAX_BITS}], got {self.bits}")
        if self.group_width < 1:
            raise ValueError(f"group_width must be >= 1, got {self.group_width}")


@dataclass
class QuantizeResult:
    records: list  # (GroupCodec, codes) per group, in column order
    spans: list  # (start, stop) column span per group
    bits: np.ndarray
    reports: list = field(default_factory=list)

    def archive_bytes(self) -> bytes:
        return container.write_archive(self.records)

    def mean_bits(self) -> float:
        weights = np.array([(b - a) for a, b in self.spans], dtype=float)
        return float((self.bits * weights).sum() / weights.sum())


def partition_columns(cols: int, width: int):
    """Column spans [start, stop) of at most ``width`` columns each."""
    return [(a, min(a + width, cols)) for a in range(0, cols, width)]


def _check_inputs(weights, calib):
    """Float weights and calib, or container.DataError unless both are 2-D,
    non-empty and finite, with one calib row per weight column."""
    w = np.asarray(weights, dtype=float)
    x = np.asarray(calib, dtype=float)
    if w.ndim != 2 or x.ndim != 2 or w.size == 0 or x.size == 0:
        raise container.DataError(
            f"weights {w.shape} and calib {x.shape} must be 2-D and non-empty")
    if w.shape[1] != x.shape[0]:
        raise container.DataError(
            f"calib feature dim {x.shape[0]} does not match weight columns {w.shape[1]}")
    for name, a in (("weights", w), ("calib", x)):
        if not np.all(np.isfinite(a)):
            raise container.DataError(f"non-finite entries in {name}")
    return w, x


def quantize_matrix(weights, calib, config: RunConfig) -> QuantizeResult:
    """Run the two-stage pipeline: allocate bit-widths, then fit groups.
    Bad settings raise ValueError, bad inputs container.DataError."""
    config.validate()
    w, x = _check_inputs(weights, calib)

    spans = partition_columns(w.shape[1], config.group_width)
    groups = [w[:, a:b] for a, b in spans]
    n_groups = len(groups)

    if config.bit_alloc and n_groups >= 2:
        bits = bitalloc.allocate_bits(groups, x, config.bits)
    elif bitalloc.is_integer_target(config.bits):
        bits = np.full(n_groups, round(config.bits), dtype=np.int64)
    else:
        raise ValueError("fractional bit targets need bit allocation over >= 2 groups")

    records, reports = [], []
    for (a, b), g, bg in zip(spans, groups, bits):
        codec, codes, report = codebook.fit_group(
            g, x[a:b, :], dim=config.dim, bits=int(bg), config=config)
        records.append((codec, codes))
        reports.append(report)
    return QuantizeResult(records=records, spans=spans, bits=bits, reports=reports)


def metrics(weights, w_hat, calib) -> dict:
    """Weight-space MSE, output-space MSE and output KL of a
    reconstruction ``w_hat`` of ``weights`` under calibration ``calib``."""
    m = weights.shape[0]
    t = calib.shape[1]
    dw = w_hat - weights
    out_ref = weights @ calib
    out_hat = w_hat @ calib
    dout = out_hat - out_ref
    return {
        "weight_mse": float((dw * dw).mean()),
        "output_mse": float((dout * dout).sum() / (m * t)),
        "kl": bitalloc.kl_objective(out_ref, out_hat),
    }


def evaluate(original, archive: container.GlvqArchive, calib) -> dict:
    """Error metrics of an archive against the original weights; inputs
    that do not fit it raise container.DataError before any decoding."""
    w, x = _check_inputs(original, calib)
    rows, cols = {g.codec.rows for g in archive}, sum(g.codec.cols for g in archive)
    if rows != {w.shape[0]} or cols != w.shape[1]:
        raise container.DataError(
            f"archive has {cols} columns of {sorted(rows)} rows, original is {w.shape}")
    w_hat = archive.decode_matrix()
    total_weights = sum(g.codec.rows * g.codec.cols for g in archive)
    code_bits = sum(g.codec.bits * g.codec.rows * g.codec.cols for g in archive)
    side_bits = sum(container.side_info_bits(g.codec.dim) for g in archive)
    side_actual = sum(container.record_side_bytes(g.codec.dim) for g in archive)
    return {
        **metrics(w, w_hat, x),
        "bits_per_weight": code_bits / total_weights,
        "overhead_pct": 100.0 * side_bits / code_bits,
        "actual_side_bytes": side_actual,
    }
