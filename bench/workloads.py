"""Workload definitions and seeded input generation.

Every workload quantizes synthetic layers whose weights are Student-t
(4 degrees of freedom, the repository's synthetic convention) with a
per-group magnitude 4^u, u ~ U(-1, 1), and whose calibration features
are standard Gaussian.  The u values are stratified (evenly spaced over
(-1, 1), then shuffled by the seed), so every layer spans the full
magnitude range and salience allocation always has the same spread to
work with.  The seed fixes every input; the program only sees the files.

A run quantizes several distinct layers drawn from the seed, because the
fit cost of one layer depends on its data (optimizer convergence moves
it by up to a quarter from layer to layer); averaging over the layers of
a run keeps run-to-run spread low.
"""

from dataclasses import dataclass

import numpy as np

DIM = 8
WIDTH = 128
STUDENT_T_DOF = 4


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    calib: int  # calibration length T
    bits: float  # target mean code bits per weight
    layers: int  # distinct seeded layers quantized per pass
    decodes: int  # glvq dequantize runs after each quantize
    quantizer: str  # "cli": glvq quantize; "init": optimizer-free build_archive.py
    why: str

    @property
    def groups(self) -> int:
        return self.cols // WIDTH


WORKLOADS = {w.name: w for w in (
    # 32 groups of 64x128 at T=128: many short fits with salience-driven
    # bit allocation and companding.  Traced, Babai rounding, check_basis
    # and the companding transforms take 54-55% of an operation's time and
    # fit_group's own time 26% (seeds 1-3 and 21).  T is about the group
    # width, so a Hessian-form loss barely moves it; cross-group batching
    # should.  The 1.5-bit target puts the more salient half of the groups
    # at 2 bits and the rest at 1 bit, so the zero-decode collapse of 1-bit
    # groups shows.  An integer target would let the KL probe pick anywhere
    # from 2 to 16 swapped groups from seed to seed, which moves a layer's
    # quantize time by a quarter; the probe is covered by long_calib.
    # 64 rows (not 256) keep a layer near 2 s, so a run takes a median
    # over a dozen layers.
    Workload("many_groups", rows=64, cols=4096, calib=128, bits=1.5, layers=11,
             decodes=2, quantizer="cli",
             why="32 short SDBA fits per layer at 1.5 bits and T=128: Babai, "
                 "check_basis and companding take 55% of traced time"),
    # 4 groups at T=2048 = 16 x group width.  Traced, fit_group's own time
    # is 72-74% of quantize_matrix (seeds 1-3 and 21).  Per proposal it is
    # 1.05 ms at T=128 and 6.5 ms at T=2048, so about 90% of it grows with
    # T: the O(rows * cols * T) loss and gradient matmuls.  A Hessian-form
    # loss shows here and cross-group batching has little to batch.  A
    # 3-bit target gives 2- and 4-bit groups, so 4-bit packing is covered.
    # 128 rows (not 512) keep a layer near 4 s for the same reason as above.
    Workload("long_calib", rows=128, cols=512, calib=2048, bits=3, layers=7,
             decodes=2, quantizer="cli",
             why="4 groups with T=2048: fit_group's own time, mostly the "
                 "O(m n T) loss and gradient matmuls, is 72% of traced "
                 "quantize time"),
    # The read side at scale: a 4096x4096 archive with mixed 1/2/3-bit
    # groups, built without the optimizer (init_codec, quantize_columns,
    # write_archive), then decoded by glvq dequantize to a 64 MB tensor.
    Workload("decode_large", rows=4096, cols=4096, calib=128, bits=2,
             layers=1, decodes=4, quantizer="init",
             why="parse, unpack and reconstruct of a 4096x4096 archive; "
                 "peak memory of the decode"),
)}


def make_layer(seed: int, index: int, wl: Workload):
    """Weights (rows x cols) and calibration (cols x T), both float32."""
    rng = np.random.default_rng([seed, index])
    u = rng.permutation(-1.0 + (2.0 * np.arange(wl.groups) + 1.0) / wl.groups)
    w = np.empty((wl.rows, wl.cols), dtype=np.float32)
    for g in range(wl.groups):
        block = rng.standard_t(STUDENT_T_DOF, size=(wl.rows, WIDTH))
        w[:, g * WIDTH:(g + 1) * WIDTH] = block * 4.0 ** u[g]
    x = rng.standard_normal((wl.cols, wl.calib)).astype(np.float32)
    return w, x


def init_bits(seed: int, wl: Workload) -> list:
    """Per-group widths for an optimizer-free build: a quarter of the
    groups at bits-1, a quarter at bits+1, the rest at bits, shuffled."""
    quarter = wl.groups // 4
    widths = ([wl.bits - 1] * quarter + [wl.bits + 1] * quarter
              + [wl.bits] * (wl.groups - 2 * quarter))
    order = np.random.default_rng([seed, 0, 0]).permutation(wl.groups)
    return [int(widths[i]) for i in order]
