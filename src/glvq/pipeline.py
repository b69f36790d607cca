"""Layer-level quantization pipeline.

Partitions a weight matrix into column groups, optionally runs
salience-driven bit allocation, fits every group's codec, and assembles
archive records plus evaluation metrics.  A run's settings are one
codebook.RunConfig, which this module re-exports.
"""

import ctypes
import os
from dataclasses import dataclass, field

import numpy as np

from . import bitalloc, codebook, container
from .codebook import RunConfig


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


def _fit(job):
    """Fit one group: ``job`` is (weights, calib rows, bits, RunConfig)."""
    g, x, bits, config = job
    return codebook.fit_group(g, x, dim=config.dim, bits=bits, config=config)


# OpenBLAS's thread-count setters, by symbol prefix and suffix of its builds
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads", "openblas_set_num_threads")


def _one_blas_thread():
    """Give every OpenBLAS loaded in this process one thread; returns the
    paths of the libraries set.  A worker's BLAS threads share its one
    CPU and spin against it: with OpenBLAS's default of one thread per
    CPU, a 2-worker fit of a 64x4096 layer took 11 s instead of 0.45 s."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    done = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, n) for n in _BLAS_SETTERS if hasattr(lib, n)), None)
        if setter is not None:
            setter(1)
            done.append(path)
    return done


_worker_jobs = None  # a fork worker's copy of the jobs, set by _start_worker
_PR_SET_PDEATHSIG = 1  # prctl option of <linux/prctl.h>


def _start_worker(jobs, cpus, parent):
    """Pool initializer: keep the jobs, which the worker has by fork, pin
    the worker to one CPU of the queue ``cpus``, give BLAS one thread, and
    have the kernel kill the worker when its parent process ``parent``
    dies, since it would otherwise wait for jobs forever.  Unpinned, the
    kernel was seen to keep two workers on one CPU."""
    import signal  # loaded by multiprocessing already; see _fit_all

    global _worker_jobs
    _worker_jobs = jobs
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it died before the prctl
        os._exit(1)
    os.sched_setaffinity(0, {cpus.get()})
    _one_blas_thread()


def _fit_in_worker(i):
    return _fit(_worker_jobs[i])


def _fit_all(jobs, parallel):
    """_fit over the jobs, in order.  With ``parallel``, over fork workers,
    one per CPU of this process's affinity set and at most one per job;
    in this process otherwise, or when that set has one CPU or the
    platform has no affinity call.  A fit's exception is re-raised here
    with its type; the workers are joined before this returns."""
    cpus = []
    if parallel and hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))[:len(jobs)]
    if len(cpus) < 2:
        return [_fit(job) for job in jobs]
    # imported here: a CLI run that fits nothing, such as dequantize, would
    # pay for them in start-up time and resident memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()
    for cpu in cpus:
        queue.put(cpu)
    try:
        with ProcessPoolExecutor(len(cpus), mp_context=ctx, initializer=_start_worker,
                                 initargs=(jobs, queue, os.getpid())) as pool:
            # on an error, map cancels the fits that have not started
            return list(pool.map(_fit_in_worker, range(len(jobs))))
    finally:
        queue.close()


def quantize_matrix(weights, calib, config: RunConfig, parallel: bool = False) -> QuantizeResult:
    """Run the two-stage pipeline: allocate bit-widths, then fit groups.
    Bad settings raise ValueError, bad inputs codebook.DataError.

    ``parallel`` fits the groups in processes forked from this one (Linux
    only): one per CPU of this process's affinity set, capped at the
    group count, each pinned to its CPU and given one BLAS thread.  The
    result is the same either way.  The default fits in this process:
    only a caller that holds no threads may fork, and ``glvq quantize``
    passes True."""
    w, x = codebook.check_inputs(weights, calib)

    spans = partition_columns(w.shape[1], config.group_width)
    groups = [w[:, a:b] for a, b in spans]
    n_groups = len(groups)

    if config.bit_alloc and n_groups >= 2:
        bits = bitalloc.allocate_bits(groups, x, config.bits)
    elif bitalloc.is_integer_target(config.bits):
        bits = np.full(n_groups, round(config.bits), dtype=np.int64)
    else:
        raise ValueError("fractional bit targets need bit allocation over >= 2 groups")

    jobs = [(g, x[a:b, :], int(bg), config) for (a, b), g, bg in zip(spans, groups, bits)]
    fits = _fit_all(jobs, parallel)
    return QuantizeResult(records=[(codec, codes) for codec, codes, _ in fits],
                          spans=spans, bits=bits, reports=[r for _, _, r in fits])


def metrics(weights, w_hat, calib) -> dict:
    """Weight-space MSE, output-space MSE and output KL of a
    reconstruction ``w_hat`` of ``weights`` under calibration ``calib``."""
    m = weights.shape[0]
    t = calib.shape[1]
    out_ref = weights @ calib
    # a float32 decode is cast to float64 once and dw is taken in that copy
    # (a float64 w_hat is the caller's): one layer-sized allocation, not a
    # cast for the product plus dw, whose heap placement moved peaks 1.8 MB
    w64 = np.asarray(w_hat, dtype=float)
    out_hat = w64 @ calib
    dout = out_hat - out_ref
    dw = np.subtract(w64, weights, out=None if w64 is w_hat else w64)
    return {
        "weight_mse": float(np.multiply(dw, dw, out=dw).mean()),
        "output_mse": float((dout * dout).sum() / (m * t)),
        "kl": bitalloc.kl_objective(out_ref, out_hat),
    }


def evaluate(original, archive: container.GlvqArchive, calib) -> dict:
    """Error metrics of an archive against the original weights, scored on
    the float32 tensor decode_matrix returns (the one dequantize writes);
    inputs that do not fit it raise codebook.DataError before any decoding."""
    w, x = codebook.check_inputs(original, calib)
    rows, cols = {g.codec.rows for g in archive}, sum(g.codec.cols for g in archive)
    if rows != {w.shape[0]} or cols != w.shape[1]:
        raise codebook.DataError(
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
