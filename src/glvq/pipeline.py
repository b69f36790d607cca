"""Layer-level quantization pipeline.

Partitions a weight matrix into column groups, optionally runs
salience-driven bit allocation, fits every group's codec, and assembles
archive records plus evaluation metrics.  A run's settings are one
codebook.RunConfig; this module re-exports it and the column cut,
codebook.partition_columns.

Every group has its own codec, so the fits are independent.  A parallel
run forks its fit workers directly and talks to each over two pipes
(_fit_all): job indices go down one and (index, ok, fit or exception)
come back up the other, each a pickle.  It does not load
multiprocessing or concurrent.futures, whose import and executor set-up
cost a quantize about 20 ms before its first fit.
"""

import ctypes
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from . import bitalloc, codebook, container
from .codebook import RunConfig, partition_columns


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


_PR_SET_PDEATHSIG = 1  # prctl option of <linux/prctl.h>


def _serve(jobs, cpu, parent, orders, replies):
    """A fork worker's loop: have the kernel kill this process when its
    parent ``parent`` dies, since it would otherwise wait for orders
    forever; pin it to ``cpu`` and give BLAS one thread; then fit each
    job index unpickled from the file ``orders`` and pickle (index, ok,
    fit or exception) to the buffered file ``replies``, flushed after each
    reply: a raw write can be short, and pickle ignores the count it
    returns.  Unpinned, the kernel was seen to keep two workers on one
    CPU."""
    import signal  # loaded by _fit_all already

    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it died before the prctl
        return
    os.sched_setaffinity(0, {cpu})
    _one_blas_thread()
    while True:
        try:
            i = pickle.load(orders)
        except EOFError:  # the parent closed the pipe: no more jobs
            return
        try:
            reply = (i, True, _fit(jobs[i]))
        except Exception as e:
            reply = (i, False, e)
        pickle.dump(reply, replies)
        replies.flush()


def _fit_all(jobs, parallel):
    """_fit over the jobs, in order.  With ``parallel``, over workers
    forked from this process, one per CPU of its affinity set and at most
    one per job; in this process otherwise, or when that set has one CPU
    or the platform has no affinity call.

    Each worker has its own order pipe and reply pipe, each a stream of
    pickles.  This process hands out job indices in job order, one at a
    time, to whichever worker replied last, and reads the replies with
    select; a worker has at most one reply outstanding, so a reply file's
    buffer never holds bytes that select cannot see.  The order files are
    unbuffered: closing a buffered one would retry a write that a broken
    pipe refused and raise again.  Once a fit fails no new job starts;
    the fits under way finish, and the lowest-index failure, the one a
    serial run meets, is re-raised here with its type.  A worker that
    dies, under a fit, part way through a reply or before its next
    order, raises RuntimeError.  The pipes are closed and every worker is
    reaped before this returns; on an exception here, such as an
    interrupt, the workers are killed first."""
    cpus = []
    if parallel and hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))[:len(jobs)]
    if len(cpus) < 2:
        return [_fit(job) for job in jobs]
    # imported here: a CLI run that fits nothing, such as dequantize,
    # need not load them
    import select
    import signal

    parent, todo, pids = os.getpid(), iter(range(len(jobs))), []
    orders = {}  # a worker's reply file -> its order file
    pending = {}  # a worker's reply file -> the job it fits
    fits, failed = [None] * len(jobs), {}  # failed: job -> its exception

    def hand_out(reply):
        i = None if failed else next(todo, None)
        if i is not None:
            try:
                pickle.dump(i, orders[reply])
            except BrokenPipeError:
                raise RuntimeError("a fit worker died") from None
            pending[reply] = i

    try:
        for cpu in cpus:
            order_r, order_w = os.pipe()
            reply_r, reply_w = os.pipe()
            try:
                orders[open(reply_r, "rb")] = open(order_w, "wb", buffering=0)
                pid = os.fork()
                if pid == 0:  # the worker, which never leaves this block
                    try:  # it keeps only its own ends of its own pipes; it
                        # closes the parent's by fd and leaves their objects
                        for f in (*orders, *orders.values()):
                            os.close(f.fileno())
                        _serve(jobs, cpu, parent, open(order_r, "rb"), open(reply_w, "wb"))
                    finally:  # no exit status is read: the pipes tell
                        os._exit(0)
                pids.append(pid)
            finally:
                os.close(order_r)
                os.close(reply_w)
        for reply in orders:
            hand_out(reply)
        while pending:
            for reply in select.select(list(pending), [], [])[0]:
                try:
                    i, ok, value = pickle.load(reply)
                except (EOFError, pickle.UnpicklingError):  # it ended, maybe mid-reply
                    raise RuntimeError(f"a fit worker died in fit {pending[reply]}") from None
                del pending[reply]
                if ok:
                    fits[i] = value
                else:
                    failed[i] = value
                hand_out(reply)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for f in (*orders, *orders.values()):
            f.close()
        for pid in pids:
            os.waitpid(pid, 0)
    if failed:
        raise failed[min(failed)]
    return fits


def quantize_matrix(weights, calib, config: RunConfig, parallel: bool = False) -> QuantizeResult:
    """Run the two-stage pipeline: allocate bit-widths, then fit groups.
    Bad settings raise ValueError, bad inputs codebook.DataError.

    ``parallel`` fits the groups in processes forked from this one (Linux
    only): one per CPU of this process's affinity set, capped at the
    group count, each pinned to its CPU and given one BLAS thread.  The
    result is the same either way, and so is the exception of a failed
    fit; a worker that dies under a fit raises RuntimeError.  The
    default fits in this process:
    only a caller that holds no threads may fork, and ``glvq quantize``
    passes True."""
    w, x = codebook.check_inputs(weights, calib)

    spans = partition_columns(w.shape[1], config.group_width)
    if config.bit_alloc and len(spans) >= 2:
        bits = bitalloc.allocate_bits(w, x, config.group_width, config.bits)
    elif bitalloc.is_integer_target(config.bits):
        bits = np.full(len(spans), round(config.bits), dtype=np.int64)
    else:
        raise ValueError("fractional bit targets need bit allocation over >= 2 groups")

    jobs = [(w[:, a:b], x[a:b, :], int(bg), config) for (a, b), bg in zip(spans, bits)]
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
