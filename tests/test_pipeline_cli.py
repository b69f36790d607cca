import argparse
import contextlib
import csv
import dataclasses
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from glvq import cli, container, pipeline, synthetic
from glvq.codebook import (GroupCodec, init_codec, quantize_columns, reconstruct,
                           reshape_group)
from glvq import companding

FAST = ["--max-iters", "40"]
# for a child interpreter: this glvq first on its path
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).parents[1]))


def write_pair(tmp_path, name, array):
    path = str(tmp_path / f"{name}.f32")
    container.write_tensor_file(path, array)
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------- pipeline

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_run_decodes_no_group_to_zero(seed):
    # with the mu-law stage, every 1-bit group of this layer codes to all
    # zeros; a default run codes linearly
    w, x = synthetic.make_layer(seed)
    result = pipeline.quantize_matrix(
        w, x, pipeline.RunConfig(bits=1.5, group_width=64))
    assert min(result.bits) == 1
    archive = container.read_archive(result.archive_bytes())
    assert all(np.any(group.decode()) for group in archive)


def test_quantize_matrix_balanced_allocation():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((64, 256))
    x = rng.standard_normal((256, 32))
    cfg = pipeline.RunConfig(dim=4, bits=2.0, group_width=64, max_iters=20)
    result = pipeline.quantize_matrix(w, x, cfg)
    assert len(result.records) == 4
    assert result.bits.mean() == 2.0
    assert (result.bits == 3).sum() == (result.bits == 1).sum()
    w_hat = container.read_archive(result.archive_bytes()).decode_matrix()
    assert w_hat.shape == w.shape


def test_quantize_matrix_of_float32_inputs_is_that_of_float64_ones():
    # float32 -> float64 is exact, so a layer as read_tensor_file returns
    # it and the same values held as float64 give the same archive; the
    # records hold int8 codes either way
    w32, x32 = (a.astype(np.float32) for a in synthetic.make_layer(
        3, n_groups=3, group_cols=16, calib_T=24))
    cfg = pipeline.RunConfig(dim=4, bits=2.0, group_width=16, max_iters=15)
    r32 = pipeline.quantize_matrix(w32, x32, cfg)
    r64 = pipeline.quantize_matrix(w32.astype(np.float64), x32.astype(np.float64), cfg)
    assert all(codes.dtype == np.int8 for _, codes in r32.records + r64.records)
    assert r32.archive_bytes() == r64.archive_bytes()


def test_encode_path_needs_no_lu_solve(monkeypatch):
    # Babai rounding and init whitening use explicit d x d inverses; an
    # LU solve with thousands of right-hand sides must not come back
    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve on the encode path")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    w, x = synthetic.make_layer(0, n_groups=2, group_cols=32, calib_T=16)
    cfg = pipeline.RunConfig(dim=4, bits=2.0, group_width=32, max_iters=10)
    result = pipeline.quantize_matrix(w, x, cfg)
    assert len(result.records) == 2
    wg, _ = synthetic.make_group(0)
    codec = init_codec(wg, 8, 2)
    lat, _ = reshape_group(wg / codec.scale, 8)
    codes = quantize_columns(companding.compand(lat, codec.mu), codec)
    assert codes.shape == lat.shape


def test_quantize_matrix_uniform_when_disabled():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((32, 128))
    x = rng.standard_normal((128, 16))
    cfg = pipeline.RunConfig(dim=4, bits=3.0, group_width=32, bit_alloc=False,
                             max_iters=10)
    result = pipeline.quantize_matrix(w, x, cfg)
    assert np.array_equal(result.bits, np.full(4, 3))


def test_quantize_matrix_fractional_target():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((32, 128))
    x = rng.standard_normal((128, 16))
    cfg = pipeline.RunConfig(dim=4, bits=1.5, group_width=32, max_iters=10)
    result = pipeline.quantize_matrix(w, x, cfg)
    assert set(np.unique(result.bits)) == {1, 2}
    assert result.mean_bits() == 1.5


# Widths quantize_matrix picks on synthetic.make_layer(seed) for seeds 0-4,
# frozen: a change to the salience ranking, the RTN probe or the swap
# search that moves any width fails here.
PINNED_BITS = {
    2.0: [[1, 1, 1, 1, 3, 3, 3, 3], [3, 3, 1, 3, 1, 1, 3, 1],
          [3, 1, 3, 1, 3, 3, 1, 1], [1, 1, 3, 3, 1, 3, 3, 1],
          [3, 2, 3, 1, 2, 1, 3, 1]],
    3.0: [[3, 2, 2, 2, 4, 4, 3, 4], [4, 4, 2, 4, 2, 2, 4, 2],
          [3, 3, 4, 2, 4, 4, 2, 2], [2, 2, 4, 4, 2, 4, 4, 2],
          [4, 2, 4, 2, 4, 2, 4, 2]],
    1.5: [[1, 1, 1, 1, 2, 2, 2, 2], [2, 2, 1, 2, 1, 1, 2, 1],
          [2, 1, 2, 1, 2, 2, 1, 1], [1, 1, 2, 2, 1, 2, 2, 1],
          [2, 1, 2, 1, 2, 1, 2, 1]],
}


@pytest.mark.parametrize("target", sorted(PINNED_BITS))
def test_quantize_matrix_bits_pinned(target):
    cfg = pipeline.RunConfig(bits=target, group_width=synthetic.SUITE_GROUP_COLS,
                             max_iters=1)
    for seed, expected in enumerate(PINNED_BITS[target]):
        w, x = synthetic.make_layer(seed)
        assert pipeline.quantize_matrix(w, x, cfg).bits.tolist() == expected


def test_quantize_matrix_fractional_needs_allocation():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((16, 64))
    x = rng.standard_normal((64, 8))
    cfg = pipeline.RunConfig(dim=4, bits=1.5, group_width=32, bit_alloc=False)
    with pytest.raises(ValueError):
        pipeline.quantize_matrix(w, x, cfg)


def test_evaluate_metrics_shape_checks():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((16, 32))
    x = rng.standard_normal((32, 8))
    cfg = pipeline.RunConfig(dim=4, bits=2.0, group_width=32, bit_alloc=False,
                             max_iters=10)
    result = pipeline.quantize_matrix(w, x, cfg)
    arch = container.read_archive(result.archive_bytes())
    metrics = pipeline.evaluate(w, arch, x)
    assert metrics["bits_per_weight"] == 2.0
    assert metrics["output_mse"] >= 0.0
    with pytest.raises(ValueError):
        pipeline.evaluate(w[:, :-1], arch, x)


# ------------------------------------------------------------ parallel fits

@pytest.fixture
def fit_pids(tmp_path, monkeypatch):
    """Have every group fit record the id of the process it runs in;
    returns a function that lists the ids recorded so far, in order of
    record.  One file append per fit, so forked workers record too."""
    path, fit = tmp_path / "fit_pids", pipeline._fit

    def recording_fit(job):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, b"%d\n" % os.getpid())
        os.close(fd)
        return fit(job)

    monkeypatch.setattr(pipeline, "_fit", recording_fit)
    return lambda: [int(p) for p in path.read_text().split()] if path.exists() else []


def test_quantize_matrix_same_serial_and_parallel(two_cpus, fit_pids, child_pids):
    w, x = synthetic.make_layer(3, n_groups=5, group_cols=32, calib_T=24)
    cfg = pipeline.RunConfig(dim=4, bits=1.5, group_width=32, max_iters=30)
    serial = pipeline.quantize_matrix(w, x, cfg)
    assert fit_pids() == [os.getpid()] * 5
    forked = pipeline.quantize_matrix(w, x, cfg, parallel=True)
    in_workers = fit_pids()[5:]
    assert len(in_workers) == 5 and os.getpid() not in in_workers
    assert forked.archive_bytes() == serial.archive_bytes()
    assert forked.bits.tolist() == serial.bits.tolist()
    assert forked.reports == serial.reports
    assert forked.spans == serial.spans
    assert not child_pids()


def test_parallel_replies_larger_than_a_pipe_buffer(two_cpus, fit_pids, child_pids):
    # each reply holds a group's 1024 x 128 int8 codes, 128 KiB, twice a
    # pipe's 64 KiB buffer: a worker's write blocks until the parent reads
    w, x = synthetic.make_layer(7, n_groups=3, group_cols=128, rows=1024, calib_T=16)
    cfg = pipeline.RunConfig(dim=8, bits=2.0, group_width=128, bit_alloc=False,
                             max_iters=3)
    serial = pipeline.quantize_matrix(w, x, cfg)
    forked = pipeline.quantize_matrix(w, x, cfg, parallel=True)
    in_workers = fit_pids()[3:]
    assert len(in_workers) == 3 and os.getpid() not in in_workers
    assert all(codes.nbytes == 1024 * 128 for _, codes in forked.records)
    assert forked.archive_bytes() == serial.archive_bytes()
    assert forked.bits.tolist() == serial.bits.tolist()
    assert forked.reports == serial.reports
    assert not child_pids()


@pytest.mark.parametrize("cpus", [{0}, None])  # one CPU; no affinity call
def test_parallel_fits_in_this_process_without_a_second_cpu(cpus, monkeypatch,
                                                            fit_pids, child_pids):
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    w, x = synthetic.make_layer(3, n_groups=4, group_cols=32, calib_T=24)
    cfg = pipeline.RunConfig(dim=4, bits=1.5, group_width=32, max_iters=30)
    pipeline.quantize_matrix(w, x, cfg, parallel=True)
    assert fit_pids() == [os.getpid()] * 4
    assert not child_pids()


def test_fit_error_in_a_worker_is_raised_with_its_type(two_cpus, child_pids):
    w, x = synthetic.make_layer(4, n_groups=4, group_cols=2, rows=4, calib_T=8)
    cfg = pipeline.RunConfig(dim=16, bits=2.0, group_width=2)  # 8 weights a group
    with pytest.raises(ValueError) as serial:
        pipeline.quantize_matrix(w, x, cfg)
    with pytest.raises(ValueError) as forked:
        pipeline.quantize_matrix(w, x, cfg, parallel=True)
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)
    assert not child_pids()


def test_fit_error_in_a_worker_starts_no_more_fits(two_cpus, fit_pids, monkeypatch,
                                                   child_pids):
    # the first of 12 fits fails at once and every other one takes 0.2 s,
    # so the error arrives while most fits are not yet handed out; those
    # must never start (fit_pids records each fit that does)
    w, x = synthetic.make_layer(5, n_groups=12, group_cols=4, rows=8, calib_T=8)
    cfg = pipeline.RunConfig(dim=4, bits=2.0, group_width=4, bit_alloc=False,
                             max_iters=5)
    recorded_fit = pipeline._fit

    def first_fails(job):
        result = recorded_fit(job)
        if np.array_equal(job[0], w[:, :4]):
            raise ValueError("the first group's fit failed")
        time.sleep(0.2)
        return result

    monkeypatch.setattr(pipeline, "_fit", first_fails)
    with pytest.raises(ValueError, match="the first group's fit failed"):
        pipeline.quantize_matrix(w, x, cfg, parallel=True)
    assert not child_pids()
    assert 1 <= len(fit_pids()) < 12


def test_cli_fit_error_in_a_worker_exits_as_a_serial_run(tmp_path, capsys, monkeypatch,
                                                         two_cpus, child_pids):
    rng = np.random.default_rng(5)
    argv = ["quantize", write_pair(tmp_path, "w", rng.standard_normal((4, 8))),
            write_pair(tmp_path, "x", rng.standard_normal((8, 8))),
            "--out", tmp_path / "a.glvq", "--dim", 16, "--group-width", 2]
    outcomes = []
    for serial in (False, True):
        if serial:  # as on a platform with no affinity call: fits in-process
            monkeypatch.delattr(os, "sched_getaffinity")
        outcomes.append((run(argv), capsys.readouterr().err))
        assert not child_pids()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == cli.EXIT_USAGE
    assert "dim=16 is not in [1, 8]" in outcomes[0][1]
    assert not (tmp_path / "a.glvq").exists()


class _Hung(BaseException):
    """Raised by _deadline; no handler of the library or the CLI catches it."""


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the block with _Hung if it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise _Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("dies", ["in_a_fit", "mid_reply", "after_a_reply"])
def test_killed_worker_fails_the_run(dies, tmp_path, monkeypatch, two_cpus, child_pids):
    # a worker killed, as by the OOM killer, under a fit (its reply pipe
    # ends), part way through a reply (the pickle is cut short) or after a
    # reply (its order pipe breaks): quantize_matrix raises RuntimeError
    # and glvq quantize exits 4 and writes nothing, with no worker left
    # behind and no wait for a reply that cannot come
    w = synthetic.make_layer(5, n_groups=6, group_cols=4, rows=8, calib_T=8)[0]
    w = w.astype(np.float32).astype(float)  # as the CLI reads it back
    x = np.random.default_rng(5).standard_normal((24, 8))
    fit, serve = pipeline._fit, pipeline._serve
    tester = os.getpid()

    def killed_in_the_third_fit(job):
        if os.getpid() != tester and np.array_equal(job[0], w[:, 8:12]):
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(job)

    def killed_mid_reply(jobs, cpu, parent, orders, replies):
        write = replies.write

        def write_half_and_die(data):
            data = bytes(data)
            write(data[:len(data) // 2])
            replies.flush()
            os.kill(os.getpid(), signal.SIGKILL)

        replies.write = write_half_and_die  # pickle.dump writes through it
        serve(jobs, cpu, parent, orders, replies)

    def killed_after_a_reply(jobs, cpu, parent, orders, replies):
        flush = replies.flush

        def reply_and_die():
            os.close(orders.fileno())  # first, so the parent's next order finds no reader
            flush()
            os.kill(os.getpid(), signal.SIGKILL)

        replies.flush = reply_and_die
        serve(jobs, cpu, parent, orders, replies)

    if dies == "in_a_fit":
        monkeypatch.setattr(pipeline, "_fit", killed_in_the_third_fit)
    else:
        monkeypatch.setattr(pipeline, "_serve", killed_mid_reply if dies == "mid_reply"
                            else killed_after_a_reply)
    cfg = pipeline.RunConfig(dim=4, bits=2.0, group_width=4, bit_alloc=False,
                             max_iters=5)
    with _deadline(60):
        with pytest.raises(RuntimeError, match="a fit worker died"):
            pipeline.quantize_matrix(w, x, cfg, parallel=True)
        assert not child_pids()
        argv = ["quantize", write_pair(tmp_path, "w", w), write_pair(tmp_path, "x", x),
                "--out", tmp_path / "a.glvq", "--report", tmp_path / "a.csv",
                "--dim", 4, "--bits", 2, "--group-width", 4, "--no-bit-alloc",
                "--max-iters", 5]
        inputs = sorted(os.listdir(tmp_path))
        assert run(argv) == cli.EXIT_INTERNAL
    assert not child_pids()
    assert sorted(os.listdir(tmp_path)) == inputs


_QUANTIZE_ON_TWO_CPUS = r"""
import os, sys
from glvq import cli, pipeline

# two CPUs to fork a worker for, and pinning a no-op, on any machine
os.sched_getaffinity = lambda pid: {0, 1}
os.sched_setaffinity = lambda pid, cpus: None
fit, pids = pipeline._fit, sys.argv[1]

def recording_fit(job):  # one append per fit, from the process that fits
    fd = os.open(pids, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    os.write(fd, b"%d\n" % os.getpid())
    os.close(fd)
    return fit(job)

pipeline._fit = recording_fit
code = cli.main(sys.argv[2:])
print(code, os.getpid(),
      *sorted({"multiprocessing", "concurrent.futures", "socket"} & set(sys.modules)))
"""


def test_cli_parallel_quantize_loads_no_multiprocessing(tmp_path):
    # the fits fork their workers directly: importing multiprocessing and
    # concurrent.futures cost a quantize about 15 ms before its first fit;
    # the workers' pipes need no socket either (3.9 ms of imports)
    w, x = synthetic.make_layer(6, n_groups=4, group_cols=32, calib_T=24)
    pids = tmp_path / "fit_pids"
    argv = [sys.executable, "-c", _QUANTIZE_ON_TWO_CPUS, pids, "quantize",
            write_pair(tmp_path, "w", w), write_pair(tmp_path, "x", x),
            "--out", tmp_path / "a.glvq", "--group-width", 32, "--max-iters", 10]
    out = subprocess.run(list(map(str, argv)), env=CHILD_ENV, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    code, quantizer, *loaded = out.splitlines()[-1].split()
    assert (code, loaded) == ("0", [])
    fitters = pids.read_text().split()
    assert len(fitters) == 4 and quantizer not in fitters


def test_cli_output_same_on_one_cpu(tmp_path):
    # `taskset -c 0 glvq quantize ...`: one CPU, so the fits run serially
    w, x = synthetic.make_layer(6, n_groups=4, group_cols=32, calib_T=24)
    argv = [sys.executable, "-m", "glvq.cli", "quantize", write_pair(tmp_path, "w", w),
            write_pair(tmp_path, "x", x), "--dim", "4", "--bits", "1.5",
            "--group-width", "32", "--max-iters", "30"]
    one_cpu = min(os.sched_getaffinity(0))
    outputs = []
    for name, pin in (("all", None), ("one", lambda: os.sched_setaffinity(0, {one_cpu}))):
        out, rep = tmp_path / f"{name}.glvq", tmp_path / f"{name}.csv"
        subprocess.run(argv + ["--out", str(out), "--report", str(rep)], env=CHILD_ENV,
                       preexec_fn=pin, check=True, capture_output=True, timeout=120)
        outputs.append((out.read_bytes(), rep.read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_runs_under_python_oo(tmp_path):
    # `python -OO` strips docstrings and asserts: quantize, dequantize and
    # eval still exit 0, and write what a plain run writes
    w, x = synthetic.make_layer(7, n_groups=2, group_cols=16, calib_T=16)
    wpath, xpath = write_pair(tmp_path, "w", w), write_pair(tmp_path, "x", x)
    outputs = []
    for name, flags in (("plain", []), ("oo", ["-OO"])):
        arch, dq = tmp_path / f"{name}.glvq", tmp_path / f"{name}.f32"
        for argv in (["quantize", wpath, xpath, "--out", arch, "--dim", 4,
                      "--group-width", 16, "--max-iters", 10],
                     ["dequantize", arch, "--out", dq],
                     ["eval", wpath, arch, xpath]):
            subprocess.run([sys.executable, *flags, "-m", "glvq.cli", *map(str, argv)],
                           env=CHILD_ENV, check=True, capture_output=True, timeout=120)
        outputs.append((arch.read_bytes(), dq.read_bytes()))
    assert outputs[0] == outputs[1]


_SLOW_FITS = r"""
import os, time
from glvq import pipeline, synthetic

def slow_fit(job):
    os.write(1, b"%d\n" % os.getpid())  # one write: the workers share the pipe
    time.sleep(120)

pipeline._fit = slow_fit
# two CPUs to fork a worker for, and pinning a no-op, on any machine
os.sched_getaffinity = lambda pid: {0, 1}
os.sched_setaffinity = lambda pid, cpus: None
w, x = synthetic.make_layer(0, n_groups=2, group_cols=8, rows=8, calib_T=4)
pipeline.quantize_matrix(w, x, pipeline.RunConfig(dim=4, group_width=8), parallel=True)
"""


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_die_with_their_parent():
    # a worker left behind would wait for jobs forever
    parent = subprocess.Popen([sys.executable, "-c", _SLOW_FITS], stdout=subprocess.PIPE,
                              text=True, env=CHILD_ENV)
    try:
        workers = [int(parent.stdout.readline()) for _ in range(2)]
    finally:
        parent.kill()
        parent.wait(timeout=60)
        parent.stdout.close()
    assert parent.pid not in workers  # the fits ran in forked workers
    deadline = time.monotonic() + 30
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, workers))


def test_worker_blas_gets_one_thread():
    # a worker's BLAS threads would share its one CPU and spin against it;
    # run in a child so that this process keeps its BLAS threads
    code = "from glvq import pipeline; print(len(pipeline._one_blas_thread()))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=CHILD_ENV, check=True, timeout=60).stdout
    with open("/proc/self/maps") as maps:
        openblas = "openblas" in maps.read()  # numpy's BLAS, if it is OpenBLAS
    assert int(out) == int(openblas)


# --------------------------------------------------------------------- cli

def test_cli_quantize_dequantize_eval(tmp_path, capsys):
    rng = np.random.default_rng(5)
    w = rng.standard_normal((64, 256))
    x = rng.standard_normal((256, 32))
    wpath = write_pair(tmp_path, "w", w)
    xpath = write_pair(tmp_path, "x", x)
    arch = tmp_path / "model.glvq"
    report = tmp_path / "report.csv"
    code = run(["quantize", wpath, xpath, "--out", arch, "--report", report,
                "--dim", 4, "--group-width", 64, "--bits", 2] + FAST)
    assert code == 0
    out = capsys.readouterr().out
    assert "mean bits/weight: 2.0000" in out
    assert report.exists()

    parsed = container.read_archive(arch.read_bytes())
    bits = np.array([g.codec.bits for g in parsed])
    assert bits.mean() == 2.0
    assert (bits == 3).sum() == (bits == 1).sum()

    dq = tmp_path / "west.f32"
    assert run(["dequantize", arch, "--out", dq]) == 0
    back = container.read_tensor_file(str(dq))
    decoded = parsed.decode_matrix()
    assert np.array_equal(back, decoded.astype(np.float32).astype(float))

    assert run(["eval", wpath, arch, xpath]) == 0
    out = capsys.readouterr().out
    assert "output_mse" in out and "bits_per_weight" in out


def test_cli_eval_csv_holds_what_eval_prints(tmp_path, capsys):
    rng = np.random.default_rng(5)
    w = rng.standard_normal((16, 64))
    x = rng.standard_normal((64, 8))
    wpath, xpath = write_pair(tmp_path, "w", w), write_pair(tmp_path, "x", x)
    arch = tmp_path / "model.glvq"
    cfg = pipeline.RunConfig(dim=4, bits=2.0, group_width=32, max_iters=10)
    arch.write_bytes(pipeline.quantize_matrix(w, x, cfg).archive_bytes())
    written = []
    for name in ("m1.csv", "m2.csv"):
        assert run(["eval", wpath, arch, xpath, "--out", tmp_path / name]) == 0
        written.append((tmp_path / name).read_bytes())
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines()[:6])
    assert written[0] == written[1]
    header, values = list(csv.reader(written[0].decode().splitlines()))
    assert header == list(printed) == ["weight_mse", "output_mse", "kl",
                                       "bits_per_weight", "overhead_pct",
                                       "actual_side_bytes"]
    assert [f"{float(v):.6g}" for v in values] == list(printed.values())


def test_metrics_takes_dw_in_its_own_copy_only():
    # a float32 w_hat's float64 cast is metrics' own and becomes dw in
    # place; a float64 w_hat (row- or column-major) is the caller's and
    # stays as it was
    rng = np.random.default_rng(41)
    w = rng.standard_normal((8, 24))
    x = rng.standard_normal((24, 6))
    noisy = w + 0.1 * rng.standard_normal(w.shape)
    for w_hat in (noisy, np.asfortranarray(noisy), noisy.astype(np.float32)):
        before = w_hat.copy(order="A")
        got = pipeline.metrics(w, w_hat, x)
        assert w_hat.tobytes(order="A") == before.tobytes(order="A")
        dw = w_hat.astype(float) - w
        assert got["weight_mse"] == pytest.approx((dw * dw).mean(), rel=1e-12)


def test_evaluate_scores_the_tensor_dequantize_writes(tmp_path):
    rng = np.random.default_rng(5)
    w = rng.standard_normal((64, 256))
    x = rng.standard_normal((256, 32))
    cfg = pipeline.RunConfig(dim=4, bits=2.0, group_width=64, max_iters=40)
    arch = tmp_path / "model.glvq"
    arch.write_bytes(pipeline.quantize_matrix(w, x, cfg).archive_bytes())
    dq = tmp_path / "west.f32"
    assert run(["dequantize", arch, "--out", dq]) == 0
    expected = pipeline.metrics(w, container.read_tensor_file(str(dq)), x)
    got = pipeline.evaluate(w, container.read_archive(arch.read_bytes()), x)
    assert {k: got[k] for k in expected} == expected


def test_cli_no_bit_alloc_uniform(tmp_path):
    rng = np.random.default_rng(6)
    w = rng.standard_normal((32, 128))
    x = rng.standard_normal((128, 16))
    wpath = write_pair(tmp_path, "w", w)
    xpath = write_pair(tmp_path, "x", x)
    arch = tmp_path / "u.glvq"
    assert run(["quantize", wpath, xpath, "--out", arch, "--dim", 4,
                "--group-width", 32, "--bits", 2, "--no-bit-alloc"] + FAST) == 0
    parsed = container.read_archive(arch.read_bytes())
    assert all(g.codec.bits == 2 for g in parsed)


def test_cli_fractional_bits(tmp_path):
    rng = np.random.default_rng(7)
    w = rng.standard_normal((32, 128))
    x = rng.standard_normal((128, 16))
    wpath = write_pair(tmp_path, "w", w)
    xpath = write_pair(tmp_path, "x", x)
    arch = tmp_path / "f.glvq"
    assert run(["quantize", wpath, xpath, "--out", arch, "--dim", 4,
                "--group-width", 32, "--bits", 1.5] + FAST) == 0
    parsed = container.read_archive(arch.read_bytes())
    assert set(g.codec.bits for g in parsed) == {1, 2}


def test_cli_determinism(tmp_path):
    rng = np.random.default_rng(8)
    w = rng.standard_normal((32, 128))
    x = rng.standard_normal((128, 16))
    wpath = write_pair(tmp_path, "w", w)
    xpath = write_pair(tmp_path, "x", x)
    outs = []
    reports = []
    for i in (1, 2):
        arch = tmp_path / f"a{i}.glvq"
        rep = tmp_path / f"r{i}.csv"
        assert run(["quantize", wpath, xpath, "--out", arch, "--report", rep,
                    "--dim", 4, "--group-width", 32, "--bits", 2] + FAST) == 0
        outs.append(arch.read_bytes())
        reports.append(rep.read_bytes())
    assert outs[0] == outs[1]
    assert reports[0] == reports[1]


def test_cli_representable_round_trip(tmp_path):
    # archive with fp16-exact side info: quantize -> dequantize is exact
    rng = np.random.default_rng(9)
    basis = np.float16(0.25 * np.eye(4) +
                       0.0625 * rng.integers(-2, 3, size=(4, 4))).astype(float)
    codec = GroupCodec(basis=basis, mu=64.0, bits=3, scale=0.5, dim=4,
                       rows=8, cols=4)
    codes = rng.integers(-4, 4, size=(4, 8))
    w = reconstruct(codes, codec)
    lat, _ = reshape_group(w, 4)
    z = quantize_columns(companding.compand(lat / codec.scale, codec.mu), codec)
    assert np.array_equal(z, codes)

    arch_path = tmp_path / "fix.glvq"
    arch_path.write_bytes(container.write_archive([(codec, codes)]))
    out = tmp_path / "back.f32"
    assert run(["dequantize", arch_path, "--out", out]) == 0
    back = container.read_tensor_file(str(out))
    denom = np.maximum(np.abs(w), 1e-12)
    assert (np.abs(back - w) / denom).max() <= 1e-3


def test_cli_zero_archive(tmp_path):
    codec = GroupCodec(basis=0.5 * np.eye(2), mu=0.0, bits=2, scale=1.0,
                       dim=2, rows=4, cols=2)
    arch_path = tmp_path / "zero.glvq"
    arch_path.write_bytes(
        container.write_archive([(codec, np.zeros((2, 4), int))]))
    out = tmp_path / "zero.f32"
    assert run(["dequantize", arch_path, "--out", out]) == 0
    assert not container.read_tensor_file(str(out)).any()


def test_cli_truncated_archive_no_partial_output(tmp_path):
    rng = np.random.default_rng(10)
    codec = GroupCodec(basis=np.eye(2), mu=0.0, bits=2, scale=1.0, dim=2,
                       rows=4, cols=2)
    data = container.write_archive([(codec, rng.integers(-2, 2, (2, 4)))])
    bad = tmp_path / "bad.glvq"
    bad.write_bytes(data[:-2])
    out = tmp_path / "never.f32"
    assert run(["dequantize", bad, "--out", out]) == 3
    assert not out.exists()


def test_cli_dequantize_failing_manifest_write_leaves_no_payload(tmp_path):
    # the manifest path is a directory, so its write fails after the payload
    codec = GroupCodec(basis=np.eye(2), mu=0.0, bits=2, scale=1.0, dim=2,
                       rows=4, cols=2)
    arch = tmp_path / "m.glvq"
    arch.write_bytes(container.write_archive([(codec, np.ones((2, 4), int))]))
    out_dir = tmp_path / "t"
    (out_dir / "o.json").mkdir(parents=True)
    assert run(["dequantize", arch, "--out", out_dir / "o.f32"]) == 3
    assert [p.name for p in out_dir.iterdir()] == ["o.json"]


def test_cli_dequantize_overflow_in_a_later_block_leaves_no_output(
        tmp_path, monkeypatch, capsys):
    # group 1 overflows float32 only in rows 6-7, the last of four 2-row
    # blocks, after the first three have been written
    fine = GroupCodec(basis=np.eye(2), mu=0.0, bits=2, scale=1.0, dim=2,
                      rows=8, cols=2)
    wild = GroupCodec(basis=21.0 * np.eye(2), mu=100.0, bits=2, scale=1.0,
                      dim=2, rows=8, cols=2)
    codes = np.zeros((2, 8), int)
    codes[:, 7] = -2
    arch = tmp_path / "m.glvq"
    arch.write_bytes(container.write_archive([(fine, codes), (wild, codes)]))
    monkeypatch.setattr(container, "_BLOCK_BYTES", 4 * 4 * 2)
    capsys.readouterr()
    assert run(["dequantize", arch, "--out", tmp_path / "o.f32"]) == 3
    assert capsys.readouterr().err.startswith("error: group 1 decodes")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.glvq"]


def test_cli_dequantize_holds_under_half_its_output(tmp_path, monkeypatch,
                                                   traced_peak):
    # 16 blocks of 64 rows: beyond the archive the command holds its codes
    # (a quarter of the output), one block and a block-sized scratch, where
    # decoding the whole tensor first holds all of it
    rng = np.random.default_rng(14)
    records = []
    for _ in range(8):
        codec = GroupCodec(basis=0.3 * np.eye(8), mu=0.0, bits=2, scale=1.0,
                           dim=8, rows=1024, cols=128)
        records.append((codec, rng.integers(-2, 2, size=(8, codec.columns),
                                            dtype=np.int8)))
    arch = tmp_path / "m.glvq"
    arch.write_bytes(container.write_archive(records))
    del records
    monkeypatch.setattr(container, "_BLOCK_BYTES", 4 * 1024 * 64)
    out = tmp_path / "o.f32"
    code, peak = traced_peak(run, ["dequantize", arch, "--out", out])
    assert code == 0 and out.stat().st_size == 4 * 1024 * 1024
    assert peak < out.stat().st_size / 2


@pytest.mark.parametrize("field,value", [
    ("mu", 5.0), ("mu", np.inf), ("mu", np.nan), ("scale", np.nan),
    ("scale", 0.0), ("basis", np.nan), ("basis", 1000.0), ("basis", 25.0),
])
def test_cli_undecodable_side_info_is_data_error(tmp_path, field, value):
    # patch one fp16 field of a valid companded archive: the header takes
    # 10 bytes, a record's rows, cols, dim, bits and pad 13 more, then come
    # scale, mu and the basis.  With codes of 1 a basis entry of 1000
    # overflows the expansion in float64, and 25 (101^25, about 1e50) in
    # the float32 output tensor.
    codec = GroupCodec(basis=0.5 * np.eye(2), mu=100.0, bits=2, scale=1.0,
                       dim=2, rows=4, cols=2)
    data = bytearray(container.write_archive([(codec, np.ones((2, 4), int))]))
    offset = {"scale": 23, "mu": 25, "basis": 27}[field]
    data[offset:offset + 2] = np.array(value, dtype="<f2").tobytes()
    bad = tmp_path / "bad.glvq"
    bad.write_bytes(bytes(data))
    out = tmp_path / "never.f32"
    assert run(["dequantize", bad, "--out", out]) == 3
    assert not out.exists()


def test_eval_weight_mse_independent_of_calib_size():
    rng = np.random.default_rng(20)
    w = rng.standard_normal((16, 32))
    x = rng.standard_normal((32, 8))
    cfg = pipeline.RunConfig(dim=4, bits=2.0, group_width=32, bit_alloc=False,
                             max_iters=10)
    arch = container.read_archive(
        pipeline.quantize_matrix(w, x, cfg).archive_bytes())
    m1 = pipeline.evaluate(w, arch, x)
    m2 = pipeline.evaluate(w, arch, np.hstack([x, x]))
    assert m1["weight_mse"] == m2["weight_mse"]
    assert m1["kl"] >= 0.0 and m2["kl"] >= 0.0


def test_eval_near_lossless_at_8_bits(tmp_path):
    # d=1, b=8, no companding: a fine scalar grid, so all errors are tiny
    rng = np.random.default_rng(21)
    w = rng.uniform(-1, 1, size=(16, 16))
    x = rng.standard_normal((16, 8))
    cfg = pipeline.RunConfig(dim=1, bits=8.0, group_width=16, bit_alloc=False,
                             companding=False, max_iters=30)
    arch = container.read_archive(
        pipeline.quantize_matrix(w, x, cfg).archive_bytes())
    metrics = pipeline.evaluate(w, arch, x)
    signal = float((w**2).mean())
    assert metrics["weight_mse"] <= 1e-4 * signal
    assert metrics["kl"] <= 1e-4
    assert metrics["bits_per_weight"] == 8.0


def test_cli_missing_file_is_data_error(tmp_path):
    out = tmp_path / "x.glvq"
    assert run(["quantize", str(tmp_path / "no.f32"), str(tmp_path / "no2.f32"),
                "--out", out]) == 3


def test_cli_shape_mismatch_is_data_error(tmp_path):
    rng = np.random.default_rng(11)
    wpath = write_pair(tmp_path, "w", rng.standard_normal((8, 16)))
    xpath = write_pair(tmp_path, "x", rng.standard_normal((12, 4)))
    assert run(["quantize", wpath, xpath, "--out", tmp_path / "y.glvq"]) == 3


@pytest.mark.parametrize("bad", ["weights", "calib"])
def test_cli_non_finite_input_is_data_error(tmp_path, bad):
    rng = np.random.default_rng(13)
    w = rng.standard_normal((8, 16))
    x = rng.standard_normal((16, 4))
    (w if bad == "weights" else x)[1, 2] = np.nan
    out = tmp_path / "y.glvq"
    assert run(["quantize", write_pair(tmp_path, "w", w),
                write_pair(tmp_path, "x", x), "--out", out, "--dim", 4,
                "--group-width", 8] + FAST) == 3
    assert not out.exists()


@pytest.mark.parametrize("w_shape, x_shape", [((0, 8), (8, 4)), ((4, 8), (8, 0))])
def test_cli_empty_input_is_data_error(tmp_path, w_shape, x_shape):
    out = tmp_path / "y.glvq"
    assert run(["quantize", write_pair(tmp_path, "w", np.zeros(w_shape)),
                write_pair(tmp_path, "x", np.zeros(x_shape)), "--out", out]) == 3
    assert not out.exists()


@pytest.mark.parametrize("dim", [1, 3])
def test_cli_tiny_companded_group_round_trips(tmp_path, dim):
    # three weights leave the kurtosis undefined, as an all-zero group's
    # is: the curvature starts at MU_MIN instead of failing the run
    w = np.array([[0.5, -1.0, 2.0]])
    companded = pipeline.RunConfig(companding=True)
    assert init_codec(w, dim, 2, companded).mu == companding.MU_MIN
    x = np.random.default_rng(14).standard_normal((3, 4))
    arch, out = tmp_path / "t.glvq", tmp_path / "t.f32"
    assert run(["quantize", write_pair(tmp_path, "w", w),
                write_pair(tmp_path, "x", x), "--out", arch, "--dim", dim,
                "--bits", 2, "--group-width", 3, "--companding"] + FAST) == 0
    assert run(["dequantize", arch, "--out", out]) == 0
    back = container.read_tensor_file(str(out))
    archive = container.read_archive(arch.read_bytes())
    assert [g.codec.mu for g in archive] == [companding.MU_MIN]
    decoded = archive.decode_matrix()
    assert back.shape == (1, 3) and back.any()
    assert np.array_equal(back, decoded.astype(np.float32))


@pytest.mark.parametrize("manifest", [
    "[1, 2]", "null", '"x"',
    '{"shape": [true, 2], "dtype": "f32", "layout": "row-major"}'])
def test_cli_malformed_manifest_is_data_error(tmp_path, manifest):
    rng = np.random.default_rng(15)
    wpath = write_pair(tmp_path, "w", rng.standard_normal((1, 2)))
    xpath = write_pair(tmp_path, "x", rng.standard_normal((2, 4)))
    (tmp_path / "w.json").write_text(manifest)
    out = tmp_path / "y.glvq"
    assert run(["quantize", wpath, xpath, "--out", out]) == 3
    assert not out.exists()


@pytest.mark.parametrize("magnitude", [1e5, 1e-9])
def test_cli_weights_beyond_fp16_side_info_are_data_error(tmp_path, magnitude):
    # the group scale (max |w|) is stored as fp16: 1e5 overflows it and
    # 1e-9 would round to 0, decoding the group to zeros
    rng = np.random.default_rng(14)
    w = rng.standard_normal((8, 16))
    w[:, 8:] *= magnitude / np.abs(w[:, 8:]).max()
    x = rng.standard_normal((16, 4))
    out = tmp_path / "y.glvq"
    report = tmp_path / "r.csv"
    assert run(["quantize", write_pair(tmp_path, "w", w),
                write_pair(tmp_path, "x", x), "--out", out, "--report", report,
                "--dim", 4, "--group-width", 8, "--no-bit-alloc"] + FAST) == 3
    assert not out.exists() and not report.exists()


def _quantize_config(*flags):
    return cli._run_config(cli.build_parser().parse_args(
        ["quantize", "w.f32", "x.f32", "--out", "a.glvq", *flags]))


def test_run_flags_fill_every_run_config_field():
    assert _quantize_config() == pipeline.RunConfig()
    assert _quantize_config(
        "--dim", "4", "--bits", "3.5", "--group-width", "64", "--no-bit-alloc",
        "--companding", "--fixed-basis", "--tol", "1e-5", "--max-iters", "7",
    ) == pipeline.RunConfig(
        dim=4, bits=3.5, group_width=64, bit_alloc=False, companding=True,
        fixed_basis=True, tol=1e-5, max_iters=7)
    # every field parses from "--" plus its name with dashes
    fields = dataclasses.fields(pipeline.RunConfig)
    assert {f.name for f in fields} == set(cli._RUN_FLAG_HELP)
    for f in fields:
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            for value, spelling in ((True, flag), (False, "--no-" + flag[2:])):
                assert getattr(_quantize_config(spelling), f.name) is value
        else:
            assert getattr(_quantize_config(flag, "3"), f.name) == f.type("3")
    # the spellings that named a default's opposite keep their configs
    assert _quantize_config("--no-bit-alloc", "--no-companding", "--fixed-basis") \
        == pipeline.RunConfig(bit_alloc=False, companding=False, fixed_basis=True)
    # ablate takes its run flags, and builds its config, the same way
    ablate = cli.build_parser().parse_args([
        "ablate", "--preset", "lattice", "--dim", "4", "--bits", "3",
        "--tol", "1e-5", "--max-iters", "7"])
    assert cli._run_config(ablate) == pipeline.RunConfig(
        dim=4, bits=3.0, tol=1e-5, max_iters=7)


@pytest.mark.parametrize("option", [
    ["--eta-basis", "0.5"], ["--eta-mu", "0.5"], ["--lam", "0.5"],
    ["--sigma-min", "0.5"], ["--sigma-max", "0.5"], ["--rounding", "babai"],
], ids=lambda option: option[0])
def test_quantize_rejects_optimizer_constant_flags(tmp_path, option):
    # step sizes, anchor weight and singular-value range are constants, and
    # the optimizer always assigns codes by Babai rounding
    rng = np.random.default_rng(12)
    wpath = write_pair(tmp_path, "w", rng.standard_normal((8, 16)))
    xpath = write_pair(tmp_path, "x", rng.standard_normal((16, 4)))
    with pytest.raises(SystemExit) as exc:
        run(["quantize", wpath, xpath, "--out", tmp_path / "a.glvq",
             "--dim", 2, "--group-width", 8, *option] + FAST)
    assert exc.value.code == 2
    assert not (tmp_path / "a.glvq").exists()


def test_report_side_info_matches_archive(tmp_path):
    rng = np.random.default_rng(8)
    wpath = write_pair(tmp_path, "w", rng.standard_normal((32, 128)))
    xpath = write_pair(tmp_path, "x", rng.standard_normal((128, 16)))
    arch, rep = tmp_path / "a.glvq", tmp_path / "r.csv"
    assert run(["quantize", wpath, xpath, "--out", arch, "--report", rep,
                "--dim", 4, "--group-width", 32, "--bits", 2] + FAST) == 0
    parsed = container.read_archive(arch.read_bytes())
    with open(rep, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(parsed)
    for row, group in zip(rows, parsed):
        assert float(row["mu"]) == group.codec.mu
        assert float(row["scale"]) == group.codec.scale


def test_readme_quantize_synopsis_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # the synopsis runs from "glvq quantize" to the first line without a
    # trailing backslash
    match = re.search(r"^glvq quantize .*?(?<!\\)$", readme,
                      re.MULTILINE | re.DOTALL)
    documented = set(re.findall(r"--[a-z][a-z-]*", match.group(0)))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices["quantize"]._actions
               for s in a.option_strings} - {"-h", "--help"}
    assert documented == options


def test_cli_invalid_config_is_usage_error(tmp_path):
    rng = np.random.default_rng(12)
    wpath = write_pair(tmp_path, "w", rng.standard_normal((8, 16)))
    xpath = write_pair(tmp_path, "x", rng.standard_normal((16, 4)))
    assert run(["quantize", wpath, xpath, "--out", tmp_path / "y.glvq",
                "--dim", 0]) == 2
    # 1-bit integer target cannot satisfy the balanced constraint
    assert run(["quantize", wpath, xpath, "--out", tmp_path / "y.glvq",
                "--dim", 2, "--group-width", 4, "--bits", 1] + FAST) == 2


@pytest.mark.parametrize("flag,value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--bits", "nan")])
def test_cli_non_finite_run_setting_is_usage_error(tmp_path, capsys, flag, value):
    rng = np.random.default_rng(16)
    out = tmp_path / "y.glvq"
    assert run(["quantize", write_pair(tmp_path, "w", rng.standard_normal((8, 16))),
                write_pair(tmp_path, "x", rng.standard_normal((16, 4))),
                "--out", out, "--dim", 4, "--group-width", 8, flag, value]
               + FAST) == 2
    message = {"--tol": "tol must be finite and positive",
               "--bits": "bits must lie in [1, 8]"}[flag]
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_tol_zero_runs(tmp_path):
    # tol = 0 is no tolerance stop: each fit stalls or reaches --max-iters
    rng = np.random.default_rng(16)
    out = tmp_path / "y.glvq"
    assert run(["quantize", write_pair(tmp_path, "w", rng.standard_normal((8, 16))),
                write_pair(tmp_path, "x", rng.standard_normal((16, 4))),
                "--out", out, "--dim", 4, "--group-width", 8, "--tol", 0,
                "--max-iters", 5]) == 0
    assert container.read_archive(out.read_bytes()).decode_matrix().shape == (8, 16)


def test_cli_usage_error_from_argparse(capsys):
    # a subcommand missing its arguments, then lines that reach the full
    # parser tree: none, an unknown subcommand, and top-level help
    names = ("quantize", "dequantize", "eval", "overhead", "ablate")
    for argv, code in ((["quantize"], 2), ([], 2), (["bogus"], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        if argv != ["quantize"]:
            assert all(name in out + err for name in names)


def _exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_cli_subcommand_parser_reads_as_full_tree(capsys, name):
    # main builds only the named subcommand's parser; help and usage
    # errors must read exactly as the full parser tree's
    full = cli.build_parser().parse_args
    for argv in ([name, "--help"], [name, "--no-such-flag"],
                 [name, "--out", "x", "--no-such-flag", "1"]):
        assert (_exit_and_output(capsys, run, argv)
                == _exit_and_output(capsys, full, [str(a) for a in argv]))


def test_cli_overhead_single_and_edge(capsys):
    assert run(["overhead", "--dim", 16, "--rows", 4096, "--cols", 128,
                "--bits", 4]) == 0
    out = capsys.readouterr().out
    assert "overhead=0.196%" in out and "0.20" in out
    # 32 side-info bits against 4 rows of one 8-bit column
    assert run(["overhead", "--dim", 1, "--rows", 4, "--cols", 1,
                "--bits", 8]) == 0
    assert "overhead=100.000%" in capsys.readouterr().out
    assert run(["overhead"]) == 2  # nothing to compute
    # a width no archive record can hold
    assert run(["overhead", "--dim", 16, "--rows", 4096, "--cols", 128,
                "--bits", 9]) == 2


def test_cli_overhead_paper_table(capsys):
    assert run(["overhead", "--paper-table"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 7  # header + 6 rows
    row = lines[3].split()  # d=16 n=128
    assert row[:3] == ["16", "4096", "128"]
    assert [float(v) for v in row[3:]] == [0.39, 0.26, 0.20]


def test_cli_ablate_group_size(tmp_path, capsys):
    out = tmp_path / "gs.csv"
    assert run(["ablate", "--preset", "group-size", "--seeds", 1,
                "--max-iters", 5, "--out", out]) == 0
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    idx_w = header.index("group_width")
    idx_o = header.index("overhead_pct")
    widths = [int(r.split(",")[idx_w]) for r in rows[1:]]
    overheads = [float(r.split(",")[idx_o]) for r in rows[1:]]
    assert widths == [32, 64, 128, 256, 512]
    assert all(a > b for a, b in zip(overheads, overheads[1:]))


def test_cli_ablate_rounding_quick(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run(["ablate", "--preset", "rounding", "--seeds", 3,
                "--max-iters", 15, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "babai < gcd" in text
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 3 * 2  # header + 2 arms per seed


def test_cli_ablate_companding_gaussian_emits_csv(capsys):
    # direction may be neutral on light tails; the CSV must still be valid
    assert run(["ablate", "--preset", "companding", "--seeds", 2,
                "--source", "gaussian", "--max-iters", 10]) == 0
    out = capsys.readouterr().out
    all_lines = [l for l in out.splitlines() if "," in l]
    header = all_lines[0].split(",")
    assert {"preset", "seed", "arm", "output_mse"} <= set(header)
    csv_lines = [l for l in all_lines if l.count(",") == len(header) - 1]
    assert len(csv_lines) == 1 + 2 * 2


@pytest.mark.parametrize("flag,value", [
    ("--max-iters", 0), ("--tol", -1), ("--dim", 0), ("--seeds", 0),
    ("--bits", 9), ("--bits", 2.5), ("--tol", "nan"), ("--tol", "inf")])
def test_cli_ablate_invalid_config_is_usage_error(tmp_path, flag, value):
    out = tmp_path / "r.csv"
    assert run(["ablate", "--preset", "rounding", "--seeds", 1, flag, value,
                "--out", out]) == 2
    assert not out.exists()


def test_cli_ablate_nan_bits_gets_range_message(capsys):
    assert run(["ablate", "--preset", "rounding", "--seeds", 1,
                "--bits", "nan"]) == 2
    assert "bits must lie in [1, 8]" in capsys.readouterr().err


def test_cli_ablate_fractional_bits_is_usage_error(capsys):
    # --bits is a run flag that glvq quantize takes fractional; the paired
    # ablations fit at one integer width
    assert run(["ablate", "--preset", "lattice", "--seeds", 1, "--bits", 1.5]) == 2
    assert "integer bit-widths" in capsys.readouterr().err


def test_ablation_reads_dim_and_bits_from_its_config():
    cfg = pipeline.RunConfig(dim=4, bits=3.0, max_iters=5)
    rows, _ = synthetic.run_ablation("rounding", seeds=1, config=cfg)
    assert [r["mean_bits"] for r in rows] == [3, 3]
    assert all(type(r["mean_bits"]) is int for r in rows)
    rows, _ = synthetic.run_ablation("bit-alloc", seeds=1, config=cfg)
    assert [r["mean_bits"] for r in rows] == [3.0, 3.0]
    with pytest.raises(ValueError):
        synthetic.glvq_vs_rtn(1, config=dataclasses.replace(cfg, bits=2.5))


def test_cli_ablate_unknown_preset():
    with pytest.raises(SystemExit) as exc:
        run(["ablate", "--preset", "nope"])
    assert exc.value.code == 2


def test_cli_bits_8_needs_uniform_widths(tmp_path, capsys):
    # balanced allocation at 8 bits would need 9-bit groups: rejected as a
    # setting before any group is fitted
    w, x = synthetic.make_layer(0)
    wpath, xpath = write_pair(tmp_path, "w", w), write_pair(tmp_path, "x", x)
    out = tmp_path / "q.glvq"
    assert run(["quantize", wpath, xpath, "--out", out, "--bits", 8,
                "--group-width", 64, "--max-iters", 2]) == 2
    assert "target 8 infeasible: it needs 9-bit groups" in capsys.readouterr().err
    assert not out.exists()
    assert run(["quantize", wpath, xpath, "--out", out, "--bits", 8,
                "--group-width", 64, "--max-iters", 2, "--no-bit-alloc"]) == 0
    assert {g.codec.bits for g in container.read_archive(out.read_bytes())} == {8}


def test_cli_ablate_bit_alloc_at_8_bits_is_usage_error(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["ablate", "--preset", "bit-alloc", "--seeds", 1, "--bits", 8,
                "--max-iters", 2, "--out", out]) == 2
    assert not out.exists()
