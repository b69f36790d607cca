"""Benchmark of glvq quantize / dequantize on pinned synthetic workloads.

Run from the root of a glvq checkout:

    python3 bench/run.py --workload many_groups --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each operation is a closed-loop, single-process run of
the glvq CLI (``glvq quantize`` or the optimizer-free build, then
``glvq dequantize``), timed inside the child from the command's call to
its return, with the child's own peak RSS (``timed_command.py``); the
end-to-end metrics are printed.  With
``--trace 1`` the same operations run in-process, alternately untraced
and with every public glvq function wrapped in a span, and the per-layer
metrics are printed instead.  Every output is checked; the last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics.  See README.md in this directory for the metrics.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
TIMED_COMMAND = Path(__file__).resolve().with_name("timed_command.py")
# One BLAS thread, at most nproc anywhere: the matrices are small, and on a
# two-core machine a second thread spins against the benchmark's process.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

if __name__ == "__main__":
    if not (SRC / "glvq" / "cli.py").is_file():
        sys.exit(f"error: no glvq sources under {SRC}; run from a glvq checkout")
    # OpenBLAS reads its thread count when numpy loads it.
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import build_archive  # noqa: E402
import checks  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from glvq import cli, container, pipeline  # noqa: E402

# (name, unit, better, bound): the end-to-end metrics of a --trace 0 run.
END_TO_END = (
    ("quantize_s", "s", "lower", 0.25),
    ("quantize_peak_rss_mb", "MB", "lower", 0.1),
    ("dequantize_s", "s", "lower", 0.25),
    ("dequantize_peak_rss_mb", "MB", "lower", 0.1),
    ("output_rel_err", "ratio", "lower", 0.25),
    ("bits_per_weight", "bit", "lower", 0.01),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
)


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def run_child(argv, log_path):
    """Run a child process to completion; returns (wall seconds, exit code)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        code = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                              env=child_env(), cwd=ROOT).returncode
        return time.perf_counter() - start, code


def exit_problems(code, log_path):
    if code == 0:
        return []
    lines = log_path.read_text(errors="replace").strip().splitlines()
    return [f"exit code {code}: {lines[-1] if lines else 'no output'}"]


class Run:
    """One workload's inputs, operations and checks for one seed."""

    def __init__(self, wl, seed, work):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.tally = checks.Tally()
        self.layers = []  # (w float32, x float32) per layer
        self.first_archive = {}  # layer -> archive bytes of its first build
        self.expected = {}  # layer -> float32 decode of that archive
        self.quality = {}  # layer -> (output_rel_err, bits_per_weight)

    def path(self, kind, i):
        suffix = {"w": ".f32", "x": ".f32", "a": ".glvq", "o": ".f32"}[kind]
        return self.work / f"{kind}{i}{suffix}"

    def setup(self):
        """Generate every layer from the seed and write its tensor files.

        Returns the seconds spent in glvq's ``write_tensor_file``; the
        rest is the benchmark's own sampling of the inputs.
        """
        self.layers = []
        writing = 0.0
        for i in range(self.wl.layers):
            w, x = workloads.make_layer(self.seed, i, self.wl)
            start = time.perf_counter()
            container.write_tensor_file(str(self.path("w", i)), w)
            container.write_tensor_file(str(self.path("x", i)), x)
            writing += time.perf_counter() - start
            self.layers.append((w, x))
        return writing

    def quantize_argv(self, i):
        if self.wl.quantizer == "cli":
            return ["quantize", str(self.path("w", i)), str(self.path("x", i)),
                    "--out", str(self.path("a", i)), "--dim", str(workloads.DIM),
                    "--bits", str(self.wl.bits),
                    "--group-width", str(workloads.WIDTH)]
        bits = workloads.init_bits(self.seed, self.wl)
        return [str(self.path("w", i)), "--bits", ",".join(map(str, bits)),
                "--out", str(self.path("a", i))]

    def quantize_command(self, i):
        module = "glvq.cli" if self.wl.quantizer == "cli" else "build_archive"
        return module, self.quantize_argv(i)

    def dequantize_command(self, i):
        return "glvq.cli", self.dequantize_argv(i)

    def dequantize_argv(self, i):
        return ["dequantize", str(self.path("a", i)), "--out", str(self.path("o", i))]

    def check_quantize(self, i, problems):
        """Check layer i's archive; returns it, or None if the op failed.

        The first archive of a layer is evaluated; a repeat must be
        byte-identical to it.
        """
        archive = None
        if not problems:
            data = self.path("a", i).read_bytes()
            archive, found = checks.archive_problems(data, self.wl)
            problems += found
            if data != self.first_archive.setdefault(i, data):
                problems.append("archive differs from an earlier quantize "
                                "of the same input")
            elif not problems and i not in self.quality:
                problems += self.evaluate(i, archive, len(data))
        if not self.tally.record(f"quantize layer {i}", problems):
            return None
        return archive

    def evaluate(self, i, archive, size):
        """Record layer i's output error and rate with glvq's own
        ``pipeline.evaluate``; returns the rate check's problems."""
        w, x = self.layers[i]
        report = pipeline.evaluate(w, archive, x)
        problems = checks.rate_problems(report["bits_per_weight"], self.wl.bits)
        if not problems:
            out = w.astype(float) @ x.astype(float)
            # output_mse is ||(W_hat - W) X||^2 / (rows * T)
            err = report["output_mse"] * out.size / float((out * out).sum())
            self.quality[i] = (err, size * 8 / w.size)
        return problems

    def check_dequantize(self, i, problems):
        if not problems:
            if i not in self.expected:
                archive = container.read_archive(self.first_archive[i])
                self.expected[i] = archive.decode_matrix().astype(np.float32)
            problems += checks.decode_problems(self.path("o", i), self.expected[i])
        self.tally.record(f"dequantize layer {i}", problems)

    def pass_order(self):
        """Each layer once, then the first again to check determinism."""
        return list(range(self.wl.layers)) + [0]


def run_command(run, module, argv):
    """Run ``module.main(argv)`` in a fresh child (``timed_command.py``).

    Returns (seconds of the call, peak RSS in MB, problems); the seconds
    and the peak are None if the command failed.
    """
    result = run.work / "command.json"
    result.unlink(missing_ok=True)
    log = run.work / "child.log"
    _, code = run_child([sys.executable, str(TIMED_COMMAND), str(result),
                         module] + argv, log)
    problems = exit_problems(code, log)
    if problems:
        return None, None, problems
    try:
        reply = json.loads(result.read_text())
    except (OSError, ValueError) as exc:
        return None, None, [f"no command result: {exc}"]
    return reply["seconds"], reply["peak_rss_mb"], []


def measure(run, seconds):
    """Closed loop of whole passes until the next pass would overrun."""
    q_times, q_rss, d_times, d_rss, pass_means = [], [], [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        pass_q = []
        for i in run.pass_order():
            t, mb, problems = run_command(run, *run.quantize_command(i))
            if t is not None:
                q_times.append(t)
                q_rss.append(mb)
                pass_q.append(t)
            if run.check_quantize(i, problems) is None:
                continue
            for _ in range(run.wl.decodes):
                t, mb, problems = run_command(run, *run.dequantize_command(i))
                if t is not None:
                    d_times.append(t)
                    d_rss.append(mb)
                run.check_dequantize(i, problems)
        pass_means.append(statistics.fmean(pass_q or [float("nan")]))
        now = time.perf_counter()
        if now + (now - pass_start) > start + seconds:
            break
    quality = list(run.quality.values()) or [(float("nan"), float("nan"))]
    values = {
        "quantize_s": statistics.median(pass_means),
        "quantize_peak_rss_mb": statistics.median(q_rss or [float("nan")]),
        "dequantize_s": statistics.median(d_times or [float("nan")]),
        "dequantize_peak_rss_mb": statistics.median(d_rss or [float("nan")]),
        "output_rel_err": statistics.fmean(e for e, _ in quality),
        "bits_per_weight": statistics.fmean(b for _, b in quality),
        "ok_ratio": 1.0 - run.tally.failed / run.tally.attempted,
    }
    notes = {
        "quantize_s": f"mean per pass over {len(pass_means)} pass(es) of "
                      f"{len(run.pass_order())} ops, median over passes",
        "dequantize_s": f"median of {len(d_times)} ops",
        "output_rel_err": f"mean over {len(run.quality)} layer(s)",
    }
    # Tails are printed, not reported: a run holds 2 to 24 samples, so the
    # highest percentile with ten samples beyond it is at most p58, or the
    # maximum below 20 samples, which one slow sample moves by a third.
    for name, times in (("quantize", q_times), ("dequantize", d_times)):
        print(f"{name} seconds:", " ".join(f"{t:.3f}" for t in times))
        if times:
            value, level, beyond = stats.tail(times)
            print(f"{name}_s.tail {value:.4f} s: p{level:.0f} of {len(times)} "
                  f"ops, {beyond} beyond")
    return values, notes


def inprocess_op(run, i, recorder=None):
    """Quantize and dequantize layer i in this process, traced by
    ``recorder`` if given, then check the outputs.

    Returns (seconds, archive or None if the quantize failed).
    """
    sink = io.StringIO()
    installed = recorder.installed() if recorder else contextlib.nullcontext()
    with installed, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        if run.wl.quantizer == "cli":
            q_code = cli.main(run.quantize_argv(i))
        else:
            q_code = build_archive.main(run.quantize_argv(i))
        d_code = cli.main(run.dequantize_argv(i)) if q_code == 0 else None
        elapsed = time.perf_counter() - start
    output = sink.getvalue().strip().splitlines()
    problems = [] if q_code == 0 else [f"exit code {q_code}: {output[-1:]}"]
    archive = run.check_quantize(i, problems)
    if archive is not None:
        run.check_dequantize(i, [] if d_code == 0 else [f"exit code {d_code}"])
    return elapsed, archive


def measure_traced(run, seconds):
    """Alternate untraced and traced in-process operations, layer by layer."""
    import_times = []
    log = run.work / "child.log"
    for _ in range(IMPORT_REPEATS):
        t, code = run_child([sys.executable, "-c", "import glvq.cli"], log)
        run.tally.record("import glvq.cli", exit_problems(code, log))
        import_times.append(t)
    inprocess_op(run, 0)  # warm-up, so neither side pays first-call costs
    recorder = tracer.Tracer()
    untraced = traced = 0.0
    ops = zero_groups = archive_bytes = 0
    start = time.perf_counter()
    for i in range(run.wl.layers):
        pair_start = time.perf_counter()
        untraced += inprocess_op(run, i)[0]
        elapsed, archive = inprocess_op(run, i, recorder)
        traced += elapsed
        ops += 1
        if archive is not None:
            zero_groups += sum(1 for g in archive if not np.any(g.decode()))
            archive_bytes += run.path("a", i).stat().st_size
        now = time.perf_counter()
        if now + (now - pair_start) > start + seconds:
            break
    return tracer.per_layer_metrics(
        recorder, ops, zero_groups, archive_bytes,
        import_s=statistics.median(import_times), overhead=traced / untraced - 1.0)


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(wl, args.seed, work)
        setup_times, write_times = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            write_times.append(run.setup())
            setup_times.append(time.perf_counter() - start)
        # Untimed warm-up: byte-compiles glvq and warms the file cache.
        run_child([sys.executable, "-c", "import glvq.cli"], work / "child.log")
        print(json.dumps({"environment": environment(args.seed),
                          "workload": dataclasses.asdict(wl)}))
        if args.trace:
            metrics = measure_traced(run, args.seconds)
            notes = {}
        else:
            values, notes = measure(run, args.seconds)
            values["setup_s"] = statistics.median(setup_times)
            notes["setup_s"] = (
                f"median of {SETUP_REPEATS} set-ups, "
                f"{sum(write_times) / sum(setup_times):.0%} in write_tensor_file")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    attempted, failed = run.tally.attempted, run.tally.failed
    print(f"ops attempted {attempted}, failed {failed}, fail_ratio "
          f"{failed / max(attempted, 1):.4g}")
    for problem in run.tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
