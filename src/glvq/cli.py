"""Command-line driver: quantize, dequantize, eval, ablate, overhead.

Exit codes: 0 success, 2 usage/config error (a ValueError other than
container.DataError), 3 data error (container.DataError or OSError),
4 internal error: the library decides what is bad data.  Outputs are
written atomically; reports never contain wall-clock times, so identical
configurations produce byte-identical outputs.
"""

import argparse
import csv
import io
import os
import sys
import time
from pathlib import Path

from . import container, pipeline, synthetic

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _write_csv(path, rows, fieldnames):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fieldnames})
    data = buf.getvalue().encode()
    if path:
        container.atomic_write_bytes(path, data)
    else:
        sys.stdout.write(data.decode())


# RunConfig field -> help text, one entry per run setting.  Each field's
# flag is "--" plus its name with dashes; its type and default come from
# RunConfig(), and a boolean takes both --x and --no-x.
_RUN_FLAG_HELP = {
    "dim": "lattice dimension d",
    "bits": ("target mean bits per weight; fractional targets need bit "
             "allocation (glvq quantize only)"),
    "group_width": "columns per group",
    "bit_alloc": "salience bit allocation (else uniform bit-widths)",
    "companding": "the mu-law stage (else linear coding)",
    "fixed_basis": "keep a scaled identity basis instead of learning one",
    "tol": "relative loss change that stops a group's fit",
    "max_iters": "most optimizer iterations per group",
}


def _add_run_flags(p, names=tuple(_RUN_FLAG_HELP)):
    """Add the flag of each RunConfig field in ``names``."""
    defaults = pipeline.RunConfig()
    for name in names:
        default = getattr(defaults, name)
        kind = ({"action": argparse.BooleanOptionalAction}
                if isinstance(default, bool) else {"type": type(default)})
        p.add_argument("--" + name.replace("_", "-"), default=default,
                       help=_RUN_FLAG_HELP[name], **kind)


def _run_config(args) -> pipeline.RunConfig:
    """The RunConfig of the run flags present on ``args``."""
    return pipeline.RunConfig(**{name: getattr(args, name)
                                 for name in _RUN_FLAG_HELP if hasattr(args, name)})


def cmd_quantize(args) -> int:
    cfg = _run_config(args)
    if args.report and os.path.realpath(args.report) == os.path.realpath(args.out):
        raise ValueError(f"--report and --out name the same file {args.out}")
    # float64 once, here, so the float32 arrays are freed before the fit
    # and the evaluation, which each check them but need not convert them
    weights = container.read_tensor_file(args.weights).astype(float)
    calib = container.read_tensor_file(args.calib).astype(float)
    start = time.perf_counter()
    result = pipeline.quantize_matrix(weights, calib, cfg, parallel=True)
    archive_data = result.archive_bytes()
    elapsed = time.perf_counter() - start

    # the report shows the side info as stored, which is what a decoder uses
    archive = container.read_archive(archive_data)
    rows = []
    for i, (group, (a, b), report) in enumerate(
            zip(archive, result.spans, result.reports)):
        codec = group.codec
        rows.append({
            "group": i, "start_col": a, "cols": b - a, "bits": codec.bits,
            "dim": codec.dim, "mu": codec.mu, "scale": codec.scale,
            "final_loss": report.final_loss, "iterations": report.iterations,
            "converged": report.converged,
            "overhead_pct": container.overhead_report(
                codec.dim, codec.rows, codec.cols, codec.bits),
        })
    metrics = pipeline.evaluate(weights, archive, calib)
    container.atomic_write_bytes(args.out, archive_data)
    if args.report:
        try:
            _write_csv(args.report, rows, list(rows[0].keys()))
        except OSError:  # an exit-3 quantize leaves no output
            Path(args.out).unlink()
            raise
    print(f"wrote {args.out}: {len(result.records)} groups, "
          f"{len(archive_data)} bytes")
    print(f"mean bits/weight: {result.mean_bits():.4f}  "
          f"overhead: {metrics['overhead_pct']:.3f}%")
    print(f"weight mse: {metrics['weight_mse']:.6g}  "
          f"output mse: {metrics['output_mse']:.6g}  kl: {metrics['kl']:.6g}")
    print(f"wall time: {elapsed:.2f}s")
    return EXIT_OK


def cmd_dequantize(args) -> int:
    archive = container.read_archive(Path(args.archive).read_bytes())
    rows, cols = container.write_tensor_file(args.out, archive.row_blocks())
    print(f"wrote {args.out}: shape {rows}x{cols}")
    return EXIT_OK


def cmd_eval(args) -> int:
    archive = container.read_archive(Path(args.archive).read_bytes())
    original = container.read_tensor_file(args.original).astype(float)
    calib = container.read_tensor_file(args.calib).astype(float)  # evaluate checks both
    metrics = pipeline.evaluate(original, archive, calib)
    for key in ("weight_mse", "output_mse", "kl", "bits_per_weight",
                "overhead_pct", "actual_side_bytes"):
        print(f"{key}: {metrics[key]:.6g}")
    if args.out:
        _write_csv(args.out, [metrics], list(metrics.keys()))
    return EXIT_OK


def cmd_ablate(args) -> int:
    rows, summaries = synthetic.run_ablation(
        args.preset, seeds=args.seeds, source=args.source, base_seed=args.seed,
        config=_run_config(args))
    fieldnames = sorted({k for r in rows for k in r})
    # stable, readable column order
    lead = [c for c in ("preset", "seed", "arm", "mean_bits") if c in fieldnames]
    fieldnames = lead + [c for c in fieldnames if c not in lead]
    _write_csv(args.out, rows, fieldnames)
    if args.out:
        print(f"wrote {args.out}: {len(rows)} rows")
    for s in summaries:
        verdict = "holds" if s["direction_holds"] else "not significant"
        print(f"{s['preset']}: {s['better']} < {s['worse']} on {s['metric']} in "
              f"{s['wins']}/{s['wins'] + s['losses']} seeds "
              f"({s['ties']} ties), sign-test p={s['pvalue']:.4g} -> {verdict}")
    return EXIT_OK


OVERHEAD_TABLE_DIMS = (8, 16, 32)
OVERHEAD_TABLE_COLS = (128, 256)
OVERHEAD_TABLE_ROWS = 4096
OVERHEAD_TABLE_BITS = (2, 3, 4)


def cmd_overhead(args) -> int:
    if args.paper_table:
        print(f"{'d':>4} {'m':>6} {'n':>6} " +
              " ".join(f"{'b=' + str(b):>6}" for b in OVERHEAD_TABLE_BITS))
        for d in OVERHEAD_TABLE_DIMS:
            for n in OVERHEAD_TABLE_COLS:
                vals = [container.overhead_report(d, OVERHEAD_TABLE_ROWS, n, b)
                        for b in OVERHEAD_TABLE_BITS]
                print(f"{d:>4} {OVERHEAD_TABLE_ROWS:>6} {n:>6} " +
                      " ".join(f"{v:>6.2f}" for v in vals))
        return EXIT_OK
    if None in (args.dim, args.rows, args.cols, args.bits):
        raise ValueError("need --dim, --rows, --cols and --bits (or --paper-table)")
    pct = container.overhead_report(args.dim, args.rows, args.cols, args.bits)
    print(f"d={args.dim} rows={args.rows} cols={args.cols} bits={args.bits} "
          f"overhead={pct:.3f}% (table: {pct:.2f})")
    return EXIT_OK


def _quantize_args(p):
    p.add_argument("weights", help="weight tensor (.f32 + .json manifest)")
    p.add_argument("calib", help="calibration features (.f32 + .json manifest)")
    p.add_argument("--out", required=True, help="output .glvq archive path")
    p.add_argument("--report", help="optional per-group CSV report path")
    _add_run_flags(p)


def _dequantize_args(p):
    p.add_argument("archive", help=".glvq archive path")
    p.add_argument("--out", required=True, help="output tensor path")


def _eval_args(p):
    p.add_argument("original", help="original weight tensor")
    p.add_argument("archive", help=".glvq archive path")
    p.add_argument("calib", help="calibration features")
    p.add_argument("--out", help="optional metrics CSV path")


def _ablate_args(p):
    p.add_argument("--preset", required=True, choices=synthetic.PRESETS)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--source", choices=synthetic.SOURCES, default="student_t")
    _add_run_flags(p, ("dim", "bits", "max_iters", "tol"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (stdout when omitted)")


def _overhead_args(p):
    p.add_argument("--dim", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--bits", type=int)
    p.add_argument("--paper-table", action="store_true",
                   help="print the full reference table")


# name -> (help line, function adding its arguments, handler), one row per
# subcommand
_COMMANDS = {
    "quantize": ("compress a weight tensor into an archive",
                 _quantize_args, cmd_quantize),
    "dequantize": ("decode an archive back to a tensor",
                   _dequantize_args, cmd_dequantize),
    "eval": ("error metrics of an archive vs the original",
             _eval_args, cmd_eval),
    "ablate": ("paired ablations on the synthetic suite",
               _ablate_args, cmd_ablate),
    "overhead": ("side-information overhead percentages",
                 _overhead_args, cmd_overhead),
}


def _build_command(p, name):
    _, add_args, func = _COMMANDS[name]
    add_args(p)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glvq",
        description="Grouped lattice vector quantization of weight tensors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _build_command(sub.add_parser(name, help=help_line), name)
    return parser


def _parse_args(argv):
    """Parse a command line.  When it starts with a subcommand name only
    that subcommand's parser is built (the same one build_parser nests,
    so help and errors read the same); anything else goes to the full
    tree."""
    if argv and argv[0] in _COMMANDS:
        parser = _build_command(
            argparse.ArgumentParser(prog=f"glvq {argv[0]}"), argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if extra:  # reported by the top-level parser, as the full tree does
            build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
        return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (container.DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # defensive: a bug, not bad input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
