"""In-process tracing of glvq from outside the program.

``Tracer.installed()`` replaces every public function of the glvq layer
modules with a wrapper that records a span (name, start, end, parent),
in every glvq module namespace that holds the function, so names that
modules import from each other (``codebook.babai_round``,
``container.reconstruct``, ``bitalloc.rtn_quantize``) are traced too.
Spans stay in memory; ``per_layer_metrics`` derives calls, inclusive
and self times, and the optimizer counters from them.
"""

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

PACKAGE = "glvq"
LAYERS = ("cli", "pipeline", "bitalloc", "codebook", "lattice", "companding",
          "container")
FIT = "codebook.fit_group"

# (name, unit, better): every metric a traced run reports, per operation.
PER_LAYER = (
    ("codebook.fit_group.s", "s", "lower"),
    ("codebook.fit_group.self_s", "s", "lower"),
    ("codebook.proposals", "count", "lower"),
    ("codebook.accepted", "count", "higher"),
    ("codebook.accept_ratio", "ratio", "higher"),
    ("codebook.iterations", "count", "lower"),
    ("codebook.converged_share", "ratio", "higher"),
    ("codebook.init_codec.s", "s", "lower"),
    ("codebook.spectral_normalize.calls", "count", "lower"),
    ("codebook.spectral_normalize.s", "s", "lower"),
    ("codebook.zero_decode_groups", "count", "lower"),
    ("codebook.reconstruct.s", "s", "lower"),
    ("lattice.babai_round.calls", "count", "lower"),
    ("lattice.babai_round.s", "s", "lower"),
    ("lattice.babai_round.self_s", "s", "lower"),
    ("lattice.check_basis.calls", "count", "lower"),
    ("lattice.check_basis.s", "s", "lower"),
    ("companding.compand.calls", "count", "lower"),
    ("companding.compand.s", "s", "lower"),
    ("companding.expand.calls", "count", "lower"),
    ("companding.expand.s", "s", "lower"),
    ("companding.expand_grad.calls", "count", "lower"),
    ("companding.expand_grad.s", "s", "lower"),
    ("bitalloc.compute_salience.s", "s", "lower"),
    ("bitalloc.allocate_bits.s", "s", "lower"),
    ("bitalloc.probes", "count", "lower"),
    ("bitalloc.kl_objective.s", "s", "lower"),
    ("pipeline.quantize_matrix.s", "s", "lower"),
    ("pipeline.evaluate.s", "s", "lower"),
    ("container.write_archive.s", "s", "lower"),
    ("container.pack_codes.s", "s", "lower"),
    ("container.archive_bytes", "bytes", "lower"),
    ("container.read_archive.s", "s", "lower"),
    ("container.unpack_codes.s", "s", "lower"),
    ("container.write_tensor_file.s", "s", "lower"),
    ("container.read_tensor_file.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.spans", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


class Tracer:
    """Records one span per call of a wrapped function.

    A span is [name, start, end, parent index or None].  The return
    values of ``fit_group`` calls are collected in ``fits``.
    """

    def __init__(self):
        self.spans = []
        self.fits = []
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if name == FIT:
                self.fits.append(out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap the public functions of every layer module while inside."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def _ancestor(spans, index, name):
    """Index of the nearest ancestor span called ``name``, or None."""
    while index is not None:
        if spans[index][0] == name:
            return index
        index = spans[index][3]
    return None


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover.  Inclusive time skips spans nested in a span of the same
    name, so recursion is not counted twice.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[i]
        if _ancestor(spans, parent, name) is None:
            entry["s"] += end - start
    return out


def count_under(spans, name, ancestor):
    """Number of ``name`` spans that run inside an ``ancestor`` span."""
    return sum(1 for n, _, _, parent in spans
               if n == name and _ancestor(spans, parent, ancestor) is not None)


def per_layer_metrics(tracer, ops, zero_groups, archive_bytes, import_s,
                      overhead):
    """Per-operation averages over ``ops`` traced operations.

    ``zero_groups`` and ``archive_bytes`` are totals over the traced
    operations' archives; ``import_s`` and ``overhead`` are measured by
    the caller.
    """
    spans = tracer.spans
    summary = summarize(spans)
    reports = [r for _, _, r in tracer.fits]
    fits = len(reports)
    # Each fit refreshes its codes once before the first proposal, then
    # once per proposal; both go through babai_round.
    proposals = count_under(spans, "lattice.babai_round", FIT) - fits
    accepted = sum(len(r.loss_history) - 1 for r in reports)

    totals = {
        "codebook.proposals": proposals,
        "codebook.accepted": accepted,
        "codebook.iterations": sum(r.iterations for r in reports),
        "codebook.zero_decode_groups": zero_groups,
        "bitalloc.probes": count_under(spans, "bitalloc.kl_objective",
                                       "bitalloc.allocate_bits"),
        "container.archive_bytes": archive_bytes,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        totals[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in summary.items() if k.split(".")[0] == layer)
    values = {
        "codebook.accept_ratio": accepted / proposals if proposals else 0.0,
        "codebook.converged_share": (sum(r.converged for r in reports) / fits
                                     if fits else 0.0),
        "cli.import_s": import_s,
        "trace.overhead": overhead,
    }
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            value = values[name]
        elif name in totals:
            value = totals[name] / ops
        else:
            function, key = name.rsplit(".", 1)
            value = summary.get(function, {}).get(key, 0) / ops
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics
