"""Grouped lattice vector quantization toolkit.

Library layout:

- ``lattice``: generation matrices, Gram-Schmidt, LLL reduction, Babai
  rounding, exact CVP oracle, residual bounds
- ``companding``: mu-law compress/expand, derivatives, kurtosis init
- ``bitalloc``: salience scores, KL objective, balanced bit allocation
- ``codebook``: RunConfig, the one config (linear coding by default),
  per-group codec fitting, RTN and greedy baselines
- ``container``: tensor files, packed codes, the .glvq archive
- ``pipeline``: layer-level quantize, error metrics
- ``synthetic``: pinned synthetic suite and paired ablations
- ``cli``: the ``glvq`` command-line entry point
"""

from .bitalloc import allocate_bits, compute_salience, kl_objective
from .codebook import RunConfig, fit_group, reconstruct, rtn_quantize
from .companding import compand, expand, init_mu, kurtosis
from .container import overhead_report, pack_codes, read_archive, write_archive
from .lattice import (babai_error_bound, babai_round, decode, exact_cvp,
                      gram_schmidt, lll_reduce)
from .pipeline import evaluate, quantize_matrix

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "allocate_bits", "babai_error_bound", "babai_round",
    "compand", "compute_salience", "decode", "evaluate", "exact_cvp",
    "expand", "fit_group", "gram_schmidt", "init_mu", "kl_objective",
    "kurtosis", "lll_reduce", "overhead_report", "pack_codes",
    "quantize_matrix", "read_archive", "reconstruct", "rtn_quantize",
    "write_archive",
]
