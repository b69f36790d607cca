#!/usr/bin/env python3
# Fitting one group codec: alternating code refresh and monotone gradient
# steps on the generation matrix and the companding curvature.

from dataclasses import replace

import numpy as np

from glvq import RunConfig, fit_group, reconstruct, rtn_quantize
from glvq.pipeline import metrics
from glvq.synthetic import make_group

# A heavy-tailed group with correlated length-8 blocks, plus calibration.
w, x = make_group(seed=3, source="student_t", dim=8)
print("group shape:", w.shape, " calib shape:", x.shape)

# Companding is opt-in; with it, the fit learns the curvature mu too.
cfg = RunConfig(companding=True)
codec, codes, report = fit_group(w, x, dim=8, bits=2, config=cfg)
print(f"\nconverged={report.converged} after {report.iterations} iterations")
print(f"loss: {report.loss_history[0]:.0f} -> {report.final_loss:.0f}")
print("learned curvature mu:", round(codec.mu, 1))
print("basis singular values:", np.round(np.linalg.svd(codec.basis)[1], 3))

# Accepted-step losses never increase.
h = np.array(report.loss_history)
print("monotone loss trace:", bool(np.all(np.diff(h) <= 0)))

# Compare against plain round-to-nearest at the same 2 bits per weight.
w_hat = reconstruct(codes, codec)
print("\noutput-space mse, lattice codec:",
      round(metrics(w, w_hat, x)["output_mse"], 2))
print("output-space mse, rtn baseline :",
      round(metrics(w, rtn_quantize(w, 2), x)["output_mse"], 2))

# Freezing the basis at a scaled identity shows what the learning buys.
fixed, fixed_codes, _ = fit_group(w, x, dim=8, bits=2,
                                  config=replace(cfg, fixed_basis=True))
print("output-space mse, fixed identity basis:",
      round(metrics(w, reconstruct(fixed_codes, fixed), x)["output_mse"], 2))
