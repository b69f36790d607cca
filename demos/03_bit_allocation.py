#!/usr/bin/env python3
# Salience-determined bit allocation: rank groups by how much a coarse
# quantization probe perturbs the layer output, then hand out bit-widths
# around the mean target under the balanced +1/-1 constraint.

import numpy as np

from glvq import allocate_bits, compute_salience, kl_objective, rtn_quantize
from glvq.bitalloc import balanced_bits

rng = np.random.default_rng(0)

# A layer of 8 column groups whose magnitudes differ a lot.
scales = np.array([8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.12, 0.06])
width = 16
w = np.hstack([s * rng.standard_normal((32, width)) for s in scales])
x = rng.standard_normal((w.shape[1], 64))

# Both functions take the whole layer and cut it into groups of `width`
# columns themselves.
scores = compute_salience(w, x, width, probe_bits=2)
order = np.argsort(-scores, kind="stable")
print("salience scores:", np.round(scores, 1))
print("descending order:", order)

# The KL objective compares softmax-normalized layer outputs; the probe
# quantizes each group by round-to-nearest at its candidate width.
ref = w @ x
print("\nk  objective D(k)   (k groups promoted to 3 bits, k demoted to 1)")
for k in range(len(scales) // 2 + 1):
    bits = balanced_bits(order, 2, k)
    w_hat = np.hstack([rtn_quantize(w[:, i * width:(i + 1) * width], int(b))
                       for i, b in enumerate(bits)])
    print(f"{k}  {kl_objective(ref, w_hat @ x):.6f}")

# allocate_bits runs the ranking and this search itself.
bits = allocate_bits(w, x, width, 2)
print("\nchosen allocation:", bits, " mean =", bits.mean())
print("promoted:", (bits == 3).sum(), " demoted:", (bits == 1).sum())

# Fractional targets mix two adjacent widths; no search involved.
for target in (1.5, 2.25):
    bits = allocate_bits(w, x, width, target)
    print(f"target {target}: bits {bits} mean {bits.mean()}")
