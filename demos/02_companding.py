#!/usr/bin/env python3
# Mu-law companding: the transform pair, derivatives, kurtosis-driven
# initialization, and where companding actually pays off.

import numpy as np

from glvq import compand, expand, init_mu, kurtosis
from glvq.companding import expand_grad

# The compress curve expands small magnitudes and compresses large ones.
xs = np.array([0.001, 0.01, 0.1, 0.5, 1.0])
for mu in (10, 100, 255):
    print(f"mu={mu:3d}:", np.round(compand(xs, mu), 4))

# Round trip is exact to float precision.
grid = np.linspace(-1, 1, 1001)
err = np.abs(expand(compand(grid, 87.0), 87.0) - grid).max()
print("\nround-trip max error:", err)

# The fit differentiates the expander only (codes are held constant); its
# closed-form derivative, checked against a finite difference.
y, mu, h = 0.3, 120.0, 1e-6
didy, _ = expand_grad(y, mu)
fd = (expand(y + h, mu) - expand(y - h, mu)) / (2 * h)
print(f"dF_inv/dy analytic {didy:.6f} vs finite difference {fd:.6f}")

# Heavier tails ask for stronger companding at initialization.
rng = np.random.default_rng(1)
for name, sample in (("gaussian", rng.standard_normal(50000)),
                     ("laplacian", rng.laplace(size=50000)),
                     ("student_t4", rng.standard_t(4, size=50000))):
    k = kurtosis(sample)
    print(f"{name:10s} excess kurtosis {k:7.2f} -> initial mu {init_mu(k):6.1f}")

# Where does companding beat a plain linear grid?  Quantize Laplacian
# scalars with L levels, both ways, with the cell size tuned for each.
print("\nlevels  linear-mse  mulaw-mse(best mu)")
w = rng.laplace(size=100000)
for levels in (4, 8, 16, 64):
    lo, hi = -levels // 2, levels // 2 - 1
    best_lin = min(((w - c * np.clip(np.floor(w / c + 0.5), lo, hi)) ** 2).mean()
                   for c in np.geomspace(0.05, 5, 80))
    best_mu = 1e9
    scale = np.abs(w).max()
    for mu in (10, 30, 100, 255):
        y = compand(w / scale, mu)
        for c in np.geomspace(0.005, 1, 80):
            w_hat = scale * expand(c * np.clip(np.floor(y / c + 0.5), lo, hi), mu)
            best_mu = min(best_mu, ((w - w_hat) ** 2).mean())
    print(f"{levels:6d}  {best_lin:10.4f}  {best_mu:10.4f}")
# At very low level counts the two are close; the companded codec pulls
# ahead as resolution grows.
