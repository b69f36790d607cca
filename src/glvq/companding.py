"""Mu-law companding with a per-group curvature parameter.

The forward (compress) transform and its inverse (expand) are

    F(x)      = sgn(x) * ln(1 + mu |x|) / ln(1 + mu)
    F_inv(y)  = sgn(y) * ((1 + mu)^|y| - 1) / mu

with mu > 0 controlling compression strength.  F maps [-1, 1] onto
[-1, 1], is odd and strictly increasing.  The curvature is initialized
from the sample kurtosis of the data being compressed, then kept inside
the practical range [MU_MIN, MU_MAX].  mu = 0, the other curvature an
archive may hold, means linear coding: both transforms are the identity
and expand_grad returns (1, 0).
"""

import numpy as np

MU_MIN = 10.0
MU_MAX = 255.0


class DegenerateSampleError(ValueError):
    """Raised when kurtosis is undefined: zero variance or under 4 values."""


def _check_mu(mu) -> float:
    mu = float(mu)
    if not (mu == 0.0 or MU_MIN <= mu <= MU_MAX):
        raise ValueError(f"mu {mu:g} is neither 0 nor in [{MU_MIN:g}, {MU_MAX:g}]")
    return mu


def _check_finite(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def compand(x, mu):
    """Compress ``x`` with the mu-law transform.  Scalar in, scalar out."""
    mu = _check_mu(mu)
    a = _check_finite(x, "compand input")
    out = a if mu == 0.0 else np.sign(a) * np.log1p(mu * np.abs(a)) / np.log1p(mu)
    return out if out.ndim else float(out)


def expand(y, mu):
    """Invert the mu-law transform: expand(compand(x)) == x."""
    mu = _check_mu(mu)
    a = _check_finite(y, "expand input")
    out = a if mu == 0.0 else np.sign(a) * np.expm1(np.abs(a) * np.log1p(mu)) / mu
    return out if out.ndim else float(out)


def expand_grad(y, mu):
    """Derivatives (dF_inv/dy, dF_inv/dmu) of the expand transform.

    dF_inv/dy = (1 + mu)^|y| ln(1 + mu) / mu, positive and even in y.
    """
    mu = _check_mu(mu)
    a = _check_finite(y, "expand_grad input")
    if mu == 0.0:
        return (np.ones_like(a), np.zeros_like(a)) if a.ndim else (1.0, 0.0)
    log1p_mu = np.log1p(mu)
    absy = np.abs(a)
    p = np.exp(absy * log1p_mu)  # (1 + mu)^|y|
    didy = p * log1p_mu / mu
    didmu = np.sign(a) * (absy * p / (1.0 + mu) * mu - (p - 1.0)) / mu**2
    if didy.ndim:
        return didy, didmu
    return float(didy), float(didmu)


def kurtosis(sample) -> float:
    """Excess kurtosis m4 / m2^2 - 3 from biased central moments: near 0
    for a Gaussian sample, exactly -2 for a balanced +/-1 sample."""
    s = _check_finite(sample, "kurtosis sample").ravel()
    if s.size < 4:
        raise DegenerateSampleError(f"kurtosis needs at least 4 samples, got {s.size}")
    c = s - s.mean()
    c *= c  # squared deviations, in place
    m2 = float(np.mean(c))
    if m2 <= 0.0:
        raise DegenerateSampleError("sample has zero variance")
    m4 = float(np.mean(c * c))  # c**4 would go through libm pow
    return m4 / m2**2 - 3.0


def init_mu(kurtosis_value: float) -> float:
    """Initial curvature 100*tanh(kappa/10), clamped into [MU_MIN, MU_MAX]."""
    raw = 100.0 * np.tanh(float(kurtosis_value) / 10.0)
    return float(np.clip(raw, MU_MIN, MU_MAX))
