"""Per-group lattice codec fitting.

A weight group is reshaped into d-dimensional column blocks, optionally
companded, and encoded as integer lattice codes via Babai rounding under
a learned d x d generation matrix.  The alternating optimizer refreshes
the codes, then takes monotone (step-halved) gradient steps on the basis
and the companding curvature, with spectral normalization keeping the
basis singular values in a stable range.  RTN and greedy coordinate
descent live here as baselines.

Bad group data (not 2-D, empty, mismatched or non-finite) raises
DataError, a ValueError, from check_inputs; bad settings, such as dim or
bits below 1 or a dim beyond the group size, raise a plain ValueError.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import companding
from .lattice import babai_round, check_basis

MAX_BITS = 8  # the widest code, in bits, that an archive record holds

# Optimizer constants: the initial (and largest) step sizes of the basis
# and curvature line searches, the weight of the basis anchor penalty,
# and the singular-value range spectral normalization keeps the basis in.
ETA_BASIS = 1e-3
ETA_MU = 1e-1
LAM = 0.1
SIGMA_MIN = 1e-2
SIGMA_MAX = 10.0
COV_RIDGE = 1e-6


class DataError(ValueError):
    """Input data that is malformed, empty, mismatched or non-finite."""


def _check_array(data, name: str) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DataError(f"{name} {a.shape} must be 2-D and non-empty")
    if not np.all(np.isfinite(a)):
        raise DataError(f"non-finite entries in {name}")
    return a


def check_inputs(weights, calib):
    """Float weights and calib, or DataError unless both are 2-D,
    non-empty and finite, with one calib row per weight column."""
    w = _check_array(weights, "weights")
    x = _check_array(calib, "calib")
    if w.shape[1] != x.shape[0]:
        raise DataError(f"calib has {x.shape[0]} rows for {w.shape[1]} weight columns")
    return w, x


@dataclass
class GroupCodec:
    """Side information needed to decode one group.

    ``mu == 0.0`` marks a group coded linearly: companding's transforms
    are the identity there.  Companded groups have mu in [10, 255].
    """

    basis: np.ndarray  # d x d generation matrix
    mu: float
    bits: int
    scale: float
    dim: int
    pad: int
    rows: int
    cols: int

    @property
    def columns(self) -> int:
        return (self.rows * self.cols + self.pad) // self.dim


@dataclass
class FitConfig:
    """Optimizer settings for fit_group; the step sizes, the anchor weight
    and the singular-value range are the module constants above."""

    tol: float = 1e-4
    max_iters: int = 200
    companding: bool = True
    fixed_basis: bool = False

    def validate(self) -> None:
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class FitReport:
    """What fit_group did.  ``loss_history`` holds the initial loss and one
    entry per accepted step; ``proposals`` counts the line-search
    proposals evaluated (one loss evaluation each, initial one excluded).

    ``stop_reason`` is "tol" (an iteration changed the loss by less than
    the relative tolerance), "stalled" (an iteration accepted no step:
    every step size was halved to its floor without a decrease),
    "no_accept" (an iteration accepted no step because nothing is
    learned: fixed basis and no companding) or "max_iters"."""

    loss_history: list = field(default_factory=list)
    iterations: int = 0
    proposals: int = 0
    stop_reason: str = "max_iters"

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1]

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_iters"


def code_range(bits: int):
    """Inclusive integer code range [-2^(b-1), 2^(b-1) - 1]."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


def reshape_group(weights, dim: int):
    """Flatten column-major, zero-pad to a multiple of ``dim`` and chunk
    into consecutive length-d column vectors.  Returns (d x l array, pad).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    w = np.asarray(weights, dtype=float)
    flat = w.ravel(order="F")
    pad = (-flat.size) % dim
    if pad:
        flat = np.concatenate([flat, np.zeros(pad)])
    return flat.reshape(-1, dim).T.copy(), int(pad)


def unreshape_group(latent, rows: int, cols: int, pad: int) -> np.ndarray:
    """Exact inverse of reshape_group (drops the zero padding)."""
    flat = np.asarray(latent, dtype=float).T.ravel()
    if pad:
        flat = flat[: rows * cols]
    return flat.reshape((rows, cols), order="F")


def quantize_columns(latent, codec: GroupCodec) -> np.ndarray:
    """Babai-round every latent column, then clamp into the code range."""
    z = babai_round(codec.basis, latent)
    lo, hi = code_range(codec.bits)
    return np.clip(z, lo, hi)


def gcd_quantize_columns(latent, codec: GroupCodec) -> np.ndarray:
    """Greedy coordinate descent index assignment (ablation baseline).

    Starting from all-zero codes, one round-robin sweep over the
    coordinates sets each to the in-range integer that minimizes the
    column residual with the other coordinates fixed.  Deterministic;
    per-column residuals never increase across updates.
    """
    b = check_basis(codec.basis)
    lat = np.asarray(latent, dtype=float)
    lo, hi = code_range(codec.bits)
    d = b.shape[0]
    col_norm2 = (b * b).sum(axis=0)
    z = np.zeros((d, lat.shape[1]))
    resid = lat.copy()
    for i in range(d):
        partial = resid + np.outer(b[:, i], z[i])
        t = (b[:, i] @ partial) / col_norm2[i]
        zi = np.clip(np.floor(t + 0.5), lo, hi)
        resid = partial - np.outer(b[:, i], zi)
        z[i] = zi
    return z.astype(np.int64)


def _latent_of(weights, codec: GroupCodec) -> np.ndarray:
    """The one weight-to-latent map: reshape, divide by scale, compand."""
    lat, _ = reshape_group(weights, codec.dim)
    lat /= codec.scale
    return companding.compand(lat, codec.mu)


def _decode(codes, codec: GroupCodec):
    """The one code-to-weight map.  Returns (Z as float, G Z, W_hat) with
    W_hat = scale * expand(G Z) as an m x n matrix."""
    zf = np.asarray(codes, dtype=float)
    v = codec.basis @ zf
    y = companding.expand(v, codec.mu)
    return zf, v, unreshape_group(codec.scale * y, codec.rows, codec.cols, codec.pad)


def reconstruct(codes, codec: GroupCodec) -> np.ndarray:
    """Decode codes to an m x n weight matrix: scale * expand(G Z)."""
    return _decode(codes, codec)[2]


def group_loss(weights, codec: GroupCodec, codes, calib, basis_init, lam: float = LAM) -> float:
    """Output reconstruction error plus basis anchor penalty:
    ||W X - W_hat X||_F^2 + lam ||G - G_init||_F^2."""
    w = np.asarray(weights, dtype=float)
    x = np.asarray(calib, dtype=float)
    w_hat = reconstruct(codes, codec)
    r = (w_hat - w) @ x
    dg = codec.basis - np.asarray(basis_init, dtype=float)
    return float((r * r).sum() + lam * (dg * dg).sum())


def _hessian_loss(weights, hess, codec, codes, basis_init, lam):
    """group_loss evaluated through H = X X^T:
    tr(dW H dW^T) + lam ||G - G_init||_F^2 with dW = W_hat - W.

    Costs O(m n^2) whatever the calibration length.  Also returns the
    terms (zf, v, p, dg) that _hessian_grads reuses, so a rejected
    proposal pays for its loss alone."""
    zf, v, w_hat = _decode(codes, codec)
    dw = w_hat - weights
    p = dw @ hess
    dg = codec.basis - basis_init
    loss = float((dw * p).sum() + lam * (dg * dg).sum())
    return loss, (zf, v, p, dg)


def _hessian_grads(codec, terms, lam):
    """Analytic gradients w.r.t. basis and mu from _hessian_loss's terms,
    with codes held constant (straight-through past the rounding)."""
    zf, v, p, dg = terms
    g_lat, _ = reshape_group(2.0 * p, codec.dim)  # pad positions land on zeros
    didy, didmu = companding.expand_grad(v, codec.mu)
    g_v = g_lat * (codec.scale * didy)
    grad_mu = float((g_lat * (codec.scale * didmu)).sum())
    return g_v @ zf.T + 2.0 * lam * dg, grad_mu


def _grads(weights, calib, codec, codes, basis_init, lam):
    w = np.asarray(weights, dtype=float)
    x = np.asarray(calib, dtype=float)
    _, terms = _hessian_loss(w, x @ x.T, codec, codes,
                             np.asarray(basis_init, dtype=float), lam)
    return _hessian_grads(codec, terms, lam)


def grad_basis(weights, calib, codec, codes, basis_init, lam: float = LAM) -> np.ndarray:
    """Analytic d x d gradient of group_loss w.r.t. the generation matrix."""
    return _grads(weights, calib, codec, codes, basis_init, lam)[0]


def grad_mu(weights, calib, codec, codes, basis_init, lam: float = LAM) -> float:
    """Analytic gradient of group_loss w.r.t. the companding curvature."""
    return _grads(weights, calib, codec, codes, basis_init, lam)[1]


def spectral_normalize(basis) -> np.ndarray:
    """Clamp the singular values into [SIGMA_MIN, SIGMA_MAX], keeping the
    singular vectors.  Identity on inputs already in range; idempotent."""
    b = np.asarray(basis, dtype=float)
    u, s, vt = np.linalg.svd(b)
    if np.all((s >= SIGMA_MIN) & (s <= SIGMA_MAX)):
        return b
    return (u * np.clip(s, SIGMA_MIN, SIGMA_MAX)) @ vt


def init_codec(weights, dim: int, bits: int, config: FitConfig | None = None) -> GroupCodec:
    """Build the initial codec for a weight group under ``config``.

    With companding the group is normalized by its max magnitude and the
    curvature comes from the sample kurtosis; without it mu is 0.  The
    basis starts from the Cholesky factor of the latent covariance (or
    the identity with ``fixed_basis``), scaled so the 99th percentile of
    the coordinate magnitudes sits at 2^(b-1) - 0.5, then spectrally
    normalized.  Without a kurtosis (zero variance, under 4 weights) mu
    starts at MU_MIN; an all-zero group keeps the basis 2^(1-b) I and
    scale 1.  Bad weights raise DataError.
    """
    return _init_group(_check_array(weights, "weights"), dim, bits,
                       config or FitConfig())[0]


def _init_group(w, dim, bits, cfg: FitConfig):
    """init_codec on checked float weights: returns (codec, its latent)."""
    code_range(bits)  # validates bits
    rows, cols = w.shape
    if not 1 <= dim <= rows * cols:
        raise ValueError(f"dim={dim} is not in [1, {rows * cols}], the group size")

    mu = 0.0
    if cfg.companding:
        try:
            mu = companding.init_mu(companding.kurtosis(w))
        except companding.DegenerateSampleError:
            mu = companding.MU_MIN
    amax = float(np.max(np.abs(w)))
    codec = GroupCodec(basis=2.0 ** (1 - bits) * np.eye(dim), mu=mu, bits=bits,
                       scale=amax or 1.0, dim=dim, pad=(-rows * cols) % dim,
                       rows=rows, cols=cols)
    lat = _latent_of(w, codec)
    if amax == 0.0:
        return codec, lat

    if cfg.fixed_basis:
        chol = np.eye(dim)
        coords = lat
    else:
        cov = lat @ lat.T / lat.shape[1] + COV_RIDGE * np.eye(dim)
        chol = np.linalg.cholesky(cov)
        coords = np.linalg.inv(chol) @ lat
    q = float(np.percentile(np.abs(coords), 99.0))
    alpha = q / (2 ** (bits - 1) - 0.5)
    if not np.isfinite(alpha) or alpha <= 0.0:
        alpha = 1.0
    return replace(codec, basis=spectral_normalize(alpha * chol)), lat


@dataclass
class _StepSize:
    """Backtracking state of one learned parameter's step size."""

    eta: float
    eta_max: float
    streak: int = 0

    @property
    def stalled(self) -> bool:
        return self.eta <= self.eta_max * 1e-15


def _line_search(step, size: _StepSize, loss, propose):
    """Backtracking line search: halve ``size.eta`` until the proposal
    ``propose(step(eta))`` does not raise ``loss``, and double it back
    toward ``eta_max`` after 5 consecutive accepts.  ``propose`` returns
    (loss, state).  Returns the accepted pair, or None once the step size
    stalls."""
    while not size.stalled:
        found = propose(step(size.eta))
        if found[0] <= loss:
            size.streak += 1
            if size.streak >= 5:
                size.eta = min(size.eta * 2.0, size.eta_max)
                size.streak = 0
            return found
        size.eta *= 0.5
        size.streak = 0
    return None


def fit_group(weights, calib, dim: int, bits: int, config: FitConfig | None = None):
    """Fit one group's codec by alternating code refresh and gradient steps.

    Proposals (gradient step, spectral normalization, mu projection, code
    refresh) are accepted only if the loss does not increase; on a
    rejection the parameter's step size is halved, and after 5
    consecutive accepts it is doubled back toward its default.  Stops
    when the relative loss change of an iteration falls below ``tol``,
    when no step is accepted, or after ``max_iters`` iterations.  Returns
    (codec, codes, FitReport).  Bad data raises DataError (check_inputs).

    The objective is evaluated through H = X X^T, built once, so a
    proposal's cost does not depend on the calibration length; gradients
    are computed only for accepted proposals.
    """
    cfg = config or FitConfig()
    w, x = check_inputs(weights, calib)
    # the latent depends on mu and scale only, so basis steps reuse it
    codec, latent = _init_group(w, dim, bits, cfg)
    basis_init = codec.basis.copy()
    hess = x @ x.T
    report = FitReport()

    codes = quantize_columns(latent, codec)
    loss, terms = _hessian_loss(w, hess, codec, codes, basis_init, LAM)
    g_b, g_m = _hessian_grads(codec, terms, LAM)
    report.loss_history.append(loss)

    def propose(cand_and_latent):
        report.proposals += 1
        cand, cand_lat = cand_and_latent
        cand_codes = quantize_columns(cand_lat, cand)
        cand_loss, cand_terms = _hessian_loss(w, hess, cand, cand_codes,
                                              basis_init, LAM)
        return cand_loss, (cand, cand_lat, cand_codes, cand_terms)

    def basis_step(eta):
        return replace(codec, basis=spectral_normalize(codec.basis - eta * g_b)), latent

    def mu_step(eta):
        cand = replace(codec, mu=float(np.clip(
            codec.mu - eta * g_m, companding.MU_MIN, companding.MU_MAX)))
        return cand, _latent_of(w, cand)

    # (step, step size) per learned parameter, searched in this order
    searches = []
    if not cfg.fixed_basis:
        searches.append((basis_step, _StepSize(ETA_BASIS, ETA_BASIS)))
    if codec.mu > 0.0:
        searches.append((mu_step, _StepSize(ETA_MU, ETA_MU)))

    for _ in range(cfg.max_iters):
        report.iterations += 1
        loss_start = loss
        accepted_any = False
        for step, size in searches:
            found = _line_search(step, size, loss, propose)
            if found is not None:
                loss, (codec, latent, codes, terms) = found
                g_b, g_m = _hessian_grads(codec, terms, LAM)
                report.loss_history.append(loss)
                accepted_any = True
        # without an accept every search has stalled, since a line search
        # gives up only at its step-size floor
        if not accepted_any:
            report.stop_reason = "stalled" if searches else "no_accept"
            break
        if abs(loss - loss_start) / max(loss_start, 1e-30) < cfg.tol:
            report.stop_reason = "tol"
            break

    return codec, codes, report


def rtn_quantize(weights, bits: int) -> np.ndarray:
    """Symmetric round-to-nearest scalar quantization baseline."""
    lo, hi = code_range(bits)
    w = np.asarray(weights, dtype=float)
    amax = float(np.max(np.abs(w))) if w.size else 0.0
    if amax == 0.0:
        return np.zeros_like(w)
    s = amax if bits == 1 else amax / (2 ** (bits - 1) - 1)
    q = np.clip(np.floor(w / s + 0.5), lo, hi)
    return s * q
