"""Per-group lattice codec fitting.

A weight group is reshaped into d-dimensional column blocks, optionally
companded, and encoded as integer lattice codes via Babai rounding under
a learned d x d generation matrix.  A group may be float32, a slice of
a layer as read_tensor_file returns it: each function converts it to
float64 itself.  Codes are int8, 1 byte per weight.  The alternating
optimizer refreshes the codes, then takes monotone (step-halved)
gradient steps on the basis and the companding curvature, with spectral
normalization keeping the basis singular values in a stable range.  A
proposal's code refresh reuses the one inverse of a basis that spectral
normalization has shown to be full rank, and its loss decodes W_hat into
a new row-major array and takes dW = W_hat - W there in place.  A linear
fit (mu = 0) calls no companding function.  RTN
and greedy coordinate descent live here as baselines.  RunConfig holds
every setting of a run, the fit's among them; a fit without one codes
linearly, as a run does by default.  reconstruct is the one decode:
nothing here reads an archive.

Bad group data (not 2-D, empty, mismatched or non-finite) raises
DataError, a ValueError, from check_inputs; bad settings, such as a dim
outside [1, group size] or bits that code_range (the one width rule,
which every encoder, packer and record check reads) rejects, raise a
plain ValueError.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import companding
from .lattice import babai_round, check_basis

MAX_BITS = 8  # the widest code, in bits, that an archive record holds
_SLAB = 16384  # latent values reshape_group copies at a time: 128 KiB

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
    return check_rows(_check_array(weights, "weights"), _check_array(calib, "calib"))


def check_rows(w, x):
    """(w, x), or DataError unless calib ``x`` has one row per column of ``w``."""
    if w.shape[1] != x.shape[0]:
        raise DataError(f"calib has {x.shape[0]} rows for {w.shape[1]} weight columns")
    return w, x


@dataclass
class GroupCodec:
    """Side information needed to decode one group.

    ``mu == 0.0`` marks a group coded linearly: companding's transforms
    are the identity there.  Companded groups have mu in [10, 255].
    ``pad``, the zeros that fill the rows x cols group up to whole
    dim-long latent columns, follows from the shape.
    """

    basis: np.ndarray  # d x d generation matrix
    mu: float
    bits: int
    scale: float
    dim: int
    rows: int
    cols: int

    @property
    def pad(self) -> int:
        return (-self.rows * self.cols) % self.dim

    @property
    def columns(self) -> int:
        return (self.rows * self.cols + self.pad) // self.dim


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a quantization run, checked (ValueError) when built
    or replaced.  A group's fit reads the first four; ``tol = 0`` never
    stops on tolerance.  Coding is linear unless ``companding`` is set.
    The step sizes, the anchor weight and the singular-value range are
    module constants."""

    tol: float = 1e-4
    max_iters: int = 200
    companding: bool = False
    fixed_basis: bool = False
    dim: int = 8
    bits: float = 2.0
    group_width: int = 128
    bit_alloc: bool = True

    def __post_init__(self):
        if not 0.0 <= self.tol < np.inf:
            raise ValueError("tol must be finite and positive, or 0 for no "
                             f"tolerance stop, got {self.tol}")
        _check_count("max_iters", self.max_iters)
        _check_count("dim", self.dim)
        if not 1.0 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must lie in [1, {MAX_BITS}], got {self.bits}")
        _check_count("group_width", self.group_width)


def partition_columns(cols: int, width: int):
    """The one cut of a layer into groups: spans [start, stop) of at most ``width`` columns."""
    _check_count("width", width)
    return [(a, min(a + width, cols)) for a in range(0, cols, width)]


def _check_count(name: str, value) -> None:
    """ValueError unless the setting ``value`` is an integer >= 1 (a Python
    or numpy integer)."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value}")


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
    """Code range (lo, hi) = (-2^(b-1), 2^(b-1) - 1) of the b-bit midtread
    grid; ValueError unless ``bits`` is a (numpy) integer in 1..MAX_BITS."""
    if not isinstance(bits, (int, np.integer)) or not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in 1..{MAX_BITS}, got {bits}")
    # int(): in a numpy unsigned width, -lo would wrap
    return -(2 ** (int(bits) - 1)), 2 ** (int(bits) - 1) - 1


def reshape_group(weights, dim: int):
    """Flatten column-major, zero-pad to a multiple of ``dim`` and chunk
    into consecutive length-d column vectors.  Returns (d x l array, pad).

    The array is a new C-contiguous float64 one that shares no memory
    with ``weights``, so callers may scale it in place.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    w = np.asarray(weights)
    if w.ndim == 2 and w.shape[0] % dim == 0:
        # latent column c * (rows/d) + q holds rows q*d .. q*d + d-1 of
        # column c, so the latent viewed (d, cols, rows/d) is the group
        # viewed (rows/d, d, cols), transposed: one strided copy, with the
        # cast, a slab of block rows at a time so that what it reads and
        # writes stays in cache
        rows, cols = w.shape
        r = rows // dim
        blocks = w.reshape(r, dim, cols)
        lat = np.empty((dim, cols, r))
        step = max(1, _SLAB // max(dim * cols, 1))
        for q in range(0, r, step):
            lat[:, :, q:q + step] = blocks[q:q + step].transpose(1, 2, 0)
        return lat.reshape(dim, cols * r), 0
    w = np.asarray(w, dtype=float)
    flat = w.ravel(order="F")
    pad = (-flat.size) % dim
    if pad:
        flat = np.concatenate([flat, np.zeros(pad)])
    return flat.reshape(-1, dim).T.copy(), int(pad)


def unreshape_group(latent, rows: int, cols: int) -> np.ndarray:
    """Exact inverse of reshape_group for a rows x cols group: drops the
    zero padding past its rows * cols weights."""
    flat = np.asarray(latent, dtype=float).T.ravel()
    return flat[:rows * cols].reshape((rows, cols), order="F")


def quantize_columns(latent, codec: GroupCodec, inverse=None) -> np.ndarray:
    """Babai-round every latent column, then clamp into the code range in
    place.  Returns int8 codes, 1 byte per weight, which hold every width
    up to MAX_BITS, as unpack_codes does on the decode side.  The fit
    passes ``inverse``, np.linalg.inv(codec.basis) of a basis it knows to
    be full rank, so that babai_round neither checks nor inverts it."""
    z = babai_round(codec.basis, latent, inverse, cast=False)
    lo, hi = code_range(codec.bits)
    np.clip(z, lo, hi, out=z)
    return z.astype(np.int8)


def gcd_quantize_columns(latent, codec: GroupCodec) -> np.ndarray:
    """Greedy coordinate descent index assignment (ablation baseline).

    Starting from all-zero codes, one round-robin sweep over the
    coordinates sets each to the in-range integer that minimizes the
    column residual with the other coordinates fixed.  Deterministic;
    per-column residuals never increase across updates.  Returns int8
    codes, as quantize_columns does.
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
    return z.astype(np.int8)


def _latent_of(weights, codec: GroupCodec) -> np.ndarray:
    """The one weight-to-latent map: reshape, divide by scale, compand.
    A linear group (mu = 0) skips companding, the identity there."""
    lat, _ = reshape_group(weights, codec.dim)
    lat /= codec.scale
    return companding.compand(lat, codec.mu) if codec.mu else lat


def reconstruct(codes, codec: GroupCodec, out=None, scratch=None) -> np.ndarray:
    """The one code-to-weight map: returns W_hat = scale * expand(G Z) as
    an m x n matrix, written into ``out`` (a float m x n array) or, when
    it is None, into a new column-major float64 one.  The call uses the
    first 2 * codes.size values of ``scratch``, a flat float64 buffer that
    callers reuse, or of a new one, as workspace, and leaves the rest of
    it untouched."""
    z = np.asarray(codes)
    if scratch is None:
        scratch = np.empty(2 * z.size)
    zf, v = scratch[:2 * z.size].reshape((2,) + z.shape)
    zf[...] = z
    np.matmul(codec.basis, zf, out=v)
    # linear groups place G Z itself; Z is dead after the matmul
    y = companding.expand(v, codec.mu, zf) if codec.mu else v
    rows, cols, dim = codec.rows, codec.cols, codec.dim
    if out is None:
        out = np.empty((cols, rows)).T
    if rows % dim:
        src, dst = unreshape_group(y, rows, cols), out
    else:
        # latent column c * (rows/d) + q holds rows q*d .. q*d + d-1 of
        # column c; both sides are viewed (d, rows/d, cols), so one strided
        # product places the group
        r = rows // dim
        src = y.reshape(dim, cols, r).transpose(0, 2, 1)
        dst = out.reshape(r, dim, cols).transpose(1, 0, 2)
    # the inner loop runs along out's contiguous axis: a row of a span of
    # a row-major tensor, or a column of a new column-major array
    order = "F" if out.flags.f_contiguous else "C"
    np.multiply(src, codec.scale, out=dst, order=order)
    return out


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

    W_hat is decoded into a new row-major array and dW is taken there in
    place, so a proposal holds one m x n array for both; the fit passes W
    C-contiguous too, so the subtraction reads both arrays row by row.
    Costs O(m n^2) whatever the calibration length.  Also returns the
    terms [p, dg] that _hessian_grads reuses, so a rejected proposal pays
    for its loss alone; a list, so that _hessian_grads can drop p."""
    dw = reconstruct(codes, codec, out=np.empty((codec.rows, codec.cols)))
    dw -= weights
    p = dw @ hess
    dg = codec.basis - basis_init
    loss = float((dw * p).sum() + lam * (dg * dg).sum())
    return loss, [p, dg]


def _hessian_grads(codec, codes, terms, lam):
    """Analytic gradients w.r.t. basis and mu from the codes and the terms
    of _hessian_loss, codes held constant (straight-through past rounding).
    Clears the terms' p once it is read."""
    zf = np.asarray(codes, dtype=float)
    g_lat, _ = reshape_group(terms[0], codec.dim)  # pad positions land on zeros
    terms[0] = None  # p, a group copy, freed before expand_grad's arrays
    g_lat *= 2.0
    if codec.mu:
        didy, didmu = companding.expand_grad(codec.basis @ zf, codec.mu)
        for d in (didy, didmu):  # g_lat * (scale * d), in place
            d *= codec.scale
            d *= g_lat
        g_v, grad_mu = didy, float(didmu.sum())
    else:  # expand is the identity: dF_inv/dy = 1 and dF_inv/dmu = 0
        g_lat *= codec.scale
        g_v, grad_mu = g_lat, 0.0
    return g_v @ zf.T + 2.0 * lam * terms[1], grad_mu


def _grads(weights, calib, codec, codes, basis_init, lam):
    w = np.asarray(weights, dtype=float)
    x = np.asarray(calib, dtype=float)
    _, terms = _hessian_loss(w, x @ x.T, codec, codes,
                             np.asarray(basis_init, dtype=float), lam)
    return _hessian_grads(codec, codes, terms, lam)


def grad_basis(weights, calib, codec, codes, basis_init, lam: float = LAM) -> np.ndarray:
    """Analytic d x d gradient of group_loss w.r.t. the generation matrix."""
    return _grads(weights, calib, codec, codes, basis_init, lam)[0]


def grad_mu(weights, calib, codec, codes, basis_init, lam: float = LAM) -> float:
    """Analytic gradient of group_loss w.r.t. the companding curvature."""
    return _grads(weights, calib, codec, codes, basis_init, lam)[1]


def spectral_normalize(basis) -> np.ndarray:
    """Clamp the singular values into [SIGMA_MIN, SIGMA_MAX], keeping the
    singular vectors.  Identity on inputs already in range; idempotent.
    A non-finite entry raises ValueError: LAPACK's SVD returns NaNs for
    it or does not return at all."""
    b = np.asarray(basis, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("generation matrix has non-finite entries")
    u, s, vt = np.linalg.svd(b)
    if np.all((s >= SIGMA_MIN) & (s <= SIGMA_MAX)):
        return b
    return (u * np.clip(s, SIGMA_MIN, SIGMA_MAX)) @ vt


def init_codec(weights, dim: int, bits: int, config: RunConfig | None = None) -> GroupCodec:
    """Build the initial codec for a weight group under ``config``
    (default RunConfig(): linear coding).

    With companding the group is normalized by its max magnitude and the
    curvature comes from the sample kurtosis; without it mu is 0.  The
    basis starts from the Cholesky factor of the latent covariance (or
    the identity with ``fixed_basis``), scaled so the 99th percentile of
    the coordinate magnitudes (their maximum where it is 0) sits at the
    code-range edge hi + 1/2, then spectrally normalized.  The percentile
    is np.percentile's, bit for bit, taken by one in-place partition of
    the magnitudes (_percentile99).  Without a kurtosis (zero variance,
    under 4 weights) mu starts at MU_MIN; an all-zero group keeps the
    basis I / 2^(b-1) and scale 1.  Bad weights raise DataError.
    """
    return _init_group(_check_array(weights, "weights"), dim, bits,
                       config or RunConfig())[0]


def _init_group(w, dim, bits, cfg: RunConfig):
    """init_codec on checked float weights: returns (codec, its latent)."""
    lo, hi = code_range(bits)
    rows, cols = w.shape
    if not 1 <= dim <= rows * cols:
        raise ValueError(f"dim={dim} is not in [1, {rows * cols}], the group size")

    mu = 0.0
    if cfg.companding:
        try:
            mu = companding.init_mu(companding.kurtosis(w))
        except companding.DegenerateSampleError:
            mu = companding.MU_MIN
    amax = float(max(w.max(), -w.min()))
    codec = GroupCodec(basis=np.eye(dim) / -lo, mu=mu, bits=bits,
                       scale=amax or 1.0, dim=dim, rows=rows, cols=cols)
    lat = _latent_of(w, codec)
    if amax == 0.0:
        return codec, lat

    if cfg.fixed_basis:
        chol = np.eye(dim)
        mags = np.abs(lat)  # not in place: lat is returned
    else:
        cov = lat @ lat.T / lat.shape[1] + COV_RIDGE * np.eye(dim)
        chol = np.linalg.cholesky(cov)
        mags = np.linalg.inv(chol) @ lat
        np.abs(mags, out=mags)
    flat = mags.ravel()
    # over 99% zeros give a percentile of 0; amax > 0 makes the max positive
    q = _percentile99(flat) or float(flat.max())
    return replace(codec, basis=spectral_normalize(q / (hi + 0.5) * chol)), lat


def _percentile99(x) -> float:
    """np.percentile(x, 99.0) of a flat float array with no NaN, which it
    reorders; bit for bit unless x holds -0.0, when the zero it returns
    may have the other sign.

    With h = 0.99 (n - 1) the percentile interpolates between the values
    of ranks floor(h) and floor(h) + 1: one in-place partition puts the
    first at x[floor(h)], and the second is the least value after it.
    """
    n = x.size
    h = (n - 1) * 0.99
    lo = int(h)
    x.partition(lo)
    a = x[lo]
    b = x[lo + 1:].min() if n > 1 else a
    # numpy's linear interpolation; for n == 1 it weighs the one value by 1
    g = h - lo if n > 1 else 1.0
    return float(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)


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
        del found  # its decode terms, before the next proposal's
        size.eta *= 0.5
        size.streak = 0
    return None


def fit_group(weights, calib, dim: int, bits: int, config: RunConfig | None = None):
    """Fit one group's codec by alternating code refresh and gradient steps.

    Proposals (gradient step, spectral normalization, mu projection, code
    refresh) are accepted only if the loss does not increase; on a
    rejection the parameter's step size is halved, and after 5
    consecutive accepts it is doubled back toward its default.  Stops
    when the relative loss change of an iteration falls below ``tol``,
    when no step is accepted, or after ``max_iters`` iterations.  Returns
    (codec, int8 codes, FitReport).  Bad data raises DataError (check_inputs).

    The objective is evaluated through H = X X^T, built once, so a
    proposal's cost does not depend on the calibration length; gradients
    are computed only for accepted proposals.  A basis proposal takes one
    SVD (spectral_normalize) and one inverse, which its code refresh
    reuses; a mu proposal keeps the basis and its inverse.
    """
    cfg = config or RunConfig()
    w, x = check_inputs(weights, calib)
    # the latent depends on mu and scale only, so basis steps reuse it
    codec, latent = _init_group(w, dim, bits, cfg)
    basis_init = codec.basis.copy()
    hess = x @ x.T
    w = np.ascontiguousarray(w)  # a copy only of a strided column slice
    report = FitReport()

    # the init basis is spectrally normalized, or the scaled identity of an
    # all-zero group: full rank either way
    inverse = np.linalg.inv(codec.basis)
    codes = quantize_columns(latent, codec, inverse)
    loss, terms = _hessian_loss(w, hess, codec, codes, basis_init, LAM)
    g_b, g_m = _hessian_grads(codec, codes, terms, LAM)  # which frees p
    report.loss_history.append(loss)

    def propose(candidate):
        report.proposals += 1
        cand, cand_lat, cand_inv = candidate
        cand_codes = quantize_columns(cand_lat, cand, cand_inv)
        cand_loss, cand_terms = _hessian_loss(w, hess, cand, cand_codes,
                                              basis_init, LAM)
        return cand_loss, (cand, cand_lat, cand_inv, cand_codes, cand_terms)

    def basis_step(eta):
        basis = spectral_normalize(codec.basis - eta * g_b)
        return replace(codec, basis=basis), latent, np.linalg.inv(basis)

    def mu_step(eta):
        cand = replace(codec, mu=float(np.clip(
            codec.mu - eta * g_m, companding.MU_MIN, companding.MU_MAX)))
        return cand, _latent_of(w, cand), inverse

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
                loss, (codec, latent, inverse, codes, terms) = found
                g_b, g_m = _hessian_grads(codec, codes, terms, LAM)
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
    s = amax / max(hi, 1)  # hi is 0 at 1 bit: step amax, codes -1 and 0
    q = np.clip(np.floor(w / s + 0.5), lo, hi)
    return s * q
