"""Lattice geometry built on generation matrices.

A d x d generation matrix G defines the lattice {G z : z integer}; each
column of G is one basis vector.  This module provides Gram-Schmidt
orthogonalization and LLL basis reduction, both read off the R factor
of a QR factorization of G, Babai rounding (the approximate nearest-point
encoder used throughout the package), an exact brute-force closest-vector
oracle for small dimensions, and the worst-case residual bound for Babai
rounding on a reduced basis.
"""

from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-12


class SingularBasisError(ValueError):
    """Raised when a generation matrix is rank deficient."""


@dataclass(frozen=True)
class GramSchmidtBasis:
    """Orthogonalized basis: column j of ``ortho`` is b*_j, and
    ``gs_coeff[j, i]`` (strictly upper triangular) is the projection
    coefficient <b_i, b*_j> / ||b*_j||^2 so that
    b_i = b*_i + sum_{j<i} gs_coeff[j, i] b*_j."""

    ortho: np.ndarray
    gs_coeff: np.ndarray


@dataclass(frozen=True)
class BabaiBound:
    """Worst-case Babai residual bounds.

    ``lll_form`` assumes every |gs_coeff| <= 1/2 (an LLL-reduced basis):
        0.5 * sqrt(sum_j (1 + (d - j)/2)^2 ||b*_j||^2)   (j = 1..d)
    ``general`` uses the actual coefficient sums instead:
        0.5 * sqrt(sum_j (1 + sum_{i>j} |gs_coeff[j, i]|)^2 ||b*_j||^2)
    """

    lll_form: float
    general: float


def check_basis(basis) -> np.ndarray:
    """Validate a square, finite, full-rank generation matrix.

    Full rank means sigma_min(G) > RANK_TOL * sigma_max(G).  Returns the
    matrix as a float64 array.
    """
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"generation matrix must be square, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("generation matrix has non-finite entries")
    s = np.linalg.svd(b, compute_uv=False)
    if not s[-1] > RANK_TOL * s[0]:
        raise SingularBasisError("generation matrix is singular or nearly so")
    return b


def gram_schmidt(basis) -> GramSchmidtBasis:
    """Orthogonalize the columns of a full-rank basis (no normalization),
    read off one QR factorization b = Q R: b*_j = R[j, j] q_j and
    gs_coeff[j, i] = R[j, i] / R[j, j]."""
    q, r = np.linalg.qr(check_basis(basis))
    diag = np.diag(r)
    return GramSchmidtBasis(ortho=q * diag, gs_coeff=np.triu(r, 1) / diag[:, None])


def lll_reduce(basis, delta: float = 0.75) -> np.ndarray:
    """LLL-reduce a basis (columns) at parameter ``delta``.

    The output spans the same lattice, is size-reduced (every
    |gs_coeff| <= 1/2) and satisfies the Lovasz condition
    ||b*_k||^2 >= (delta - gs_coeff[k-1,k]^2) ||b*_{k-1}||^2.
    Each pass reads the geometry off the R of one QR factorization, as
    gram_schmidt does, and size-reduces column k in b and R together.
    Works on a copy; the input is never modified.
    """
    if not 0.25 < delta <= 1.0:
        raise ValueError(f"delta must lie in (1/4, 1], got {delta}")
    b = check_basis(basis).copy()
    k = 1
    while k < b.shape[0]:
        r = np.linalg.qr(b, mode="r")
        for j in range(k - 1, -1, -1):
            mu = r[j, k] / r[j, j]
            if abs(mu) > 0.5:
                q = np.floor(mu + 0.5)
                b[:, k] -= q * b[:, j]
                r[:, k] -= q * r[:, j]
        # the Lovasz condition times ||b*_{k-1}||^2 = R[k-1, k-1]^2
        if r[k, k] ** 2 + r[k - 1, k] ** 2 >= delta * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            k = max(k - 1, 1)
    return b


def babai_round(basis, target, inverse=None, cast=True) -> np.ndarray:
    """Babai rounding: codes = floor(G^-1 t + 0.5) elementwise.

    Ties (exact half-integer coordinates) round toward +inf.  ``target``
    may be a length-d vector or a d x l matrix of column targets; the
    result has the same trailing shape with integer dtype.

    G^-1 is formed explicitly (one d x d inversion) and applied as one
    matrix product, so l columns cost a GEMM rather than an LU solve
    with l right-hand sides.  That adds a relative error of about
    cond(G) * eps per coordinate over a solve.  It suffices because
    every basis the optimizer produces is spectrally normalized to
    singular values in [0.01, 10], so cond(G) <= 1e3: a code can differ
    from the solve form only where a coordinate lies within ~1e-13
    (relative) of a half-integer.

    A caller holding ``inverse`` = np.linalg.inv(G) may pass it; then G
    is neither checked nor inverted, nor the target checked for
    finiteness.  Do so only for a finite float target and a G that
    spectral normalization returned (or another G known to be full
    rank): its SVD clamps the singular values into [0.01, 10], so
    cond(G) <= 1e3 and check_basis, which asks for
    sigma_min > 1e-12 sigma_max, cannot fire.

    ``cast=False`` returns the rounded float64 array itself, for a caller
    that clips it in place before a narrower cast (quantize_columns'
    int8), so no int64 copy is made.
    """
    if inverse is None:
        b = check_basis(basis)
        target = np.asarray(target, dtype=float)
        if not np.all(np.isfinite(target)):
            raise ValueError("target has non-finite entries")
        inverse = np.linalg.inv(b)
    x = inverse @ target
    x += 0.5
    np.floor(x, out=x)
    return x.astype(np.int64) if cast else x


def decode(basis, codes) -> np.ndarray:
    """Map integer codes back to lattice points: returns G @ codes."""
    b = np.asarray(basis, dtype=float)
    return b @ np.asarray(codes, dtype=float)


def exact_cvp(basis, target, search_radius: int = 2) -> np.ndarray:
    """Exact closest-vector search by enumeration (test oracle, d <= 8).

    Enumerates the integer box of per-coordinate half-width
    ``search_radius`` centered at the Babai solution and returns the code
    minimizing ||target - G z||; exact ties go to the lexicographically
    smallest code.
    """
    b = check_basis(basis)
    d = b.shape[0]
    if d > 8:
        raise ValueError(f"exact enumeration is limited to d <= 8, got d={d}")
    if search_radius < 1:
        raise ValueError("search_radius must be >= 1")
    t = np.asarray(target, dtype=float)
    center = babai_round(b, t)
    span = np.arange(-search_radius, search_radius + 1)
    grids = np.meshgrid(*([span] * d), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=-1)  # lexicographic
    cand = center[None, :] + offsets
    diffs = t[None, :] - cand @ b.T
    dist2 = np.einsum("ij,ij->i", diffs, diffs)
    return cand[int(np.argmin(dist2))].astype(np.int64)


def babai_error_bound(gs: GramSchmidtBasis) -> BabaiBound:
    """Evaluate both Babai residual bounds from a Gram-Schmidt basis."""
    norms2 = (gs.ortho**2).sum(axis=0)
    d = norms2.size
    j = np.arange(d)
    lll_factors = (1.0 + (d - 1 - j) / 2.0) ** 2
    lll_form = 0.5 * float(np.sqrt(lll_factors @ norms2))
    rowsum = np.abs(np.triu(gs.gs_coeff, 1)).sum(axis=1)
    general = 0.5 * float(np.sqrt(((1.0 + rowsum) ** 2) @ norms2))
    return BabaiBound(lll_form=lll_form, general=general)
