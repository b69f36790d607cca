"""Salience-determined bit allocation.

Groups are ranked by the output perturbation a round-to-nearest probe
would cause, then bit-widths are assigned around the mean target: for an
integer target N the top-k groups get N+1 bits and the bottom-k get N-1
(so the mean stays exactly N and the +1/-1 sets are balanced), with k
chosen to minimize a softmax-KL objective between the reference and
quantized layer outputs.  Fractional targets mix floor/ceil widths with
no search.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codebook import rtn_quantize


@dataclass
class SalienceScores:
    """Nonnegative per-group scores with a stable descending order."""

    scores: np.ndarray
    order: np.ndarray

    @classmethod
    def from_scores(cls, scores) -> "SalienceScores":
        s = np.asarray(scores, dtype=float)
        if s.ndim != 1:
            raise ValueError("scores must be a 1-D vector")
        if not np.all(np.isfinite(s)) or np.any(s < 0):
            raise ValueError("scores must be finite and nonnegative")
        order = np.argsort(-s, kind="stable")
        return cls(scores=s, order=order)

    def __len__(self) -> int:
        return self.scores.size


@dataclass
class BitAllocation:
    """Per-group integer bit-widths."""

    bits: np.ndarray


def compute_salience(groups, calib, probe_bits: int = 2) -> SalienceScores:
    """Score each column group by ||(W_g - RTN_b(W_g)) X_g||_F^2.

    ``groups`` are column-contiguous slices of one weight matrix in
    order; ``calib`` holds the full input features whose rows are split
    to match the group widths.
    """
    if probe_bits < 1:
        raise ValueError("probe_bits must be >= 1")
    x = np.asarray(calib, dtype=float)
    widths = [np.asarray(g).shape[1] for g in groups]
    if sum(widths) != x.shape[0]:
        raise ValueError(
            f"group widths sum to {sum(widths)} but calib has {x.shape[0]} feature rows")
    scores = np.empty(len(widths))
    off = 0
    for i, g in enumerate(groups):
        w = np.asarray(g, dtype=float)
        xg = x[off:off + w.shape[1], :]
        delta = (w - rtn_quantize(w, probe_bits)) @ xg
        scores[i] = float((delta * delta).sum())
        off += w.shape[1]
    return SalienceScores.from_scores(scores)


def _col_log_softmax(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=0, keepdims=True)
    e = np.exp(a - m)
    return (a - m) - np.log(e.sum(axis=0, keepdims=True))


def kl_objective(reference_out, quantized_out) -> float:
    """Mean KL(softmax(ref col) || softmax(quant col)) over the columns,
    in nats."""
    p_in = np.asarray(reference_out, dtype=float)
    q_in = np.asarray(quantized_out, dtype=float)
    if p_in.shape != q_in.shape or p_in.ndim != 2:
        raise ValueError(f"shape mismatch: {p_in.shape} vs {q_in.shape}")
    if not (np.all(np.isfinite(p_in)) and np.all(np.isfinite(q_in))):
        raise ValueError("non-finite entries")
    logp = _col_log_softmax(p_in)
    logq = _col_log_softmax(q_in)
    kl_cols = (np.exp(logp) * (logp - logq)).sum(axis=0)
    return float(kl_cols.mean())


def balanced_bits(order: np.ndarray, n: int, k: int) -> np.ndarray:
    """Allocation with the top-k salient groups at n+1 and bottom-k at n-1."""
    g = order.size
    if not 0 <= k <= g // 2:
        raise ValueError(f"k={k} out of range for {g} groups")
    bits = np.full(g, n, dtype=np.int64)
    if k:
        bits[order[:k]] = n + 1
        bits[order[g - k:]] = n - 1
    return bits


def argmin_balanced_k(objective, k_max: int, method: str = "auto") -> int:
    """Argmin of objective(k) over k in [0, k_max].

    ``exhaustive`` scans every k (first minimum wins).  ``binary``
    assumes a unimodal objective and compares adjacent values, so it
    matches the exhaustive result on unimodal inputs in O(log) calls.
    ``auto`` picks exhaustive for k_max <= 32.
    """
    if method == "auto":
        method = "exhaustive" if k_max <= 32 else "binary"
    memo = {}

    def d(k):
        if k not in memo:
            memo[k] = float(objective(k))
        return memo[k]

    if method == "exhaustive":
        values = [d(k) for k in range(k_max + 1)]
        return int(np.argmin(values))
    if method == "binary":
        lo, hi = 0, k_max
        while lo < hi:
            mid = (lo + hi) // 2
            if d(mid) <= d(mid + 1):
                hi = mid
            else:
                lo = mid + 1
        return lo
    raise ValueError(f"unknown search method {method!r}")


def allocate_bits(salience: SalienceScores, target, quantize_probe=None,
                  reference_out=None, method: str = "auto") -> BitAllocation:
    """Assign per-group bit-widths meeting a mean-rate target.

    Integer targets N >= 2: search the balanced swap count k, where
    ``quantize_probe(bits)`` returns the quantized layer output to score
    against ``reference_out`` with the KL objective.  Fractional targets
    assign ceil(R) bits to the round((R - floor(R)) * G) most salient
    groups and floor(R) to the rest; no probe is needed.
    """
    g = len(salience)
    if g < 2:
        raise ValueError("allocation needs at least 2 groups")
    target = float(target)
    if abs(target - round(target)) < 1e-9:
        n = int(round(target))
        if n - 1 < 1:
            raise ValueError(f"integer target {n} infeasible: needs N - 1 >= 1")
        if quantize_probe is None or reference_out is None:
            raise ValueError("integer targets need quantize_probe and reference_out")
        ref = np.asarray(reference_out, dtype=float)

        def objective(k):
            return kl_objective(ref, quantize_probe(balanced_bits(salience.order, n, k)))

        k = argmin_balanced_k(objective, g // 2, method)
        bits = balanced_bits(salience.order, n, k)
    else:
        lo = math.floor(target)
        if lo < 1:
            raise ValueError(f"fractional target {target} infeasible: floor must be >= 1")
        count = int(math.floor((target - lo) * g + 0.5))
        bits = np.full(g, lo, dtype=np.int64)
        bits[salience.order[:count]] = lo + 1
    return BitAllocation(bits=bits)
