"""Salience-determined bit allocation.

Groups are ranked by the output perturbation a round-to-nearest probe
would cause, then bit-widths are assigned around the mean target: for an
integer target N the top-k groups get N+1 bits and the bottom-k get N-1
(so the mean stays exactly N and the +1/-1 sets are balanced), with k
the first minimizer of a softmax-KL objective between the reference and
RTN-quantized layer outputs, found by scoring every k from 0 to G // 2.
Fractional targets mix floor/ceil widths with no search.
``allocate_bits`` makes the whole decision; the other functions are its
parts.
"""

import math

import numpy as np

from .codebook import MAX_BITS, DataError, rtn_quantize


def is_integer_target(bits: float) -> bool:
    """Whether a mean-rate target is an integer, to within 1e-9."""
    return abs(bits - round(bits)) < 1e-9


def compute_salience(groups, calib, probe_bits: int = 2) -> np.ndarray:
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
        raise DataError(
            f"group widths sum to {sum(widths)} but calib has {x.shape[0]} feature rows")
    scores = np.empty(len(widths))
    off = 0
    for i, g in enumerate(groups):
        w = np.asarray(g, dtype=float)
        xg = x[off:off + w.shape[1], :]
        delta = (w - rtn_quantize(w, probe_bits)) @ xg
        scores[i] = float((delta * delta).sum())
        off += w.shape[1]
    return scores


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
        raise DataError(f"shape mismatch: {p_in.shape} vs {q_in.shape}")
    if not (np.all(np.isfinite(p_in)) and np.all(np.isfinite(q_in))):
        raise DataError("non-finite entries")
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


def allocate_bits(groups, calib, target) -> np.ndarray:
    """Per-group bit-widths for column ``groups`` of one weight matrix
    (in order, as in compute_salience) meeting a mean-rate target.

    Groups are ranked by compute_salience at the target rounded to the
    nearest width (at least 1), ties broken by index.  Integer targets
    N >= 2: every balanced swap count k in [0, G // 2] is scored by the
    KL objective D(k) of the RTN-quantized layer output
    ``hstack(RTN_b(W_g)) @ calib`` against ``W @ calib``, and the first
    minimizer wins.  The scan costs one layer product at N bits, then
    per k the two group products that move the k-th most salient group
    to N+1 bits and the k-th least salient to N-1.  Fractional targets
    give ceil(R) bits to the round((R - floor(R)) * G) most salient
    groups and floor(R) to the rest, with no search.  A target that needs
    widths outside [1, MAX_BITS] is rejected before any scoring.
    """
    g = len(groups)
    if g < 2:
        raise ValueError("allocation needs at least 2 groups")
    target = float(target)
    integer = is_integer_target(target)
    lo = round(target) - 1 if integer else math.floor(target)  # narrowest width
    for width in (lo, lo + 2 if integer else lo + 1):  # narrowest, widest
        if not 1 <= width <= MAX_BITS:
            raise ValueError(
                f"target {target:g} infeasible: it needs {width}-bit groups")
    x = np.asarray(calib, dtype=float)
    scores = compute_salience(groups, x, max(1, math.floor(target + 0.5)))
    order = np.argsort(-scores, kind="stable")
    if not integer:
        bits = np.full(g, lo, dtype=np.int64)
        bits[order[:math.floor((target - lo) * g + 0.5)]] = lo + 1
        return bits

    n = lo + 1
    starts = np.cumsum([0] + [np.asarray(w).shape[1] for w in groups])
    base = [rtn_quantize(w, n) for w in groups]
    ref = np.hstack(groups) @ x
    out = np.hstack(base) @ x
    d = [kl_objective(ref, out)]  # D(k) for k = 0, 1, ..., g // 2
    for k in range(g // 2):  # swap k + 1 raises order[k], lowers order[g-1-k]
        for i, b in ((order[k], n + 1), (order[g - 1 - k], n - 1)):
            out += (rtn_quantize(groups[i], b) - base[i]) @ x[starts[i]:starts[i + 1]]
        d.append(kl_objective(ref, out))
    return balanced_bits(order, n, int(np.argmin(d)))
