"""Salience-determined bit allocation.

Groups are ranked by the output perturbation a round-to-nearest probe
would cause, then bit-widths are assigned around the mean target: for an
integer target N the top-k groups get N+1 bits and the bottom-k get N-1
(so the mean stays exactly N and the +1/-1 sets are balanced), with k
the first minimizer of a softmax-KL objective between the reference and
RTN-quantized layer outputs, found by scoring every k from 0 to G // 2.
Fractional targets mix floor/ceil widths with no search.
``allocate_bits`` makes the whole decision; the other functions are its
parts.  Both take the whole layer and cut it as the pipeline does.
"""

import math

import numpy as np

from .codebook import MAX_BITS, DataError, check_rows, partition_columns, rtn_quantize


def is_integer_target(bits: float) -> bool:
    """Whether a mean-rate target is an integer, to within 1e-9."""
    return abs(bits - round(bits)) < 1e-9


def compute_salience(weights, calib, width, probe_bits: int = 2) -> np.ndarray:
    """Score each group of ``weights``, cut ``width`` columns at a time, by
    ||(W_g - RTN_b(W_g)) X_g||_F^2, X_g the rows of ``calib`` it reads."""
    if probe_bits < 1:
        raise ValueError("probe_bits must be >= 1")
    w, x = check_rows(np.asarray(weights, dtype=float), np.asarray(calib, dtype=float))
    spans = partition_columns(w.shape[1], width)
    scores = np.empty(len(spans))
    for i, (a, b) in enumerate(spans):
        delta = (w[:, a:b] - rtn_quantize(w[:, a:b], probe_bits)) @ x[a:b]
        scores[i] = float((delta * delta).sum())
    return scores


def _col_log_softmax(a: np.ndarray) -> np.ndarray:
    s = a - a.max(axis=0, keepdims=True)  # a new array, shifted in place below
    s -= np.log(np.exp(s).sum(axis=0, keepdims=True))
    return s


def kl_objective(reference_out, quantized_out) -> float:
    """Mean KL(softmax(ref col) || softmax(quant col)) over the columns,
    in nats."""
    p_in, q_in = np.asarray(reference_out, dtype=float), np.asarray(quantized_out, dtype=float)
    if p_in.shape != q_in.shape or p_in.ndim != 2:
        raise DataError(f"shape mismatch: {p_in.shape} vs {q_in.shape}")
    if not (np.all(np.isfinite(p_in)) and np.all(np.isfinite(q_in))):
        raise DataError("non-finite entries")
    logp, terms = _col_log_softmax(p_in), _col_log_softmax(q_in)
    np.subtract(logp, terms, out=terms)  # log p - log q
    terms *= np.exp(logp, out=logp)  # p (log p - log q)
    return float(terms.sum(axis=0).mean())


def balanced_bits(order: np.ndarray, n: int, k: int) -> np.ndarray:
    """Allocation with the top-k salient groups at n+1 and bottom-k at n-1."""
    g = order.size
    if not 0 <= k <= g // 2:
        raise ValueError(f"k={k} out of range for {g} groups")
    bits = np.full(g, n, dtype=np.int64)
    bits[order[:k]] = n + 1
    bits[order[g - k:]] = n - 1
    return bits


def allocate_bits(weights, calib, width, target) -> np.ndarray:
    """Bit-widths meeting a mean-rate target for the groups of ``weights``
    cut ``width`` columns at a time, as in compute_salience.

    Groups are ranked by compute_salience at the target rounded to the
    nearest width (at least 1), ties broken by index.  Integer targets
    N >= 2: every balanced swap count k in [0, G // 2] is scored by the
    KL objective D(k) of ``W_hat @ calib``, each group RTN-quantized at
    its width, against ``W @ calib``, and the first minimizer wins.  The
    scan holds W_hat at N bits (one layer copy) and costs one layer
    product, then per k the two group products that move the k-th most
    salient group to N+1 bits and the k-th least salient to N-1.
    Fractional targets give ceil(R) bits to the round((R - floor(R)) * G)
    most salient groups and floor(R) to the rest: no search and no
    layer-sized array.  A target that needs widths outside [1, MAX_BITS]
    is rejected before any scoring.
    """
    w, x = np.asarray(weights, dtype=float), np.asarray(calib, dtype=float)
    spans = partition_columns(w.shape[1], width)
    g = len(spans)
    if g < 2:
        raise ValueError("allocation needs at least 2 groups")
    target = float(target)
    integer = is_integer_target(target)
    lo = round(target) - 1 if integer else math.floor(target)  # narrowest width
    for bits in (lo, lo + 2 if integer else lo + 1):  # narrowest, widest
        if not 1 <= bits <= MAX_BITS:
            raise ValueError(
                f"target {target:g} infeasible: it needs {bits}-bit groups")
    scores = compute_salience(w, x, width, max(1, math.floor(target + 0.5)))
    order = np.argsort(-scores, kind="stable")
    if not integer:
        bits = np.full(g, lo, dtype=np.int64)
        bits[order[:math.floor((target - lo) * g + 0.5)]] = lo + 1
        return bits

    n = lo + 1
    base = np.empty_like(w)  # W_hat at N bits, filled group by group
    for a, b in spans:
        base[:, a:b] = rtn_quantize(w[:, a:b], n)
    ref = w @ x
    out = base @ x
    d = [kl_objective(ref, out)]  # D(k) for k = 0, 1, ..., g // 2
    for k in range(g // 2):  # swap k + 1 raises order[k], lowers order[g-1-k]
        for i, bits in ((order[k], n + 1), (order[g - 1 - k], n - 1)):
            a, b = spans[i]
            out += (rtn_quantize(w[:, a:b], bits) - base[:, a:b]) @ x[a:b]
        d.append(kl_objective(ref, out))
    return balanced_bits(order, n, int(np.argmin(d)))
