import math

import numpy as np
import pytest

from glvq import bitalloc
from glvq.bitalloc import (allocate_bits, balanced_bits, compute_salience,
                           kl_objective)
from glvq.codebook import DataError, partition_columns, rtn_quantize
from glvq.synthetic import make_layer


def check_integer_invariants(bits: np.ndarray, n: int):
    assert set(np.unique(bits)) <= {n - 1, n, n + 1}
    assert bits.mean() == n
    assert (bits == n + 1).sum() == (bits == n - 1).sum()


def salience_order(w, x, width, probe_bits):
    return np.argsort(-compute_salience(w, x, width, probe_bits), kind="stable")


def rtn_objective(w, x, width, order, n):
    """D(k): the KL objective allocate_bits minimizes, from public parts."""
    ref = w @ x
    spans = partition_columns(w.shape[1], width)

    def d(k):
        w_hat = np.hstack([rtn_quantize(w[:, a:b], int(bits))
                           for (a, b), bits in zip(spans, balanced_bits(order, n, k))])
        return kl_objective(ref, w_hat @ x)

    return d


# ---------------------------------------------------------------- salience

def test_salience_zero_for_representable_group():
    w = np.array([[1.0, -1.0], [0.0, 1.0]])  # exactly on the 2-bit RTN grid
    x = np.eye(2)
    scores = compute_salience(w, x, 2, probe_bits=2)
    assert scores[0] == 0.0


def test_salience_scaling_preserves_order():
    rng = np.random.default_rng(0)
    w = np.hstack([rng.standard_normal((8, 4)) * s for s in (3.0, 0.5, 1.0)])
    x = rng.standard_normal((12, 16))
    s1 = compute_salience(w, x, 4, 2)
    s2 = compute_salience(w, 10.0 * x, 4, 2)
    assert np.allclose(s2, 100.0 * s1, rtol=1e-9)
    assert np.array_equal(salience_order(w, x, 4, 2),
                          salience_order(w, 10.0 * x, 4, 2))


def test_salience_ties_break_by_index():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((6, 3))
    xb = rng.standard_normal((3, 5))
    x = np.vstack([xb, xb])  # both groups see identical features
    scores = compute_salience(np.hstack([g, g]), x, 3, 2)
    assert scores[0] == scores[1]
    assert np.array_equal(allocate_bits(np.hstack([g, g]), x, 3, 1.5), [2, 1])


def test_salience_dimension_mismatch():
    with pytest.raises(ValueError):
        compute_salience(np.ones((4, 3)), np.ones((5, 2)), 3, 2)


# ---------------------------------------------------------------------- kl

def test_kl_identical_is_zero():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 7))
    assert kl_objective(a, a) == 0.0


def test_kl_single_channel_degenerates():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((1, 9))
    b = rng.standard_normal((1, 9))
    assert kl_objective(a, b) == pytest.approx(0.0, abs=1e-15)


def test_kl_hand_example():
    ref = np.array([[0.0], [0.0]])  # softmax -> (1/2, 1/2)
    quant = np.array([[math.log(2.0)], [0.0]])  # softmax -> (2/3, 1/3)
    expected = 0.5 * math.log(9.0 / 8.0)
    assert kl_objective(ref, quant) == pytest.approx(expected, abs=1e-12)


def test_kl_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.standard_normal((6, 10))
        b = rng.standard_normal((6, 10))
        v = kl_objective(a, b)
        assert v >= 0.0
        if v <= 1e-12:
            pa = np.exp(a - a.max(0)) / np.exp(a - a.max(0)).sum(0)
            pb = np.exp(b - b.max(0)) / np.exp(b - b.max(0)).sum(0)
            assert np.allclose(pa, pb, atol=1e-9)


def test_kl_shape_and_finite_checks():
    with pytest.raises(ValueError):
        kl_objective(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        kl_objective(np.array([[np.nan]]), np.array([[0.0]]))


def test_mismatched_or_non_finite_inputs_are_data_errors():
    for call in (compute_salience, allocate_bits):
        with pytest.raises(DataError, match="calib has 5 rows for 6 weight columns"):
            call(np.ones((4, 6)), np.ones((5, 2)), 3, 2)
    with pytest.raises(DataError):
        kl_objective(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(DataError):
        kl_objective(np.array([[0.0]]), np.array([[np.inf]]))


# -------------------------------------------------------------- allocation

def test_allocate_integer_hand_case():
    rng = np.random.default_rng(7)
    w = np.hstack([s * rng.standard_normal((16, 8)) for s in (8.0, 4.0, 2.0, 1.0)])
    x = rng.standard_normal((32, 24))
    order = salience_order(w, x, 8, 2)
    assert np.array_equal(order, [0, 1, 2, 3])
    # oracle: exhaustive scan of the same objective
    d = rtn_objective(w, x, 8, order, 2)
    ks = [d(k) for k in range(3)]
    assert int(np.argmin(ks)) == 2  # frozen: k = 2 is optimal here
    bits = allocate_bits(w, x, 8, 2)
    assert np.array_equal(bits, [3, 3, 1, 1])
    check_integer_invariants(bits, 2)


def test_allocate_equal_saliences_stays_uniform():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((16, 8))
    xb = rng.standard_normal((8, 24))
    w, x = np.hstack([g] * 4), np.vstack([xb] * 4)
    scores = compute_salience(w, x, 8, 3)
    assert np.all(scores == scores[0])
    assert np.array_equal(allocate_bits(w, x, 8, 3), np.full(4, 3))


def test_allocate_fractional():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((8, 4))
    xb = rng.standard_normal((4, 16))
    # scaled copies of one group: salience falls with the scale
    w = np.hstack([s * g for s in (4.0, 3.0, 2.0, 1.0)])
    bits = allocate_bits(w, np.vstack([xb] * 4), 4, 1.5)
    assert np.array_equal(bits, [2, 2, 1, 1])
    assert bits.mean() == 1.5


def test_allocate_fractional_large_group():
    rng = np.random.default_rng(5)
    w = np.hstack([s * rng.standard_normal((4, 2)) for s in rng.uniform(0, 1, size=64)])
    x = rng.standard_normal((128, 8))
    for target in (1.5, 2.3, 3.75):
        bits = allocate_bits(w, x, 2, target)
        assert set(np.unique(bits)) <= {math.floor(target), math.ceil(target)}
        assert abs(bits.mean() - target) <= 1.0 / (2 * 64)


def test_allocate_infeasible_targets():
    rng = np.random.default_rng(10)
    w = np.hstack([rng.standard_normal((4, 2)) for _ in range(2)])
    x = rng.standard_normal((4, 3))
    with pytest.raises(ValueError):
        allocate_bits(w, x, 2, 1)
    with pytest.raises(ValueError):
        allocate_bits(w, x, 2, 0.5)
    with pytest.raises(ValueError):
        allocate_bits(w[:, :2], x[:2], 2, 2)


def test_allocate_exact_argmin_on_unimodal_rtn_probe():
    rng = np.random.default_rng(6)
    w = np.hstack([rng.standard_normal((16, 8)) * s
                   for s in (8.0, 4.0, 2.0, 1.0, 0.5, 0.25)])
    x = rng.standard_normal((48, 32))
    order = salience_order(w, x, 8, 2)
    d = rtn_objective(w, x, 8, order, 2)
    vals = [d(k) for k in range(6 // 2 + 1)]
    k_min = int(np.argmin(vals))
    # frozen: this layer's objective is unimodal
    assert np.all(np.diff(vals[:k_min + 1]) <= 0)
    assert np.all(np.diff(vals[k_min:]) >= 0)
    bits = allocate_bits(w, x, 8, 2)
    assert np.array_equal(bits, balanced_bits(order, 2, k_min))
    check_integer_invariants(bits, 2)


def test_allocate_constant_objective_keeps_first_minimum():
    # all-zero groups: every swap count gives D(k) = 0, and k = 0 is first
    w = np.zeros((8, 24))
    x = np.random.default_rng(11).standard_normal((24, 16))
    for n in (2, 3):
        assert np.array_equal(allocate_bits(w, x, 4, n), np.full(6, n))


@pytest.mark.parametrize("seed", range(6))
def test_allocate_exact_argmin_on_non_unimodal_layers(seed):
    # 66 groups with geometrically falling scales and T = 16: a search that
    # assumes one minimum stops short of the first argmin on seeds 0, 2-4
    rng = np.random.default_rng(seed)
    w = np.hstack([2.0 ** (-i / 8) * rng.standard_normal((8, 4)) for i in range(66)])
    x = rng.standard_normal((4 * 66, 16))
    order = salience_order(w, x, 4, 2)
    d = rtn_objective(w, x, 4, order, 2)
    vals = [d(k) for k in range(66 // 2 + 1)]
    k_min = int(np.argmin(vals))
    # frozen: D(k) is not unimodal on these layers
    assert not (np.all(np.diff(vals[:k_min + 1]) <= 0)
                and np.all(np.diff(vals[k_min:]) >= 0))
    assert np.array_equal(allocate_bits(w, x, 4, 2),
                          balanced_bits(order, 2, k_min))


def test_allocate_rejects_targets_that_need_widths_beyond_max_bits():
    # a balanced integer target N gives salient groups N + 1 bits, which
    # no archive record holds at N = 8 (codebook.MAX_BITS)
    w, x = make_layer(0)
    with pytest.raises(ValueError, match="target 8 infeasible: it needs 9-bit groups"):
        allocate_bits(w, x, 64, 8)
    assert set(np.unique(allocate_bits(w, x, 64, 7.5))) == {7, 8}


# ------------------------------------------------------- allocation memory

_OVERHEAD = 1 << 16


def _wide_layer():
    # 32 groups of 64 x 64 and T = 16: a group product is 1/32 of the layer,
    # and the outputs the scan holds are 1/128 of it
    rng = np.random.default_rng(12)
    w = np.hstack([4.0 ** rng.uniform(-1, 1) * rng.standard_normal((64, 64))
                   for _ in range(32)])
    return w, rng.standard_normal((w.shape[1], 16))


def test_integer_allocation_holds_one_layer_copy(traced_peak):
    # the RTN layer at N bits, filled group by group, is the scan's one layer
    # copy; measured 1.12 layers (2.03 when the groups were stacked for the
    # reference and the per-group RTN list for the scan)
    w, x = _wide_layer()
    _, peak = traced_peak(allocate_bits, w, x, 64, 2)
    assert peak <= 8 * w.size + 4 * 8 * 64 * 64 + _OVERHEAD


def test_fractional_allocation_builds_no_layer_sized_array(traced_peak):
    # only the salience probe runs: group-sized temporaries; measured 0.11
    # layers
    w, x = _wide_layer()
    _, peak = traced_peak(allocate_bits, w, x, 64, 1.5)
    assert peak <= 4 * 8 * 64 * 64 + _OVERHEAD < 8 * w.size


def test_allocation_ranks_once_and_probes_each_swap_count_once(monkeypatch):
    # the bench's bitalloc.* counters read one compute_salience call per
    # allocation and one kl_objective call per probe
    calls = {"compute_salience": 0, "kl_objective": 0}

    def counted(name):
        fn = getattr(bitalloc, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(bitalloc, name, counted(name))
    w, x = _wide_layer()
    bitalloc.allocate_bits(w[:, :7 * 64], x[:7 * 64], 64, 2)
    assert calls == {"compute_salience": 1, "kl_objective": 7 // 2 + 1}
