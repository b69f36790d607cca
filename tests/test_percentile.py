"""Property tests: codebook._percentile99 is np.percentile(x, 99.0), bit for
bit up to the sign of a zero."""

import numpy as np
import pytest

from glvq import codebook

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

PROPERTY = hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                               database=None)
STRIDE = 128
# sizes below, at and around a stride of 128 and a few strides up
SIZES = st.integers(1, 4 * STRIDE + 3)


def assert_matches_numpy(x):
    # inf - inf is numpy's NaN too; the interpolation must give it alike
    with np.errstate(invalid="ignore"):
        expected = np.percentile(x, 99.0)
        got = codebook._percentile99(x.copy())
    assert type(got) is float
    if np.isnan(expected):
        assert np.isnan(got)
        return
    assert got == expected
    # which of -0.0 and 0.0 sits at a rank is the partition's choice
    if not np.any((x == 0.0) & np.signbit(x)):
        assert np.signbit(got) == np.signbit(expected)


@PROPERTY
@hypothesis.given(hnp.arrays(np.float64, SIZES, elements=st.floats(allow_nan=False)))
def test_percentile99_any_floats(x):
    assert_matches_numpy(x)


@PROPERTY
@hypothesis.given(hnp.arrays(np.float64, SIZES,
                             elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])))
def test_percentile99_heavy_ties(x):
    assert_matches_numpy(x)


@PROPERTY
@hypothesis.given(SIZES, st.floats(allow_nan=False))
def test_percentile99_all_equal(n, value):
    assert_matches_numpy(np.full(n, value))


@PROPERTY
@hypothesis.given(st.integers(1, 40000), st.integers(0, 2 ** 32 - 1),
                  st.sampled_from(["t", "ties", "sorted", "spikes"]))
def test_percentile99_large_seeded(n, seed, kind):
    # "sorted" puts the largest values last; "spikes" lifts every 128th
    # value by 100, fewer values than the top 1%
    rng = np.random.default_rng(seed)
    x = np.abs(rng.standard_t(4, n))
    if kind == "ties":
        x = np.floor(4 * x)
    elif kind == "sorted":
        x.sort()
    elif kind == "spikes":
        x[::STRIDE] += 100.0
    assert_matches_numpy(x)


@pytest.mark.parametrize("n", [2, STRIDE, STRIDE + 1, 100 * STRIDE + 7, 524288])
def test_percentile99_threshold_falls_to_minus_inf_on_undershoot(n):
    # every 128th value is a spike above all others, so the top 1% of a
    # stride-128 sample of x is not the top 1% of x
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 1.0, n)
    x[::STRIDE] = 2.0 + rng.uniform(0.0, 1.0, x[::STRIDE].size)
    assert_matches_numpy(x)
