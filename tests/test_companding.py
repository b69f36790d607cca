import math

import numpy as np
import pytest

from glvq.companding import (MU_MAX, MU_MIN, DegenerateSampleError, compand,
                             expand, expand_grad, init_mu, kurtosis)


def test_compand_fixed_points():
    assert compand(0.0, 255) == 0.0
    assert compand(1.0, 255) == pytest.approx(1.0, abs=1e-15)
    assert compand(0.1, 255) == pytest.approx(math.log(26.5) / math.log(256),
                                              abs=1e-12)


def test_expand_fixed_points():
    assert expand(0.0, 255) == 0.0
    assert expand(1.0, 255) == pytest.approx(1.0, abs=1e-15)
    y = math.log(26.5) / math.log(256)
    assert expand(y, 255) == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("mu", (MU_MIN, 10.140625, 75.8, 100.0, MU_MAX))
def test_transforms_match_the_closed_forms_bit_for_bit(mu):
    # signed zeros, subnormals, tiny, moderate and large values; expand
    # overflows to +-inf beyond |y| ~ 709 / log1p(mu), as the closed form does
    tiny = np.finfo(float).smallest_subnormal
    rng = np.random.default_rng(4)
    base = np.array([0.0, tiny, 1e-310, 1e-300, 1e-20, 0.5, 1.0, 3.7, 50.0,
                     1e3, 1e300, np.finfo(float).max])
    x = np.concatenate([base, -base,
                        rng.standard_normal(5000) * 10.0 ** rng.uniform(-300, 3, 5000)])
    with np.errstate(over="ignore"):
        closed = {
            compand: np.sign(x) * np.log1p(mu * np.abs(x)) / np.log1p(mu),
            expand: np.sign(x) * np.expm1(np.abs(x) * np.log1p(mu)) / mu,
        }
        for transform, expected in closed.items():
            assert transform(x, mu).tobytes() == expected.tobytes()
            for v, e in zip(x[:24], expected[:24]):
                got = transform(float(v), mu)
                assert type(got) is float and np.float64(got).tobytes() == e.tobytes()
    assert not np.signbit(compand(-0.0, mu)) and not np.signbit(expand(-0.0, mu))


def test_mu_range_enforced():
    with pytest.raises(ValueError):
        compand(0.5, 5.0)
    with pytest.raises(ValueError):
        expand(0.5, 300.0)


def test_mu_zero_is_linear_coding():
    xs = np.linspace(-3.0, 3.0, 13)
    assert np.array_equal(compand(xs, 0.0), xs)
    assert np.array_equal(expand(xs, 0.0), xs)
    didy, didmu = expand_grad(xs, 0.0)
    assert np.array_equal(didy, np.ones_like(xs))
    assert np.array_equal(didmu, np.zeros_like(xs))
    assert (compand(0.3, 0), expand(0.3, 0), expand_grad(0.3, 0)) == (0.3, 0.3, (1.0, 0.0))
    for mu in (5.0, 300.0):
        for transform in (compand, expand, expand_grad):
            with pytest.raises(ValueError):
                transform(0.5, mu)


def test_nonfinite_input_rejected():
    with pytest.raises(ValueError):
        compand(float("nan"), 100)
    with pytest.raises(ValueError):
        expand(float("inf"), 100)


def test_round_trip_grid():
    xs = np.linspace(-1, 1, 101)
    for mu in np.linspace(MU_MIN, MU_MAX, 25):
        err = np.abs(expand(compand(xs, mu), mu) - xs)
        assert err.max() <= 1e-6


def test_oddness_exact():
    xs = np.linspace(0, 1, 50)[1:]
    for mu in (10.0, 87.5, 255.0):
        assert np.array_equal(compand(-xs, mu), -compand(xs, mu))
        ys = compand(xs, mu)
        assert np.array_equal(expand(-ys, mu), -expand(ys, mu))


def test_strictly_increasing():
    xs = np.linspace(-1, 1, 500)
    for mu in (10.0, 100.0, 255.0):
        assert np.all(np.diff(compand(xs, mu)) > 0)
        assert np.all(np.diff(expand(xs, mu)) > 0)


def test_grad_at_zero_is_analytic_limit():
    for mu in (10.0, 100.0, 255.0):
        didy, didmu = expand_grad(compand(0.0, mu), mu)
        assert didy == pytest.approx(math.log1p(mu) / mu, rel=1e-12)
        assert didmu == 0.0


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(1000):
        x = float(rng.uniform(0.01, 1.0) * rng.choice([-1.0, 1.0]))
        mu = float(rng.uniform(MU_MIN, MU_MAX - 1.0))
        # abs floor at the central-difference roundoff scale eps/h ~ 1e-10
        y = compand(x, mu)
        didy, didmu = expand_grad(y, mu)
        fd_y = (expand(y + h, mu) - expand(y - h, mu)) / (2 * h)
        fd_m = (expand(y, mu + h) - expand(y, mu - h)) / (2 * h)
        assert didy == pytest.approx(fd_y, rel=1e-4)
        assert didmu == pytest.approx(fd_m, rel=1e-4, abs=1e-9)


@pytest.mark.parametrize("mu", (0.0, 10.0, 255.0))
def test_expand_into_out_is_the_fresh_array(mu):
    ys = np.linspace(-1.0, 1.0, 101).reshape(1, -1)
    out = np.full_like(ys, 7.0)
    got = expand(ys, mu, out=out)
    assert np.array_equal(got, expand(ys, mu))
    # mu == 0 is the identity: it returns ys and leaves out alone
    assert got is (ys if mu == 0.0 else out)


def test_kurtosis_rademacher():
    s = np.array([1.0, -1.0] * 100)
    assert kurtosis(s) == pytest.approx(-2.0, abs=1e-12)
    assert kurtosis(s) + 3 == pytest.approx(1.0, abs=1e-12)


def test_kurtosis_gaussian_large_sample():
    rng = np.random.default_rng(1)
    s = rng.standard_normal(10**6)
    assert abs(kurtosis(s)) <= 0.05


def test_kurtosis_matches_pow_form():
    # the fourth moment is (c^2)^2 rather than c**4; both forms agree
    rng = np.random.default_rng(3)
    samples = (rng.standard_t(4, size=4096 * 128),
               rng.standard_normal(10**5),
               rng.choice([-1.0, 1.0], size=10**5))
    for s in samples:
        c = s - s.mean()
        m2 = np.mean(c * c)
        expected = np.mean(c**4) / m2**2
        assert kurtosis(s) + 3 == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("layout", ("contiguous", "column slice", "float32", "list"))
def test_kurtosis_leaves_its_input_and_matches_the_two_array_form(layout):
    # the centring is done in place only on a copy made by the cast or
    # the ravel, never on the caller's array
    rng = np.random.default_rng(4)
    wide = rng.standard_t(4, size=(64, 384))
    sample = {"contiguous": wide, "column slice": wide[:, 128:256],
              "float32": wide.astype(np.float32), "list": wide[:8].tolist()}[layout]
    before = np.array(sample)
    s = np.asarray(sample, dtype=float).ravel()
    c = s - s.mean()
    c *= c
    m2 = float(np.mean(c))
    c *= c
    assert kurtosis(sample) == float(np.mean(c)) / m2**2 - 3.0
    assert np.array_equal(np.asarray(sample), before)


def test_kurtosis_degenerate():
    with pytest.raises(DegenerateSampleError):
        kurtosis(np.full(10, 3.0))
    with pytest.raises(ValueError):
        kurtosis(np.array([1.0, 2.0]))


def test_init_mu():
    assert init_mu(10.0) == pytest.approx(100.0 * math.tanh(1.0), abs=1e-9)
    assert init_mu(-2.0) == MU_MIN  # raw value ~ -19.7 projects up
    assert init_mu(1e9) == pytest.approx(100.0)
    rng = np.random.default_rng(2)
    for k in rng.uniform(-100, 100, size=200):
        mu = init_mu(k)
        assert MU_MIN <= mu <= MU_MAX
