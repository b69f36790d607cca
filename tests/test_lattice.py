import numpy as np
import pytest

from glvq.codebook import SIGMA_MAX, SIGMA_MIN, spectral_normalize
from glvq.lattice import (SingularBasisError, babai_error_bound, babai_round,
                          check_basis, decode, exact_cvp, gram_schmidt,
                          lll_reduce)


def random_basis(rng, d, scale=1.0):
    while True:
        b = scale * rng.standard_normal((d, d))
        try:
            return check_basis(b)
        except SingularBasisError:
            continue


def test_check_basis_rejects_singular():
    b = np.array([[1.0, 1e-15], [0.0, 1e-15]])
    with pytest.raises(SingularBasisError):
        check_basis(b)


def test_check_basis_accepts_every_spectrally_normalized_basis():
    # spectral_normalize admits singular values in [sigma_min, sigma_max];
    # every such basis must pass, however far apart the extremes are
    sigma_min, sigma_max = SIGMA_MIN, SIGMA_MAX
    check_basis(spectral_normalize(np.diag([10.0] + [0.01] * 7)))
    rng = np.random.default_rng(0)
    for d in (1, 2, 8, 16, 32):
        for _ in range(20):
            u, _ = np.linalg.qr(rng.standard_normal((d, d)))
            v, _ = np.linalg.qr(rng.standard_normal((d, d)))
            s = rng.uniform(sigma_min, sigma_max, size=d)
            s[0], s[-1] = sigma_max, sigma_min
            check_basis((u * s) @ v.T)


def test_check_basis_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        check_basis(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        check_basis(np.ones((2, 3)))


def test_gram_schmidt_identity():
    gs = gram_schmidt(np.eye(2))
    assert np.array_equal(gs.ortho, np.eye(2))
    assert np.array_equal(gs.gs_coeff, np.zeros((2, 2)))


def test_gram_schmidt_hand_example():
    # b1 = (1, 0), b2 = (1, 1): projection coefficient 1, b*_2 = (0, 1)
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    gs = gram_schmidt(b)
    assert np.allclose(gs.ortho[:, 1], [0.0, 1.0])
    assert gs.gs_coeff[0, 1] == pytest.approx(1.0)


def test_gram_schmidt_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        b = random_basis(rng, d)
        gs = gram_schmidt(b)
        norms = np.linalg.norm(gs.ortho, axis=0)
        for i in range(d):
            for j in range(i + 1, d):
                ip = abs(gs.ortho[:, i] @ gs.ortho[:, j])
                assert ip <= 1e-9 * norms[i] * norms[j]
        rebuilt = gs.ortho + gs.ortho @ np.triu(gs.gs_coeff, 1)
        assert np.allclose(rebuilt, b, rtol=1e-9, atol=1e-12)
        assert np.allclose(np.tril(gs.gs_coeff), 0.0)


def test_lll_identity_already_reduced():
    assert np.array_equal(lll_reduce(np.eye(2)), np.eye(2))


def test_lll_hand_trace():
    # columns (1,0) and (1.5,0.5): size-reduce, swap, size-reduce
    b = np.array([[1.0, 1.5], [0.0, 0.5]])
    out = lll_reduce(b, delta=0.75)
    assert np.allclose(out, np.array([[-0.5, 0.5], [0.5, 0.5]]))


def test_lll_rejects_bad_delta():
    with pytest.raises(ValueError):
        lll_reduce(np.eye(2), delta=0.2)
    with pytest.raises(ValueError):
        lll_reduce(np.eye(2), delta=1.5)


def test_lll_postconditions_random():
    rng = np.random.default_rng(1)
    delta = 0.75
    for _ in range(100):
        b = random_basis(rng, 6)
        out = lll_reduce(b, delta=delta)
        gs = gram_schmidt(out)
        assert np.abs(np.triu(gs.gs_coeff, 1)).max() <= 0.5 + 1e-9
        norms2 = (gs.ortho**2).sum(axis=0)
        for k in range(1, 6):
            lhs = norms2[k]
            rhs = (delta - gs.gs_coeff[k - 1, k] ** 2) * norms2[k - 1]
            assert lhs >= rhs - 1e-9 * norms2[k - 1]
        # same lattice: change of basis is unimodular
        u = np.linalg.solve(b, out)
        assert np.allclose(u, np.round(u), atol=1e-6)
        assert abs(abs(np.linalg.det(np.round(u))) - 1.0) < 1e-6


def test_babai_identity_and_ties():
    assert np.array_equal(babai_round(np.eye(2), [0.4, -0.6]), [0, -1])
    # half-integer coordinates round toward +inf, as int64, for vector and
    # matrix targets alike
    t = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5])
    expected = np.array([1, 0, 2, -1, 3, -2])
    for codes, want in ((babai_round(np.eye(6), t), expected),
                        (babai_round(np.eye(3), t.reshape(3, 2)),
                         expected.reshape(3, 2))):
        assert codes.dtype == np.int64 and np.array_equal(codes, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_babai_rejects_non_finite_targets(bad):
    for target in ([0.5, bad], np.array([[0.5, 0.5], [0.5, bad]])):
        with pytest.raises(ValueError, match="target has non-finite entries"):
            babai_round(np.eye(2), target)


def test_babai_skew_example():
    g = np.array([[1.0, 0.9], [0.0, 1.0]])
    codes = babai_round(g, [0.5, 0.5])
    assert np.array_equal(codes, [0, 1])
    resid = np.array([0.5, 0.5]) - decode(g, codes)
    assert np.linalg.norm(resid) == pytest.approx(np.sqrt(0.41), abs=1e-12)


def test_babai_matrix_targets():
    g = np.array([[1.0, 0.9], [0.0, 1.0]])
    targets = np.array([[0.5, 0.4], [0.5, -0.6]])
    codes = babai_round(g, targets)
    assert codes.shape == (2, 2)
    assert np.array_equal(codes[:, 0], babai_round(g, targets[:, 0]))
    assert np.array_equal(codes[:, 1], babai_round(g, targets[:, 1]))


def test_babai_given_inverse_and_float_result_match_the_checked_path():
    # a caller's inverse skips the check and the inversion, not a code;
    # cast=False hands back the rounded float array, integer-valued
    rng = np.random.default_rng(3)
    g = spectral_normalize(rng.standard_normal((4, 4)))
    t = rng.standard_normal((4, 64))
    want = babai_round(g, t)
    given = babai_round(g, t, np.linalg.inv(g))
    as_float = babai_round(g, t, cast=False)
    assert given.dtype == np.int64 and np.array_equal(given, want)
    assert as_float.dtype == np.float64 and np.array_equal(as_float, want)


def test_exact_cvp_examples():
    assert np.array_equal(exact_cvp(np.eye(2), [0.4, -0.6], 2), [0, -1])
    g = np.array([[1.0, 0.9], [0.0, 1.0]])
    codes = exact_cvp(g, [0.5, 0.5], 2)
    assert np.array_equal(codes, [0, 1])
    assert np.linalg.norm([0.5, 0.5] - decode(g, codes)) == pytest.approx(
        np.sqrt(0.41), abs=1e-12)


def test_exact_cvp_tie_breaks_lexicographically():
    # (0,0) and (1,0) are equidistant from (0.5, 0); the smaller code wins
    assert np.array_equal(exact_cvp(np.eye(2), [0.5, 0.0], 1), [0, 0])


def test_exact_cvp_preconditions():
    with pytest.raises(ValueError):
        exact_cvp(np.eye(9), np.zeros(9), 1)
    with pytest.raises(ValueError):
        exact_cvp(np.eye(2), [0.0, 0.0], 0)


def test_exact_cvp_dominates_babai():
    rng = np.random.default_rng(2)
    for _ in range(300):
        b = random_basis(rng, 4)
        t = rng.uniform(-4, 4, size=4)
        r_babai = np.linalg.norm(t - decode(b, babai_round(b, t)))
        r_cvp = np.linalg.norm(t - decode(b, exact_cvp(b, t, 2)))
        assert r_cvp <= r_babai + 1e-12


def test_exact_cvp_equals_babai_on_orthogonal_bases():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        b = q * rng.uniform(0.5, 2.0, size=4)  # orthogonal, unequal lengths
        t = rng.uniform(-4, 4, size=4)
        r_babai = np.linalg.norm(t - decode(b, babai_round(b, t)))
        r_cvp = np.linalg.norm(t - decode(b, exact_cvp(b, t, 2)))
        assert r_cvp == pytest.approx(r_babai, abs=1e-9)


def test_decode_examples_and_closure():
    assert np.array_equal(decode(np.eye(2), [2, -3]), [2.0, -3.0])
    g = np.array([[1.0, 0.9], [0.0, 1.0]])
    assert np.allclose(decode(g, [0, 1]), [0.9, 1.0])
    rng = np.random.default_rng(4)
    for _ in range(50):
        b = random_basis(rng, 5)
        z1 = rng.integers(-10, 11, size=5)
        z2 = rng.integers(-10, 11, size=5)
        lhs = decode(b, z1) + decode(b, z2)
        rhs = decode(b, z1 + z2)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_lattice_points_are_babai_fixed_points():
    rng = np.random.default_rng(5)
    for _ in range(50):
        b = random_basis(rng, 4)
        z = rng.integers(-50, 51, size=4)
        assert np.array_equal(babai_round(b, decode(b, z)), z)


def test_babai_matches_lu_solve_on_normalized_bases():
    # babai_round applies an explicit inverse; on every basis the optimizer
    # can hold (singular values in [0.01, 10]) its codes equal the
    # LU-solve form's, and lattice points round back to their codes
    rng = np.random.default_rng(7)
    d, cols = 8, 1024
    for _ in range(200):
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = 10.0 ** rng.uniform(-3.0, 2.0, size=d)
        s[0], s[-1] = 100.0, 1e-3  # clamped to the range's two ends
        b = spectral_normalize((u * s) @ v.T)
        sv = np.linalg.svd(b, compute_uv=False)
        assert sv[0] == pytest.approx(SIGMA_MAX)
        assert sv[-1] == pytest.approx(SIGMA_MIN)
        t = rng.standard_normal((d, cols))
        expected = np.floor(np.linalg.solve(b, t) + 0.5).astype(np.int64)
        assert np.array_equal(babai_round(b, t), expected)
        z = rng.integers(-128, 128, size=(d, cols))
        assert np.array_equal(babai_round(b, decode(b, z)), z)


def test_error_bound_identity():
    gs = gram_schmidt(np.eye(2))
    bound = babai_error_bound(gs)
    assert bound.lll_form == pytest.approx(0.5 * np.sqrt(3.25), abs=1e-12)
    gs1 = gram_schmidt(np.eye(1))
    b1 = babai_error_bound(gs1)
    assert b1.lll_form == pytest.approx(0.5)
    assert b1.general == pytest.approx(0.5)


def test_general_bound_tighter_when_size_reduced():
    rng = np.random.default_rng(6)
    for _ in range(100):
        b = lll_reduce(random_basis(rng, 5))
        bound = babai_error_bound(gram_schmidt(b))
        assert bound.general <= bound.lll_form + 1e-12


def test_babai_residual_within_bound_on_reduced_bases():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        b = lll_reduce(random_basis(rng, d))
        bound = babai_error_bound(gram_schmidt(b))
        t = rng.uniform(-8, 8, size=d)
        resid = np.linalg.norm(t - decode(b, babai_round(b, t)))
        assert resid <= bound.lll_form * (1 + 1e-9)
        assert resid <= bound.general * (1 + 1e-9)
