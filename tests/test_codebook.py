from dataclasses import replace

import numpy as np
import pytest

from glvq import codebook, companding, container, synthetic
from glvq.codebook import (GroupCodec, RunConfig, _hessian_loss, code_range,
                           fit_group, gcd_quantize_columns, grad_basis, grad_mu,
                           group_loss, init_codec, quantize_columns,
                           reconstruct, reshape_group, rtn_quantize,
                           spectral_normalize, unreshape_group)

COMPANDED = RunConfig(companding=True)


def make_codec(basis, mu, bits, scale, rows, cols):
    basis = np.asarray(basis, float)
    return GroupCodec(basis=basis, mu=mu, bits=bits, scale=scale,
                      dim=basis.shape[0], rows=rows, cols=cols)


# ---------------------------------------------------------------- reshape

def test_reshape_column_major_chunks():
    w = np.array([[1.0, 3.0], [2.0, 4.0]])  # columns (1,2) and (3,4)
    lat, pad = reshape_group(w, 2)
    assert pad == 0
    assert np.array_equal(lat, np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_reshape_pads_tail():
    w = np.array([[1.0], [2.0], [3.0]])
    lat, pad = reshape_group(w, 2)
    assert pad == 1
    assert np.array_equal(lat, np.array([[1.0, 3.0], [2.0, 0.0]]))


def test_reshape_round_trip_random_shapes():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rows = int(rng.integers(1, 20))
        cols = int(rng.integers(1, 20))
        dim = int(rng.integers(1, 9))
        w = rng.standard_normal((rows, cols))
        lat, pad = reshape_group(w, dim)
        assert 0 <= pad < dim
        assert dim * lat.shape[1] == rows * cols + pad
        assert np.array_equal(unreshape_group(lat, rows, cols), w)


def _reshape_reference(weights, dim):
    # the column-major formula itself: float64 conversion, F-order ravel,
    # zero pad, then consecutive length-d chunks as columns
    flat = np.asarray(weights, dtype=float).ravel(order="F")
    flat = np.concatenate([flat, np.zeros((-flat.size) % dim)])
    return flat.reshape(-1, dim).T


@pytest.mark.parametrize("dim", range(1, 9))
def test_reshape_matches_the_column_major_formula(dim):
    rng = np.random.default_rng(dim)
    for rows in sorted({4 * dim, 4 * dim + 1}):  # whole blocks and padded
        wide = rng.standard_normal((rows, 24))
        inputs = (wide.astype(np.float32)[:, 5:12],  # a C-order column slice
                  wide,
                  wide[:, 3:9],
                  rng.integers(-50, 50, size=(rows, 7)),
                  np.zeros((rows, 0)))
        for w in inputs:
            lat, pad = reshape_group(w, dim)
            assert pad == (-w.size) % dim
            assert lat.dtype == np.float64 and lat.flags.c_contiguous
            # callers divide the latent by the scale in place
            assert not np.shares_memory(lat, w)
            assert np.array_equal(lat, _reshape_reference(w, dim))


# ---------------------------------------------------------------- quantize

def test_quantize_lattice_fixed_point():
    rng = np.random.default_rng(1)
    basis = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    codec = make_codec(basis, 0.0, 4, 1.0, 3, 5)
    z = rng.integers(-8, 8, size=(3, 5))
    latent = basis @ z
    assert np.array_equal(quantize_columns(latent, codec), z)


def test_quantize_clamps_to_code_range():
    codec = make_codec(np.eye(2), 0.0, 2, 1.0, 2, 1)
    latent = np.array([[3.7], [-9.1]])
    assert np.array_equal(quantize_columns(latent, codec), [[1], [-2]])


def test_quantize_leaves_the_latent_unchanged():
    rng = np.random.default_rng(19)
    codec = make_codec(np.eye(3) + 0.2 * rng.standard_normal((3, 3)),
                       0.0, 2, 1.0, 3, 40)
    latent = 3.0 * rng.standard_normal((3, 40))
    before = latent.copy()
    z = quantize_columns(latent, codec)
    assert np.array_equal(latent, before)
    assert z.dtype == np.int8 and z.min() >= -2 and z.max() <= 1


def test_fit_group_gives_int8_codes():
    rng = np.random.default_rng(24)
    w = rng.standard_normal((16, 8)).astype(np.float32)
    x = rng.standard_normal((8, 12)).astype(np.float32)
    codec, codes, _ = fit_group(w, x, 4, 3, replace(COMPANDED, max_iters=5))
    assert codes.dtype == np.int8 and codes.shape == (4, codec.columns)


def test_quantize_zero_latent():
    codec = make_codec(np.eye(2), 0.0, 3, 1.0, 2, 2)
    assert np.array_equal(quantize_columns(np.zeros((2, 2)), codec),
                          np.zeros((2, 2), dtype=int))


# ------------------------------------------------------------- reconstruct

def test_reconstruct_zero_codes():
    codec = make_codec(np.eye(2), 100.0, 2, 3.0, 2, 2)
    assert np.array_equal(reconstruct(np.zeros((2, 2), int), codec),
                          np.zeros((2, 2)))


def test_reconstruct_inverts_quantize_on_representable_input():
    rng = np.random.default_rng(2)
    for mu in (0.0, 50.0, 255.0):
        basis = 0.3 * np.eye(4) + 0.05 * rng.standard_normal((4, 4))
        scale = 1.0 if mu == 0.0 else 2.5
        codec = make_codec(basis, mu, 3, scale, 4, 6)
        z = rng.integers(-4, 4, size=(4, 6))
        w = reconstruct(z, codec)
        z2 = quantize_columns(_latent(w, codec), codec)
        assert np.array_equal(z2, z)
        w2 = reconstruct(z2, codec)
        assert np.allclose(w2, w, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("mu", (0.0, 50.0))
def test_decode_leaves_g_z_as_computed(mu):
    # decode_matrix and row_blocks pass one buffer, sized for their
    # largest group, to every call, so a call may write only the first
    # 2 * codes.size values of it, and what the buffer held must not reach
    # the output; no caller reads the workspace after a call
    rng = np.random.default_rng(3)
    codec = make_codec(0.3 * np.eye(4) + 0.05 * rng.standard_normal((4, 4)),
                       mu, 3, 2.5, 8, 6)
    z = rng.integers(-4, 4, size=(4, 12))
    expected = reconstruct(z, codec)
    for out in (None, np.empty((8, 6), dtype=np.float32)):
        scratch = np.full(2 * z.size + 3, 7.0)  # callers may pass a longer buffer
        w_hat = reconstruct(z, codec, out, scratch)
        assert w_hat is out or out is None
        assert (scratch[2 * z.size:] == 7.0).all()
        assert w_hat.tobytes() == expected.astype(w_hat.dtype).tobytes()


def test_linear_groups_never_expand(monkeypatch):
    # a linear group places G Z itself: neither the decodes nor a linear
    # fit reach companding.expand, which a companded group still calls
    rng = np.random.default_rng(31)
    records = []
    for mu in (0.0, 50.0):
        codec = make_codec(0.3 * np.eye(4) + 0.05 * rng.standard_normal((4, 4)),
                           mu, 2, 1.5, 16, 5)
        records.append((codec, rng.integers(-2, 2, size=(4, codec.columns))))
    (linear, z), (companded, zc) = records
    arch = container.read_archive(container.write_archive(records[:1]))
    w = rng.standard_t(4, size=(16, 32))
    x = rng.standard_normal((32, 24))

    def raising(*args, **kwargs):
        raise AssertionError("expand called")

    monkeypatch.setattr(companding, "expand", raising)
    reconstruct(z, linear)
    reconstruct(z, linear, scratch=np.empty(2 * z.size))
    arch.decode_matrix()
    monkeypatch.setattr(container, "_BLOCK_BYTES", 4 * 5 * 8)
    assert len(list(arch.row_blocks())) == 2
    assert fit_group(w, x, 4, 2, RunConfig(max_iters=5))[2].proposals > 0
    with pytest.raises(AssertionError, match="expand called"):
        reconstruct(zc, companded)


@pytest.mark.parametrize("rows", (8, 7))
def test_reconstruct_is_the_column_major_closed_form(rows):
    # without a destination the decode places into a new column-major
    # array, the layout (and bytes) the fit's products have always seen
    rng = np.random.default_rng(4)
    codec = make_codec(0.3 * np.eye(4) + 0.05 * rng.standard_normal((4, 4)),
                       50.0, 3, 2.5, rows, 6)
    z = rng.integers(-4, 4, size=(4, codec.columns))
    closed = unreshape_group(
        codec.scale * companding.expand(codec.basis @ z, codec.mu), rows, 6)
    w = reconstruct(z, codec)
    assert w.flags.f_contiguous and w.dtype == np.float64
    assert w.tobytes(order="A") == closed.tobytes(order="A")


def _latent(w, codec):
    lat, _ = reshape_group(w, codec.dim)
    lat = lat / codec.scale
    if codec.mu > 0:
        lat = companding.compand(lat, codec.mu)
    return lat


def test_dim1_codec_matches_classical_scalar_mu_law():
    rng = np.random.default_rng(3)
    w = rng.uniform(-1, 1, size=(1000, 1))
    scale = float(np.abs(w).max())
    mu = 255.0
    codec = make_codec(np.array([[1.0 / 127.0]]), mu, 8, scale, 1000, 1)
    codes = quantize_columns(_latent(w, codec), codec)
    ours = reconstruct(codes, codec)
    # classical scalar mu-law codec at 8 bits
    y = companding.compand(w / scale, mu)
    q = np.clip(np.floor(y * 127.0 + 0.5), -128, 127)
    theirs = scale * companding.expand(q / 127.0, mu)
    assert np.allclose(ours, theirs, atol=1e-12)


# ------------------------------------------------------------------- loss

def test_group_loss_zero_at_exact_reconstruction():
    rng = np.random.default_rng(4)
    basis = np.eye(2) * 0.5
    codec = make_codec(basis, 0.0, 4, 1.0, 2, 3)
    z = rng.integers(-4, 4, size=(2, 3))
    w = reconstruct(z, codec)
    x = rng.standard_normal((3, 7))
    assert group_loss(w, codec, z, x, basis) == pytest.approx(0.0, abs=1e-18)


def test_group_loss_isolated_regularizer():
    basis = np.eye(2) * 0.5
    codec0 = make_codec(basis, 0.0, 4, 1.0, 2, 3)
    z = np.arange(6).reshape(2, 3) - 3
    w = reconstruct(z, codec0)
    x = np.random.default_rng(5).standard_normal((3, 4))
    delta = np.array([[0.1, -0.2], [0.3, 0.05]])
    codec1 = make_codec(basis + delta, 0.0, 4, 1.0, 2, 3)
    w1 = reconstruct(z, codec1)  # shift w so the data term stays zero
    lam = 0.1
    loss = group_loss(w1, codec1, z, x, basis, lam)
    assert loss == pytest.approx(lam * (delta**2).sum(), rel=1e-12)


def test_group_loss_identity_calib_is_weight_mse():
    rng = np.random.default_rng(6)
    codec = make_codec(np.eye(2) * 0.5, 0.0, 3, 1.0, 2, 2)
    w = rng.standard_normal((2, 2))
    z = quantize_columns(_latent(w, codec), codec)
    w_hat = reconstruct(z, codec)
    loss = group_loss(w, codec, z, np.eye(2), codec.basis, lam=0.0)
    assert loss == pytest.approx(((w_hat - w) ** 2).sum(), rel=1e-12)


# ---------------------------------------------------------------- gradients

def test_grad_basis_closed_form_without_companding():
    # with trivial reshape, no companding and lam=0 the basis gradient is
    # -2 (W X - G Z X)(Z X)^T
    rng = np.random.default_rng(7)
    d, ell, t = 4, 6, 5
    basis = np.eye(d) + 0.1 * rng.standard_normal((d, d))
    codec = make_codec(basis, 0.0, 4, 1.0, d, ell)
    w = rng.standard_normal((d, ell))
    x = rng.standard_normal((ell, t))
    z = quantize_columns(_latent(w, codec), codec)
    g = grad_basis(w, x, codec, z, basis, lam=0.0)
    zx = z.astype(float) @ x
    expected = -2.0 * (w @ x - basis @ zx) @ zx.T
    assert np.allclose(g, expected, rtol=1e-12, atol=1e-12)


def test_grad_regularizer_vanishes_at_init():
    rng = np.random.default_rng(8)
    basis = np.eye(3) * 0.4
    codec = make_codec(basis, 0.0, 4, 1.0, 3, 4)
    z = rng.integers(-4, 4, size=(3, 4))
    w = reconstruct(z, codec)
    x = rng.standard_normal((4, 6))
    g0 = grad_basis(w, x, codec, z, basis, lam=0.0)
    g1 = grad_basis(w, x, codec, z, basis, lam=0.1)
    assert np.allclose(g0, g1, atol=1e-12)


def _fd_check(rng, with_companding, lam, h=1e-5):
    d, rows, cols, t = 4, 4, 6, 5
    w = rng.standard_normal((rows, cols))
    x = rng.standard_normal((cols, t))
    basis = np.eye(d) + 0.15 * rng.standard_normal((d, d))
    mu = float(rng.uniform(20, 200)) if with_companding else 0.0
    scale = float(np.abs(w).max()) if with_companding else 1.0
    codec = make_codec(basis, mu, 3, scale, rows, cols)
    basis_init = basis + 0.05 * rng.standard_normal((d, d))
    z = quantize_columns(_latent(w, codec), codec)

    g_b = grad_basis(w, x, codec, z, basis_init, lam)
    fd_b = np.zeros_like(g_b)
    for i in range(d):
        for j in range(d):
            bp, bm = basis.copy(), basis.copy()
            bp[i, j] += h
            bm[i, j] -= h
            cp = make_codec(bp, mu, 3, scale, rows, cols)
            cm = make_codec(bm, mu, 3, scale, rows, cols)
            fd_b[i, j] = (group_loss(w, cp, z, x, basis_init, lam)
                          - group_loss(w, cm, z, x, basis_init, lam)) / (2 * h)
    rel_b = np.abs(g_b - fd_b).max() / max(np.abs(fd_b).max(), 1e-12)
    assert rel_b <= 1e-4

    if with_companding:
        g_m = grad_mu(w, x, codec, z, basis_init, lam)
        cp = make_codec(basis, mu + h, 3, scale, rows, cols)
        cm = make_codec(basis, mu - h, 3, scale, rows, cols)
        fd_m = (group_loss(w, cp, z, x, basis_init, lam)
                - group_loss(w, cm, z, x, basis_init, lam)) / (2 * h)
        assert abs(g_m - fd_m) / max(abs(fd_m), 1e-12) <= 1e-4


@pytest.mark.parametrize("with_companding", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_gradients_match_finite_differences(with_companding, lam):
    rng = np.random.default_rng(9)
    for _ in range(25):
        _fd_check(rng, with_companding, lam)


# The Hessian form reorders float64 sums, so it matches the X form to
# rounding, not bitwise.  Fixed before that code was written, far above
# float64 rounding on these sizes.
HESSIAN_RTOL = 1e-9


def _xform_grads(w, x, codec, codes, basis_init, lam):
    """Reference basis and mu gradients through the residual
    r = (W_hat - W) X, built from r X^T."""
    zf = codes.astype(float)
    v = codec.basis @ zf
    r = (reconstruct(codes, codec) - w) @ x
    g_lat, _ = reshape_group(2.0 * (r @ x.T), codec.dim)
    if codec.mu > 0.0:
        didy, didmu = companding.expand_grad(v, codec.mu)
        g_v = g_lat * (codec.scale * didy)
        g_mu = float((g_lat * (codec.scale * didmu)).sum())
    else:
        g_v, g_mu = g_lat * codec.scale, 0.0
    return g_v @ zf.T + 2.0 * lam * (codec.basis - basis_init), g_mu


@pytest.mark.parametrize("with_companding", [False, True])
@pytest.mark.parametrize("rows,cols,t", [
    (6, 8, 20),  # pad 0
    (5, 7, 20),  # pad 1
    (5, 7, 3),  # T < n: H = X X^T is singular
])
def test_hessian_form_matches_x_form(with_companding, rows, cols, t):
    rng = np.random.default_rng(40)
    d, bits, lam = 4, 3, 0.1
    for _ in range(20):
        w = rng.standard_t(4, size=(rows, cols))
        x = rng.standard_normal((cols, t))
        mu = float(rng.uniform(10, 255)) if with_companding else 0.0
        codec = make_codec(np.eye(d) + 0.2 * rng.standard_normal((d, d)), mu,
                           bits, float(np.abs(w).max()), rows, cols)
        lo, hi = code_range(bits)
        codes = rng.integers(lo, hi + 1, size=(d, codec.columns))
        basis_init = codec.basis + 0.05 * rng.standard_normal((d, d))
        loss, _ = _hessian_loss(w, x @ x.T, codec, codes, basis_init, lam)
        assert loss == pytest.approx(group_loss(w, codec, codes, x, basis_init, lam),
                                     rel=HESSIAN_RTOL, abs=0.0)
        ref_gb, ref_gm = _xform_grads(w, x, codec, codes, basis_init, lam)
        g_b = grad_basis(w, x, codec, codes, basis_init, lam)
        assert np.abs(g_b - ref_gb).max() <= HESSIAN_RTOL * np.abs(ref_gb).max()
        g_m = grad_mu(w, x, codec, codes, basis_init, lam)
        assert g_m == pytest.approx(ref_gm, rel=HESSIAN_RTOL, abs=0.0)


# ---------------------------------------------------------- normalization

def test_spectral_normalize_inside_range_unchanged():
    b = np.diag([2.0, 0.5])
    assert np.array_equal(spectral_normalize(b), b)


def test_spectral_normalize_clamps():
    out = spectral_normalize(np.diag([100.0, 1.0]))
    assert np.allclose(out, np.diag([10.0, 1.0]), atol=1e-12)


def test_spectral_normalize_idempotent():
    rng = np.random.default_rng(10)
    for _ in range(100):
        b = rng.standard_normal((4, 4)) * 10 ** rng.uniform(-3, 3)
        once = spectral_normalize(b)
        twice = spectral_normalize(once)
        assert np.allclose(once, twice, rtol=1e-10, atol=1e-12)
        s = np.linalg.svd(once, compute_uv=False)
        assert s.min() >= 0.01 - 1e-9 and s.max() <= 10.0 + 1e-9


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_spectral_normalize_rejects_non_finite(d, bad):
    # LAPACK's SVD of an 8x8 basis with one inf did not return in 24
    # CPU-minutes, and a 2x2 one came back as NaNs
    b = np.eye(d)
    b[d - 1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        spectral_normalize(b)


# ------------------------------------------------------------------- init

def test_init_codec_near_diagonal_for_iid_weights():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((500, 400))  # l = 1e5 at d=2
    codec = init_codec(w, 2, 4)
    off = abs(codec.basis[1, 0]) + abs(codec.basis[0, 1])
    on = abs(codec.basis[0, 0]) + abs(codec.basis[1, 1])
    assert off / on < 0.1


def test_init_codec_zero_group_fallback():
    codec = init_codec(np.zeros((4, 4)), 2, 3)
    assert np.array_equal(codec.basis, 0.25 * np.eye(2))
    assert codec.scale == 1.0
    z = quantize_columns(_latent(np.zeros((4, 4)), codec), codec)
    assert not z.any()
    assert not reconstruct(z, codec).any()


def test_init_codec_percentile_limits_clamping():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((256, 64))
    for bits in (2, 3):
        codec = init_codec(w, 4, bits)
        lat = _latent(w, codec)
        raw = np.floor(np.linalg.solve(codec.basis, lat) + 0.5)
        lo, hi = code_range(bits)
        clamped = ((raw < lo) | (raw > hi)).mean()
        assert clamped <= 0.02


def test_init_codec_matches_lu_solve_form():
    # init_codec whitens through an explicit inverse of the Cholesky
    # factor; its basis equals the one an LU solve gives
    dim, bits = 8, 3
    for seed in range(10):
        w, _ = synthetic.make_group(seed)
        codec = init_codec(w, dim, bits)
        lat = _latent(w, codec)
        cov = lat @ lat.T / lat.shape[1] + codebook.COV_RIDGE * np.eye(dim)
        chol = np.linalg.cholesky(cov)
        q = np.percentile(np.abs(np.linalg.solve(chol, lat)), 99.0)
        expected = spectral_normalize(q / (2 ** (bits - 1) - 0.5) * chol)
        assert np.allclose(codec.basis, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("config", (COMPANDED, replace(COMPANDED, fixed_basis=True),
                                    RunConfig()))
def test_init_codec_leaves_the_weights_unchanged(config):
    # float64 weights reach the encode steps uncopied
    rng = np.random.default_rng(17)
    for w in (rng.standard_t(4, size=(64, 24)),
              rng.standard_t(4, size=(64, 48)).astype(np.float32)[:, 8:32]):
        before = w.copy()
        init_codec(w, 8, 2, config)
        assert np.array_equal(w, before)


@pytest.mark.parametrize("config", (COMPANDED, replace(COMPANDED, fixed_basis=True)))
def test_init_group_returns_the_codec_latent(config):
    # with fixed_basis the percentile is taken over the latent itself, so
    # its magnitudes must not be taken in place
    rng = np.random.default_rng(18)
    w = rng.standard_t(4, size=(64, 24))
    codec, lat = codebook._init_group(w, 8, 2, config)
    assert np.array_equal(lat, codebook._latent_of(w, codec))


def _sparse_group():
    # 40 nonzeros in 8192 weights: the 99th percentile of the coordinate
    # magnitudes is 0, so init places their maximum at the code-range edge
    rng = np.random.default_rng(1)
    w = np.zeros((64, 128))
    w.flat[rng.choice(w.size, 40, replace=False)] = rng.standard_normal(40)
    return w, rng.standard_normal((128, 64))


@pytest.mark.parametrize("companding_on", [True, False])
def test_fit_sparse_group_beats_zero(companding_on):
    # the fit must keep the basis singular values in range and beat w_hat = 0
    w, x = _sparse_group()
    codec, codes, _ = fit_group(w, x, 8, 2, RunConfig(companding=companding_on))
    s = np.linalg.svd(codec.basis, compute_uv=False)
    assert codebook.SIGMA_MIN <= s.min() and s.max() <= codebook.SIGMA_MAX
    err = np.sum(((reconstruct(codes, codec) - w) @ x) ** 2) / np.sum((w @ x) ** 2)
    assert err < 1.0


@pytest.mark.parametrize("companding_on", [True, False])
def test_fit_sparse_group_with_fixed_basis_beats_zero(companding_on):
    # with the basis fixed, init's scale is the fit's only grid: a step-1
    # identity grid would leave the companded fit at 3.6 times the error of
    # w_hat = 0, the largest magnitude at the code-range edge at 0.43
    w, x = _sparse_group()
    config = RunConfig(companding=companding_on, fixed_basis=True)
    codec, codes, _ = fit_group(w, x, 8, 2, config)
    err = np.sum(((reconstruct(codes, codec) - w) @ x) ** 2) / np.sum((w @ x) ** 2)
    assert err < 1.0


def test_bare_fit_codes_linearly_as_a_run_does():
    # init_codec and fit_group without a config read RunConfig(), the
    # settings a run starts from: no mu-law stage
    rng = np.random.default_rng(26)
    w = rng.standard_t(4, size=(32, 16))
    x = rng.standard_normal((16, 24))
    assert init_codec(w, 4, 2).mu == 0.0
    codec, codes, _ = fit_group(w, x, 4, 2)
    want, want_codes, _ = fit_group(w, x, 4, 2, RunConfig())
    assert codec.mu == want.mu == 0.0
    assert codec.basis.tobytes() == want.basis.tobytes()
    assert codec.scale == want.scale
    assert np.array_equal(codes, want_codes)


def test_init_codec_preconditions():
    with pytest.raises(ValueError):
        init_codec(np.ones((1, 2)), 4, 2)  # 2 weights cannot host d=4
    with pytest.raises(ValueError):
        init_codec(np.array([[np.nan, 1.0]]), 1, 2)


# -------------------------------------------------------------------- fit

def test_fit_group_monotone_history_and_convergence():
    rng = np.random.default_rng(14)
    w = rng.standard_t(4, size=(64, 32))
    x = rng.standard_normal((32, 16))
    _, _, report = fit_group(w, x, 4, 2, COMPANDED)
    h = np.array(report.loss_history)
    assert np.all(np.diff(h) <= 0)
    assert report.converged
    assert report.final_loss == h[-1]


def test_fit_group_beats_rtn_on_heavy_tails():
    rng = np.random.default_rng(15)
    mix = np.eye(8) + 0.5 * rng.standard_normal((8, 8)) / np.sqrt(8)
    lat = mix @ rng.standard_t(4, size=(8, 2048))
    w = unreshape_group(lat, 256, 64)
    x = rng.standard_normal((64, 128))
    codec, codes, _ = fit_group(w, x, 8, 2, COMPANDED)
    glvq_err = (((reconstruct(codes, codec) - w) @ x) ** 2).sum()
    rtn_err = (((rtn_quantize(w, 2) - w) @ x) ** 2).sum()
    assert glvq_err < rtn_err


def test_fit_group_gradients_only_for_accepted_steps(monkeypatch):
    rng = np.random.default_rng(16)
    w = rng.standard_t(4, size=(32, 16))
    x = rng.standard_normal((16, 64))
    calls = {}

    def count(module, name):
        real = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(companding, "expand_grad")
    count(companding, "compand")
    count(codebook, "spectral_normalize")  # once at init, once per basis proposal
    _, _, report = fit_group(w, x, 4, 2, COMPANDED)
    accepts = len(report.loss_history) - 1
    mu_proposals = report.proposals - (calls["spectral_normalize"] - 1)
    assert 0 < accepts < report.proposals and mu_proposals > 0
    # one gradient at init, then one per accepted step
    assert calls["expand_grad"] == len(report.loss_history)
    # basis proposals reuse the companded latent; mu proposals recompute it
    assert calls["compand"] <= 1 + mu_proposals


@pytest.mark.parametrize("config", (RunConfig(), COMPANDED), ids=("linear", "companded"))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_fit_codes_equal_the_public_encoder(config, seed):
    # the fit encodes with the inverse it took once per basis, the public
    # path checks and inverts the basis itself: the codes agree byte for
    # byte, on a padded group (rows % dim != 0) and on a strided column
    # slice of a wider layer alike
    rng = np.random.default_rng(seed)
    wide = rng.standard_t(4, size=(64, 96))
    x = rng.standard_normal((32, 48))
    for w in (rng.standard_t(4, size=(30, 32)), wide[:, 32:64]):
        codec, codes, report = fit_group(w, x, 8, 2, replace(config, max_iters=30))
        assert report.proposals > 0
        public = quantize_columns(codebook._latent_of(w, codec), codec)
        assert codes.dtype == public.dtype == np.int8
        assert codes.tobytes() == public.tobytes()


@pytest.mark.parametrize("config", (RunConfig(), COMPANDED), ids=("linear", "companded"))
def test_fit_takes_one_svd_and_one_inverse_per_basis_proposal(monkeypatch, config):
    # spectral_normalize's SVD proves the basis full rank, so the code
    # refresh neither re-checks it (a second SVD) nor inverts it again; a
    # mu proposal keeps the basis and its inverse.  The init takes one SVD
    # and two inverses: the Cholesky whitening's and the first basis's.
    rng = np.random.default_rng(8)
    w = rng.standard_t(4, size=(64, 32))
    x = rng.standard_normal((32, 48))
    calls = {"svd": 0, "inv": 0, "spectral_normalize": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(np.linalg, "svd")
    count(np.linalg, "inv")
    count(codebook, "spectral_normalize")
    _, _, report = fit_group(w, x, 8, 2, config)
    basis_proposals = calls["spectral_normalize"] - 1
    assert basis_proposals > 0
    if not config.companding:
        assert basis_proposals == report.proposals
    assert calls["svd"] == basis_proposals + 1
    assert calls["inv"] == basis_proposals + 2


def test_linear_fit_calls_no_companding_function(monkeypatch):
    rng = np.random.default_rng(9)
    w = rng.standard_t(4, size=(30, 32))
    x = rng.standard_normal((32, 48))
    want = fit_group(w, x, 8, 2)

    def raising(*args, **kwargs):
        raise AssertionError("companding called by a linear fit")

    for name in ("compand", "expand", "expand_grad"):
        monkeypatch.setattr(companding, name, raising)
    codec, codes, report = fit_group(w, x, 8, 2)
    assert report.proposals > 0 and codec.mu == 0.0
    assert codes.tobytes() == want[1].tobytes()
    assert codec.basis.tobytes() == want[0].basis.tobytes()
    assert report.loss_history == want[2].loss_history


def test_fit_group_stop_reasons():
    rng = np.random.default_rng(0)
    w = rng.standard_t(4, size=(8, 8))
    x = rng.standard_normal((8, 4))

    def stop(**overrides):
        _, _, report = fit_group(w, x, 2, 2, replace(COMPANDED, **overrides))
        return report

    report = stop()
    assert (report.stop_reason, report.converged) == ("tol", True)
    # tol=0 never fires: this group's basis search halves its step size
    # 50 times without a decrease and stalls
    report = stop(tol=0.0, max_iters=3000, companding=False)
    assert (report.stop_reason, report.converged) == ("stalled", True)
    assert report.proposals - (len(report.loss_history) - 1) >= 50
    report = stop(tol=0.0, max_iters=3)
    assert (report.stop_reason, report.converged) == ("max_iters", False)
    assert report.iterations == 3
    report = stop(fixed_basis=True, companding=False)
    assert (report.stop_reason, report.converged) == ("no_accept", True)
    assert (report.iterations, report.proposals) == (1, 0)


def test_fit_group_shape_mismatch():
    with pytest.raises(ValueError):
        fit_group(np.ones((4, 4)), np.ones((3, 2)), 2, 2)


# -------------------------------------------------------------------- rtn

def test_rtn_hand_example():
    out = rtn_quantize(np.array([-1.0, 0.5, 1.0]), 2)
    assert np.array_equal(out, [-1.0, 1.0, 1.0])


def test_rtn_exact_on_grid():
    # grid step recovers when max|codes| hits 2^(b-1) - 1
    s = 1.0 / 3.0
    w = s * np.array([[-3.0, -1.0], [2.0, 3.0]])
    assert np.allclose(rtn_quantize(w, 3), w, atol=1e-12)


def test_rtn_zero_input():
    assert not rtn_quantize(np.zeros((3, 3)), 4).any()


def test_rtn_noise_floor_at_8_bits():
    rng = np.random.default_rng(16)
    w = rng.uniform(-1, 1, size=100000)
    w[0] = 1.0  # pin the scale
    err = rtn_quantize(w, 8) - w
    rmse = np.sqrt((err**2).mean())
    s = 1.0 / 127.0
    assert abs(rmse - s / np.sqrt(12)) <= 0.1 * s / np.sqrt(12)


# -------------------------------------------------------------------- gcd

def test_gcd_equals_babai_on_orthogonal_basis():
    rng = np.random.default_rng(17)
    basis = np.diag([0.7, 1.3, 0.4])
    codec = make_codec(basis, 0.0, 3, 1.0, 3, 20)
    latent = rng.standard_normal((3, 20))
    assert np.array_equal(gcd_quantize_columns(latent, codec),
                          quantize_columns(latent, codec))


def test_gcd_residual_improves_with_sweeps():
    rng = np.random.default_rng(18)
    basis = np.eye(4) + 0.4 * rng.standard_normal((4, 4))
    codec = make_codec(basis, 0.0, 3, 1.0, 4, 50)
    latent = rng.standard_normal((4, 50))

    def resid(z):
        return np.linalg.norm(latent - basis @ z, axis=0)

    r0 = resid(np.zeros((4, 50)))
    r1 = resid(gcd_quantize_columns(latent, codec))
    assert np.all(r1 <= r0 + 1e-12)


def test_gcd_worse_than_babai_on_skew_bases():
    rng = np.random.default_rng(19)
    total_gcd, total_babai = 0.0, 0.0
    for _ in range(10):
        basis = np.eye(4) + 0.5 * rng.standard_normal((4, 4))
        codec = make_codec(basis, 0.0, 4, 1.0, 4, 100)
        latent = rng.standard_normal((4, 100))
        z_g = gcd_quantize_columns(latent, codec)
        z_b = quantize_columns(latent, codec)
        total_gcd += np.linalg.norm(latent - basis @ z_g, axis=0).mean()
        total_babai += np.linalg.norm(latent - basis @ z_b, axis=0).mean()
    assert total_gcd >= total_babai


@pytest.mark.parametrize("bits", [0, 9, 2.5, -1, None])
def test_code_range_rejects_widths_outside_one_to_eight(bits):
    with pytest.raises(ValueError, match="bits must be in 1..8"):
        code_range(bits)


def test_code_range_takes_numpy_integer_widths():
    assert code_range(np.int64(8)) == (-128, 127)
    assert code_range(np.uint8(1)) == (-1, 0)


def test_encoders_reject_widths_past_eight_bits():
    # a 9-bit grid would put the latent 1.5 at code 150 under 0.01 I, which
    # int8 stores as -106: every encoder raises instead of wrapping
    codec = make_codec(0.01 * np.eye(2), 0.0, 9, 1.0, 2, 1)
    latent = np.array([[1.5], [0.0]])
    rng = np.random.default_rng(21)
    w = rng.standard_normal((8, 4))
    x = rng.standard_normal((4, 6))
    for encode in (lambda: quantize_columns(latent, codec),
                   lambda: gcd_quantize_columns(latent, codec),
                   lambda: fit_group(w, x, 2, 9),
                   lambda: init_codec(w, 2, 9),
                   lambda: rtn_quantize(w, 9)):
        with pytest.raises(ValueError, match="bits must be in 1..8"):
            encode()


def test_code_range_invariant_everywhere():
    # int8 codes, 1 byte per weight, as unpack_codes gives on the decode side
    rng = np.random.default_rng(20)
    for bits in (1, 2, 5, 8):
        lo, hi = code_range(bits)
        basis = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        codec = make_codec(basis, 0.0, bits, 1.0, 3, 30)
        latent = 20.0 * rng.standard_normal((3, 30))
        for z in (quantize_columns(latent, codec),
                  gcd_quantize_columns(latent, codec)):
            assert z.dtype == np.int8 and z.min() >= lo and z.max() <= hi


# ------------------------------------------------------------ peak memory

# numpy's fixed cost beyond the arrays (headers, d x d matrices, LAPACK
# work space); one more group-sized temporary here is 4 MiB
_OVERHEAD = 1 << 16


def _large_group():
    # a decode_large group: a 4096 x 128 float32 column slice of a wider
    # C-order matrix
    rng = np.random.default_rng(20)
    wide = rng.standard_t(4, size=(4096, 384)).astype(np.float32)
    return wide[:, 128:256]


def test_reshape_peak_is_at_most_two_group_copies(traced_peak):
    # the latent alone (the formula's F-order ravel and transposed copy
    # held 3)
    g = _large_group()
    _, peak = traced_peak(reshape_group, g, 8)
    assert peak <= 2 * 8 * g.size + _OVERHEAD


@pytest.mark.parametrize("config", (COMPANDED, replace(COMPANDED, fixed_basis=True)))
def test_init_codec_peak_is_at_most_three_group_copies(traced_peak, config):
    # the float64 weights, the latent and one of: compand's result, the
    # whitened coordinates, their magnitudes (5 when |w|, c * c, the
    # magnitudes and the percentile's flattened copy were temporaries)
    g = _large_group()
    _, peak = traced_peak(init_codec, g, 8, 2, config)
    assert peak <= 3 * 8 * g.size + _OVERHEAD


def test_init_codec_does_not_call_np_percentile(monkeypatch):
    # the percentile is taken by one in-place partition; np.percentile,
    # which partitions at both ranks, is never called
    g = _large_group()
    configs = (COMPANDED, replace(COMPANDED, fixed_basis=True))
    expected = [init_codec(g, 8, 2, config) for config in configs]

    def raising(*args, **kwargs):
        raise AssertionError("np.percentile called")

    monkeypatch.setattr(np, "percentile", raising)
    for config, want in zip(configs, expected):
        got = init_codec(g, 8, 2, config)
        assert got.basis.tobytes() == want.basis.tobytes()
        assert (got.mu, got.scale) == (want.mu, want.scale)


def test_quantize_peak_is_one_group_copy_and_its_codes(traced_peak):
    # babai_round's G^-1 t, rounded and clipped in place, and its one int8
    # cast: measured 1.125 group copies (2 when babai_round cast to int64
    # first, 3 when t + 1/2 and its floor were temporaries)
    g = _large_group()
    codec = init_codec(g, 8, 2)
    latent = codebook._latent_of(g, codec)
    _, peak = traced_peak(quantize_columns, latent, codec)
    assert peak <= 1.25 * 8 * g.size + _OVERHEAD


@pytest.mark.parametrize("rows", (512, 509))
@pytest.mark.parametrize("config, copies", ((RunConfig(max_iters=20), 6.0),
                                            (replace(COMPANDED, max_iters=20), 7.75)),
                         ids=("linear", "companded"))
def test_fit_peak_holds_no_finished_proposals_terms(traced_peak, rows, config, copies):
    # an accepted state holds the int8 codes, not Z as float and G Z,
    # which the gradients rebuild from the codes; a proposal's p is
    # dropped once read, so no proposal runs beside an earlier one's and
    # no companded gradient runs beside p, dW is taken in W_hat's array,
    # and the companded gradient is formed in place; measured 4.77 copies
    # linear (5.64 for the padded 509 rows) and 7.39 companded (8.39 while
    # p lived through the gradient; 11.4 when the companded gradient made
    # a temporary per operation; 6.5 linear when the fit kept Z and G Z;
    # 9.4 when dW was a second array; 13.65 and 15.65 when an accepted and
    # a rejected proposal's terms stayed alive)
    rng = np.random.default_rng(29)
    g = rng.standard_t(4, size=(rows, 128))
    x = rng.standard_normal((128, 128))
    _, peak = traced_peak(fit_group, g, x, 8, 2, config)
    assert peak <= copies * 8 * g.size + _OVERHEAD


def test_optimizer_free_encode_holds_one_byte_of_codes_per_weight(traced_peak):
    # decode_large's build on a 512 x 1024 float32 layer: init_codec and
    # quantize_columns per 128-column group, then write_archive of all the
    # records.  The peak is 1 byte of codes per weight (8 as int64, over
    # this bound) plus at most four float64 group copies, since each
    # group's temporaries die with it; measured 0.76 of the bound.
    rng = np.random.default_rng(25)
    layer = rng.standard_t(4, size=(512, 1024)).astype(np.float32)

    def encode():
        records = []
        for a in range(0, layer.shape[1], 128):
            group = layer[:, a:a + 128]
            codec = init_codec(group, 8, 2)
            records.append((codec, quantize_columns(codebook._latent_of(group, codec),
                                                    codec)))
        return container.write_archive(records)

    _, peak = traced_peak(encode)
    assert peak <= layer.size + 4 * 8 * 512 * 128 + _OVERHEAD
