import numpy as np
import pytest

from glvq import codebook, companding, synthetic
from glvq.codebook import (FitConfig, GroupCodec, _hessian_loss, code_range,
                           fit_group, gcd_quantize_columns, grad_basis, grad_mu,
                           group_loss, init_codec, quantize_columns,
                           reconstruct, reshape_group, rtn_quantize,
                           spectral_normalize, unreshape_group)


def make_codec(basis, mu, bits, scale, rows, cols, pad=0):
    basis = np.asarray(basis, float)
    return GroupCodec(basis=basis, mu=mu, bits=bits, scale=scale,
                      dim=basis.shape[0], pad=pad, rows=rows, cols=cols)


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
        assert np.array_equal(unreshape_group(lat, rows, cols, pad), w)


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
    codec = make_codec(basis, mu, 3, scale, rows, cols,
                       pad=reshape_group(w, d)[1])
    basis_init = basis + 0.05 * rng.standard_normal((d, d))
    z = quantize_columns(_latent(w, codec), codec)

    g_b = grad_basis(w, x, codec, z, basis_init, lam)
    fd_b = np.zeros_like(g_b)
    for i in range(d):
        for j in range(d):
            bp, bm = basis.copy(), basis.copy()
            bp[i, j] += h
            bm[i, j] -= h
            cp = make_codec(bp, mu, 3, scale, rows, cols, codec.pad)
            cm = make_codec(bm, mu, 3, scale, rows, cols, codec.pad)
            fd_b[i, j] = (group_loss(w, cp, z, x, basis_init, lam)
                          - group_loss(w, cm, z, x, basis_init, lam)) / (2 * h)
    rel_b = np.abs(g_b - fd_b).max() / max(np.abs(fd_b).max(), 1e-12)
    assert rel_b <= 1e-4

    if with_companding:
        g_m = grad_mu(w, x, codec, z, basis_init, lam)
        cp = make_codec(basis, mu + h, 3, scale, rows, cols, codec.pad)
        cm = make_codec(basis, mu - h, 3, scale, rows, cols, codec.pad)
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
        pad = reshape_group(w, d)[1]
        mu = float(rng.uniform(10, 255)) if with_companding else 0.0
        codec = make_codec(np.eye(d) + 0.2 * rng.standard_normal((d, d)), mu,
                           bits, float(np.abs(w).max()), rows, cols, pad)
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
    _, _, report = fit_group(w, x, 4, 2, FitConfig())
    h = np.array(report.loss_history)
    assert np.all(np.diff(h) <= 0)
    assert report.converged
    assert report.final_loss == h[-1]


def test_fit_group_beats_rtn_on_heavy_tails():
    rng = np.random.default_rng(15)
    mix = np.eye(8) + 0.5 * rng.standard_normal((8, 8)) / np.sqrt(8)
    lat = mix @ rng.standard_t(4, size=(8, 2048))
    w = unreshape_group(lat, 256, 64, 0)
    x = rng.standard_normal((64, 128))
    codec, codes, _ = fit_group(w, x, 8, 2, FitConfig())
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
    _, _, report = fit_group(w, x, 4, 2, FitConfig())
    accepts = len(report.loss_history) - 1
    mu_proposals = report.proposals - (calls["spectral_normalize"] - 1)
    assert 0 < accepts < report.proposals and mu_proposals > 0
    # one gradient at init, then one per accepted step
    assert calls["expand_grad"] == len(report.loss_history)
    # basis proposals reuse the companded latent; mu proposals recompute it
    assert calls["compand"] <= 1 + mu_proposals


def test_fit_group_stop_reasons():
    rng = np.random.default_rng(0)
    w = rng.standard_t(4, size=(8, 8))
    x = rng.standard_normal((8, 4))

    def stop(**overrides):
        _, _, report = fit_group(w, x, 2, 2, FitConfig(**overrides))
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


def test_code_range_invariant_everywhere():
    rng = np.random.default_rng(20)
    for bits in (1, 2, 5, 8):
        lo, hi = code_range(bits)
        basis = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        codec = make_codec(basis, 0.0, bits, 1.0, 3, 30)
        latent = 20.0 * rng.standard_normal((3, 30))
        for z in (quantize_columns(latent, codec),
                  gcd_quantize_columns(latent, codec)):
            assert z.min() >= lo and z.max() <= hi
