"""Acceptance suite: one test per criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from glvq import cli, companding, container, pipeline, synthetic
from glvq.bitalloc import (allocate_bits, balanced_bits, compute_salience,
                           kl_objective)
from glvq.codebook import (GroupCodec, RunConfig, fit_group, grad_basis,
                           grad_mu, group_loss, init_codec, quantize_columns,
                           reconstruct, reshape_group, rtn_quantize)
from glvq.lattice import (babai_error_bound, babai_round, decode, exact_cvp,
                          gram_schmidt, lll_reduce)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_basis(rng, d):
    while True:
        b = rng.standard_normal((d, d))
        if abs(np.linalg.det(b)) > 1e-6:
            return b


# -------------------------------------------------------------- criterion 1

OVERHEAD_TABLE = {
    (8, 128): (0.10, 0.07, 0.05),
    (8, 256): (0.05, 0.03, 0.02),
    (16, 128): (0.39, 0.26, 0.20),
    (16, 256): (0.20, 0.13, 0.10),
    (32, 128): (1.56, 1.04, 0.78),
    (32, 256): (0.78, 0.52, 0.39),
}


def test_criterion_1_overhead_table(capsys):
    start = time.perf_counter()
    assert cli.main(["overhead", "--paper-table"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()[1:] if line.strip()]
    assert len(rows) == 6
    bad = []
    for row in rows:
        d, _, n = int(row[0]), int(row[1]), int(row[2])
        got = [round(float(v), 2) for v in row[3:6]]
        want = OVERHEAD_TABLE[(d, n)]
        for g, w in zip(got, want):
            if abs(g - w) > 0.01:
                bad.append((d, n, g, w))
    report(1, not bad and elapsed < 1.0,
           f"18/18 table cells within 0.01 pct points, {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_babai_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    violations = 0
    coeff_max = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        reduced = lll_reduce(random_basis(rng, d), delta=0.75)
        gs = gram_schmidt(reduced)
        coeff_max = max(coeff_max, float(np.abs(np.triu(gs.gs_coeff, 1)).max()))
        bound = babai_error_bound(gs)
        t = rng.uniform(-10.0, 10.0, size=d)
        resid = np.linalg.norm(t - decode(reduced, babai_round(reduced, t)))
        if resid > bound.lll_form * (1 + 1e-9):
            violations += 1
    elapsed = time.perf_counter() - start
    report(2, violations == 0 and coeff_max <= 0.5 + 1e-9 and elapsed < 60,
           f"1000/1000 residuals within bound, max |gs_coeff|={coeff_max:.4f}, "
           f"{elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3

def test_criterion_3_cvp_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    dominated = 0
    ortho_equal = 0
    n_ortho = 200
    for i in range(1000):
        if i < n_ortho:
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            basis = q * rng.uniform(0.5, 2.0, size=4)
        else:
            basis = random_basis(rng, 4)
        t = rng.uniform(-5.0, 5.0, size=4)
        r_b = np.linalg.norm(t - decode(basis, babai_round(basis, t)))
        r_c = np.linalg.norm(t - decode(basis, exact_cvp(basis, t, 2)))
        if r_c <= r_b + 1e-12:
            dominated += 1
        if i < n_ortho and abs(r_c - r_b) <= 1e-9:
            ortho_equal += 1
    elapsed = time.perf_counter() - start
    report(3, dominated == 1000 and ortho_equal == n_ortho and elapsed < 60,
           f"oracle residual <= Babai in 1000/1000, equality on "
           f"{ortho_equal}/{n_ortho} orthogonal instances, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 4

def _gradcheck_instance(rng, with_companding, lam, h=1e-5):
    d, rows, cols, t = 4, 4, 6, 5
    w = rng.standard_normal((rows, cols))
    x = rng.standard_normal((cols, t))
    basis = np.eye(d) + 0.15 * rng.standard_normal((d, d))
    mu = float(rng.uniform(20, 200)) if with_companding else 0.0
    scale = float(np.abs(w).max()) if with_companding else 1.0
    codec = GroupCodec(basis=basis, mu=mu, bits=3, scale=scale, dim=d,
                       rows=rows, cols=cols)
    basis_init = basis + 0.05 * rng.standard_normal((d, d))
    lat, _ = reshape_group(w, d)
    lat = lat / scale
    if mu > 0:
        lat = companding.compand(lat, mu)
    codes = quantize_columns(lat, codec)

    g = grad_basis(w, x, codec, codes, basis_init, lam)
    fd = np.zeros_like(g)
    for i in range(d):
        for j in range(d):
            bp, bm = basis.copy(), basis.copy()
            bp[i, j] += h
            bm[i, j] -= h
            cp = GroupCodec(basis=bp, mu=mu, bits=3, scale=scale, dim=d,
                            rows=rows, cols=cols)
            cm = GroupCodec(basis=bm, mu=mu, bits=3, scale=scale, dim=d,
                            rows=rows, cols=cols)
            fd[i, j] = (group_loss(w, cp, codes, x, basis_init, lam)
                        - group_loss(w, cm, codes, x, basis_init, lam)) / (2 * h)
    rel = np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12)
    if mu > 0:
        gm = grad_mu(w, x, codec, codes, basis_init, lam)
        cp = GroupCodec(basis=basis, mu=mu + h, bits=3, scale=scale, dim=d,
                        rows=rows, cols=cols)
        cm = GroupCodec(basis=basis, mu=mu - h, bits=3, scale=scale, dim=d,
                        rows=rows, cols=cols)
        fd_m = (group_loss(w, cp, codes, x, basis_init, lam)
                - group_loss(w, cm, codes, x, basis_init, lam)) / (2 * h)
        rel = max(rel, abs(gm - fd_m) / max(abs(fd_m), 1e-12))
    return rel


def test_criterion_4_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    count = 0
    for with_companding in (False, True):
        for lam in (0.0, 0.1):
            for _ in range(30):
                worst = max(worst, _gradcheck_instance(rng, with_companding, lam))
                count += 1
    elapsed = time.perf_counter() - start
    report(4, worst <= 1e-4 and elapsed < 60,
           f"{count} instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 5

def test_criterion_5_companding_round_trip():
    xs = np.linspace(-1.0, 1.0, 100)
    mus = np.linspace(companding.MU_MIN, companding.MU_MAX, 100)
    worst = 0.0
    for mu in mus:
        err = np.abs(companding.expand(companding.compand(xs, mu), mu) - xs)
        worst = max(worst, float(err.max()))
    mu0 = companding.init_mu(10.0)
    report(5, worst <= 1e-6 and abs(mu0 - 76.159) <= 1e-3,
           f"10^4-point grid round trip max err {worst:.2e}, "
           f"init_mu(10)={mu0:.4f}")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_optimizer_contract():
    total = converged = 0
    monotone = True
    for source in synthetic.SOURCES:
        for d in (4, 8):
            for s in range(20):
                w, x = synthetic.make_group(s, source=source, dim=d)
                _, _, rep = fit_group(w, x, d, 2, RunConfig(companding=True))
                total += 1
                converged += rep.converged
                if np.any(np.diff(np.array(rep.loss_history)) > 0):
                    monotone = False
    frac = converged / total
    report(6, monotone and frac >= 0.95,
           f"monotone accepted losses in {total}/{total} runs, "
           f"{converged}/{total} converged ({100 * frac:.1f}%)")


# -------------------------------------------------------------- criterion 7

def test_sign_test_pvalue_at_its_edges():
    # no decided seeds, no wins, 3 of 5 at exactly a half, 20 of 20 at 2^-20
    for (wins, n), p in {(0, 0): 1.0, (0, 5): 1.0, (3, 5): 0.5,
                         (20, 20): 2.0**-20}.items():
        assert synthetic.sign_test_pvalue(wins, n) == p


def test_summary_ties_leave_the_sign_test():
    # arm a wins seed 0, ties seed 1 and loses seed 2: the tie is counted
    # but the sign test runs over the 2 decided seeds only
    rows = [{"seed": seed, "arm": arm, "err": value}
            for seed, pair in enumerate(((1, 2), (3, 3), (5, 4)))
            for arm, value in zip("ab", pair)]
    s = synthetic._summarize(rows, "preset", "a", "b", "err")
    assert (s["wins"], s["ties"], s["losses"]) == (1, 1, 1)
    assert s["pvalue"] == synthetic.sign_test_pvalue(1, 2) == 0.75
    assert not s["direction_holds"]


def test_criterion_7a_learned_basis_beats_identity():
    _, summaries = synthetic.run_ablation("lattice", seeds=20)
    s = summaries[0]
    report("7a", s["pvalue"] < 0.05,
           f"learned < fixed identity in {s['wins']}/20 seeds, "
           f"p={s['pvalue']:.2e}")


def test_criterion_7b_companding_on_beats_off():
    _, summaries = synthetic.run_ablation("companding", seeds=20)
    s = summaries[0]
    report("7b", s["pvalue"] < 0.05,
           f"companding on < off in {s['wins']}/20 seeds, p={s['pvalue']:.2e}")


def test_criterion_7c_babai_beats_gcd():
    rows, summaries = synthetic.run_ablation("rounding", seeds=20)
    s = summaries[0]
    # the stated form: gcd mse >= babai mse in at least 15 of 20 seeds
    non_losses = s["wins"] + s["ties"]
    report("7c", s["pvalue"] < 0.05 and non_losses >= 15,
           f"babai < gcd(1 sweep) in {s['wins']}/20 seeds, p={s['pvalue']:.2e}")


def test_criterion_7d_glvq_beats_rtn():
    _, summaries = synthetic.glvq_vs_rtn(20)
    s = summaries[0]
    report("7d", s["pvalue"] < 0.05,
           f"glvq < rtn output mse in {s['wins']}/20 seeds, p={s['pvalue']:.2e}")


# -------------------------------------------------------------- criterion 8

def test_criterion_8_bit_allocation_constraints():
    rng = np.random.default_rng(1008)

    def layer(g):
        w = np.hstack([4.0 ** rng.uniform(-1, 1) * rng.standard_normal((8, 4))
                       for _ in range(g)])
        return w, rng.standard_normal((4 * g, 16))

    def balanced_ok(bits, n):
        return (bits.mean() == n
                and (bits == n + 1).sum() == (bits == n - 1).sum()
                and set(np.unique(bits)) <= {n - 1, n, n + 1})

    def first_argmin_bits(w, x, n):
        """balanced_bits at the first minimizer of a directly computed D(k)."""
        order = np.argsort(-compute_salience(w, x, 4, n), kind="stable")
        ref = w @ x
        d = [kl_objective(ref, np.hstack(
                 [rtn_quantize(w[:, 4 * i:4 * i + 4], int(b))
                  for i, b in enumerate(balanced_bits(order, n, k))]) @ x)
             for k in range(order.size // 2 + 1)]
        return balanced_bits(order, n, int(np.argmin(d)))

    ok = True
    search_ok = True
    # integer targets: exact mean and balance, for the searched allocation
    # and for every swap count k the search can pick
    for n in (2, 3, 4):
        for g in (4, 10, 64):
            w, x = layer(g)
            bits = allocate_bits(w, x, 4, n)
            ok &= balanced_ok(bits, n)
            # the search returns the exact first argmin of D(k)
            search_ok &= np.array_equal(bits, first_argmin_bits(w, x, n))
            order = rng.permutation(g)
            ok &= all(balanced_ok(balanced_bits(order, n, k), n)
                      for k in range(g // 2 + 1))
    # fractional target over 64 groups
    w, x = layer(64)
    bits = allocate_bits(w, x, 4, 1.5)
    frac_ok = (abs(bits.mean() - 1.5) <= 1 / (2 * 64)
               and set(np.unique(bits)) <= {1, 2})
    ok &= frac_ok
    ok &= search_ok
    report(8, ok, "integer mean/balance exact, fractional mean within 1/(2G), "
           "allocation at the first argmin of D(k) on every integer layer")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_codec_bit_exactness(tmp_path):
    rng = np.random.default_rng(1009)
    # pack/unpack round trip, 1000 random code matrices across b in 1..8
    round_trip_ok = True
    for i in range(1000):
        bits = 1 + i % 8
        dim = int(rng.integers(1, 9))
        cols = int(rng.integers(0, 30))
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        z = rng.integers(lo, hi + 1, size=(dim, cols))
        back = container.unpack_codes(container.pack_codes(z, bits), bits,
                                      dim, cols)
        round_trip_ok &= bool(np.array_equal(back, z))

    # archive determinism: write o read o write is byte identical
    records = []
    for bits in (1, 2, 5, 8):
        basis = np.float16(np.eye(3) + 0.1 * rng.standard_normal((3, 3)))
        codec = GroupCodec(basis=basis.astype(float), mu=50.0, bits=bits,
                           scale=2.0, dim=3, rows=3, cols=7)
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        records.append((codec, rng.integers(lo, hi + 1, size=(3, 7))))
    blob = container.write_archive(records)
    determinism_ok = container.read_archive(blob).to_bytes() == blob

    # end-to-end: representable weights -> archive -> cmd_dequantize
    basis = np.float16(0.25 * np.eye(4)
                       + 0.0625 * rng.integers(-2, 3, (4, 4))).astype(float)
    codec = GroupCodec(basis=basis, mu=64.0, bits=3, scale=0.5, dim=4,
                       rows=8, cols=4)
    codes = rng.integers(-4, 4, size=(4, 8))
    w = reconstruct(codes, codec)
    lat, _ = reshape_group(w, 4)
    z = quantize_columns(companding.compand(lat / codec.scale, codec.mu), codec)
    refit_ok = bool(np.array_equal(z, codes))
    arch_path = tmp_path / "fix.glvq"
    arch_path.write_bytes(container.write_archive([(codec, codes)]))
    out_path = tmp_path / "out.f32"
    cli_ok = cli.main(["dequantize", str(arch_path), "--out", str(out_path)]) == 0
    back = container.read_tensor_file(str(out_path))
    rel = np.abs(back - w) / np.maximum(np.abs(w), 1e-12)
    e2e_ok = float(rel.max()) <= 1e-3

    report(9, round_trip_ok and determinism_ok and refit_ok and cli_ok and e2e_ok,
           f"1000 pack round trips exact, archive byte-deterministic, "
           f"end-to-end rel err {float(rel.max()):.2e} <= 1e-3")
