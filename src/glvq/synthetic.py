"""Pinned synthetic evaluation suite and paired-direction ablations.

Suite version 1: sources gaussian / laplacian / student_t (nu=4),
rows=256, 64 columns per group, Gaussian calibration with T=128, and a
fixed per-seed mixing of each length-d block (I + 0.5 N / sqrt(d)) so
that block covariance is non-trivial and lattice adaptation matters.
Ablations run paired configurations per seed and summarize the
direction with a one-sided sign test.
"""

import math
from dataclasses import replace

import numpy as np

from . import codebook, pipeline
from .bitalloc import is_integer_target
from .codebook import RunConfig, unreshape_group
from .container import overhead_report

SUITE_ROWS = 256
SUITE_GROUP_COLS = 64
SUITE_CALIB = 128
SUITE_MIXING = 0.5
SOURCES = ("gaussian", "laplacian", "student_t")
PRESETS = ("bit-alloc", "lattice", "companding", "group-size", "rounding")
GROUP_SIZE_WIDTHS = (32, 64, 128, 256, 512)
# Presets that fit one group per arm: (arm, RunConfig override) pairs, the
# first arm being the one expected to score lower.
_FIT_ARMS = {
    "lattice": (("learned", {"fixed_basis": False}),
                ("fixed_identity", {"fixed_basis": True})),
    "companding": (("companding_on", {"companding": True}),
                   ("companding_off", {"companding": False})),
}


def sample_source(rng, source: str, size):
    if source == "gaussian":
        return rng.standard_normal(size)
    if source == "laplacian":
        return rng.laplace(size=size)
    if source == "student_t":
        return rng.standard_t(4, size=size)
    raise ValueError(f"unknown source {source!r}")


def make_group(seed: int, *, source: str = "student_t", rows: int = SUITE_ROWS,
               cols: int = SUITE_GROUP_COLS, dim: int = 8,
               calib_T: int = SUITE_CALIB):
    """One synthetic (weights, calib) pair with block-correlated weights."""
    if (rows * cols) % dim != 0:
        raise ValueError("rows*cols must be a multiple of dim")
    rng = np.random.default_rng(seed)
    mix = np.eye(dim) + SUITE_MIXING * rng.standard_normal((dim, dim)) / math.sqrt(dim)
    latent = mix @ sample_source(rng, source, (dim, rows * cols // dim))
    w = unreshape_group(latent, rows, cols)
    x = rng.standard_normal((cols, calib_T))
    return w, x


def make_layer(seed: int, *, source: str = "student_t", rows: int = SUITE_ROWS,
               n_groups: int = 8, group_cols: int = SUITE_GROUP_COLS,
               dim: int = 8, calib_T: int = SUITE_CALIB):
    """A multi-group layer whose groups differ in magnitude, so salience
    ranking has something to find."""
    rng = np.random.default_rng(seed)
    scales = 4.0 ** rng.uniform(-1.0, 1.0, size=n_groups)
    parts = []
    for g in range(n_groups):
        w, _ = make_group(seed * 1000 + g, source=source, rows=rows,
                          cols=group_cols, dim=dim, calib_T=1)
        parts.append(scales[g] * w)
    w = np.hstack(parts)
    x = rng.standard_normal((w.shape[1], calib_T))
    return w, x


def sign_test_pvalue(wins: int, n: int) -> float:
    """One-sided sign test: P[X >= wins] for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2.0**n


def _score(weights, w_hat, calib, iterations, converged, final_loss) -> dict:
    return {**pipeline.metrics(weights, w_hat, calib), "iterations": iterations,
            "converged": converged, "final_loss": final_loss}


def fit_and_score(weights, calib, *, dim: int, bits: int, cfg: RunConfig) -> dict:
    codec, codes, report = codebook.fit_group(weights, calib, dim, bits, cfg)
    return _score(weights, codebook.reconstruct(codes, codec), calib,
                  report.iterations, report.converged, report.final_loss)


def rtn_score(weights, calib, bits: int) -> dict:
    return _score(weights, codebook.rtn_quantize(weights, bits), calib,
                  0, True, float("nan"))


def _summarize(rows, preset: str, arm_a: str, arm_b: str, metric: str):
    """Direction summary: how often arm_a scores strictly below arm_b."""
    by_seed = {}
    for r in rows:
        by_seed.setdefault(r["seed"], {})[r["arm"]] = r[metric]
    wins = ties = losses = 0
    for vals in by_seed.values():
        a, b = vals[arm_a], vals[arm_b]
        if a < b:
            wins += 1
        elif a == b:
            ties += 1
        else:
            losses += 1
    p = sign_test_pvalue(wins, wins + losses)
    return {
        "preset": preset, "metric": metric, "better": arm_a, "worse": arm_b,
        "wins": wins, "ties": ties, "losses": losses, "pvalue": p,
        "direction_holds": p < 0.05,
    }


def _row(preset, seed, arm, score, bits):
    return {"preset": preset, "seed": seed, "arm": arm, "mean_bits": bits,
            **score}


def _suite_settings(config, seeds: int):
    """The config (default RunConfig()), its dim and integer bits."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    cfg = config or RunConfig()
    if not is_integer_target(cfg.bits):
        raise ValueError("ablation presets use integer bit-widths")
    return cfg, cfg.dim, round(cfg.bits)


def run_ablation(preset: str, *, seeds: int = 20, source: str = "student_t",
                 base_seed: int = 0, config: RunConfig | None = None):
    """Run one paired ablation preset over the suite at ``config``.

    Returns (rows, summaries): per-seed metric rows plus sign-test
    summary dicts describing the observed direction.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    cfg, dim, bits = _suite_settings(config, seeds)
    rows, summaries = [], []

    if preset == "rounding":
        # index-assignment comparison at the shared fitted codec: encode the
        # same latents with Babai rounding vs one greedy sweep
        for s in range(seeds):
            w, x = make_group(base_seed + s, source=source, dim=dim)
            codec, codes_babai, report = codebook.fit_group(w, x, dim, bits, cfg)
            latent = codebook._latent_of(w, codec)
            codes_gcd = codebook.gcd_quantize_columns(latent, codec)
            for arm, codes in (("babai", codes_babai), ("gcd", codes_gcd)):
                score = _score(w, codebook.reconstruct(codes, codec), x,
                               report.iterations, report.converged,
                               report.final_loss)
                rows.append(_row(preset, s, arm, score, bits))
        summaries.append(_summarize(rows, preset, "babai", "gcd", "output_mse"))

    elif preset in _FIT_ARMS:
        arms = _FIT_ARMS[preset]
        for s in range(seeds):
            w, x = make_group(base_seed + s, source=source, dim=dim)
            for arm, override in arms:
                score = fit_and_score(w, x, dim=dim, bits=bits,
                                      cfg=replace(cfg, **override))
                rows.append(_row(preset, s, arm, score, bits))
        summaries.append(_summarize(rows, preset, arms[0][0], arms[1][0],
                                    "output_mse"))

    elif preset == "bit-alloc":
        for s in range(seeds):
            w, x = make_layer(base_seed + s, source=source, dim=dim)
            for arm, alloc in (("sdba", True), ("uniform", False)):
                result = pipeline.quantize_matrix(
                    w, x, replace(cfg, group_width=SUITE_GROUP_COLS,
                                  bit_alloc=alloc))
                # float64 side info: an archive round trip would round it to fp16
                w_hat = np.hstack([codebook.reconstruct(codes, codec)
                                   for codec, codes in result.records])
                score = _score(w, w_hat, x,
                               sum(r.iterations for r in result.reports),
                               all(r.converged for r in result.reports),
                               float(sum(r.final_loss for r in result.reports)))
                rows.append(_row(preset, s, arm, score, result.mean_bits()))
        summaries.append(_summarize(rows, preset, "sdba", "uniform", "kl"))

    elif preset == "group-size":
        for s in range(seeds):
            w, x = make_layer(base_seed + s, source=source, dim=dim,
                              n_groups=8, group_cols=64)
            for width in GROUP_SIZE_WIDTHS:
                total_mse = 0.0
                for a, b in pipeline.partition_columns(w.shape[1], width):
                    score = fit_and_score(w[:, a:b], x[a:b], dim=dim, bits=bits,
                                          cfg=cfg)
                    total_mse += score["output_mse"] * (b - a)
                rows.append({
                    "preset": preset, "seed": s, "arm": f"width{width}",
                    "mean_bits": bits, "group_width": width,
                    "output_mse": total_mse / w.shape[1],
                    "overhead_pct": overhead_report(dim, w.shape[0], width, bits),
                })

    return rows, summaries


def glvq_vs_rtn(seeds: int = 20, *, source: str = "student_t",
                base_seed: int = 0, config: RunConfig | None = None):
    """Paired full-pipeline vs RTN comparison on the suite at ``config``."""
    cfg, dim, bits = _suite_settings(config, seeds)
    rows = []
    for s in range(seeds):
        w, x = make_group(base_seed + s, source=source, dim=dim)
        rows.append(_row("rtn-baseline", s, "glvq",
                         fit_and_score(w, x, dim=dim, bits=bits, cfg=cfg), bits))
        rows.append(_row("rtn-baseline", s, "rtn", rtn_score(w, x, bits), bits))
    summary = _summarize(rows, "rtn-baseline", "glvq", "rtn", "output_mse")
    return rows, [summary]
