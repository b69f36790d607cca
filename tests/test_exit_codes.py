"""Exit code of every CLI error case, and the library error types behind
them: bad data (container.DataError, or OSError) exits 3, bad settings
(any other ValueError) exit 2, and no named output file is left behind."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from glvq import cli, codebook, container, pipeline, synthetic

QUANT = ["--dim", 4, "--group-width", 8, "--max-iters", 5]
CFG = pipeline.RunConfig(dim=4, group_width=8, max_iters=5)


def _data(w=None, x=None):
    rng = np.random.default_rng(30)
    w = rng.standard_normal((8, 16)) if w is None else w
    x = rng.standard_normal((16, 4)) if x is None else x
    return w, x


def _poke(a, value):
    a = a.copy()
    a[1, 2] = value
    return a


def _files(tmp, w=None, x=None):
    w, x = _data(w, x)
    paths = []
    for name, a in (("w", w), ("x", x)):
        paths.append(str(tmp / f"{name}.f32"))
        container.write_tensor_file(paths[-1], a)
    return paths


def _quantize(tmp, w=None, x=None, *flags, out="q.glvq", report="q.csv"):
    return ["quantize", *_files(tmp, w, x), "--out", tmp / out,
            "--report", tmp / report, *QUANT, *flags]


def _archive(tmp, edit=lambda data: data):
    path = tmp / "a.glvq"
    path.write_bytes(edit(pipeline.quantize_matrix(*_data(), CFG).archive_bytes()))
    return path


def _dequantize(tmp, edit=lambda data: data, archive=None, out="d.f32"):
    return ["dequantize", archive or _archive(tmp, edit), "--out", tmp / out]


def _eval(tmp, w=None, x=None, edit=lambda data: data):
    archive = _archive(tmp, edit)
    wpath, xpath = _files(tmp, w, x)
    return ["eval", wpath, archive, xpath, "--out", tmp / "m.csv"]


def _overwrite(argv, path, data):
    path.write_bytes(data)
    return argv


def _missing(argv, i):
    argv[i] = Path(argv[i]).with_name("none.f32")
    return argv


def _scale_beyond_fp16():
    w, _ = _data()
    w[:, 8:] *= 1e5
    return w


def _truncate(data):
    return data[:-2]


def _bad_magic(data):
    return b"XXXX" + data[4:]


# name -> (expected exit code, tmp_path -> argv)
CASES = {
    "quantize-missing-weights": (3, lambda t: _missing(_quantize(t), 1)),
    "quantize-missing-calib": (3, lambda t: _missing(_quantize(t), 2)),
    "quantize-manifest-not-json": (3, lambda t: _overwrite(
        _quantize(t), t / "w.json", b"{shape: [8, 16]")),
    "quantize-manifest-not-utf8": (3, lambda t: _overwrite(
        _quantize(t), t / "w.json", b'{"shape": [8, 16], "dtype": "f32\xff"}')),
    "quantize-manifest-list": (3, lambda t: _overwrite(
        _quantize(t), t / "w.json", b"[8, 16]")),
    "quantize-payload-length": (3, lambda t: _overwrite(
        _quantize(t), t / "x.f32", bytes(12))),
    "quantize-nan-weights": (3, lambda t: _quantize(t, _poke(_data()[0], np.nan))),
    "quantize-inf-calib": (3, lambda t: _quantize(t, None, _poke(_data()[1], np.inf))),
    "quantize-empty-weights": (3, lambda t: _quantize(t, np.zeros((0, 16)))),
    "quantize-empty-calib": (3, lambda t: _quantize(t, None, np.zeros((16, 0)))),
    "quantize-shape-mismatch": (3, lambda t: _quantize(t, None, np.ones((12, 4)))),
    "quantize-scale-beyond-fp16": (3, lambda t: _quantize(t, _scale_beyond_fp16())),
    "quantize-out-missing-dir": (3, lambda t: _quantize(t, out="no/q.glvq")),
    "quantize-report-missing-dir": (3, lambda t: _quantize(t, report="no/q.csv")),
    "quantize-report-is-out": (2, lambda t: _quantize(t, report="q.glvq")),
    "quantize-dim-0": (2, lambda t: _quantize(t, None, None, "--dim", 0)),
    "quantize-bits-1": (2, lambda t: _quantize(t, None, None, "--bits", 1)),
    "quantize-dim-beyond-group": (2, lambda t: _quantize(t, None, None, "--dim", 128)),
    "dequantize-missing-archive": (3, lambda t: _dequantize(t, archive=t / "none")),
    "dequantize-truncated": (3, lambda t: _dequantize(t, _truncate)),
    "dequantize-bad-magic": (3, lambda t: _dequantize(t, _bad_magic)),
    "dequantize-directory": (3, lambda t: _dequantize(t, archive=t)),
    "dequantize-out-missing-dir": (3, lambda t: _dequantize(t, out="no/d.f32")),
    "eval-original-shape": (3, lambda t: _eval(t, np.ones((8, 12)), np.ones((12, 4)))),
    "eval-calib-rows": (3, lambda t: _eval(t, None, np.ones((12, 4)))),
    "eval-nan-original": (3, lambda t: _eval(t, _poke(_data()[0], np.nan))),
    "eval-inf-calib": (3, lambda t: _eval(t, None, _poke(_data()[1], np.inf))),
    "eval-missing-tensor": (3, lambda t: _missing(_eval(t), 1)),
    "eval-truncated-archive": (3, lambda t: _eval(t, edit=_truncate)),
    "ablate-seeds-0": (2, lambda t: ["ablate", "--preset", "rounding", "--seeds", 0,
                                     "--max-iters", 5, "--out", t / "r.csv"]),
}


@pytest.mark.parametrize("name", list(CASES))
def test_cli_error_exit_code(tmp_path, name):
    expected, build = CASES[name]
    argv = build(tmp_path)
    assert cli.main([str(a) for a in argv]) == expected
    for flag in ("--out", "--report"):
        if flag in argv:
            assert not Path(argv[argv.index(flag) + 1]).exists()


# ------------------------------------------------------------------ library

W, X = _data()
ARCHIVE = container.read_archive(pipeline.quantize_matrix(W, X, CFG).archive_bytes())

# name -> (weights, calib) that quantize_matrix and evaluate reject as data
BAD_DATA = {
    "weights-1d": (W[0], X),
    "calib-3d": (W, X[None]),
    "empty-weights": (W[:0], X),
    "empty-calib": (W, X[:, :0]),
    "shape-mismatch": (W, X[:12]),
    "nan-weights": (_poke(W, np.nan), X),
    "inf-calib": (W, _poke(X, np.inf)),
}

# name -> RunConfig fields that quantize_matrix rejects as settings
BAD_SETTINGS = {
    "dim-0": {"dim": 0},
    "bits-9": {"bits": 9.0},
    "tol-nan": {"tol": float("nan")},
    "allocated-bits-1": {"bits": 1.0},
    "allocated-bits-8": {"bits": 8.0},
    "fractional-uniform": {"bits": 1.5, "bit_alloc": False},
    "dim-beyond-group": {"dim": 128},
}


@pytest.mark.parametrize("name", list(BAD_DATA))
def test_library_bad_data_is_data_error(name):
    w, x = BAD_DATA[name]
    with pytest.raises(container.DataError):
        pipeline.quantize_matrix(w, x, CFG)
    with pytest.raises(container.DataError):
        pipeline.evaluate(w, ARCHIVE, x)


@pytest.mark.parametrize("name", list(BAD_SETTINGS))
def test_library_bad_settings_are_not_data_errors(name):
    with pytest.raises(ValueError) as exc:
        pipeline.quantize_matrix(W, X, dataclasses.replace(CFG, **BAD_SETTINGS[name]))
    assert not isinstance(exc.value, container.DataError)


@pytest.mark.parametrize("name", list(BAD_DATA))
def test_group_fit_bad_data_is_data_error(name):
    w, x = BAD_DATA[name]
    assert codebook.DataError is container.DataError
    with pytest.raises(container.DataError):
        codebook.fit_group(w, x, 4, 2, codebook.FitConfig(max_iters=5))
    if w is not W:  # bad weights: init_codec, which takes no calib, rejects them too
        with pytest.raises(container.DataError):
            codebook.init_codec(w, 4, 2)


@pytest.mark.parametrize("dim, bits", [(0, 2), (4, 0), (129, 2)])
def test_group_fit_bad_settings_are_not_data_errors(dim, bits):
    for call in (lambda: codebook.fit_group(W, X, dim, bits),
                 lambda: codebook.init_codec(W, dim, bits)):
        with pytest.raises(ValueError) as exc:
            call()
        assert not isinstance(exc.value, container.DataError)


@pytest.mark.parametrize("bad", ["weights", "calib"])
def test_non_finite_message_names_the_input(bad):
    w, x = (_poke(W, np.nan), X) if bad == "weights" else (W, _poke(X, np.inf))
    for call in (lambda: pipeline.quantize_matrix(w, x, CFG),
                 lambda: pipeline.evaluate(w, ARCHIVE, x)):
        with pytest.raises(container.DataError, match=f"non-finite entries in {bad}"):
            call()


def test_evaluate_checks_shapes_before_decoding(monkeypatch):
    def no_decode(self):
        raise AssertionError("decoded an archive that does not fit")

    monkeypatch.setattr(container.GlvqArchive, "decode_matrix", no_decode)
    for w, x in ((W[:, :12], X[:12]), (W[:4], X), (W, X[:12])):
        with pytest.raises(container.DataError):
            pipeline.evaluate(w, ARCHIVE, x)


@pytest.mark.parametrize("error", [container.ArchiveError,
                                   container.TensorFormatError,
                                   container.TruncatedPayloadError])
def test_archive_and_tensor_errors_are_data_errors(error):
    assert issubclass(error, container.DataError)
    assert issubclass(container.DataError, ValueError)


def test_library_raises_data_errors_on_bad_bytes():
    with pytest.raises(container.DataError):
        container.read_archive(b"GLVQ")
    with pytest.raises(container.DataError):
        container.unpack_codes(b"\x00", 2, 2, 4)


def test_ablations_need_a_seed():
    with pytest.raises(ValueError, match="seeds must be >= 1"):
        synthetic.run_ablation("rounding", seeds=0)
    with pytest.raises(ValueError, match="seeds must be >= 1"):
        synthetic.glvq_vs_rtn(0)
