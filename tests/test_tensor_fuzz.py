"""Property tests of the tensor-file reader on arbitrary manifests and
payload lengths: it returns an array of the manifest's shape or raises
TensorFormatError, never anything else."""

import json

import pytest

from glvq.container import TensorFormatError, read_tensor_file

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# derandomized and without an example database: the same examples on
# every run, and no files left behind; every example rewrites the same
# two files, so sharing tmp_path across examples is safe
FUZZ = hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])

# small, negative and huge axis lengths, including numpy's limits: an
# axis above 2^60 - 1 cannot hold float64 even with a zero-length partner
AXES = st.one_of(st.integers(-3, 5), st.integers(-2**80, 2**80),
                 st.sampled_from([2**59, 2**60 - 1, 2**60, 2**62, 2**63, 2**70]))
SHAPE_ENTRIES = st.one_of(AXES, st.booleans(), st.none(), st.floats(),
                          st.text(max_size=3))


def _manifest(shape, dtype="f32", layout="row-major") -> bytes:
    return json.dumps({"shape": shape, "dtype": dtype, "layout": layout}).encode()


def _write(tmp_path, manifest: bytes, payload_len: int) -> str:
    (tmp_path / "t.f32").write_bytes(bytes(payload_len))
    (tmp_path / "t.json").write_bytes(manifest)
    return str(tmp_path / "t.f32")


def check_read(tmp_path, manifest: bytes, payload_len: int) -> None:
    """Reading gives an array of the manifest's shape or TensorFormatError."""
    try:
        tensor = read_tensor_file(_write(tmp_path, manifest, payload_len))
    except TensorFormatError:
        return
    assert tensor.shape == tuple(json.loads(manifest.decode())["shape"])


@FUZZ
@hypothesis.given(st.binary(max_size=200), st.integers(0, 64))
def test_arbitrary_manifest_bytes(tmp_path, manifest, payload_len):
    check_read(tmp_path, manifest, payload_len)


@FUZZ
@hypothesis.given(st.lists(SHAPE_ENTRIES, max_size=3),
                  st.sampled_from(["f32", "f64"]),
                  st.sampled_from(["row-major", "column-major"]),
                  st.integers(0, 64))
def test_arbitrary_json_manifest(tmp_path, shape, dtype, layout, payload_len):
    check_read(tmp_path, _manifest(shape, dtype, layout), payload_len)


@FUZZ
@hypothesis.given(AXES, AXES, st.integers(-4, 4))
def test_payload_near_the_implied_length(tmp_path, rows, cols, delta):
    implied = 4 * rows * cols if abs(rows * cols) <= 64 else 0
    check_read(tmp_path, _manifest([rows, cols]), max(0, implied + delta))


@pytest.mark.parametrize("manifest", [
    _manifest([2**70, 0]), _manifest([0, 2**62]), b"[" * 100000,
    b"{\"shape\": [0, 0], \xff}", b"{shape}", b"[0, 0]"],
    ids=["axis-2^70", "axis-2^62", "deep-nesting", "not-utf8", "not-json", "list"])
def test_unreadable_manifest_names_the_file(tmp_path, manifest):
    with pytest.raises(TensorFormatError, match="t.json"):
        read_tensor_file(_write(tmp_path, manifest, 0))


def test_payload_length_error_names_the_file(tmp_path):
    with pytest.raises(TensorFormatError, match="t.f32"):
        read_tensor_file(_write(tmp_path, _manifest([2, 2]), 12))
    assert read_tensor_file(_write(tmp_path, _manifest([2, 2]), 16)).shape == (2, 2)
