"""Tests of the benchmark's own code: python -m pytest bench"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import build_archive
import checks
import stats
import tracer
import workloads
from glvq import codebook, container, lattice, pipeline

HERE = Path(__file__).resolve().parent
TINY = dataclasses.replace(workloads.WORKLOADS["decode_large"], rows=16,
                           cols=512, calib=16)


def load_run():
    spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_archive(seed=0):
    w, x = workloads.make_layer(seed, 0, TINY)
    records = build_archive.build_records(w.astype(float),
                                          workloads.init_bits(seed, TINY))
    return container.write_archive(records), w, x


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, None],
             ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1],
             ["d", 5.0, 9.0, 0]]
    s = tracer.summarize(spans)
    assert s["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert s["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert s["c"]["self_s"] == 1.0
    assert s["d"]["self_s"] == 4.0
    total_self = sum(v["self_s"] for v in s.values())
    assert total_self == pytest.approx(10.0)


def test_nested_same_name_counts_inclusive_time_once():
    spans = [["f", 0.0, 10.0, None], ["f", 2.0, 6.0, 0], ["g", 3.0, 4.0, 1]]
    s = tracer.summarize(spans)
    assert s["f"] == {"calls": 2, "s": 10.0, "self_s": 9.0}
    assert tracer.count_under(spans, "g", "f") == 1
    assert tracer.count_under(spans, "f", "g") == 0


def test_tracer_patches_direct_imports_and_restores_them():
    original = codebook.babai_round
    codec = codebook.init_codec(np.random.default_rng(0).standard_normal((8, 16)),
                                dim=8, bits=2)
    latent, _ = codebook.reshape_group(np.ones((8, 16)), 8)
    recorder = tracer.Tracer()
    with recorder.installed():
        assert codebook.babai_round is not original
        codebook.quantize_columns(latent, codec)
    assert codebook.babai_round is original is lattice.babai_round
    names = [s[0] for s in recorder.spans]
    assert names[:3] == ["codebook.quantize_columns", "lattice.babai_round",
                         "lattice.check_basis"]
    assert [s[3] for s in recorder.spans[:3]] == [None, 0, 1]
    assert all(s[1] <= s[2] for s in recorder.spans)


def test_per_layer_metrics_count_proposals_from_babai_calls():
    w, x = workloads.make_layer(0, 0, TINY)
    recorder = tracer.Tracer()
    cfg = pipeline.RunConfig(dim=8, bits=2.0, max_iters=5)
    with recorder.installed():
        pipeline.quantize_matrix(w.astype(float), x.astype(float), cfg)
    m = tracer.per_layer_metrics(recorder, ops=1, zero_groups=0,
                                 archive_bytes=0, import_s=0.1, overhead=0.0)
    assert list(m) == [name for name, _, _ in tracer.PER_LAYER]
    reports = [r for _, _, r in recorder.fits]
    assert len(reports) == TINY.groups
    babai = m["lattice.babai_round.calls"]["value"]
    assert m["codebook.proposals"]["value"] == babai - TINY.groups
    assert 0 < m["codebook.accepted"]["value"] <= m["codebook.proposals"]["value"]
    assert m["bitalloc.probes"]["value"] == TINY.groups // 2 + 1


def test_tail_is_order_statistic_with_ten_samples_beyond():
    xs = list(range(30, 0, -1))
    value, level, beyond = stats.tail(xs)
    assert beyond == 10
    assert sum(1 for x in xs if x > value) == 10
    assert level == pytest.approx(100.0 * 20 / 30)
    assert stats.tail(list(range(20)))[0] == 9


def test_tail_below_twenty_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail(list(range(19)))[0] == 18
    with pytest.raises(ValueError):
        stats.tail([])


def test_good_archive_passes_every_check():
    data, _, _ = tiny_archive()
    archive, problems = checks.archive_problems(data, TINY)
    assert problems == []
    assert len(archive) == TINY.groups


@pytest.mark.parametrize("corrupt", [
    lambda d: b"XXXX" + d[4:],  # bad magic
    lambda d: d[:-1],  # truncated payload
    lambda d: d + b"\0",  # trailing byte
])
def test_corrupted_archive_counts_as_failed_op(corrupt):
    data, _, _ = tiny_archive()
    tally = checks.Tally()
    archive, problems = checks.archive_problems(corrupt(data), TINY)
    assert archive is None
    assert not tally.record("quantize", problems)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_wrong_rate_or_shape_is_a_problem():
    data, w, x = tiny_archive()
    rate = pipeline.evaluate(w, container.read_archive(data), x)["bits_per_weight"]
    assert checks.rate_problems(rate, TINY.bits) == []
    assert any("bits per weight" in p for p in checks.rate_problems(rate, 3))
    _, problems = checks.archive_problems(data, dataclasses.replace(TINY, rows=32))
    assert any("shapes" in p for p in problems)


def test_mismatched_decode_counts_as_failed_op(tmp_path):
    data, _, _ = tiny_archive()
    expected = container.read_archive(data).decode_matrix().astype(np.float32)
    out = tmp_path / "o.f32"
    container.write_tensor_file(str(out), expected)
    tally = checks.Tally()
    assert tally.record("exact", checks.decode_problems(out, expected))
    wrong = expected.copy()
    wrong[0, 0] = np.nextafter(wrong[0, 0], np.float32(np.inf))
    container.write_tensor_file(str(out), wrong)
    assert not tally.record("off by one ulp", checks.decode_problems(out, expected))
    out.unlink()
    assert not tally.record("missing", checks.decode_problems(out, expected))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_inputs_depend_only_on_the_seed():
    a = workloads.make_layer(7, 1, TINY)
    b = workloads.make_layer(7, 1, TINY)
    c = workloads.make_layer(8, 1, TINY)
    assert all(np.array_equal(p, q) for p, q in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    bits = workloads.init_bits(7, workloads.WORKLOADS["decode_large"])
    assert sorted(set(bits)) == [1, 2, 3] and sum(bits) == 2 * len(bits)


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run = load_run()
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER]


def test_command_reports_seconds_rss_or_a_problem(tmp_path):
    run_module = load_run()
    run = run_module.Run(TINY, 0, tmp_path)
    data, _, _ = tiny_archive()
    run.path("a", 0).write_bytes(data)
    run.first_archive[0] = data
    seconds, mb, problems = run_module.run_command(run, *run.dequantize_command(0))
    assert problems == [] and seconds > 0 and mb > 0
    run.check_dequantize(0, problems)
    run.path("a", 0).unlink()
    assert run_module.run_command(run, *run.dequantize_command(0))[0] is None
    seconds, mb, problems = run_module.run_command(run, "glvq.cli", ["no-such-command"])
    assert (seconds, mb) == (None, None) and problems[0].startswith("exit code 2")
    assert (run.tally.attempted, run.tally.failed) == (1, 0)
