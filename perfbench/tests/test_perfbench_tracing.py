"""Span bookkeeping, the import-time breakdown and the input generator."""

import numpy as np
import pytest

import gen
import run
import tracing
import worker
from test_perfbench_checks import TINY


def test_self_times_subtract_direct_children():
    spans = [["job", 0.0, 10.0, -1], ["cli.report", 1.0, 9.0, 0],
             ["report.run_pipeline", 1.5, 8.5, 1], ["spectral.eigendecompose", 2.0, 5.0, 2],
             ["report.export_ccdf_csv", 6.0, 7.0, 2]]
    assert tracing.self_times(spans) == [2.0, 1.0, 3.0, 3.0, 1.0]
    profile = tracing.job_profile(spans)
    assert sum(profile["buckets"].values()) == 10.0
    assert profile["buckets"]["report.run_pipeline.self_s"] == 3.0
    assert profile["buckets"]["trace.harness_s"] == 2.0


def test_inclusive_time_counts_recursion_once():
    spans = [["job", 0.0, 4.0, -1], ["network.threshold_sweep", 0.0, 4.0, 0],
             ["network.threshold_sweep", 1.0, 2.0, 1]]
    profile = tracing.job_profile(spans)
    assert profile["inclusive"]["network.threshold_sweep"] == 4.0
    assert profile["calls"]["network.threshold_sweep"] == 2
    assert profile["buckets"]["network.other.s"] == 4.0


def test_traced_job_adds_up_and_restores_functions(tmp_path):
    import fxnet
    import fxnet.cli

    inputs, out = str(tmp_path / "in"), str(tmp_path / "out")
    gen.WORKLOADS["tiny"] = TINY
    try:
        gen.write_inputs("tiny", 1, inputs)
    finally:
        del gen.WORKLOADS["tiny"]
    original = fxnet.spectral.eigendecompose
    tracer = tracing.Tracer()
    with tracer.patched(fxnet, worker.OBSERVE):
        assert fxnet.spectral.eigendecompose is not original
        job = worker.run_job(fxnet.cli.main, worker.job_calls(TINY, inputs, out), out, tracer)
    assert fxnet.spectral.eigendecompose is original
    assert job["codes"] == [0]
    profile = tracing.job_profile(tracer.spans)
    assert abs(sum(profile["buckets"].values()) - job["seconds"]) < 1e-9
    assert set(profile["buckets"]) <= set(tracing.partition_metrics())
    assert profile["calls"]["spectral.eigendecompose"] == 2  # spectrum + 1 surrogate
    with open(f"{inputs}/prices.csv", encoding="utf-8") as fh:
        counts = worker.counters(tracer.observed, fh.read())
    assert counts["network.mst_candidates"] == 30 * 29 // 2
    assert counts["modes.n_g_auto"] == TINY["n_groups"]


def test_import_times_split_nested_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |         numpy.random",
        "import time:       150 |        200 |       scipy._lib",
        "import time:       100 |        300 |     scipy",
        "import time:        10 |        310 |   fxnet.report",
        "import time:        90 |        700 | fxnet",
    ])
    assert run.import_times(text) == pytest.approx({
        "setup.import.numpy_s": 300e-6,  # numpy.random under scipy is scipy's
        "setup.import.scipy_s": 300e-6,
        "setup.import.fxnet_s": 100e-6,
    })


def test_generator_is_deterministic_and_drops_the_right_dates():
    assert gen.generate("stages", 7) == gen.generate("stages", 7)
    assert gen.generate("stages", 7)[0] != gen.generate("stages", 8)[0]
    rng = np.random.default_rng(0)
    mask = rng.random((200, 5)) < 0.3
    mask[0] = False
    keep = gen.surviving_dates(mask, fill_limit=2)
    for k in range(200):
        runs = [next((r for r in range(k + 1) if not mask[k - r, j]), k + 1)
                for j in range(5)]
        assert keep[k] == all(r <= 2 for r in runs)
