import ast
import codecs
import dataclasses
import gc
import hashlib
import importlib.metadata
import itertools
import json
import os
import pathlib
import re
import shlex
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    make_assets,
    normalized_noise_panel,
    panel_from_returns,
    paper_shaped_table,
    planted_price_files,
    random_walk_table,
    synthetic_price_files,
)
from fxnet import cli, market_data, report, spectral
from fxnet.cli import main as cli_main
from fxnet.market_data import ReturnPanel
from fxnet.modes import ModeDecomposition, element_histogram
from fxnet.network import Graph
from fxnet.report import (
    PipelineConfig,
    StageError,
    _csv,
    export_graph_json,
    export_json_report,
    export_pajek,
    modes_files,
    read_panel,
    returns_files,
    run_pipeline,
    write_files,
)
from fxnet.tails import TailFit
from oracles import (
    csv_text,
    graph_json_by_json_dumps,
    read_json_report,
    read_pajek,
    surrogate_spectra_loop,
)


def two_node_graph(weight=0.5):
    assets = make_assets(2)
    return Graph(assets=tuple(assets), edges=((0, 1, weight),), kind="mst")


class TestPajekExport:
    def test_two_node_fixture(self):
        lines = export_pajek(two_node_graph()).splitlines()
        assert lines == [
            "*Vertices 2",
            '1 "A00"',
            '2 "A01"',
            "*Edges",
            "1 2 0.500000",
        ]

    def test_round_trip(self, tmp_path):
        write_files(str(tmp_path), [("g.net", export_pajek(two_node_graph(weight=1.25)))])
        labels, edges = read_pajek(str(tmp_path / "g.net"))
        assert labels == ["A00", "A01"]
        assert edges == [(0, 1, 1.25)]

    def test_lf_line_endings(self, tmp_path):
        write_files(str(tmp_path), [("g.net", export_pajek(two_node_graph()))])
        with open(tmp_path / "g.net", "rb") as fh:
            raw = fh.read()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_labels_split_back_to_their_codes(self):
        codes = ["D\"D", "X\\Y", "A B", "A00"]
        assets = tuple(dataclasses.replace(a, code=c) for a, c in zip(make_assets(4), codes))
        lines = export_pajek(
            Graph(assets=tuple(assets), edges=((0, 1, 0.5),), kind="mst")
        ).splitlines()
        assert [shlex.split(line) for line in lines[1:5]] == [
            [str(k + 1), code] for k, code in enumerate(codes)
        ]
        assert lines[4] == '4 "A00"'


class TestJsonExport:
    def test_deterministic_bytes(self):
        payload = {"b": [1.0 / 3.0, 2.0], "a": {"x": np.float64(0.1)}}
        assert export_json_report(dict(payload)) == export_json_report(dict(payload))

    def test_keys_sorted_and_schema_added(self):
        text = export_json_report({"zeta": 1, "alpha": 2})
        assert text.index('"alpha"') < text.index('"schema_version"') < text.index('"zeta"')

    def test_float_round_trip_precision(self, tmp_path, rng):
        values = list(rng.uniform(0.1, 10.0, 50))
        write_files(str(tmp_path), [("r.json", export_json_report({"eigenvalues": values}))])
        back = read_json_report(str(tmp_path / "r.json"))["eigenvalues"]
        assert np.abs(np.array(back) - np.array(values)).max() < 1e-10

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_real_rejected(self, value):
        # JSON has no token for these; json.dumps would write bare NaN/Infinity
        with pytest.raises(ValueError):
            export_json_report({"x": [1.0, value]})


# weights across the whole exponent range, signed zeros and integer-valued
# floats; up to 6 nodes, so an edge list may repeat a pair
WEIGHTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
    st.integers(-10**6, 10**6).map(float),
)


class TestGraphJsonExport:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), kind=st.sampled_from(["mst", "threshold"]), data=st.data())
    def test_equals_json_dumps_of_the_whole_payload(self, n, kind, data):
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                             WEIGHTS), max_size=20))
        g = Graph(assets=make_assets(n), edges=tuple(edges), kind=kind)
        assert export_graph_json(g) == graph_json_by_json_dumps(g)

    def test_numpy_edges_and_an_empty_edge_list(self):
        g = Graph(assets=make_assets(3), edges=((np.int64(0), np.int64(2), np.float64(0.1)),),
                  kind="mst")
        assert export_graph_json(g) == graph_json_by_json_dumps(g)
        g = Graph(assets=make_assets(3), edges=(), kind="threshold")
        assert export_graph_json(g) == graph_json_by_json_dumps(g)
        assert '"edges": [],' in export_graph_json(g)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, value):
        g = Graph(assets=make_assets(2), edges=((0, 1, 0.5), (0, 1, value)), kind="mst")
        with pytest.raises(ValueError):
            export_graph_json(g)


class TestHistogramExport:
    def test_reread_density_normalized(self, rng):
        m = rng.standard_normal((12, 12))
        m = (m + m.T) / 2
        zero = np.zeros((12, 12))
        md = ModeDecomposition(n_g=0, c_global=zero, c_group=zero, c_random=zero)
        text = dict(modes_files(make_assets(12), m, md))["histograms.csv"]
        rows = [line.split(",") for line in text.splitlines() if line.endswith(",full")]
        centers = np.array([float(r[0]) for r in rows])
        densities = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(centers) > 0)
        width = centers[1] - centers[0]
        assert densities.sum() * width == pytest.approx(1.0, abs=1e-9)


EXPECTED_FILES = [
    "report.json",
    "spectrum.csv",
    "eigenvectors.csv",
    "correlation.csv",
    "c_global.csv",
    "c_group.csv",
    "c_random.csv",
    "histograms.csv",
    "mst.net",
    "mst.json",
    "threshold.net",
    "threshold.json",
    "sweep.csv",
]


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    prices, meta = synthetic_price_files(tmp_path)
    out_dir = str(tmp_path / "out")
    cfg = PipelineConfig(
        prices_path=prices, metadata_path=meta, out_dir=out_dir, surrogates=3
    )
    return run_pipeline(cfg), out_dir


class TestRunPipeline:
    def test_all_files_written(self, completed):
        _, out_dir = completed
        for name in EXPECTED_FILES:
            assert os.path.exists(os.path.join(out_dir, name)), name
        ccdf = os.listdir(os.path.join(out_dir, "ccdf"))
        assert len(ccdf) == 8  # four assets, two sides each

    def test_payload_structure(self, completed):
        payload, _ = completed
        assert payload["panel"]["n_assets"] == 4
        assert len(payload["tail_fits"]) == 4
        for record in payload["tail_fits"]:
            assert set(record) == {"code", "positive", "negative"}
            assert record["positive"]["alpha"] > 0
        assert len(payload["spectrum"]["eigenvalues"]) == 4
        assert payload["graphs"]["mst"]["n_edges"] == 3
        assert payload["modes"]["n_g_used"] == payload["modes"]["n_g_auto"]  # default "auto"

    def test_report_json_matches_payload(self, completed):
        rep, out_dir = completed
        on_disk = read_json_report(os.path.join(out_dir, "report.json"))
        assert on_disk["panel"] == rep["panel"]
        assert on_disk["config"]["seed"] == rep["config"]["seed"]

    def test_surrogate_summary(self, completed):
        rep, _ = completed
        surrogates = rep["surrogates"]
        assert surrogates["count"] == 3
        assert 0.0 <= surrogates["bulk_fraction"] <= 1.0
        assert surrogates["eigenvalue_min"] <= surrogates["eigenvalue_max"]

    def test_inputs_are_recorded_by_content_not_by_path(self, completed):
        rep, _ = completed
        assert not {"prices_path", "metadata_path", "out_dir"} & set(rep["config"])
        assert set(rep["config"]) == {f.name for f in dataclasses.fields(PipelineConfig)} - {
            "prices_path", "metadata_path", "out_dir"}
        assert set(rep["inputs"]) == {"prices", "metadata"}
        for entry in rep["inputs"].values():
            assert set(entry) == {"sha256", "bytes"}
            assert re.fullmatch(r"[0-9a-f]{64}", entry["sha256"])

    def test_pajek_consistent_with_json_graph(self, completed):
        _, out_dir = completed
        labels, edges = read_pajek(os.path.join(out_dir, "mst.net"))
        g = read_json_report(os.path.join(out_dir, "mst.json"))
        assert labels == [node["code"] for node in g["nodes"]]
        assert [(i, j) for i, j, _ in edges] == [(i, j) for i, j, _ in g["edges"]]

    def test_missing_metadata_raises_ingest_stage(self, tmp_path):
        prices, _ = synthetic_price_files(tmp_path)
        cfg = PipelineConfig(
            prices_path=prices,
            metadata_path=str(tmp_path / "nope.csv"),
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "ingest"

    def test_bad_tail_fraction_raises_tails_stage(self, tmp_path):
        prices, meta = synthetic_price_files(tmp_path)
        cfg = PipelineConfig(
            prices_path=prices, metadata_path=meta,
            out_dir=str(tmp_path / "out"), tail_fraction=0.9,
        )
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "tails"

    @pytest.mark.parametrize("n_steps", [50, 300])
    def test_fit_tails_raises_on_a_bad_tail_fraction(self, rng, n_steps):
        """A tail_fraction outside (0, 0.5] is a bad setting, not a tail that
        cannot be fitted: a direct call raises, whatever the series' length."""
        with pytest.raises(StageError) as err:
            report.fit_tails(normalized_noise_panel(rng, 3, n_steps), 0.9)
        assert err.value.stage == "tails"
        assert str(err.value) == "stage 'tails' failed: tail_fraction must be in (0, 0.5], got 0.9"

    def test_lapack_failure_raises_spectrum_stage(self, tmp_path, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        prices, meta = synthetic_price_files(tmp_path)
        cfg = PipelineConfig(
            prices_path=prices, metadata_path=meta, out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "spectrum"
        assert isinstance(err.value.cause, np.linalg.LinAlgError)

    def test_auto_ng_on_planted_panel(self, tmp_path):
        prices, meta, _ = planted_price_files(tmp_path)
        cfg = PipelineConfig(
            prices_path=prices, metadata_path=meta,
            out_dir=str(tmp_path / "out"), n_g="auto", surrogates=2,
        )
        rep = run_pipeline(cfg)
        assert rep["modes"]["n_g_auto"] == 2
        assert rep["modes"]["n_g_used"] == 2

    def test_non_integer_ng_raises_decomposition_stage(self, tmp_path):
        """A library caller's n_g=2.7 is not run as 2; a numpy integer is an
        integer."""
        prices, meta = synthetic_price_files(tmp_path)
        out_dir = tmp_path / "out"
        cfg = PipelineConfig(prices_path=prices, metadata_path=meta, out_dir=str(out_dir),
                             n_g=2.7, surrogates=0)
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "decomposition"
        assert not out_dir.exists()
        rep = run_pipeline(dataclasses.replace(cfg, n_g=np.int64(2)))
        assert rep["modes"]["n_g_used"] == 2
        assert read_json_report(out_dir / "report.json")["config"]["n_g"] == 2

    def test_explicit_threshold_skips_sweep(self, tmp_path):
        prices, meta = synthetic_price_files(tmp_path)
        out_dir = str(tmp_path / "out")
        cfg = PipelineConfig(
            prices_path=prices, metadata_path=meta, out_dir=out_dir,
            c_th=0.05, surrogates=2,
        )
        rep = run_pipeline(cfg)
        assert rep["graphs"]["threshold"]["c_th"] == 0.05
        assert rep["graphs"]["threshold"]["recommended"] is None
        assert not os.path.exists(os.path.join(out_dir, "sweep.csv"))


def test_read_panel_hashes_only_when_asked(tmp_path):
    prices, meta = synthetic_price_files(tmp_path)
    inputs = {}
    panel = read_panel(prices, meta, 5, inputs)
    assert np.array_equal(panel.prices, read_panel(prices, meta, 5).prices)
    for key, path in (("prices", prices), ("metadata", meta)):
        with open(path, "rb") as fh:
            raw = fh.read()
        assert inputs[key] == {"sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw)}


class TestSurrogateStage:
    """surrogate_stats fans the surrogates out over threads; its summary must
    be that of the one-thread loop of `oracles.surrogate_spectra_loop`."""

    SEED = 4242

    @pytest.fixture(scope="class")
    def panel(self):
        rp = normalized_noise_panel(np.random.default_rng(77), 12, 400)
        return rp, spectral.rmt_bounds(12, 400)

    @staticmethod
    def expected(rp, bounds, seed, count):
        """The oracle's summary over each surrogate's min(N, T - 1) largest
        eigenpairs: its centred rows span no more, and the rest of its
        spectrum is the null space's zeros."""
        if count == 0:
            return {"count": 0, "seed": seed}
        lo = bounds.lambda_min - report.BULK_MARGIN
        hi = bounds.lambda_max + report.BULK_MARGIN
        rank = min(rp.returns.shape[0], rp.returns.shape[1] - 1)
        spectra = [(lam[:rank], vecs[:rank])
                   for lam, vecs in surrogate_spectra_loop(rp.returns, seed, count)]
        vals = np.concatenate([lam for lam, _ in spectra])
        pooled = np.concatenate([vecs[(lam >= lo) & (lam <= hi)].ravel() for lam, vecs in spectra])
        return {
            "count": count,
            "seed": seed,
            "bulk_low": lo,
            "bulk_high": hi,
            "bulk_fraction": float(np.mean((vals >= lo) & (vals <= hi))),
            "ks_statistic": spectral.normal_ks_statistic(pooled),
            "eigenvalue_max": float(vals.max()),
            "eigenvalue_min": float(vals.min()),
        }

    @pytest.mark.parametrize("count", [0, 1, 3, 10])
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_equals_the_serial_loop_at_any_worker_count(self, panel, monkeypatch, cpus, count):
        rp, bounds = panel
        threads = set()
        real = spectral.surrogate_correlation

        def recording(*args):
            threads.add(threading.current_thread().name)
            return real(*args)

        monkeypatch.setattr(report, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(spectral, "surrogate_correlation", recording)
        got = report.surrogate_stats(rp, bounds, self.SEED, count)
        assert got == self.expected(rp, bounds, self.SEED, count)
        assert len(threads) == min(cpus, count)

    @pytest.mark.parametrize("n, t", [(20, 12), (12, 12)])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_leaves_out_the_null_space_of_a_panel_with_t_at_most_n(self, monkeypatch, cpus, n, t):
        rp = normalized_noise_panel(np.random.default_rng(78), n, t)
        bounds = spectral.rmt_bounds(n, t)
        monkeypatch.setattr(report, "_usable_cpus", lambda: cpus)
        got = report.surrogate_stats(rp, bounds, self.SEED, 3)
        assert got == self.expected(rp, bounds, self.SEED, 3)
        assert got["eigenvalue_min"] > 1e-3  # no zero of the N - T + 1

    def test_more_workers_than_cpus_switching_every_microsecond(self, panel, monkeypatch):
        rp, bounds = panel
        monkeypatch.setattr(report, "_usable_cpus", lambda: 8)
        got = {}
        runner = threading.Thread(
            target=lambda: got.update(report.surrogate_stats(rp, bounds, self.SEED, 24)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert got == self.expected(rp, bounds, self.SEED, 24)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failing_surrogate_is_a_surrogates_error(self, panel, monkeypatch, failing):
        rp, bounds = panel
        real = spectral.surrogate_correlation

        def fail_on_one_thread(*args):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (failing == "caller"):
                raise FloatingPointError(f"{failing} failed")
            return real(*args)

        monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(spectral, "surrogate_correlation", fail_on_one_thread)
        before = threading.active_count()
        with pytest.raises(StageError) as err:
            report.surrogate_stats(rp, bounds, self.SEED, 5)
        assert err.value.stage == "surrogates"
        assert str(err.value.cause) == f"{failing} failed"
        assert threading.active_count() == before

    def test_an_interrupt_in_the_callers_share_stops_the_other_worker(self, panel, monkeypatch):
        rp, bounds = panel
        real = spectral.surrogate_correlation
        caller = threading.get_ident()
        caller_calls, worker_calls, worker_calls_at_interrupt = [], [], []

        def interrupt_on_the_callers_second(*args):
            if threading.get_ident() == caller:
                caller_calls.append(None)
                if len(caller_calls) == 2:
                    worker_calls_at_interrupt.append(len(worker_calls))
                    raise KeyboardInterrupt
            else:
                worker_calls.append(None)
                time.sleep(0.02)
            return real(*args)

        monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(spectral, "surrogate_correlation", interrupt_on_the_callers_second)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            report.surrogate_stats(rp, bounds, self.SEED, 40)
        # the surrogate the worker was in, plus one it may have begun after its
        # stop check and before the interrupt was recorded; not the 20 of its share
        assert len(worker_calls) <= worker_calls_at_interrupt[0] + 1
        assert threading.active_count() == before

    def test_peak_memory_is_the_pool_and_its_sorted_copy(self, monkeypatch):
        """At 10 surrogates of a `wide`-shaped panel, 250 x 750, the traced
        peak is at most 16 bytes per pooled eigenvector component (the pool
        and the KS statistic's sorted copy of it) plus the workers' N x T
        buffers: each surrogate's part goes once the parts are concatenated,
        and the KS statistic's temporaries come a chunk at a time."""
        n, t, workers = 250, 750, 2
        rp = normalized_noise_panel(np.random.default_rng(79), n, t)
        pooled = []
        real = spectral.normal_ks_statistic

        def recording(sample):
            pooled.append(sample.size)
            return real(sample)

        monkeypatch.setattr(report, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(spectral, "normal_ks_statistic", recording)
        peak = _traced_peak(report.surrogate_stats, rp, spectral.rmt_bounds(n, t), self.SEED, 10)
        assert pooled[0] > 500_000
        assert peak <= 16 * pooled[0] + workers * 8 * n * t


_BLAS_PROBE = """
import json, sys
from fxnet import report, spectral
_, get_threads = spectral._blas_threads()
inside = set()
eigendecompose = spectral.eigendecompose

def probe(cm):
    inside.add(get_threads())
    return eigendecompose(cm)

spectral.eigendecompose = probe
report._usable_cpus = lambda: 2
before = get_threads()
report.run_pipeline(report.PipelineConfig(
    prices_path=sys.argv[1], metadata_path=sys.argv[2], out_dir=sys.argv[3], surrogates=3))
print(json.dumps({"before": before, "inside": sorted(inside), "after": get_threads()}))
"""


def test_stages_run_on_one_blas_thread_and_restore_the_count(tmp_path):
    if spectral._blas_threads() is None:
        pytest.skip("numpy's BLAS has no known thread-count setter")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its thread count at the CPU count")
    prices, meta = synthetic_price_files(tmp_path)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, prices, meta, str(tmp_path / "out")],
                          env=env, check=True, capture_output=True, text=True, timeout=300)
    # the spectrum stage and the surrogates, on the caller and on the worker thread
    assert json.loads(proc.stdout) == {"before": 2, "inside": [1], "after": 2}


@pytest.mark.parametrize("known", [True, False], ids=["openblas", "no-setter"])
def test_one_blas_thread_sets_only_a_known_setter(monkeypatch, known):
    """With a known setter, the body runs on one thread and the count comes
    back; a BLAS without one (MKL, Accelerate) is left as it is."""
    calls = []
    fns = (calls.append, lambda: 3) if known else None
    monkeypatch.setattr(spectral, "_blas_threads", lambda: fns)
    with spectral._one_blas_thread():
        calls.append("body")
    assert calls == ([1, "body", 3] if known else ["body"])


@pytest.fixture()
def fresh_blas_lookup():
    """_blas_threads looked up anew in the test, and again by later tests, so
    that they get the real setter back."""
    spectral._blas_threads.cache_clear()
    yield
    spectral._blas_threads.cache_clear()


def _no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize(
    "cdll",
    [_no_library,
     # each pair's setter alone, so that neither pair is whole
     lambda path: types.SimpleNamespace(**dict.fromkeys(
         name for name, _ in spectral._BLAS_THREAD_SYMBOLS))],
    ids=["no-library", "no-symbol-pair"],
)
def test_no_blas_setter_without_the_library_or_a_whole_symbol_pair(
        monkeypatch, fresh_blas_lookup, cdll):
    monkeypatch.setattr(spectral.ctypes, "CDLL", cdll)
    assert spectral._blas_threads() is None


@pytest.mark.parametrize("count, want", [(3, 3), (None, 1)])
def test_usable_cpus_without_sched_getaffinity(monkeypatch, count, want):
    """Where the platform has no CPU affinity, the CPU count, or 1 if it is
    unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert report._usable_cpus() == want


class TestCli:
    @pytest.fixture()
    def inputs(self, tmp_path):
        prices, meta = synthetic_price_files(tmp_path)
        return prices, meta, tmp_path

    def base(self, prices, meta):
        return ["--prices", prices, "--metadata", meta]

    def test_ingest(self, inputs, capsys):
        prices, meta, _ = inputs
        assert cli_main(["ingest"] + self.base(prices, meta)) == 0
        out = capsys.readouterr().out
        assert "4 assets" in out and "600 dates" in out

    def test_returns(self, inputs, capsys):
        prices, meta, tmp_path = inputs
        out_dir = str(tmp_path / "ret")
        assert cli_main(["returns"] + self.base(prices, meta) +
                        ["--out-dir", out_dir]) == 0
        with open(os.path.join(out_dir, "returns.csv"), "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 5
        assert all(len(line.split(",")) == 600 for line in lines)
        assert os.path.exists(os.path.join(out_dir, "sigma.csv"))

    def test_tails(self, inputs, capsys):
        prices, meta, tmp_path = inputs
        out_dir = str(tmp_path / "tails")
        assert cli_main(["tails"] + self.base(prices, meta) +
                        ["--out-dir", out_dir]) == 0
        fits = read_json_report(os.path.join(out_dir, "tail_fits.json"))["tail_fits"]
        assert [record["code"] for record in fits] == ["C00", "C01", "C02", "C03"]
        for record in fits:
            assert "skipped" not in record
            for side in ("positive", "negative"):
                assert set(record[side]) == {"alpha", "tail_fraction", "k", "x_min"}
        assert capsys.readouterr().out == "wrote 8 tail fits, skipped 0\n"

    def test_run_as_a_module(self, inputs):
        """`python -m fxnet.cli` exits with main's status."""
        prices, meta, tmp_path = inputs
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

        def ingest(path):
            return subprocess.run(
                [sys.executable, "-m", "fxnet.cli", "ingest", *self.base(path, meta)],
                env=env, capture_output=True, text=True, timeout=120)

        good = ingest(prices)
        assert (good.returncode, good.stdout) == (0, "panel: 4 assets, 600 dates "
                                                     "(2019-01-01 .. 2020-08-22)\n")
        missing = ingest(str(tmp_path / "missing.csv"))
        assert missing.returncode == 1
        assert missing.stderr.startswith("error [ingest]: ")

    def test_console_script_is_main(self):
        """pyproject.toml's `fxnet` script, resolved as an installer resolves
        it, is `main`. A regex reads the line, for Python 3.10 has no tomllib."""
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)^\[", text, re.M | re.S)[1]
        value = re.search(r'^fxnet = "([^"]*)"$', scripts, re.M)[1]
        assert importlib.metadata.EntryPoint("fxnet", value, "console_scripts").load() is cli_main

    def test_spectrum(self, inputs, capsys):
        prices, meta, tmp_path = inputs
        out_dir = str(tmp_path / "spec")
        assert cli_main(["spectrum"] + self.base(prices, meta) +
                        ["--out-dir", out_dir]) == 0
        bounds = read_json_report(os.path.join(out_dir, "rmt_bounds.json"))["rmt"]
        assert bounds["lambda_min"] < 1 < bounds["lambda_max"]
        with open(os.path.join(out_dir, "spectrum.csv"), "r", encoding="utf-8") as fh:
            assert len(fh.read().splitlines()) == 5

    def test_decompose(self, inputs, capsys):
        prices, meta, tmp_path = inputs
        out_dir = str(tmp_path / "dec")
        assert cli_main(["decompose"] + self.base(prices, meta) +
                        ["--out-dir", out_dir, "--n-g", "2"]) == 0
        assert "n_g=2" in capsys.readouterr().out
        for name in ("c_global.csv", "c_group.csv", "c_random.csv", "histograms.csv"):
            assert os.path.exists(os.path.join(out_dir, name))

    def test_mst(self, inputs, capsys):
        prices, meta, tmp_path = inputs
        out_dir = str(tmp_path / "mst")
        assert cli_main(["mst"] + self.base(prices, meta) +
                        ["--out-dir", out_dir]) == 0
        _, edges = read_pajek(os.path.join(out_dir, "mst.net"))
        assert len(edges) == 3

    def test_threshnet(self, inputs, capsys):
        prices, meta, tmp_path = inputs
        out_dir = str(tmp_path / "tn")
        assert cli_main(["threshnet"] + self.base(prices, meta) +
                        ["--out-dir", out_dir, "--n-g", "2"]) == 0
        assert os.path.exists(os.path.join(out_dir, "threshold.net"))
        assert os.path.exists(os.path.join(out_dir, "sweep.csv"))

    def test_default_ng_is_auto_like_report(self, inputs, capsys):
        """Left at its default, n_g is select_ng's count: each command writes
        the tree it writes at `--n-g auto`, and decompose prints that count."""
        prices, meta, tmp_path = inputs
        for cmd in ("decompose", "threshnet", "report"):
            extra = ["--surrogates", "1"] if cmd == "report" else []
            trees = []
            for ng in ([], ["--n-g", "auto"]):
                out_dir = str(tmp_path / cmd / str(len(ng)))
                assert cli_main([cmd] + self.base(prices, meta) +
                                ["--out-dir", out_dir] + extra + ng) == 0, (cmd, ng)
                trees.append({rel: _read_bytes(path) for rel, path in _all_files(out_dir).items()})
            assert trees[0] == trees[1], cmd
        n_g_auto = read_json_report(tmp_path / "report" / "0" / "report.json")["modes"]["n_g_auto"]
        assert f"decomposed with n_g={n_g_auto}\n" in capsys.readouterr().out
        assert (_read_bytes(tmp_path / "report" / "0" / "c_group.csv")
                == _read_bytes(tmp_path / "decompose" / "0" / "c_group.csv"))

    def test_ng_above_n_minus_1_is_a_decomposition_error(self, inputs, capsys):
        prices, meta, tmp_path = inputs
        assert cli_main(["decompose"] + self.base(prices, meta) +
                        ["--out-dir", str(tmp_path / "out"), "--n-g", "4"]) == 1
        assert capsys.readouterr().err == "error [decomposition]: n_g must be in [0, 3], got 4\n"

    def test_report(self, inputs, capsys):
        prices, meta, tmp_path = inputs
        out_dir = str(tmp_path / "rep")
        assert cli_main(["report"] + self.base(prices, meta) +
                        ["--out-dir", out_dir, "--surrogates", "2"]) == 0
        assert os.path.exists(os.path.join(out_dir, "report.json"))
        assert "report written" in capsys.readouterr().out

    def test_negative_fill_limit_is_an_ingest_error(self, inputs, capsys):
        prices, meta, _ = inputs
        assert cli_main(["ingest"] + self.base(prices, meta) + ["--fill-limit", "-1"]) == 1
        assert capsys.readouterr().err == "error [ingest]: fill_limit must be >= 0, got -1\n"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = cli_main(["report", "--prices", str(tmp_path / "nope.csv"),
                         "--metadata", str(tmp_path / "nope2.csv"),
                         "--out-dir", out])
        assert code == 1
        assert "error [ingest]" in capsys.readouterr().err

    def test_bad_argument_value(self, inputs, capsys):
        prices, meta, tmp_path = inputs
        code = cli_main(["report"] + self.base(prices, meta) +
                        ["--out-dir", str(tmp_path / "out"),
                         "--tail-fraction", "0.9"])
        assert code == 1
        assert "error [tails]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "mst", "threshnet"])
    def test_no_command_takes_hub_sigma(self, inputs, capsys, command):
        """The hub cutoff is fixed at mean + 2 std of the degrees."""
        prices, meta, tmp_path = inputs
        with pytest.raises(SystemExit) as exc:
            cli_main([command] + self.base(prices, meta) +
                     ["--out-dir", str(tmp_path / "out"), "--hub-sigma", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --hub-sigma 3" in capsys.readouterr().err

    def test_an_error_outside_a_stage_exits_1_with_its_text(self, inputs, capsys, monkeypatch):
        def fail(cfg):
            raise OSError("no room left")

        monkeypatch.setitem(cli.COMMANDS, "ingest", (fail, ()))
        prices, meta, _ = inputs
        assert cli_main(["ingest"] + self.base(prices, meta)) == 1
        assert capsys.readouterr() == ("", "error: no room left\n")


def _all_files(root):
    return {
        os.path.relpath(os.path.join(d, f), root): os.path.join(d, f)
        for d, _, files in os.walk(root)
        for f in files
    }


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSubcommandsMatchReport:
    """Each subcommand runs the pipeline's own stage functions, so every file
    it shares with `report` must be byte-identical to report's copy."""

    SUBCOMMANDS = ("returns", "tails", "spectrum", "decompose", "mst", "threshnet")

    def shared_files(self, tmp_path, prices, meta, *report_flags):
        """The files each subcommand shares with `report`, after requiring
        their bytes to be equal."""
        io_args = ["--prices", prices, "--metadata", meta]
        rep_dir = str(tmp_path / "report")
        assert cli_main(["report", *io_args, "--out-dir", rep_dir, *report_flags]) == 0
        from_report = _all_files(rep_dir)
        compared = {}
        for cmd in self.SUBCOMMANDS:
            out_dir = str(tmp_path / cmd)
            assert cli_main([cmd, *io_args, "--out-dir", out_dir]) == 0, cmd
            for rel, path in _all_files(out_dir).items():
                if rel.startswith("ccdf_"):
                    rel = os.path.join("ccdf", rel[len("ccdf_"):])
                if rel in from_report:
                    assert _read_bytes(path) == _read_bytes(from_report[rel]), (cmd, rel)
                    compared.setdefault(cmd, []).append(rel)
        # every file report writes, except report.json, has a subcommand twin
        assert set(from_report) - {"report.json"} == {
            rel for rels in compared.values() for rel in rels
        }
        assert set(compared) == set(self.SUBCOMMANDS) - {"returns"}
        return compared

    def test_shared_files_byte_identical(self, tmp_path, capsys):
        prices, meta = synthetic_price_files(tmp_path)
        self.shared_files(tmp_path, prices, meta, "--surrogates", "1")

    def test_shared_files_byte_identical_at_default_settings(self, tmp_path, capsys,
                                                              gappy_files):
        """At every default setting (10 surrogates, n_g auto, a swept cutoff), on
        a table of the benchmark's `stages` shape whose blank cells are filled
        and whose outages drop dates."""
        prices, meta, _ = gappy_files
        compared = self.shared_files(tmp_path, prices, meta)
        assert {cmd: len(rels) for cmd, rels in compared.items()} == {
            "tails": 200, "spectrum": 3, "decompose": 4, "mst": 2, "threshnet": 3}


def _corrupt_prices(prices, meta):
    with open(prices, "a", encoding="utf-8") as fh:
        fh.write("2099-01-01,1.0\n")  # too few fields


def _drop_metadata(prices, meta):
    os.unlink(meta)


@pytest.mark.parametrize(
    "argv, damage, stage",
    [
        (["tails", "--tail-fraction", "0.9"], None, "tails"),
        (["spectrum"], _corrupt_prices, "ingest"),
        (["mst"], _drop_metadata, "ingest"),
        (["returns", "--delta", "0"], None, "returns"),
        (["decompose", "--n-g", "-1"], None, "decomposition"),
        (["threshnet", "--n-g", "-1"], None, "decomposition"),
        (["report", "--surrogates", "1", "--tail-fraction", "0.9"], None, "tails"),
    ],
)
def test_subcommand_failure_names_its_stage(tmp_path, capsys, argv, damage, stage):
    prices, meta = synthetic_price_files(tmp_path)
    if damage is not None:
        damage(prices, meta)
    code = cli_main([argv[0], "--prices", prices, "--metadata", meta,
                     "--out-dir", str(tmp_path / "out"), *argv[1:]])
    assert code == 1
    assert f"error [{stage}]" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def _short_or_pegged_files(tmp_path, n_dates, pegged):
    """10 random-walk assets over n_dates dates. With `pegged`, C00 is a hard
    peg: 3.75 or 3.76, switching every 250 dates, so all but four of its
    returns are exactly 0."""
    prices, meta = synthetic_price_files(tmp_path, n_assets=10, n_dates=n_dates)
    if pegged:
        path = pathlib.Path(prices)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        rows = [row.split(",") for row in rows]
        for k, row in enumerate(rows):
            row[1] = "3.76" if k // 250 % 2 else "3.75"
        path.write_text("\n".join([header, *map(",".join, rows)]) + "\n", encoding="utf-8")
    return prices, meta


_TAIL_FIT_FIELDS = {field.name for field in dataclasses.fields(TailFit)}
_TOO_SHORT = {side: "need at least 100 samples, got 60" for side in ("positive", "negative")}
_PEGGED = {side: f"non-positive tail threshold on side '{side}'"
           for side in ("positive", "negative")}


@pytest.mark.parametrize(
    "n_dates, pegged, skipped",
    [
        (61, False, {f"C{i:02d}": _TOO_SHORT for i in range(10)}),
        (1001, True, {"C00": _PEGGED}),
    ],
    ids=["10x61", "10x1001-pegged"],
)
def test_report_and_tails_record_an_unfittable_tail_alike(
        tmp_path, capsys, n_dates, pegged, skipped):
    prices, meta = _short_or_pegged_files(tmp_path, n_dates, pegged)
    io_args = ["--prices", prices, "--metadata", meta]
    out = tmp_path / "report"
    assert cli_main(["report", *io_args, "--out-dir", str(out), "--surrogates", "1"]) == 0
    payload = read_json_report(out / "report.json")
    assert len(payload["spectrum"]["eigenvalues"]) == 10
    for name in ("spectrum.csv", "mst.net", "mst.json", "threshold.net", "threshold.json"):
        assert (out / name).is_file(), name
    assert len(os.listdir(out / "ccdf")) == 20
    for record in payload["tail_fits"]:
        reasons = skipped.get(record["code"], {})
        assert record.get("skipped") == (reasons or None)
        for side in ("positive", "negative"):
            assert (record[side] is None) == (side in reasons)
            # a fitted side is printed as its TailFit, field for field
            assert record[side] is None or set(record[side]) == _TAIL_FIT_FIELDS
    capsys.readouterr()
    tails_out = tmp_path / "tails"
    assert cli_main(["tails", *io_args, "--out-dir", str(tails_out)]) == 0
    n_skipped = sum(map(len, skipped.values()))
    assert capsys.readouterr() == (f"wrote {20 - n_skipped} tail fits, skipped {n_skipped}\n", "")
    assert read_json_report(tails_out / "tail_fits.json") == {
        "schema_version": payload["schema_version"], "tail_fits": payload["tail_fits"]}
    ccdf = sorted(os.listdir(out / "ccdf"))
    assert sorted(os.listdir(tails_out)) == sorted(
        ["tail_fits.json", *(f"ccdf_{name}" for name in ccdf)])
    for name in ccdf:
        assert (tails_out / f"ccdf_{name}").read_bytes() == (out / "ccdf" / name).read_bytes(), name


def test_a_panel_with_fewer_dates_than_assets_runs_report_to_the_end(tmp_path):
    # 200 assets x 150 dates: T = 149 returns, Q = T/N < 1
    prices, meta = synthetic_price_files(tmp_path, n_assets=200, n_dates=150)
    out = tmp_path / "report"
    assert cli_main(["report", "--prices", prices, "--metadata", meta,
                     "--out-dir", str(out), "--surrogates", "3"]) == 0
    payload = read_json_report(out / "report.json")
    lam = payload["spectrum"]["eigenvalues"]
    assert len(lam) == 200 and max(map(abs, lam[149:])) < 1e-10
    assert payload["spectrum"]["rmt"]["q"] == 149 / 200
    assert payload["surrogates"]["eigenvalue_min"] > 1e-3
    for name in ("spectrum.csv", "eigenvectors.csv", "correlation.csv",
                 "mst.net", "mst.json", "threshold.net", "threshold.json"):
        assert (out / name).is_file(), name
    assert payload["graphs"]["mst"]["n_edges"] == 199


def _pegged_or_deleted(tmp_path, pegged):
    """--prices and --metadata of synthetic_price_files' five assets over 300
    dates, with C01 at 3.6725 on every date (`pegged`) or with C01's column
    deleted; the metadata lists all five either way."""
    folder = tmp_path / ("pegged" if pegged else "deleted")
    folder.mkdir()
    prices, meta = map(pathlib.Path, synthetic_price_files(folder, n_assets=5, n_dates=300))
    rows = [row.split(",") for row in prices.read_text(encoding="utf-8").splitlines()]
    for row in rows[1:] if pegged else rows:
        if pegged:
            row[2] = "3.6725"
        else:
            del row[2]
    prices.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    return ["--prices", str(prices), "--metadata", str(meta)]


@pytest.mark.parametrize("cmd", ["report", "returns", "tails", "spectrum", "decompose", "mst",
                                 "threshnet"])
def test_an_asset_pegged_over_the_whole_window_drops_out_and_is_recorded(tmp_path, capsys, cmd):
    """The oracle is the table without the pegged column, which reaches the
    reader without the peg: every file but report.json, and stdout, must equal
    its run's, and report.json may differ only in `inputs` and `dropped_assets`."""
    runs = []
    for pegged in (True, False):
        out = tmp_path / "out"
        assert cli_main([cmd, *_pegged_or_deleted(tmp_path, pegged), "--out-dir", str(out)]) == 0
        files = {rel: _read_bytes(path) for rel, path in _all_files(out).items()}
        runs.append((files, capsys.readouterr().out))
        out.rename(tmp_path / f"out-{pegged}")
    (files, stdout), (want, want_stdout) = runs
    assert stdout == want_stdout
    if cmd == "report":
        payload, expected = (json.loads(f.pop("report.json")) for f in (files, want))
        assert payload["panel"].pop("dropped_assets") == [
            {"code": "C01", "reason": "near-constant return series (sigma < 1e-10)"}]
        assert payload.pop("inputs") != expected.pop("inputs")
        assert payload == expected
        assert "dropped_assets" not in expected["panel"]
    assert files == want


@pytest.mark.parametrize("n_assets, pegged, codes", [(2, [0], "C00"), (3, [0, 2], "C00, C02")])
def test_a_panel_with_fewer_than_two_unpegged_assets_fails_at_returns(
        tmp_path, capsys, n_assets, pegged, codes):
    prices, meta = synthetic_price_files(tmp_path, n_assets=n_assets, n_dates=300)
    rows = [row.split(",") for row in pathlib.Path(prices).read_text(encoding="utf-8").splitlines()]
    for row in rows[1:]:
        for j in pegged:
            row[1 + j] = "3.75"
    pathlib.Path(prices).write_text("".join(",".join(row) + "\n" for row in rows),
                                    encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["report", "--prices", prices, "--metadata", meta,
                     "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error [returns]: near-constant return series (sigma < 1e-10) for: {codes}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--surrogates", "1", "--c-th", "nan"],
        ["report", "--surrogates", "1", "--c-th=inf"],
        ["report", "--surrogates", "1", "--c-th=-inf"],
        ["threshnet", "--c-th", "nan"],
    ],
    ids=" ".join,
)
def test_non_finite_cutoff_is_a_network_error(tmp_path, capsys, argv):
    prices, meta = synthetic_price_files(tmp_path)
    code = cli_main([argv[0], "--prices", prices, "--metadata", meta,
                     "--out-dir", str(tmp_path / "out"), *argv[1:]])
    assert code == 1
    assert "error [network]" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "argv, stage, message",
    [
        (["report", "--c-th", "nan"], "network", "threshold c_th must be finite, got nan"),
        (["report", "--n-g", "-1"], "decomposition", "n_g must be >= 0, got -1"),
        (["report", "--surrogates", "-1"], "surrogates", "surrogates must be >= 0, got -1"),
        (["report", "--seed", "-1"], "surrogates", "seed must be >= 0, got -1"),
        (["threshnet", "--c-th=inf"], "network", "threshold c_th must be finite, got inf"),
        (["threshnet", "--n-g", "-2"], "decomposition", "n_g must be >= 0, got -2"),
        (["decompose", "--n-g", "-1"], "decomposition", "n_g must be >= 0, got -1"),
        (["returns", "--delta", "0"], "returns", "delta must be >= 1, got 0"),
        (["spectrum", "--delta", "0"], "returns", "delta must be >= 1, got 0"),
        (["tails", "--tail-fraction", "0.9"], "tails",
         "tail_fraction must be in (0, 0.5], got 0.9"),
        (["report", "--tail-fraction", "0"], "tails",
         "tail_fraction must be in (0, 0.5], got 0.0"),
        (["ingest", "--fill-limit", "-1"], "ingest", "fill_limit must be >= 0, got -1"),
    ],
    ids=" ".join,
)
def test_bad_setting_fails_before_any_eigensolve(tmp_path, capsys, monkeypatch, argv, stage,
                                                 message):
    """A setting that is bad whatever the data fails before the price table
    is read, with the stage that would have rejected it later."""
    calls = []
    monkeypatch.setattr(spectral, "eigendecompose", lambda *a: calls.append(a))
    monkeypatch.setattr(report, "read_panel", lambda *a: calls.append(a))
    prices, meta = synthetic_price_files(tmp_path)
    out_args = [] if argv[0] == "ingest" else ["--out-dir", str(tmp_path / "out")]
    code = cli_main([argv[0], "--prices", prices, "--metadata", meta, *out_args, *argv[1:]])
    assert code == 1
    assert capsys.readouterr().err == f"error [{stage}]: {message}\n"
    assert calls == []
    assert not os.path.exists(tmp_path / "out")


def test_returns_peak_memory_stays_near_the_text_length(rng):
    """Formatting `returns.csv` of a 100 x 2499 panel, or `eigenvectors.csv`
    of a 250-asset spectrum, allocates at most 4 times the file's length at
    its peak: the rows become Python floats one at a time, not the whole
    matrix at once."""
    rp = ReturnPanel(assets=make_assets(100), returns=rng.standard_normal((100, 2499)),
                     sigma=np.ones(100))
    length = len(dict(returns_files(rp))["returns.csv"])
    assert _traced_peak(dict, returns_files(rp)) <= 4 * length

    wide = normalized_noise_panel(rng, 250, 750)
    c = spectral.correlation_matrix(wide)
    sd = spectral.eigendecompose(c)
    length = len(dict(report.spectrum_files(wide.assets, c, sd))["eigenvectors.csv"])
    files = report.spectrum_files(wide.assets, c, sd)
    assert next(files)[0] == "spectrum.csv"  # formatted untraced
    assert _traced_peak(next, files) <= 4 * length


def _traced_peak(fn, *args):
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def paper_shaped_files(tmp_path_factory):
    """A plain price table of the paper's shape, 74 assets x 6035 dates
    without blanks (5.1 MB), and its metadata."""
    return _written(tmp_path_factory.mktemp("paper_shaped"),
                    *paper_shaped_table(np.random.default_rng(23)))


@pytest.fixture(scope="module")
def gappy_files(tmp_path_factory):
    """A price table of the benchmark's `stages` shape, 100 assets x 2500
    dates with 1 % blank cells and four outages whose dates drop (3.1 MB),
    and its metadata."""
    return _written(tmp_path_factory.mktemp("gappy"),
                    *random_walk_table(np.random.default_rng(25), 100, 2500, 0.01, outages=4))


def _written(tmp_path, table, meta):
    (tmp_path / "prices.csv").write_text(table, encoding="utf-8")
    (tmp_path / "meta.csv").write_text(meta, encoding="utf-8")
    return str(tmp_path / "prices.csv"), str(tmp_path / "meta.csv"), len(table)


# At most this many bytes traced per byte of the price table. Ingest holds
# the table's text and two dates x assets matrices (8 bytes per ~12-byte
# cell), the read matrix and its transpose, at about 2.4 table lengths; its
# list of every line and two more matrices made 3.1. A forward fill that
# built a dates x assets row index, its running maximum and a gathered copy
# made 3.2 on a gappy table, against 2.5 from the blank cells alone. Then the
# surrogates hold the returns and one matrix per worker, not the prices as well.
PEAK_PER_TABLE_BYTE = 2.6


def test_read_panel_peak_memory_is_the_text_and_two_matrices(paper_shaped_files):
    prices, meta, length = paper_shaped_files
    assert _traced_peak(read_panel, prices, meta, 5) <= PEAK_PER_TABLE_BYTE * length


def test_read_panel_peak_memory_on_a_gappy_table(gappy_files):
    """The same bound with blank cells to fill and dates to drop: the
    forward fill indexes the blank cells, not every cell of the table."""
    prices, meta, length = gappy_files
    panel = read_panel(prices, meta, 5)
    assert 2400 < panel.n_dates < 2500
    assert _traced_peak(read_panel, prices, meta, 5) <= PEAK_PER_TABLE_BYTE * length


def test_run_pipeline_peak_memory_is_that_of_ingest(paper_shaped_files, tmp_path, monkeypatch):
    """Two surrogate workers, whatever the CPUs, each with an N x T buffer:
    the price matrix, if it were kept beside them and the returns, would
    lift the peak over the bound."""
    prices, meta, length = paper_shaped_files
    monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
    cfg = PipelineConfig(prices_path=prices, metadata_path=meta,
                         out_dir=str(tmp_path / "out"), surrogates=4)
    assert _traced_peak(run_pipeline, cfg) <= PEAK_PER_TABLE_BYTE * length


def _quoted_code_files(tmp_path, codes, n_dates=300, seed=3):
    """Price and metadata CSVs, written with the csv module, whose asset codes
    need CSV quoting."""
    import csv
    import datetime

    rng = np.random.default_rng(seed)
    logp = np.cumsum(rng.standard_normal((n_dates, len(codes))) * 0.01, axis=0)
    start = datetime.date(2020, 1, 1)
    prices, meta = str(tmp_path / "prices.csv"), str(tmp_path / "meta.csv")
    with open(prices, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["date", *codes])
        for k, row in enumerate(np.exp(logp)):
            day = (start + datetime.timedelta(days=k)).isoformat()
            w.writerow([day, *(f"{p:.8f}" for p in row)])
    with open(meta, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["index", "code", "name", "market_class", "region"])
        for i, code in enumerate(codes):
            w.writerow([i + 1, code, f"name {i}", "developed", "Test"])
    return prices, meta


def test_symmetric_matrices_print_as_their_own_transpose(tmp_path):
    """correlation.csv is numpy's Gram product of one buffer with itself,
    which numpy makes symmetric, and the three mode matrices are built as
    (m + m^T) / 2, so each equals its transpose cell for cell as text, not
    only within a tolerance."""
    prices, meta, _ = planted_price_files(tmp_path)
    out_dir = tmp_path / "out"
    run_pipeline(PipelineConfig(prices_path=prices, metadata_path=meta,
                                out_dir=str(out_dir), n_g="auto", surrogates=1))
    for name in ("correlation.csv", "c_global.csv", "c_group.csv", "c_random.csv"):
        header, *rows = [line.split(",") for line in (out_dir / name).read_text().splitlines()]
        assert header[1:] == [row[0] for row in rows], name
        cells = [row[1:] for row in rows]
        assert cells == [list(column) for column in zip(*cells)], name


def test_codes_needing_quotes_round_trip_through_every_csv(tmp_path):
    import csv

    codes = ["A", "B,B", "C", 'D"D']
    prices, meta = _quoted_code_files(tmp_path, codes)
    out_dir = str(tmp_path / "out")
    assert cli_main(["report", "--prices", prices, "--metadata", meta,
                     "--out-dir", out_dir, "--surrogates", "1"]) == 0
    ret_dir = str(tmp_path / "ret")
    assert cli_main(["returns", "--prices", prices, "--metadata", meta,
                     "--out-dir", ret_dir]) == 0
    files = {**_all_files(out_dir), **_all_files(ret_dir)}
    csvs = {rel: path for rel, path in files.items() if rel.endswith(".csv")}
    assert len(csvs) == 8 + 8 + 2  # top-level, CCDF and return files
    matrices = ("correlation.csv", "c_global.csv", "c_group.csv", "c_random.csv")
    for rel, path in csvs.items():
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        widths = {len(row) for row in rows}
        assert widths == {len(rows[0])}, rel
        if rel in matrices or rel == "eigenvectors.csv":
            assert rows[0][1:] == codes, rel
            assert widths == {len(codes) + 1}, rel
        if rel in matrices or rel in ("returns.csv", "sigma.csv"):
            assert [row[0] for row in rows[1:]] == codes, rel


def test_every_csv_equals_the_csv_module_text_of_its_rows(rng):
    """Each CSV that a file group yields equals the csv module's printing of
    the same rows, on asset codes that need quoting."""
    codes = ["A", "B,B", "C", 'D"D']
    assets = tuple(dataclasses.replace(a, code=c) for a, c in zip(make_assets(4), codes))
    rp = dataclasses.replace(panel_from_returns(rng.standard_normal((4, 300))), assets=assets)
    cm = report.correlate(rp)
    sd, bounds = report.spectrum(cm, rp.n_steps)
    md, _ = report.decompose(sd, bounds, 2)
    tnet, _, sweep, _ = report.build_threshold(md.c_group, assets, "auto")
    assert sweep.entries

    def by_code(m):
        return [(c, *r) for c, r in zip(codes, m.tolist())]

    parts = {"full": cm, "global": md.c_global, "group": md.c_group, "random": md.c_random}

    expected = {
        "spectrum.csv": csv_text(["index", "eigenvalue"], enumerate(sd.eigenvalues.tolist())),
        "eigenvectors.csv": csv_text(["index", *codes],
                                     [(j, *u) for j, u in enumerate(sd.eigenvectors.tolist())]),
        "correlation.csv": csv_text(["code", *codes], by_code(cm)),
        **{f"c_{part}.csv": csv_text(["code", *codes], by_code(getattr(md, f"c_{part}")))
           for part in ("global", "group", "random")},
        "histograms.csv": csv_text(["bin_center", "density", "component"],
                                   [(c, d, name) for name, m in parts.items()
                                    for c, d in element_histogram(m)]),
        "sweep.csv": csv_text(["c_th", "n_active", "n_components", "clustered", "sizes"],
                              [(e.c_th, e.n_active, e.n_components, e.clustered,
                                ";".join(map(str, e.sizes))) for e in sweep.entries]),
        "returns.csv": csv_text(["code", *(f"t{k}" for k in range(rp.n_steps))],
                                by_code(rp.returns)),
        "sigma.csv": csv_text(["code", "sigma"], zip(codes, rp.sigma.tolist())),
    }
    files = dict(itertools.chain(
        report.spectrum_files(assets, cm, sd),
        report.modes_files(assets, cm, md),
        report.graph_files(tnet, sweep),
        report.returns_files(rp),
    ))
    assert {rel: text for rel, text in files.items() if rel.endswith(".csv")} == expected


def _nan_in_payload(monkeypatch, rng):
    return report.json_file("report.json", {"x": [1.0, float("nan")]})


def _nan_edge_weight(monkeypatch, rng):
    g = Graph(assets=make_assets(2), edges=((0, 1, float("nan")),), kind="mst")
    return report.graph_files(g)


def _csv_raises(monkeypatch, rng):
    def fail(header, rows):
        raise ValueError("cannot format")

    monkeypatch.setattr(report, "_csv", fail)
    cm = report.correlate(normalized_noise_panel(rng, 3, 50))
    sd, _ = report.spectrum(cm, 50)
    return report.spectrum_files(make_assets(3), cm, sd)


@pytest.mark.parametrize("group", [_nan_in_payload, _nan_edge_weight, _csv_raises],
                         ids=lambda f: f.__name__.strip("_"))
def test_a_formatting_failure_in_a_file_group_is_an_export_error(tmp_path, monkeypatch, rng,
                                                                 group):
    """A group formats each file only when write_files asks for it, so a
    formatting failure is raised there, as an export error, and writes
    nothing."""
    files = group(monkeypatch, rng)
    out_dir = tmp_path / "out"
    with pytest.raises(StageError) as err:
        write_files(str(out_dir), files)
    assert err.value.stage == "export"
    assert isinstance(err.value.cause, ValueError)
    assert not out_dir.exists()
    assert _staging_dirs(tmp_path) == []


@pytest.mark.parametrize("marked", [("prices",), ("metadata",), ("prices", "metadata")])
def test_byte_order_mark_reads_as_the_plain_table(tmp_path, marked):
    prices, meta = synthetic_price_files(tmp_path)
    plain = read_panel(prices, meta, 5)
    for name in marked:
        path = {"prices": prices, "metadata": meta}[name]
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(codecs.BOM_UTF8 + data)
    panel = read_panel(prices, meta, 5)
    assert (panel.assets, panel.dates) == (plain.assets, plain.dates)
    assert np.array_equal(panel.prices, plain.prices)


@pytest.mark.parametrize("name, line", [("prices", 4), ("metadata", 3)])
def test_a_file_that_is_not_utf8_is_an_ingest_error_naming_it(tmp_path, capsys, name, line):
    # a byte-order mark, then a CRLF and a lone CR line end before the Latin-1 é
    prices, meta = synthetic_price_files(tmp_path)
    path = {"prices": prices, "metadata": meta}[name]
    rows = _read_bytes(path).splitlines()
    rows[line - 1] = rows[line - 1].replace(b",", b"\xe9,", 1)
    data = codecs.BOM_UTF8 + rows[0] + b"\r\n" + rows[1] + b"\r" + b"\n".join(rows[2:]) + b"\n"
    pathlib.Path(path).write_bytes(data)
    assert cli_main(["ingest", "--prices", prices, "--metadata", meta]) == 1
    assert capsys.readouterr().err == (
        f"error [ingest]: {name} file is not UTF-8: byte 0xe9 on line {line}\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
def test_files_with_other_line_ends_are_read_by_numpy(tmp_path, monkeypatch, newline):
    """`read_panel` turns every line end into `\\n`, so the numpy reader, which
    declines any `\\r`, reads these files too."""
    prices, meta = synthetic_price_files(tmp_path)
    plain = read_panel(prices, meta, 5)
    for path in map(pathlib.Path, (prices, meta)):
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))

    def per_cell(*args):
        raise AssertionError("the per-cell loop was asked to read the prices")

    monkeypatch.setattr(market_data, "_read_prices_per_cell", per_cell)
    panel = read_panel(prices, meta, 5)
    assert (panel.assets, panel.dates) == (plain.assets, plain.dates)
    assert np.array_equal(panel.prices, plain.prices)


@pytest.mark.parametrize("code", ["d/e", "../../esc", "a\\b"])
def test_code_holding_a_path_separator_fails_at_ingest(tmp_path, capsys, code):
    prices, meta = _quoted_code_files(tmp_path, ["A", code, "C"])
    out_dir = tmp_path / "out"
    assert cli_main(["report", "--prices", prices, "--metadata", meta,
                     "--out-dir", str(out_dir), "--surrogates", "1"]) == 1
    assert "error [ingest]" in capsys.readouterr().err
    assert not out_dir.exists()


@given(st.lists(st.one_of(st.floats(), st.integers(-10**6, 10**6)), min_size=2,
                max_size=40))
def test_csv_numbers_keep_12_significant_digits(values):
    points = list(zip(values[::2], values[1::2]))
    lines = _csv(["x", "ccdf"], points).splitlines()
    assert lines == ["x,ccdf"] + [f"{float(x):.12g},{float(p):.12g}" for x, p in points]


def test_importing_fxnet_loads_no_scipy():
    """Neither scipy nor hashlib, which only `report` uses, to digest its inputs."""
    code = ("import sys, fxnet, fxnet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'hashlib')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_public_function_has_a_caller():
    """Each public top-level function of fxnet's modules is named somewhere in
    them (called, or kept in a table such as the CLI's) or is in the README's
    Library import list; anything else is code no stage runs."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "fxnet").glob("*.py"))
             if path.name != "__init__.py"}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = set(re.findall(r"\w+", re.search(r"from fxnet import \(([^)]*)\)", readme)[1]))
    uncalled = [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and node.name not in named | library]
    assert uncalled == []


def test_every_import_and_private_name_is_used():
    """Each module of fxnet loads every name it imports (`from __future__`
    aside), and every private top-level function, class and constant it
    defines unless another fxnet module or a test names it: a deletion
    leaves no import or helper behind."""
    modules = sorted((ROOT / "src" / "fxnet").glob("*.py"))
    texts = {path: path.read_text(encoding="utf-8")
             for path in modules + sorted((ROOT / "tests").glob("*.py"))}
    words = {path: set(re.findall(r"\w+", text)) for path, text in texts.items()}
    unused = []
    for path in modules:
        if path.name == "__init__.py":  # it imports only to re-export
            continue
        tree = ast.parse(texts[path])
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        named_elsewhere = set().union(*(w for other, w in words.items() if other != path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                unused += [f"{path.name}: import {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in loaded]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in names if name.startswith("_")
                       and name not in loaded | named_elsewhere]
    assert unused == []


def _staging_dirs(root):
    return list(root.rglob(".fxnet-*"))


@pytest.mark.parametrize("out_dir_exists, rel", [(False, "out"), (True, "out"),
                                                 (False, os.path.join("a", "b", "out"))],
                         ids=["False", "True", "nested"])
def test_failed_export_leaves_out_dir_as_it_was(tmp_path, out_dir_exists, rel):
    out_dir = tmp_path / rel
    if out_dir_exists:
        out_dir.mkdir()
        (out_dir / "keep.txt").write_text("kept")

    def files():
        yield os.path.join("ccdf", "a.csv"), "x,ccdf\n"
        raise OSError("disk full")

    with pytest.raises(StageError, match="disk full"):
        write_files(str(out_dir), files())
    if out_dir_exists:
        assert os.listdir(out_dir) == ["keep.txt"]
        assert (out_dir / "keep.txt").read_text() == "kept"
    else:
        assert not out_dir.exists()
        assert not (tmp_path / "a").exists()
    assert _staging_dirs(tmp_path) == []


@pytest.mark.parametrize("out_dir_exists", [False, True])
def test_files_reach_out_dir_only_after_the_last_is_written(tmp_path, out_dir_exists):
    out_dir = tmp_path / "a" / "out"
    if out_dir_exists:
        out_dir.mkdir(parents=True)
        (out_dir / "keep.txt").write_text("kept")
        (out_dir / "report.json").write_text("old")

    def files():
        yield "report.json", "{}\n"
        yield os.path.join("ccdf", "A_positive.csv"), "x,ccdf\n"
        if out_dir_exists:  # the staging directory sits inside out_dir
            assert sorted(n for n in os.listdir(out_dir) if not n.startswith(".fxnet-")) == [
                "keep.txt", "report.json"]
            assert (out_dir / "report.json").read_text() == "old"
        else:
            assert not (tmp_path / "a").exists()
        yield "sweep.csv", "c_th\n"

    write_files(str(out_dir), files())
    written = {rel: _read_bytes(path) for rel, path in _all_files(out_dir).items()}
    assert written == {
        **({"keep.txt": b"kept"} if out_dir_exists else {}),
        "report.json": b"{}\n",
        os.path.join("ccdf", "A_positive.csv"): b"x,ccdf\n",
        "sweep.csv": b"c_th\n",
    }
    assert _staging_dirs(tmp_path) == []


@pytest.mark.parametrize("rel", [os.path.join("ccdf", os.pardir, os.pardir, "x.csv"),
                                 os.path.abspath("x.csv")], ids=["parent", "absolute"])
def test_a_path_leaving_out_dir_is_an_export_error(tmp_path, rel):
    out_dir = tmp_path / "a" / "out"
    with pytest.raises(StageError, match="leaves the output directory"):
        write_files(str(out_dir), [("report.json", "{}\n"), (rel, "x\n")])
    assert os.listdir(tmp_path) == []


def test_new_out_dir_is_renamed_into_place_whole(tmp_path, monkeypatch):
    def no_replace(src, dst):
        raise OSError("os.replace called")

    monkeypatch.setattr(os, "replace", no_replace)
    out_dir = tmp_path / "a" / "out"
    write_files(str(out_dir), [("report.json", "{}\n"), (os.path.join("ccdf", "x.csv"), "x\n")])
    assert set(_all_files(out_dir)) == {"report.json", os.path.join("ccdf", "x.csv")}


def test_new_out_dir_has_the_mode_of_mkdir(tmp_path):
    def mode(path):
        return stat.S_IMODE(os.stat(path).st_mode)

    old = os.umask(0o022)
    try:
        os.mkdir(tmp_path / "plain")
        write_files(str(tmp_path / "out"), [(os.path.join("ccdf", "x.csv"), "x\n")])
    finally:
        os.umask(old)
    assert mode(tmp_path / "out") == mode(tmp_path / "plain") == 0o755
    assert mode(tmp_path / "out" / "ccdf") == 0o755


def test_subcommands_add_their_files_to_one_out_dir(tmp_path):
    prices, meta = synthetic_price_files(tmp_path)
    io_args = ["--prices", prices, "--metadata", meta]
    shared = tmp_path / "shared"
    shared.mkdir()
    (shared / "keep.txt").write_text("kept")
    expected = {"keep.txt": b"kept"}
    for cmd in ("tails", "spectrum"):
        assert cli_main([cmd, *io_args, "--out-dir", str(tmp_path / cmd)]) == 0
        expected.update({rel: _read_bytes(path)
                         for rel, path in _all_files(tmp_path / cmd).items()})
        assert cli_main([cmd, *io_args, "--out-dir", str(shared)]) == 0
    assert "rmt_bounds.json" in expected and "tail_fits.json" in expected
    assert {rel: _read_bytes(path) for rel, path in _all_files(shared).items()} == expected
    assert _staging_dirs(tmp_path) == []


def _first_assets(tmp_path, keep, last_code):
    """--prices and --metadata of synthetic_price_files' four assets, C00 to
    C03, with C03 renamed last_code, cut to the first `keep` assets."""
    folder = tmp_path / f"in{keep}"
    folder.mkdir()
    prices, meta = map(pathlib.Path, synthetic_price_files(folder))
    rows = prices.read_text(encoding="utf-8").replace("C03", last_code).splitlines()
    prices.write_text("".join(",".join(row.split(",")[:keep + 1]) + "\n" for row in rows),
                      encoding="utf-8")
    rows = meta.read_text(encoding="utf-8").replace("C03", last_code).splitlines()
    meta.write_text("".join(row + "\n" for row in rows[:keep + 1]), encoding="utf-8")
    return ["--prices", str(prices), "--metadata", str(meta)]


@pytest.mark.parametrize(
    "first, second, last_code",
    [((["report", "--surrogates", "1"], 4), (["report", "--surrogates", "1", "--c-th", "0.05"], 4),
      "C03"),
     ((["threshnet"], 4), (["threshnet", "--c-th", "0.05"], 4), "C03"),
     ((["report", "--surrogates", "1"], 4), (["report", "--surrogates", "1"], 3), "C03"),
     ((["report", "--surrogates", "1"], 4), (["report", "--surrogates", "1"], 3), ".C03"),
     ((["tails"], 4), (["tails"], 3), "C03")],
    ids=["report-swept-then-given-cutoff", "threshnet-swept-then-given-cutoff",
         "report-fewer-assets", "report-fewer-assets-dot-code", "tails-fewer-assets"],
)
def test_a_rerun_leaves_out_dir_as_a_fresh_run_does(tmp_path, first, second, last_code):
    """A rerun into one out_dir removes the files of the first run that its
    own file groups own and do not write (a sweep.csv for a given cutoff, the
    CCDF files of a dropped asset), and keeps every other file there."""
    inputs = {keep: _first_assets(tmp_path, keep, last_code) for keep in {first[1], second[1]}}

    def run(argv, keep, out_dir):
        assert cli_main([argv[0], *inputs[keep], "--out-dir", str(out_dir), *argv[1:]]) == 0

    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    rerun.mkdir()
    (rerun / "notes.txt").write_text("mine")
    run(*first, rerun)
    stale = set(_all_files(rerun))
    run(*second, rerun)
    run(*second, fresh)
    expected = {rel: _read_bytes(path) for rel, path in _all_files(fresh).items()}
    assert stale - set(expected) - {"notes.txt"}  # the first run wrote files the second does not
    assert ({rel: _read_bytes(path) for rel, path in _all_files(rerun).items()}
            == {**expected, "notes.txt": b"mine"})
    assert _staging_dirs(tmp_path) == []
