import ast
import codecs
import dataclasses
import gc
import json
import os
import pathlib
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_assets, planted_price_files, synthetic_price_files
from fxnet import report, spectral
from fxnet.cli import main as cli_main
from fxnet.market_data import ReturnPanel
from fxnet.network import Graph
from fxnet.report import (
    AnalysisReport,
    PipelineConfig,
    StageError,
    _csv,
    export_graph_json,
    export_histogram_csv,
    export_json_report,
    export_pajek,
    read_panel,
    returns_files,
    run_pipeline,
    write_files,
)
from oracles import graph_json_by_json_dumps, read_json_report, read_pajek


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
    def test_empty_dict_header_only(self):
        assert export_histogram_csv({}) == "bin_center,density,component\n"

    def test_reread_density_normalized(self, rng):
        from fxnet.modes import element_histogram

        m = rng.standard_normal((12, 12))
        m = (m + m.T) / 2
        hist = element_histogram(m, bins=21)
        text = export_histogram_csv({"full": hist})
        rows = [line.split(",") for line in text.splitlines()[1:]]
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
        rep, _ = completed
        payload = rep.payload
        assert payload["panel"]["n_assets"] == 4
        assert len(payload["tail_fits"]) == 4
        for record in payload["tail_fits"]:
            assert set(record) == {"code", "positive", "negative"}
            assert record["positive"]["alpha"] > 0
        assert len(payload["spectrum"]["eigenvalues"]) == 4
        assert payload["graphs"]["mst"]["n_edges"] == 3
        assert payload["modes"]["n_g_used"] == 3  # default 6 capped at N - 1

    def test_report_json_matches_payload(self, completed):
        rep, out_dir = completed
        on_disk = read_json_report(os.path.join(out_dir, "report.json"))
        assert on_disk["panel"] == rep.payload["panel"]
        assert on_disk["config"]["seed"] == rep.seed

    def test_surrogate_summary(self, completed):
        rep, _ = completed
        surrogates = rep.payload["surrogates"]
        assert surrogates["count"] == 3
        assert 0.0 <= surrogates["bulk_fraction"] <= 1.0

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
        assert rep.payload["modes"]["n_g_auto"] == 2
        assert rep.payload["modes"]["n_g_used"] == 2

    def test_explicit_threshold_skips_sweep(self, tmp_path):
        prices, meta = synthetic_price_files(tmp_path)
        out_dir = str(tmp_path / "out")
        cfg = PipelineConfig(
            prices_path=prices, metadata_path=meta, out_dir=out_dir,
            c_th=0.05, surrogates=2,
        )
        rep = run_pipeline(cfg)
        assert rep.payload["graphs"]["threshold"]["c_th"] == 0.05
        assert rep.payload["graphs"]["threshold"]["recommended"] is None
        assert not os.path.exists(os.path.join(out_dir, "sweep.csv"))


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
        assert len(fits) == 8
        assert "wrote 8 tail fits" in capsys.readouterr().out

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

    def test_default_ng_capped_like_report(self, inputs, capsys):
        # the default --n-g 6 exceeds N - 1 = 3 on this 4-asset panel
        prices, meta, tmp_path = inputs
        dirs = {cmd: str(tmp_path / cmd) for cmd in ("decompose", "threshnet", "report")}
        for cmd, out_dir in dirs.items():
            extra = ["--surrogates", "1"] if cmd == "report" else []
            assert cli_main([cmd] + self.base(prices, meta) +
                            ["--out-dir", out_dir] + extra) == 0, cmd
        assert "n_g=3" in capsys.readouterr().out
        with open(os.path.join(dirs["decompose"], "c_group.csv"), "rb") as fh:
            from_decompose = fh.read()
        with open(os.path.join(dirs["report"], "c_group.csv"), "rb") as fh:
            assert fh.read() == from_decompose

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

    def test_shared_files_byte_identical(self, tmp_path, capsys):
        prices, meta = synthetic_price_files(tmp_path)
        io_args = ["--prices", prices, "--metadata", meta]
        rep_dir = str(tmp_path / "report")
        assert cli_main(["report", *io_args, "--out-dir", rep_dir,
                         "--surrogates", "1"]) == 0
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


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--surrogates", "1", "--c-th", "nan"],
        ["report", "--surrogates", "1", "--c-th=inf"],
        ["report", "--surrogates", "1", "--c-th=-inf"],
        ["report", "--surrogates", "1", "--hub-sigma", "nan"],
        ["threshnet", "--c-th", "nan"],
        ["threshnet", "--hub-sigma=inf"],
        ["mst", "--hub-sigma", "nan"],
        ["mst", "--hub-sigma=-inf"],
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
        (["report", "--hub-sigma=-inf"], "network", "hub_sigma must be finite, got -inf"),
        (["report", "--n-g", "-1"], "decomposition", "n_g must be >= 0, got -1"),
        (["report", "--surrogates", "-1"], "surrogates", "surrogates must be >= 0, got -1"),
        (["report", "--seed", "-1"], "surrogates", "seed must be >= 0, got -1"),
        (["threshnet", "--c-th=inf"], "network", "threshold c_th must be finite, got inf"),
        (["threshnet", "--n-g", "-2"], "decomposition", "n_g must be >= 0, got -2"),
        (["decompose", "--n-g", "-1"], "decomposition", "n_g must be >= 0, got -1"),
        (["mst", "--hub-sigma", "nan"], "network", "hub_sigma must be finite, got nan"),
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
    """Formatting `returns.csv` of a 100 x 2499 panel allocates at most 4 times
    the file's length at its peak: the rows become Python floats one at a
    time, not the whole matrix at once."""
    rp = ReturnPanel(assets=make_assets(100), returns=rng.standard_normal((100, 2499)),
                     sigma=np.ones(100))
    length = len(dict(returns_files(rp))["returns.csv"])
    gc.collect()
    tracemalloc.start()
    try:
        dict(returns_files(rp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * length


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
    code = ("import sys, fxnet, fxnet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
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
