"""What the benchmark measures: workloads, metrics and the layer map.

`BENCHMARK.json` at the repository root is generated from this file:

    python3 perfbench/spec.py > BENCHMARK.json

and `perfbench/tests/test_perfbench_spec.py` checks that the two agree.
"""

from __future__ import annotations

import json

RUN_SECONDS = 25
FILL_LIMIT = 5  # fxnet's default forward-fill limit, which every job uses

# Input shape and job kind of each workload.  `report` jobs run
# `fxnet report` once; `stages` jobs run the seven single-stage subcommands.
WORKLOADS = {
    "paper": {
        "why": "74 assets x 6035 dates, fxnet report with 10 surrogates: the "
               "paper's shape, where tails, 11 eigensolves and 148 CCDF files dominate",
        "n_assets": 74, "n_dates": 6035, "n_groups": 4,
        "blank_frac": 0.0, "outages": 0,
        "job": "report", "surrogates": 10,
    },
    "wide": {
        "why": "250 assets x 751 dates, fxnet report --surrogates 1: N^2 and N^3 "
               "work (eigensolver, MST, threshold sweep, matrix export) dominates",
        "n_assets": 250, "n_dates": 751, "n_groups": 4,
        "blank_frac": 0.0, "outages": 0,
        "job": "report", "surrogates": 1,
    },
    "stages": {
        "why": "100 assets x 2500 dates with gaps and outages, run through the seven "
               "single-stage subcommands: forward-fill, date-drop and repeated parses",
        "n_assets": 100, "n_dates": 2500, "n_groups": 3,
        "blank_frac": 0.01, "outages": 4,
        "job": "stages", "surrogates": 0,
    },
}

# Subcommands of a `stages` job, in order, with their extra arguments.
STAGE_COMMANDS = (
    ("ingest", ()),
    ("returns", ()),
    ("tails", ()),
    ("spectrum", ()),
    ("decompose", ("--n-g", "auto")),
    ("mst", ()),
    ("threshnet", ("--n-g", "auto", "--c-th", "auto")),
)

END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
]

# Public functions of each module whose self time is reported by name.  Every
# other public function of a traced module is wrapped too; its self time goes
# into `<layer>.other.s`, so the self times always add up to the job time.
NAMED_FUNCTIONS = {
    "market_data": ("parse_price_panel",),
    "tails": ("fit_tail_exponent", "tail_survival"),
    "spectral": ("correlation_matrix", "eigendecompose", "shuffle_surrogate"),
    "modes": ("decompose_modes", "element_histogram"),
    "network": ("minimum_spanning_tree", "threshold_network", "cluster_report"),
    "report": (
        "export_json_report", "export_pajek", "export_graph_json",
        "export_histogram_csv", "export_ccdf_csv", "export_spectrum_csv",
        "export_eigenvectors_csv", "export_matrix_csv", "export_sweep_csv",
    ),
}
# Self times that several functions share a metric for.
GROUPED_FUNCTIONS = {
    "market_data.returns.s": ("compute_log_returns", "normalize_returns"),
}
CALL_COUNTS = (
    "market_data.parse_price_panel", "tails.fit_tail_exponent",
    "tails.tail_survival", "spectral.correlation_matrix",
    "spectral.eigendecompose", "spectral.shuffle_surrogate",
    "network.threshold_network", "network.cluster_report",
)
CLI_COMMANDS = tuple(name for name, _ in STAGE_COMMANDS) + ("report",)

# Per-layer metric -> (unit, better, what it is, end-to-end metric and
# workloads it should move).
_S = ("s", "lower")
_N = ("count", "lower")  # work done: fewer is better
_FACT = ("count", "higher")  # a property of the input; no better direction


def _layer_metrics() -> dict[str, tuple[str, str, str, str]]:
    m: dict[str, tuple[str, str, str, str]] = {}

    def add(name, kind, what, moves):
        m[name] = (*kind, what, moves)

    add("market_data.parse_price_panel.s", _S, "self time", "run_s on paper, stages")
    add("market_data.parse_price_panel.calls", _N, "calls", "run_s on stages")
    add("market_data.returns.s", _S, "self time of compute_log_returns and "
        "normalize_returns", "run_s on paper, stages")
    add("market_data.other.s", _S, "self time of other public functions", "run_s")
    add("market_data.dates_dropped", _FACT, "input dates minus panel dates", "none")
    add("market_data.cells_filled", _FACT, "blank cells on surviving dates", "none")
    add("tails.fit_tail_exponent.s", _S, "self time", "run_s on paper, stages")
    add("tails.fit_tail_exponent.calls", _N, "calls", "run_s on paper, stages")
    add("tails.tail_survival.s", _S, "self time", "run_s on paper, stages")
    add("tails.tail_survival.calls", _N, "calls", "run_s on paper, stages")
    add("tails.ccdf_points", _N, "points returned by tail_survival", "none")
    add("tails.other.s", _S, "self time of other public functions", "run_s")
    add("spectral.correlation_matrix.s", _S, "self time", "run_s on wide, paper")
    add("spectral.correlation_matrix.calls", _N, "calls", "run_s on wide, paper")
    add("spectral.eigendecompose.s", _S, "self time", "run_s on wide, paper")
    add("spectral.eigendecompose.calls", _N, "calls", "run_s on wide, paper")
    add("spectral.shuffle_surrogate.s", _S, "self time", "run_s, peak_rss_mb on paper")
    add("spectral.shuffle_surrogate.calls", _N, "calls", "run_s on paper")
    add("spectral.other.s", _S, "self time of other public functions", "run_s")
    m["spectral.eig_residual"] = ("1", "lower", "max |Cu - lambda u| over unit "
                                  "eigenvectors read back from the CSVs", "none")
    m["spectral.bulk_fraction"] = ("ratio", "higher", "surrogate eigenvalues inside "
                                   "the random bulk (0 without surrogates)", "none")
    add("modes.decompose_modes.s", _S, "self time", "run_s on wide")
    add("modes.element_histogram.s", _S, "self time", "run_s on wide")
    add("modes.other.s", _S, "self time of other public functions", "run_s")
    add("modes.n_g_auto", _FACT, "eigenvalues above the bulk edge, leading excluded", "none")
    add("network.minimum_spanning_tree.s", _S, "self time", "run_s on wide")
    add("network.mst_candidates", _N, "candidate pairs the MST sorts", "run_s on wide")
    add("network.threshold_sweep.s", _S, "inclusive time (not part of the self-time "
        "sum)", "run_s on wide")
    add("network.threshold_network.s", _S, "self time", "run_s on wide")
    add("network.threshold_network.calls", _N, "calls", "run_s on wide")
    add("network.cluster_report.s", _S, "self time", "run_s on wide")
    add("network.cluster_report.calls", _N, "calls", "run_s on wide")
    add("network.other.s", _S, "self time of other public functions, "
        "threshold_sweep's own included", "run_s on wide")
    for fn in NAMED_FUNCTIONS["report"]:
        add(f"report.{fn}.s", _S, "self time", "run_s on paper (CCDF), wide (matrices)")
    add("report.export.s", _S, "sum of the export_* self times (not part of the "
        "self-time sum)", "run_s on paper, wide")
    add("report.files_written", _N, "files in the output directories", "none")
    add("report.bytes_written", ("bytes", "lower"), "bytes in the output "
        "directories", "none")
    add("report.run_pipeline.self_s", _S, "run_pipeline time no wrapped call covers",
        "run_s on paper, wide")
    add("report.other.s", _S, "self time of other public functions", "run_s")
    for cmd in CLI_COMMANDS:
        add(f"cli.{cmd}.s", _S, f"self time of `fxnet {cmd}` (argument parsing, its "
            "own formatting and writes)", "run_s on " + ("paper, wide" if cmd == "report"
                                                         else "stages"))
    add("setup.import.numpy_s", _S, "cumulative import time of numpy", "setup_s")
    add("setup.import.scipy_s", _S, "cumulative import time of scipy", "setup_s")
    add("setup.import.fxnet_s", _S, "import time of fxnet without numpy and scipy",
        "setup_s")
    add("trace.harness_s", _S, "job time no fxnet span covers (the benchmark's "
        "own loop between subcommands)", "none")
    add("trace.run_s", _S, "mean traced job time", "none")
    add("trace.self_sum_s", _S, "sum of every span's self time per job; equals "
        "trace.run_s", "none")
    add("trace.overhead_s", ("s", "lower"), "traced run_s minus untraced run_s", "none")
    return m


LAYER_METRICS = _layer_metrics()
UNITS = {m["name"]: m["unit"] for m in END_TO_END} | {
    name: unit for name, (unit, *_) in LAYER_METRICS.items()}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": n, "unit": unit, "better": better}
            for n, (unit, better, _, _) in LAYER_METRICS.items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
