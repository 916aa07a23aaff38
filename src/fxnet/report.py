"""Pipeline stages, their orchestration and the serialization of all artifacts.

Each stage function raises StageError naming its stage. `run_pipeline` calls
them in order; the `fxnet` subcommands call the ones their files need.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import market_data, modes, network, spectral, tails
from .market_data import AssetMeta, PricePanel, ReturnPanel
from .modes import ModeDecomposition
from .network import ClusterReport, Graph, SweepResult
from .spectral import CorrelationMatrix, RmtBounds, SpectralDecomposition

SCHEMA_VERSION = 1
BULK_MARGIN = 0.05
DEFAULT_SURROGATES = 10
DEFAULT_SEED = 20120430
THRESHOLD_GRID_POINTS = 40
HISTOGRAM_BINS = 51


class StageError(RuntimeError):
    """Pipeline failure attributed to a named stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    prices_path: str
    metadata_path: str
    out_dir: str
    delta: int = 1
    fill_limit: int = market_data.DEFAULT_FILL_LIMIT
    tail_fraction: float = tails.DEFAULT_TAIL_FRACTION
    n_g: int | str = modes.DEFAULT_N_GROUP  # integer or "auto"
    c_th: float | str = "auto"  # real or "auto" (grid sweep)
    surrogates: int = DEFAULT_SURROGATES
    seed: int = DEFAULT_SEED
    hub_sigma: float = network.DEFAULT_HUB_SIGMA


@dataclass
class AnalysisReport:
    payload: dict[str, Any]

    @property
    def seed(self) -> int:
        return self.payload["config"]["seed"]


# ---------------------------------------------------------------------------
# serialization helpers

def _round_floats(obj: Any) -> Any:
    """Limit reals to 12 significant digits for stable, compact JSON."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _label(text: str) -> str:
    """A label cell, quoted the CSV way if it holds a comma, quote or line break."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """LF-terminated CSV. A str cell is a label (see `_label`); any other cell
    is a number printed to 12 significant digits. Every row has the cell
    kinds of the first."""
    lines = [",".join(map(_label, header))]
    fmt, labels = None, []
    for row in rows:
        if fmt is None:
            labels = [k for k, cell in enumerate(row) if isinstance(cell, str)]
            fmt = ",".join("%s" if isinstance(cell, str) else "%.12g" for cell in row)
        if labels:
            row = list(row)
            for k in labels:
                row[k] = _label(row[k])
        lines.append(fmt % tuple(row))
    return "\n".join(lines) + "\n"


def export_json_report(payload: dict[str, Any]) -> str:
    """JSON with sorted keys and 12-significant-digit reals; a NaN or infinite
    real is a ValueError, since JSON has no token for it."""
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def export_pajek(g: Graph) -> str:
    """Pajek .net file: vertex list in panel order, then the weighted edges
    with 1-based endpoints and 6-decimal weights. A label is written inside
    double quotes with `\\` and `"` backslash-escaped, so that a shell-style
    split (the rule Pajek readers such as networkx use) gives the code back."""
    lines = [f"*Vertices {g.n_nodes}"]
    for idx, meta in enumerate(g.assets):
        label = meta.code.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'{idx + 1} "{label}"')
    lines.append("*Edges")
    for i, j, w in g.edges:
        lines.append(f"{i + 1} {j + 1} {w:.6f}")
    return "\n".join(lines) + "\n"


# one edge of a graph's JSON in export_json_report's layout: json.dumps runs
# its pure-Python encoder when given an indent, so the edges are printed here
_EDGE = "    [\n      %d,\n      %d,\n      %r\n    ]"


def export_graph_json(g: Graph) -> str:
    """The text of `export_json_report` of the graph's nodes and edges (each
    edge an [i, j, weight] list), its edges printed by `_EDGE`."""
    text = export_json_report({
        "schema_version": SCHEMA_VERSION,
        "kind": g.kind,
        "nodes": [
            {
                "index": idx,
                "code": meta.code,
                "name": meta.name,
                "market_class": meta.market_class,
                "region": meta.region,
            }
            for idx, meta in enumerate(g.assets)
        ],
        "edges": [],
    })
    if not g.edges:
        return text
    weights = [float("%.12g" % w) for _, _, w in g.edges]
    if not all(map(math.isfinite, weights)):
        raise ValueError("a non-finite edge weight has no JSON token")
    edges = ",\n".join([_EDGE % (i, j, w) for (i, j, _), w in zip(g.edges, weights)])
    # "edges" is the first of the sorted keys
    return text.replace('"edges": []', '"edges": [\n' + edges + "\n  ]", 1)


def export_histogram_csv(histograms: dict[str, list[tuple[float, float]]]) -> str:
    """`bin_center,density,component` rows of each component's histogram."""
    rows = [(c, d, name) for name, hist in histograms.items() for c, d in hist]
    return _csv(["bin_center", "density", "component"], rows)


def export_ccdf_csv(mags: Sequence[str], counts: np.ndarray, column: np.ndarray) -> str:
    """`x,ccdf` rows of one tail's CCDF in ascending x > 0. Row j prints x as
    mags[j], then column[counts[j]], the `,P(X > x)` line end of its count of
    samples beyond x. Equal to `_csv` of the (x, P(X > x)) pairs with x > 0 of
    that tail from `tails.survival_counts`, as `oracles.tail_survival_loop`
    counts them."""
    cells = [""] * (2 * len(mags))
    cells[0::2] = mags
    cells[1::2] = column[counts].tolist()
    return "x,ccdf\n" + "".join(cells)


def export_spectrum_csv(sd: SpectralDecomposition) -> str:
    return _csv(["index", "eigenvalue"], enumerate(sd.eigenvalues.tolist()))


def export_eigenvectors_csv(sd: SpectralDecomposition, assets: tuple[AssetMeta, ...]) -> str:
    rows = [(j, *u) for j, u in enumerate(sd.eigenvectors.tolist())]
    return _csv(["index", *(a.code for a in assets)], rows)


def export_matrix_csv(m: np.ndarray, assets: tuple[AssetMeta, ...]) -> str:
    rows = [(a.code, *r) for a, r in zip(assets, np.asarray(m).tolist())]
    return _csv(["code", *(a.code for a in assets)], rows)


def export_sweep_csv(sweep: SweepResult) -> str:
    rows = [
        (e.c_th, e.n_active, e.n_components, e.clustered, ";".join(map(str, e.sizes)))
        for e in sweep.entries
    ]
    return _csv(["c_th", "n_active", "n_components", "clustered", "sizes"], rows)


# ---------------------------------------------------------------------------
# groups of output files: each yields (path relative to out_dir, text) pairs
# for write_files, formatting a file only when asked for it

Files = Iterator[tuple[str, str]]


def json_file(rel: str, payload: dict[str, Any]) -> Files:
    yield rel, export_json_report(payload)


def returns_files(rp: ReturnPanel) -> Files:
    codes = [a.code for a in rp.assets]
    rows = ((c, *r.tolist()) for c, r in zip(codes, rp.returns))
    yield "returns.csv", _csv(["code", *(f"t{k}" for k in range(rp.n_steps))], rows)
    yield "sigma.csv", _csv(["code", "sigma"], zip(codes, rp.sigma.tolist()))


def ccdf_files(rp: ReturnPanel, template: str) -> Files:
    """The empirical CCDF of each tail of each asset, one file per series,
    at template.format(f"{code}_{side}"), in rows x > 0 only.

    Of a series' unique values u, the positive file takes x = u for u > 0 and
    the negative file x = -u for u < 0, each without its largest x, which has
    no sample beyond it. Every x of the series is printed once, `%.12g`, in
    one `%`. Every series has n = rp.n_steps samples, so the ccdf column is
    printed once, for each count k < n."""
    n = rp.n_steps
    column = np.array([",%.12g\n" % (k / n) for k in range(n)], dtype=object)
    for meta, row in zip(rp.assets, rp.returns):
        values, greater, less = tails.survival_counts(row)
        neg = np.searchsorted(values, 0.0, "left")  # values[:neg] < 0
        pos = np.searchsorted(values, 0.0, "right")  # values[pos:] > 0
        # values[1:neg][::-1], not values[neg-1:0:-1], which wraps round at neg == 0
        x = np.concatenate([-values[1:neg][::-1], values[pos:-1]])
        mags = ("%.12g " * x.size % tuple(x.tolist())).split()
        m = max(neg - 1, 0)
        yield (template.format(f"{meta.code}_positive"),
               export_ccdf_csv(mags[m:], greater[pos:-1], column))
        yield (template.format(f"{meta.code}_negative"),
               export_ccdf_csv(mags[:m], less[1:neg][::-1], column))


def spectrum_files(
    assets: tuple[AssetMeta, ...], cm: CorrelationMatrix, sd: SpectralDecomposition
) -> Files:
    yield "spectrum.csv", export_spectrum_csv(sd)
    yield "eigenvectors.csv", export_eigenvectors_csv(sd, assets)
    yield "correlation.csv", export_matrix_csv(cm.values, assets)


def modes_files(
    assets: tuple[AssetMeta, ...],
    md: ModeDecomposition,
    hists: dict[str, list[tuple[float, float]]],
) -> Files:
    for part in ("global", "group", "random"):
        yield f"c_{part}.csv", export_matrix_csv(getattr(md, f"c_{part}"), assets)
    yield "histograms.csv", export_histogram_csv(hists)


def graph_files(g: Graph, sweep: SweepResult | None = None) -> Files:
    """`<kind>.net` and `<kind>.json`, plus `sweep.csv` for a swept cutoff."""
    yield f"{g.kind}.net", export_pajek(g)
    yield f"{g.kind}.json", export_graph_json(g)
    if sweep is not None:
        yield "sweep.csv", export_sweep_csv(sweep)


# ---------------------------------------------------------------------------
# stages

def _stage(name: str):
    """Decorator: any failure inside the function is raised as StageError(name)."""

    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except Exception as exc:
                raise StageError(name, exc) from exc

        return run

    return decorate


def check_settings(cfg: PipelineConfig) -> None:
    """Raise, before any data is read, the StageError, with its text, that a
    later stage would raise for a setting of `cfg` whose validity does not
    depend on the data. A value of another type, such as "auto", is left to
    the stage that uses it."""
    for stage, bad, message in (
        ("ingest", isinstance(cfg.fill_limit, int) and cfg.fill_limit < 0,
         f"fill_limit must be >= 0, got {cfg.fill_limit}"),
        ("returns", isinstance(cfg.delta, int) and cfg.delta < 1,
         f"delta must be >= 1, got {cfg.delta}"),
        ("tails", isinstance(cfg.tail_fraction, (int, float))
         and not 0 < cfg.tail_fraction <= 0.5,
         f"tail_fraction must be in (0, 0.5], got {cfg.tail_fraction}"),
        ("surrogates", isinstance(cfg.seed, int) and cfg.seed < 0,
         f"seed must be >= 0, got {cfg.seed}"),
        ("surrogates", isinstance(cfg.surrogates, int) and cfg.surrogates < 0,
         f"surrogates must be >= 0, got {cfg.surrogates}"),
        ("decomposition", isinstance(cfg.n_g, int) and cfg.n_g < 0,
         f"n_g must be >= 0, got {cfg.n_g}"),
        ("network", isinstance(cfg.hub_sigma, float) and not math.isfinite(cfg.hub_sigma),
         f"hub_sigma must be finite, got {cfg.hub_sigma}"),
        ("network", isinstance(cfg.c_th, float) and not math.isfinite(cfg.c_th),
         f"threshold c_th must be finite, got {cfg.c_th}"),
    ):
        if bad:
            raise StageError(stage, ValueError(message))


@_stage("ingest")
def read_panel(prices_path: str, metadata_path: str, fill_limit: int) -> PricePanel:
    with open(prices_path, "r", encoding="utf-8-sig") as fh:
        raw_prices = fh.read()
    with open(metadata_path, "r", encoding="utf-8-sig") as fh:
        raw_meta = fh.read()
    return market_data.parse_price_panel(raw_prices, raw_meta, fill_limit)


@_stage("returns")
def panel_returns(panel: PricePanel, delta: int) -> ReturnPanel:
    return market_data.compute_log_returns(panel, delta)


@_stage("tails")
def fit_tails(rp: ReturnPanel, tail_fraction: float) -> list[dict[str, Any]]:
    """Per asset: its code and, under each side, the Hill fit of that tail."""
    records = []
    for meta, row in zip(rp.assets, rp.returns):
        record: dict[str, Any] = {"code": meta.code}
        for side in tails.SIDES:
            fit = tails.fit_tail_exponent(row, side, tail_fraction)
            record[side] = {
                "alpha": fit.alpha,
                "tail_fraction": fit.tail_fraction,
                "k": fit.k,
                "x_min": fit.x_min,
            }
        records.append(record)
    return records


@_stage("correlation")
def correlate(rp: ReturnPanel) -> CorrelationMatrix:
    return spectral.correlation_matrix(rp)


@_stage("spectrum")
def spectrum(cm: CorrelationMatrix, n_steps: int) -> tuple[SpectralDecomposition, RmtBounds]:
    return spectral.eigendecompose(cm), spectral.rmt_bounds(cm.size, n_steps)


@_stage("surrogates")
def surrogate_stats(rp: ReturnPanel, bounds: RmtBounds, seed: int, count: int) -> dict[str, Any]:
    lo = bounds.lambda_min - BULK_MARGIN
    hi = bounds.lambda_max + BULK_MARGIN
    all_vals: list[np.ndarray] = []
    pooled: list[np.ndarray] = []
    for s in spectral.derive_seeds(seed, count):
        surrogate = spectral.shuffle_surrogate(rp, s)
        ssd = spectral.eigendecompose(spectral.correlation_matrix(surrogate))
        lam = ssd.eigenvalues
        all_vals.append(lam)
        pooled.append(ssd.eigenvectors[(lam >= lo) & (lam <= hi)].ravel())
    if not all_vals:
        return {"count": 0, "seed": seed}
    vals = np.concatenate(all_vals)
    components = np.concatenate(pooled)
    ks = spectral.normal_ks_statistic(components) if components.size else None
    return {
        "count": count,
        "seed": seed,
        "bulk_low": lo,
        "bulk_high": hi,
        "bulk_fraction": float(np.mean((vals >= lo) & (vals <= hi))),
        "ks_statistic": ks,
    }


@_stage("decomposition")
def decompose(
    sd: SpectralDecomposition, bounds: RmtBounds, n_g: int | str
) -> tuple[ModeDecomposition, int]:
    """The global/group/random split and select_ng's count. n_g is "auto"
    (that count) or an integer, capped at N - 1 so that the default of 6
    still works on small panels."""
    n_g_auto = modes.select_ng(sd, bounds)
    n_g_used = n_g_auto if n_g == "auto" else min(int(n_g), sd.size - 1)
    return modes.decompose_modes(sd, n_g_used), n_g_auto


def _parts(cm: CorrelationMatrix, md: ModeDecomposition) -> dict[str, np.ndarray]:
    return {"full": cm.values, "global": md.c_global, "group": md.c_group, "random": md.c_random}


@_stage("decomposition")
def histograms(
    cm: CorrelationMatrix, md: ModeDecomposition
) -> dict[str, list[tuple[float, float]]]:
    """Element histograms of C and of each of its three parts."""
    return {
        name: modes.element_histogram(m, HISTOGRAM_BINS) for name, m in _parts(cm, md).items()
    }


def default_threshold_grid(c_group: np.ndarray) -> np.ndarray:
    """Evenly spaced cutoffs from just above 0 up to the largest off-diagonal
    element (where the network empties out)."""
    n = c_group.shape[0]
    off = c_group[np.triu_indices(n, k=1)]
    top = float(off.max())
    if top <= 0:
        return np.array([0.0])
    return np.linspace(0.0, top, THRESHOLD_GRID_POINTS + 1)[1:]


@_stage("network")
def build_mst(
    cm: CorrelationMatrix, assets: tuple[AssetMeta, ...], hub_sigma: float
) -> tuple[Graph, ClusterReport]:
    mst = network.minimum_spanning_tree(network.mantegna_distance(cm), assets)
    return mst, network.cluster_report(mst, hub_sigma)


@_stage("network")
def build_threshold(
    c_group: np.ndarray, assets: tuple[AssetMeta, ...], c_th: float | str, hub_sigma: float
) -> tuple[Graph, ClusterReport, SweepResult | None, float]:
    """The threshold network at c_th, a real or "auto" (the recommended cutoff
    of a sweep over default_threshold_grid), its report, the sweep (None for
    a given cutoff) and the cutoff used."""
    sweep = None
    if c_th == "auto":
        sweep = network.threshold_sweep(c_group, default_threshold_grid(c_group), assets)
        c_th = sweep.recommended
    tnet = network.threshold_network(c_group, float(c_th), assets)
    return tnet, network.cluster_report(tnet, hub_sigma), sweep, float(c_th)


@_stage("export")
def write_files(out_dir: str, files: Iterable[tuple[str, str]]) -> None:
    """Write the text of each (rel, text) pair of `files` to out_dir/rel.

    Every file is written under a staging directory `.fxnet-*` (inside out_dir
    if it exists, else in its nearest existing ancestor) before any reaches
    out_dir: a new out_dir is renamed into place whole, and an existing one
    gets each file by os.replace, keeping the files it already holds. On a
    failure the staging directory goes and out_dir stays as it was; a killed
    run can leave the staging directory behind.
    """
    out_dir = os.path.abspath(out_dir)
    base = out_dir
    while not os.path.isdir(base):
        base = os.path.dirname(base)
    tmp = tempfile.mkdtemp(prefix=".fxnet-", dir=base)
    try:
        stage = os.path.join(tmp, "out")
        os.mkdir(stage)  # not mkdtemp's 0700: a new out_dir keeps the umask's mode
        for rel, text in files:
            path = os.path.normpath(os.path.join(stage, rel))
            if not path.startswith(stage + os.sep):  # rel comes from asset codes
                raise ValueError(f"output path {rel!r} leaves the output directory")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            del text  # hold one file's text at a time, not also while the next is formatted
        if os.path.isdir(out_dir):
            for dirpath, _, names in os.walk(stage):
                dest = os.path.join(out_dir, os.path.relpath(dirpath, stage))
                os.makedirs(dest, exist_ok=True)
                for name in names:
                    os.replace(os.path.join(dirpath, name), os.path.join(dest, name))
        else:
            os.makedirs(os.path.dirname(out_dir), exist_ok=True)
            os.rename(stage, out_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# pipeline

def _cluster_summary(report: ClusterReport, g: Graph) -> dict[str, Any]:
    codes = [meta.code for meta in g.assets]
    return {
        "n_edges": len(g.edges),
        "total_weight": float(sum(w for _, _, w in g.edges)),
        "components": [
            {"size": len(c), "nodes": [codes[i] for i in c]} for c in report.components
        ],
        "isolated": [codes[i] for i in report.isolated],
        "hubs": [{"code": codes[i], "degree": d} for i, d in report.hubs],
    }


def _element_stats(m: np.ndarray) -> dict[str, float]:
    n = m.shape[0]
    vals = m[np.triu_indices(n, k=1)]
    return {
        "mean": float(vals.mean()),
        "std": float(vals.std()),
        "min": float(vals.min()),
        "max": float(vals.max()),
    }


def run_pipeline(cfg: PipelineConfig) -> AnalysisReport:
    """Execute the full analysis and write every artifact under cfg.out_dir.

    Any stage failure raises StageError naming the stage; a failed run
    writes nothing to cfg.out_dir (see write_files). Settings that are bad
    whatever the data fail before the data is read (see check_settings).
    """
    check_settings(cfg)
    panel = read_panel(cfg.prices_path, cfg.metadata_path, cfg.fill_limit)
    rp = panel_returns(panel, cfg.delta)
    tail_fits = fit_tails(rp, cfg.tail_fraction)
    cm = correlate(rp)
    sd, bounds = spectrum(cm, rp.n_steps)
    surrogate_summary = surrogate_stats(rp, bounds, cfg.seed, cfg.surrogates)
    md, n_g_auto = decompose(sd, bounds, cfg.n_g)
    hists = histograms(cm, md)
    mst, mst_report = build_mst(cm, rp.assets, cfg.hub_sigma)
    tnet, tnet_report, sweep, c_th_used = build_threshold(
        md.c_group, rp.assets, cfg.c_th, cfg.hub_sigma
    )

    u0 = sd.eigenvectors[0]
    leading_mode = [
        {
            "code": meta.code,
            "component": float(u0[i]),
            "sign": 1 if u0[i] >= 0 else -1,
            "market_class": meta.market_class,
        }
        for i, meta in enumerate(rp.assets)
    ]

    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "config": dataclasses.asdict(cfg),
        "panel": {
            "n_assets": rp.n_assets,
            "n_dates": panel.n_dates,
            "n_steps": rp.n_steps,
            "codes": [a.code for a in rp.assets],
            "first_date": panel.dates[0].isoformat(),
            "last_date": panel.dates[-1].isoformat(),
        },
        "tail_fits": tail_fits,
        "spectrum": {
            "eigenvalues": [float(x) for x in sd.eigenvalues],
            "rmt": dataclasses.asdict(bounds),
        },
        "leading_mode": leading_mode,
        "surrogates": surrogate_summary,
        "modes": {
            "n_g_used": md.n_g,
            "n_g_auto": n_g_auto,
            "element_stats": {k: _element_stats(v) for k, v in _parts(cm, md).items()},
        },
        "graphs": {
            "mst": _cluster_summary(mst_report, mst),
            "threshold": {
                "c_th": c_th_used,
                "recommended": sweep.recommended if sweep is not None else None,
                **_cluster_summary(tnet_report, tnet),
            },
        },
    }
    write_files(cfg.out_dir, itertools.chain(
        json_file("report.json", payload),
        spectrum_files(rp.assets, cm, sd),
        modes_files(rp.assets, md, hists),
        graph_files(mst),
        graph_files(tnet, sweep),
        ccdf_files(rp, os.path.join("ccdf", "{}.csv")),
    ))
    return AnalysisReport(payload=payload)
