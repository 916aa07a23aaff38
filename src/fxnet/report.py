"""Pipeline stages, their orchestration and the serialization of all artifacts.

Each stage function raises StageError naming its stage. `run_pipeline` calls
them in order; the `fxnet` subcommands call the ones their files need.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import functools
import itertools
import json
import math
import os
import re
import shutil
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import market_data, modes, network, spectral, tails
from .market_data import AssetMeta, PricePanel, ReturnPanel
from .modes import ModeDecomposition
from .network import ClusterReport, Graph, SweepResult
from .spectral import RmtBounds, SpectralDecomposition

SCHEMA_VERSION = 1
BULK_MARGIN = 0.05
DEFAULT_SURROGATES = 10
DEFAULT_SEED = 20120430


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


def export_matrix_csv(m: np.ndarray, assets: tuple[AssetMeta, ...], columns: Iterable[str]) -> str:
    """A table with one row per asset, labelled by its code, under the header
    `code,<columns>`. Each row becomes Python floats only when it is printed."""
    rows = ((a.code, *r.tolist()) for a, r in zip(assets, m))
    return _csv(["code", *columns], rows)


# ---------------------------------------------------------------------------
# groups of output files for write_files: each yields (path relative to out_dir, text)
# pairs, formatting a file only when asked for it, and (pattern, None) for names it owns

Files = Iterator[tuple[str, str | None]]


def json_file(rel: str, payload: dict[str, Any]) -> Files:
    yield rel, export_json_report(payload)


def returns_files(rp: ReturnPanel) -> Files:
    yield "returns.csv", export_matrix_csv(rp.returns, rp.assets,
                                           (f"t{k}" for k in range(rp.n_steps)))
    yield "sigma.csv", export_matrix_csv(rp.sigma[:, None], rp.assets, ["sigma"])


def ccdf_files(rp: ReturnPanel, template: str) -> Files:
    """The empirical CCDF of each tail of each asset, one file per series,
    at template.format(f"{code}_{side}"): `x,ccdf` rows of P(X > x) for each
    distinct x of the side's samples, x = r for r > 0 or x = -r for r < 0,
    in ascending x and without the largest, which has no sample beyond it.

    Every series has n = rp.n_steps samples, so the ccdf column is printed
    once, for each count k < n; each file is printed in one `%`."""
    n = rp.n_steps
    column = np.array([",%.12g\n" % (k / n) for k in range(n)], dtype=object)
    yield template.format("*"), None
    for meta, row in zip(rp.assets, rp.returns):
        for side, x in (("positive", row[row > 0]), ("negative", -row[row < 0])):
            x.sort()  # boolean indexing made a copy: rp stays as it was
            # the last index of each run of equal x but the largest run;
            # x.size - 1 - last samples lie beyond it
            last = np.flatnonzero(x[1:] != x[:-1])
            cells = [None] * (2 * last.size)
            cells[0::2] = x[last].tolist()
            cells[1::2] = column[x.size - 1 - last].tolist()
            yield (template.format(f"{meta.code}_{side}"),
                   "x,ccdf\n" + "%.12g%s" * last.size % tuple(cells))


def spectrum_files(
    assets: tuple[AssetMeta, ...], c: np.ndarray, sd: SpectralDecomposition
) -> Files:
    codes = [a.code for a in assets]
    yield "spectrum.csv", _csv(["index", "eigenvalue"], enumerate(sd.eigenvalues.tolist()))
    yield "eigenvectors.csv", _csv(["index", *codes],
                                   ((j, *u.tolist()) for j, u in enumerate(sd.eigenvectors)))
    yield "correlation.csv", export_matrix_csv(c, assets, codes)


def _parts(c: np.ndarray, md: ModeDecomposition) -> dict[str, np.ndarray]:
    return {"full": c, "global": md.c_global, "group": md.c_group, "random": md.c_random}


def modes_files(assets: tuple[AssetMeta, ...], c: np.ndarray, md: ModeDecomposition) -> Files:
    """The three parts of C, and the element histogram of C and of each part."""
    codes = [a.code for a in assets]
    for part in ("global", "group", "random"):
        yield f"c_{part}.csv", export_matrix_csv(getattr(md, f"c_{part}"), assets, codes)
    yield "histograms.csv", _csv(["bin_center", "density", "component"], [
        (x, d, name) for name, m in _parts(c, md).items()
        for x, d in modes.element_histogram(m)])


def graph_files(g: Graph, sweep: SweepResult | None = None) -> Files:
    """`<kind>.net` and `<kind>.json`, and for a threshold network `sweep.csv`, if swept."""
    yield f"{g.kind}.net", export_pajek(g)
    yield f"{g.kind}.json", export_graph_json(g)
    if g.kind == "threshold":
        yield "sweep.csv", None if sweep is None else _csv(
            ["c_th", "n_active", "n_components", "clustered", "sizes"],
            [(e.c_th, e.n_active, e.n_components, e.clustered, ";".join(map(str, e.sizes)))
             for e in sweep.entries])


# ---------------------------------------------------------------------------
# stages

def _stage(name: str):
    """Decorator: any failure inside the function is raised as StageError(name),
    and numpy's OpenBLAS runs on one thread while it runs, so that the results
    do not depend on the caller's BLAS thread count."""

    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                with spectral._one_blas_thread():
                    return fn(*args, **kwargs)
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


def _read_text(path: str, inputs: dict[str, Any] | None, key: str) -> str:
    """The text of the file at `path`, decoded as `open(path, encoding=
    "utf-8-sig")` reads it, or a PanelError naming `key` and the line of the
    first byte that is not UTF-8; if `inputs` is a dict, inputs[key] gets the
    sha256 and length of its bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if inputs is not None:
        import hashlib  # only when hashing: loading OpenSSL takes a few ms of every import

        inputs[key] = {"sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw)}
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is raw without its byte-order mark
        line = len(re.split(rb"\r\n|\r|\n", exc.object[:exc.start]))
        raise market_data.PanelError(f"{key} file is not UTF-8: byte "
                                     f"0x{exc.object[exc.start]:02x} on line {line}") from None
    if "\r" in text:  # universal newlines, as text mode reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


@_stage("ingest")
def read_panel(
    prices_path: str, metadata_path: str, fill_limit: int,
    inputs: dict[str, Any] | None = None,
) -> PricePanel:
    """The panel of the two files. If `inputs` is a dict, it gets the sha256
    and byte count of each file under "prices" and "metadata"."""
    raw_prices = _read_text(prices_path, inputs, "prices")
    raw_meta = _read_text(metadata_path, inputs, "metadata")
    return market_data.parse_price_panel(raw_prices, raw_meta, fill_limit)


@_stage("returns")
def panel_returns(panel: PricePanel, delta: int) -> ReturnPanel:
    return market_data.compute_log_returns(panel, delta)


@_stage("tails")
def fit_tails(rp: ReturnPanel, tail_fraction: float) -> list[dict[str, Any]]:
    """Per asset: its code and, under each side, the fields of that tail's
    TailFit, or None for a tail that cannot be fitted (a short series, or a
    pegged one whose threshold is not positive). Only a record with such a
    side has "skipped", mapping the side to the TailFitError text. A
    tail_fraction outside (0, 0.5] is a setting, not a fact of the data: it
    raises."""
    records = []
    for meta, row in zip(rp.assets, rp.returns):
        record: dict[str, Any] = {"code": meta.code}
        for side in tails.SIDES:
            try:
                fit = tails.fit_tail_exponent(row, side, tail_fraction)
            except tails.TailFitError as exc:
                record[side] = None
                record.setdefault("skipped", {})[side] = str(exc)
                continue
            record[side] = dict(vars(fit))
        records.append(record)
    return records


@_stage("correlation")
def correlate(rp: ReturnPanel) -> np.ndarray:
    return spectral.correlation_matrix(rp)


@_stage("spectrum")
def spectrum(c: np.ndarray, n_steps: int) -> tuple[SpectralDecomposition, RmtBounds]:
    return spectral.eigendecompose(c), spectral.rmt_bounds(c.shape[0], n_steps)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@_stage("surrogates")
def surrogate_stats(rp: ReturnPanel, bounds: RmtBounds, seed: int, count: int) -> dict[str, Any]:
    """The bulk statistics of `count` shuffled surrogates of rp, the k-th
    shuffled with the k-th of derive_seeds(seed, count).

    The surrogates run on min(count, usable CPUs) workers, the calling thread
    and one thread per further worker, each with one N x T buffer; numpy
    releases the GIL in the shuffles, the Gram products and the
    eigensolves. Each surrogate's results go to its own slot, so the output
    does not depend on the number of workers. Any exception that leaves the
    calling thread's share, an interrupt included, stops the other workers
    before their next surrogate."""
    if count == 0:
        return {"count": 0, "seed": seed}
    lo = bounds.lambda_min - BULK_MARGIN
    hi = bounds.lambda_max + BULK_MARGIN
    # a surrogate's centred rows span min(N, T - 1) dimensions; for T <= N the
    # rest of its spectrum is the null space's zeros, no part of the bulk
    rank = min(rp.n_assets, rp.n_steps - 1)
    seeds = spectral.derive_seeds(seed, count)
    n_workers = min(count, _usable_cpus())
    # surrogate k -> (its eigenvalues, the components of its bulk eigenvectors)
    results: list[Any] = [None] * count
    errors: list[BaseException] = []
    # allocated by the calling thread: memory a worker thread allocates stays
    # in that thread's malloc arena once freed, raising the peak of later runs
    bufs = [np.empty(rp.returns.shape) for _ in range(n_workers)]

    def work(first: int) -> None:
        # surrogates first, first + n_workers, ...; stops once `errors` has an entry
        try:
            buf = bufs[first]
            for k in range(first, count, n_workers):
                if errors:
                    return
                ssd = spectral.eigendecompose(spectral.surrogate_correlation(rp, seeds[k], buf))
                lam = ssd.eigenvalues[:rank]
                results[k] = lam, ssd.eigenvectors[:rank][(lam >= lo) & (lam <= hi)].ravel()
        except Exception as exc:
            errors.append(exc)

    # the calling thread takes a share, rather than a concurrent.futures pool
    # doing all the work: a pool gave the same bytes in the same time, but all
    # its threads are new, and a thread's first BLAS call costs about 4 MB
    # (4.4 MB for one 250 x 250 eigh), which took one `report`'s peak RSS from
    # 50.7 to about 54.5 MB on a 74 x 6035 panel with 2 CPUs; a pool's threads
    # also start lazily, so a run could use fewer than n_workers of them
    threads = []
    try:
        for first in range(1, n_workers):
            thread = threading.Thread(target=work, args=(first,), name=f"fxnet-surrogates-{first}")
            thread.start()
            threads.append(thread)
        work(0)
    except BaseException as exc:  # an interrupt, or a thread that would not start
        errors.append(exc)
        raise
    finally:
        for thread in threads:
            thread.join()
    bufs.clear()  # before the summary's temporaries, which grow with count
    if errors:
        raise errors[0]
    vals = np.concatenate([lam for lam, _ in results])
    components = np.concatenate([c for _, c in results])
    results.clear()  # before the KS statistic's sorted copy of the pool
    ks = spectral.normal_ks_statistic(components) if components.size else None
    return {
        "count": count,
        "seed": seed,
        "bulk_low": lo,
        "bulk_high": hi,
        "bulk_fraction": float(np.mean((vals >= lo) & (vals <= hi))),
        "ks_statistic": ks,
        "eigenvalue_max": float(vals.max()),
        "eigenvalue_min": float(vals.min()),
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


@_stage("network")
def build_mst(
    c: np.ndarray, assets: tuple[AssetMeta, ...], hub_sigma: float
) -> tuple[Graph, ClusterReport]:
    mst = network.minimum_spanning_tree(network.mantegna_distance(c), assets)
    return mst, network.cluster_report(mst, hub_sigma)


@_stage("network")
def build_threshold(
    c_group: np.ndarray, assets: tuple[AssetMeta, ...], c_th: float | str, hub_sigma: float
) -> tuple[Graph, ClusterReport, SweepResult | None, float]:
    """The threshold network at c_th, a real or "auto" (the recommended cutoff
    of threshold_sweep), its report, the sweep (None for a given cutoff) and
    the cutoff used."""
    sweep = None
    if c_th == "auto":
        sweep = network.threshold_sweep(c_group)
        c_th = sweep.recommended
    tnet = network.threshold_network(c_group, float(c_th), assets)
    return tnet, network.cluster_report(tnet, hub_sigma), sweep, float(c_th)


@_stage("export")
def write_files(out_dir: str, files: Iterable[tuple[str, str | None]]) -> None:
    """Write the text of each (rel, text) pair of `files` to out_dir/rel; a
    (pattern, None) pair claims the files of out_dir whose paths match the
    fnmatch `pattern`, which has wildcards in its last component only.

    Every file is written under a staging directory `.fxnet-*` (inside out_dir
    if it exists, else in its nearest existing ancestor) before any reaches
    out_dir: a new out_dir is renamed into place whole, and an existing one
    loses each claimed file this run did not write, then gets each new file
    by os.replace. On an earlier failure the staging directory goes and
    out_dir stays as it was; a killed run can leave it behind.
    """
    out_dir = os.path.abspath(out_dir)
    base = out_dir
    while not os.path.isdir(base):
        base = os.path.dirname(base)
    tmp = tempfile.mkdtemp(prefix=".fxnet-", dir=base)
    claims = []  # their paths inside the staging directory
    try:
        stage = os.path.join(tmp, "out")
        os.mkdir(stage)  # not mkdtemp's 0700: a new out_dir keeps the umask's mode
        for rel, text in files:
            path = os.path.normpath(os.path.join(stage, rel))
            if not path.startswith(stage + os.sep):  # rel comes from asset codes
                raise ValueError(f"output path {rel!r} leaves the output directory")
            if text is None:
                claims.append(path)
                continue
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            del text  # hold one file's text at a time, not also while the next is formatted
        if os.path.isdir(out_dir):
            for folder, pattern in map(os.path.split, claims):
                old = os.path.join(out_dir, os.path.relpath(folder, stage))
                for name in fnmatch.filter(os.listdir(old) if os.path.isdir(old) else [], pattern):
                    if not os.path.exists(os.path.join(folder, name)):
                        os.remove(os.path.join(old, name))
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


_PATHS = ("prices_path", "metadata_path", "out_dir")


def run_pipeline(cfg: PipelineConfig) -> dict[str, Any]:
    """Execute the full analysis, write every artifact under cfg.out_dir and
    return the payload of report.json.

    Any stage failure raises StageError naming the stage; a failed run
    writes nothing to cfg.out_dir (see write_files). Settings that are bad
    whatever the data fail before the data is read (see check_settings).
    """
    check_settings(cfg)
    inputs: dict[str, Any] = {}
    panel = read_panel(cfg.prices_path, cfg.metadata_path, cfg.fill_limit, inputs)
    rp = panel_returns(panel, cfg.delta)
    # the price matrix is not needed once the returns exist
    n_dates, first_date, last_date = panel.n_dates, panel.dates[0], panel.dates[-1]
    del panel
    tail_fits = fit_tails(rp, cfg.tail_fraction)
    c = correlate(rp)
    sd, bounds = spectrum(c, rp.n_steps)
    surrogate_summary = surrogate_stats(rp, bounds, cfg.seed, cfg.surrogates)
    md, n_g_auto = decompose(sd, bounds, cfg.n_g)
    mst, mst_report = build_mst(c, rp.assets, cfg.hub_sigma)
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
        # the inputs by their content, not by where they or the outputs live
        "config": {k: v for k, v in dataclasses.asdict(cfg).items() if k not in _PATHS},
        "inputs": inputs,
        "panel": {
            "n_assets": rp.n_assets,
            "n_dates": n_dates,
            "n_steps": rp.n_steps,
            "codes": [a.code for a in rp.assets],
            "first_date": first_date.isoformat(),
            "last_date": last_date.isoformat(),
            # only when an asset was left out, so other panels keep their bytes
            **({"dropped_assets": [{"code": code, "reason": reason}
                                   for code, reason in rp.dropped]} if rp.dropped else {}),
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
            "element_stats": {k: _element_stats(v) for k, v in _parts(c, md).items()},
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
        spectrum_files(rp.assets, c, sd),
        modes_files(rp.assets, c, md),
        graph_files(mst),
        graph_files(tnet, sweep),
        ccdf_files(rp, os.path.join("ccdf", "{}.csv")),
    ))
    return payload
