"""Command-line front end for the analysis pipeline."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import market_data, modes, network, report as report_mod, spectral, tails
from .report import PipelineConfig, StageError


def _ng_value(text: str):
    return text if text == "auto" else int(text)


def _cth_value(text: str):
    return text if text == "auto" else float(text)


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prices", required=True, help="price table CSV (date,CODE1,...)")
    p.add_argument("--metadata", required=True, help="asset metadata CSV")
    p.add_argument("--fill-limit", type=int, default=market_data.DEFAULT_FILL_LIMIT,
                   help="max consecutive missing rows to forward-fill")


def _add_out_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fxnet",
        description="Reconstruct correlation networks from panels of asset time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and align the price panel")
    _add_input_args(p)

    p = sub.add_parser("returns", help="write the normalized return panel")
    _add_input_args(p)
    _add_out_dir(p)
    p.add_argument("--delta", type=int, default=1)

    p = sub.add_parser("tails", help="tail exponent fits and CCDF data")
    _add_input_args(p)
    _add_out_dir(p)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--tail-fraction", type=float, default=tails.DEFAULT_TAIL_FRACTION)

    p = sub.add_parser("spectrum", help="correlation spectrum and RMT bounds")
    _add_input_args(p)
    _add_out_dir(p)
    p.add_argument("--delta", type=int, default=1)

    p = sub.add_parser("decompose", help="global/group/random mode decomposition")
    _add_input_args(p)
    _add_out_dir(p)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--n-g", type=_ng_value, default=modes.DEFAULT_N_GROUP,
                   help="number of group modes, or 'auto'")

    p = sub.add_parser("mst", help="minimum spanning tree over Mantegna distances")
    _add_input_args(p)
    _add_out_dir(p)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--hub-sigma", type=float, default=network.DEFAULT_HUB_SIGMA)

    p = sub.add_parser("threshnet", help="threshold network over the group matrix")
    _add_input_args(p)
    _add_out_dir(p)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--n-g", type=_ng_value, default=modes.DEFAULT_N_GROUP)
    p.add_argument("--c-th", type=_cth_value, default="auto",
                   help="threshold value, or 'auto' for a grid sweep")
    p.add_argument("--hub-sigma", type=float, default=network.DEFAULT_HUB_SIGMA)

    p = sub.add_parser("report", help="run the full pipeline")
    _add_input_args(p)
    _add_out_dir(p)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--tail-fraction", type=float, default=tails.DEFAULT_TAIL_FRACTION)
    p.add_argument("--n-g", type=_ng_value, default=modes.DEFAULT_N_GROUP)
    p.add_argument("--c-th", type=_cth_value, default="auto")
    p.add_argument("--surrogates", type=int, default=report_mod.DEFAULT_SURROGATES)
    p.add_argument("--seed", type=int, default=report_mod.DEFAULT_SEED)
    p.add_argument("--hub-sigma", type=float, default=network.DEFAULT_HUB_SIGMA)

    return parser


def _load_panel(args) -> market_data.PricePanel:
    with open(args.prices, "r", encoding="utf-8") as fh:
        raw_prices = fh.read()
    with open(args.metadata, "r", encoding="utf-8") as fh:
        raw_meta = fh.read()
    return market_data.parse_price_panel(raw_prices, raw_meta, args.fill_limit)


def _load_returns(args) -> market_data.ReturnPanel:
    panel = _load_panel(args)
    return market_data.normalize_returns(
        market_data.compute_log_returns(panel, args.delta)
    )


def _load_spectrum(args):
    rp = _load_returns(args)
    cm = spectral.correlation_matrix(rp)
    sd = spectral.eigendecompose(cm)
    bounds = spectral.rmt_bounds(rp.n_assets, rp.n_steps)
    return rp, cm, sd, bounds


def _group_matrix(args):
    rp, cm, sd, bounds = _load_spectrum(args)
    if args.n_g == "auto":
        n_g = modes.select_ng(sd, bounds)
    else:
        # same cap as run_pipeline, so the default of 6 works on small panels
        n_g = min(int(args.n_g), rp.n_assets - 1)
    return rp, modes.decompose_modes(sd, n_g), n_g


def cmd_ingest(args) -> None:
    panel = _load_panel(args)
    print(
        f"panel: {panel.n_assets} assets, {panel.n_dates} dates "
        f"({panel.dates[0].isoformat()} .. {panel.dates[-1].isoformat()})"
    )


def cmd_returns(args) -> None:
    rp = _load_returns(args)
    os.makedirs(args.out_dir, exist_ok=True)
    rows = ["code," + ",".join(f"t{k}" for k in range(rp.n_steps))]
    for meta, row in zip(rp.assets, rp.returns):
        rows.append(meta.code + "," + ",".join(f"{x:.12g}" for x in row))
    with open(os.path.join(args.out_dir, "returns.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    lines = ["code,sigma"]
    for meta, s in zip(rp.assets, rp.sigma):
        lines.append(f"{meta.code},{s:.12g}")
    with open(os.path.join(args.out_dir, "sigma.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote returns for {rp.n_assets} assets x {rp.n_steps} steps")


def cmd_tails(args) -> None:
    rp = _load_returns(args)
    os.makedirs(args.out_dir, exist_ok=True)
    fits = []
    for i, meta in enumerate(rp.assets):
        for side in tails.SIDES:
            fit = tails.fit_tail_exponent(rp.returns[i], side, args.tail_fraction)
            fits.append(
                {"code": meta.code, "side": side, "alpha": fit.alpha,
                 "tail_fraction": fit.tail_fraction, "k": fit.k, "x_min": fit.x_min}
            )
            report_mod.export_ccdf_csv(
                tails.tail_survival(rp.returns[i], side),
                os.path.join(args.out_dir, f"ccdf_{meta.code}_{side}.csv"),
            )
    report_mod.export_json_report(
        {"tail_fits": fits}, os.path.join(args.out_dir, "tail_fits.json")
    )
    print(f"wrote {len(fits)} tail fits")


def cmd_spectrum(args) -> None:
    rp, cm, sd, bounds = _load_spectrum(args)
    os.makedirs(args.out_dir, exist_ok=True)
    report_mod.export_spectrum_csv(sd, os.path.join(args.out_dir, "spectrum.csv"))
    report_mod.export_eigenvectors_csv(
        sd, rp.assets, os.path.join(args.out_dir, "eigenvectors.csv")
    )
    report_mod.export_matrix_csv(
        cm.values, rp.assets, os.path.join(args.out_dir, "correlation.csv")
    )
    report_mod.export_json_report(
        {"rmt": {"q": bounds.q, "lambda_min": bounds.lambda_min,
                 "lambda_max": bounds.lambda_max}},
        os.path.join(args.out_dir, "rmt_bounds.json"),
    )
    print(f"leading eigenvalue {sd.eigenvalues[0]:.6g}, "
          f"RMT bounds [{bounds.lambda_min:.4g}, {bounds.lambda_max:.4g}]")


def cmd_decompose(args) -> None:
    rp, md, n_g = _group_matrix(args)
    os.makedirs(args.out_dir, exist_ok=True)
    report_mod.export_matrix_csv(md.c_global, rp.assets,
                                 os.path.join(args.out_dir, "c_global.csv"))
    report_mod.export_matrix_csv(md.c_group, rp.assets,
                                 os.path.join(args.out_dir, "c_group.csv"))
    report_mod.export_matrix_csv(md.c_random, rp.assets,
                                 os.path.join(args.out_dir, "c_random.csv"))
    hists = {
        "global": modes.element_histogram(md.c_global, report_mod.DEFAULT_HISTOGRAM_BINS),
        "group": modes.element_histogram(md.c_group, report_mod.DEFAULT_HISTOGRAM_BINS),
        "random": modes.element_histogram(md.c_random, report_mod.DEFAULT_HISTOGRAM_BINS),
    }
    report_mod.export_histogram_csv(hists, os.path.join(args.out_dir, "histograms.csv"))
    print(f"decomposed with n_g={n_g}")


def cmd_mst(args) -> None:
    rp, cm, sd, bounds = _load_spectrum(args)
    os.makedirs(args.out_dir, exist_ok=True)
    d = network.mantegna_distance(cm)
    mst = network.minimum_spanning_tree(d, rp.assets)
    report_mod.export_pajek(mst, os.path.join(args.out_dir, "mst.net"))
    report_mod.export_graph_json(mst, os.path.join(args.out_dir, "mst.json"))
    cluster = network.cluster_report(mst, args.hub_sigma)
    print(f"MST: {len(mst.edges)} edges, {len(cluster.hubs)} hubs")


def cmd_threshnet(args) -> None:
    rp, md, n_g = _group_matrix(args)
    os.makedirs(args.out_dir, exist_ok=True)
    if args.c_th == "auto":
        grid = report_mod.default_threshold_grid(md.c_group)
        sweep = network.threshold_sweep(md.c_group, grid, rp.assets)
        c_th = sweep.recommended
        report_mod.export_sweep_csv(sweep, os.path.join(args.out_dir, "sweep.csv"))
    else:
        c_th = float(args.c_th)
    tnet = network.threshold_network(md.c_group, c_th, rp.assets)
    report_mod.export_pajek(tnet, os.path.join(args.out_dir, "threshold.net"))
    report_mod.export_graph_json(tnet, os.path.join(args.out_dir, "threshold.json"))
    cluster = network.cluster_report(tnet, args.hub_sigma)
    print(f"threshold network at c_th={c_th:.6g}: "
          f"{len(tnet.edges)} edges, {len(cluster.components)} components")


def cmd_report(args) -> None:
    cfg = PipelineConfig(
        prices_path=args.prices,
        metadata_path=args.metadata,
        out_dir=args.out_dir,
        delta=args.delta,
        fill_limit=args.fill_limit,
        tail_fraction=args.tail_fraction,
        n_g=args.n_g,
        c_th=args.c_th,
        surrogates=args.surrogates,
        seed=args.seed,
        hub_sigma=args.hub_sigma,
    )
    rep = report_mod.run_pipeline(cfg)
    n_modes = len(rep.payload["spectrum"]["eigenvalues"])
    print(f"report written to {args.out_dir} ({n_modes} eigenvalues, seed {cfg.seed})")


COMMANDS = {
    "ingest": cmd_ingest,
    "returns": cmd_returns,
    "tails": cmd_tails,
    "spectrum": cmd_spectrum,
    "decompose": cmd_decompose,
    "mst": cmd_mst,
    "threshnet": cmd_threshnet,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error [ingest]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
