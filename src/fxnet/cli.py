"""Command-line front end: each subcommand calls the pipeline's own stage
functions (`fxnet.report`) for the files it writes."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys

from . import report, tails
from .report import PipelineConfig, StageError


def _ng_value(text: str):
    return text if text == "auto" else int(text)


def _cth_value(text: str):
    return text if text == "auto" else float(text)


# Every tuning flag, defined once; its default is PipelineConfig's.
_FLAGS = {
    "fill_limit": {"type": int, "help": "max consecutive missing rows to forward-fill"},
    "delta": {"type": int, "help": "return horizon in rows"},
    "tail_fraction": {"type": float, "help": "share of each tail the Hill fit uses"},
    "n_g": {"type": _ng_value, "help": "number of group modes, or 'auto'"},
    "c_th": {"type": _cth_value, "help": "threshold value, or 'auto' for a grid sweep"},
    "surrogates": {"type": int, "help": "number of shuffled surrogates"},
    "seed": {"type": int, "help": "master seed of the surrogates"},
    "hub_sigma": {"type": float, "help": "hub cutoff in degree standard deviations"},
}


def _panel(args):
    return report.read_panel(args.prices, args.metadata, args.fill_limit)


def _returns(args):
    return report.panel_returns(_panel(args), args.delta)


def _split(args):
    rp = _returns(args)
    cm = report.correlate(rp)
    sd, bounds = report.spectrum(cm, rp.n_steps)
    md, _ = report.decompose(sd, bounds, args.n_g)
    return rp, cm, md


def cmd_ingest(args) -> None:
    """parse and align the price panel"""
    panel = _panel(args)
    print(
        f"panel: {panel.n_assets} assets, {panel.n_dates} dates "
        f"({panel.dates[0].isoformat()} .. {panel.dates[-1].isoformat()})"
    )


def cmd_returns(args) -> None:
    """write the normalized return panel"""
    rp = _returns(args)
    report.write_files(args.out_dir, report.returns_files(rp))
    print(f"wrote returns for {rp.n_assets} assets x {rp.n_steps} steps")


def cmd_tails(args) -> None:
    """tail exponent fits and CCDF data"""
    rp = _returns(args)
    fits = [
        {"code": record["code"], "side": side, **record[side]}
        for record in report.fit_tails(rp, args.tail_fraction)
        for side in tails.SIDES
    ]
    report.write_files(args.out_dir, itertools.chain(
        report.ccdf_files(rp, "ccdf_{}.csv"),
        report.json_file("tail_fits.json", {"tail_fits": fits}),
    ))
    print(f"wrote {len(fits)} tail fits")


def cmd_spectrum(args) -> None:
    """correlation spectrum and RMT bounds"""
    rp = _returns(args)
    cm = report.correlate(rp)
    sd, bounds = report.spectrum(cm, rp.n_steps)
    report.write_files(args.out_dir, itertools.chain(
        report.spectrum_files(rp.assets, cm, sd),
        report.json_file("rmt_bounds.json", {"rmt": dataclasses.asdict(bounds)}),
    ))
    print(f"leading eigenvalue {sd.eigenvalues[0]:.6g}, "
          f"RMT bounds [{bounds.lambda_min:.4g}, {bounds.lambda_max:.4g}]")


def cmd_decompose(args) -> None:
    """global/group/random mode decomposition"""
    report.check_settings(n_g=args.n_g)
    rp, cm, md = _split(args)
    hists = report.histograms(cm, md)
    report.write_files(args.out_dir, report.modes_files(rp.assets, md, hists))
    print(f"decomposed with n_g={md.n_g}")


def cmd_mst(args) -> None:
    """minimum spanning tree over Mantegna distances"""
    report.check_settings(hub_sigma=args.hub_sigma)
    rp = _returns(args)
    mst, cluster = report.build_mst(report.correlate(rp), rp.assets, args.hub_sigma)
    report.write_files(args.out_dir, report.graph_files(mst))
    print(f"MST: {len(mst.edges)} edges, {len(cluster.hubs)} hubs")


def cmd_threshnet(args) -> None:
    """threshold network over the group matrix"""
    report.check_settings(n_g=args.n_g, c_th=args.c_th, hub_sigma=args.hub_sigma)
    rp, _, md = _split(args)
    tnet, cluster, sweep, c_th = report.build_threshold(
        md.c_group, rp.assets, args.c_th, args.hub_sigma
    )
    report.write_files(args.out_dir, report.graph_files(tnet, sweep))
    print(f"threshold network at c_th={c_th:.6g}: "
          f"{len(tnet.edges)} edges, {len(cluster.components)} components")


def cmd_report(args) -> None:
    """run the full pipeline"""
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    cfg = PipelineConfig(
        prices_path=args.prices,
        metadata_path=args.metadata,
        **{k: v for k, v in vars(args).items() if k in fields},
    )
    rep = report.run_pipeline(cfg)
    n_modes = len(rep.payload["spectrum"]["eigenvalues"])
    print(f"report written to {args.out_dir} ({n_modes} eigenvalues, seed {cfg.seed})")


# subcommand -> (function, flags beyond --prices, --metadata, --fill-limit
# and, for all but ingest, --out-dir)
COMMANDS = {
    "ingest": (cmd_ingest, ()),
    "returns": (cmd_returns, ("delta",)),
    "tails": (cmd_tails, ("delta", "tail_fraction")),
    "spectrum": (cmd_spectrum, ("delta",)),
    "decompose": (cmd_decompose, ("delta", "n_g")),
    "mst": (cmd_mst, ("delta", "hub_sigma")),
    "threshnet": (cmd_threshnet, ("delta", "n_g", "c_th", "hub_sigma")),
    "report": (cmd_report, ("delta", "tail_fraction", "n_g", "c_th", "surrogates",
                            "seed", "hub_sigma")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fxnet",
        description="Reconstruct correlation networks from panels of asset time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--prices", required=True, help="price table CSV (date,CODE1,...)")
        p.add_argument("--metadata", required=True, help="asset metadata CSV")
        if name != "ingest":
            p.add_argument("--out-dir", required=True, help="output directory")
        for flag in ("fill_limit", *flags):
            p.add_argument("--" + flag.replace("_", "-"),
                           default=getattr(PipelineConfig, flag), **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command][0](args)
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
