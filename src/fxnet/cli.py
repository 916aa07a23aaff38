"""Command-line front end: every subcommand runs from one PipelineConfig,
checked before any data is read, and calls the pipeline's own stage
functions (`fxnet.report`) for the files it writes."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys

from . import report
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
}


def _panel(cfg):
    return report.read_panel(cfg.prices_path, cfg.metadata_path, cfg.fill_limit)


def _returns(cfg):
    return report.panel_returns(_panel(cfg), cfg.delta)


def _split(cfg):
    rp = _returns(cfg)
    c = report.correlate(rp)
    sd, bounds = report.spectrum(c, rp.n_steps)
    md, _ = report.decompose(sd, bounds, cfg.n_g)
    return rp, c, md


def cmd_ingest(cfg) -> None:
    """parse and align the price panel"""
    panel = _panel(cfg)
    print(
        f"panel: {panel.n_assets} assets, {panel.n_dates} dates "
        f"({panel.dates[0].isoformat()} .. {panel.dates[-1].isoformat()})"
    )


def cmd_returns(cfg) -> None:
    """write the normalized return panel"""
    rp = _returns(cfg)
    report.write_files(cfg.out_dir, report.returns_files(rp))
    print(f"wrote returns for {rp.n_assets} assets x {rp.n_steps} steps")


def cmd_tails(cfg) -> None:
    """tail exponent fits and CCDF data"""
    rp = _returns(cfg)
    records = report.fit_tails(rp, cfg.tail_fraction)
    report.write_files(cfg.out_dir, itertools.chain(
        report.ccdf_files(rp, "ccdf_{}.csv"),
        report.json_file("tail_fits.json", {"tail_fits": records}),
    ))
    n_skipped = sum(len(record.get("skipped", ())) for record in records)
    print(f"wrote {2 * len(records) - n_skipped} tail fits, skipped {n_skipped}")


def cmd_spectrum(cfg) -> None:
    """correlation spectrum and RMT bounds"""
    rp = _returns(cfg)
    c = report.correlate(rp)
    sd, bounds = report.spectrum(c, rp.n_steps)
    report.write_files(cfg.out_dir, itertools.chain(
        report.spectrum_files(rp.assets, c, sd),
        report.json_file("rmt_bounds.json", {"rmt": dataclasses.asdict(bounds)}),
    ))
    print(f"leading eigenvalue {sd.eigenvalues[0]:.6g}, "
          f"RMT bounds [{bounds.lambda_min:.4g}, {bounds.lambda_max:.4g}]")


def cmd_decompose(cfg) -> None:
    """global/group/random mode decomposition"""
    rp, c, md = _split(cfg)
    report.write_files(cfg.out_dir, report.modes_files(rp.assets, c, md))
    print(f"decomposed with n_g={md.n_g}")


def cmd_mst(cfg) -> None:
    """minimum spanning tree over Mantegna distances"""
    rp = _returns(cfg)
    mst, cluster = report.build_mst(report.correlate(rp), rp.assets)
    report.write_files(cfg.out_dir, report.graph_files(mst))
    print(f"MST: {len(mst.edges)} edges, {len(cluster.hubs)} hubs")


def cmd_threshnet(cfg) -> None:
    """threshold network over the group matrix"""
    rp, _, md = _split(cfg)
    tnet, cluster, sweep, c_th = report.build_threshold(md.c_group, rp.assets, cfg.c_th)
    report.write_files(cfg.out_dir, report.graph_files(tnet, sweep))
    print(f"threshold network at c_th={c_th:.6g}: "
          f"{len(tnet.edges)} edges, {len(cluster.components)} components")


def cmd_report(cfg) -> None:
    """run the full pipeline"""
    n_modes = len(report.run_pipeline(cfg)["spectrum"]["eigenvalues"])
    print(f"report written to {cfg.out_dir} ({n_modes} eigenvalues, seed {cfg.seed})")


# subcommand -> (function, flags beyond --prices, --metadata, --fill-limit
# and, for all but ingest, --out-dir)
COMMANDS = {
    "ingest": (cmd_ingest, ()),
    "returns": (cmd_returns, ("delta",)),
    "tails": (cmd_tails, ("delta", "tail_fraction")),
    "spectrum": (cmd_spectrum, ("delta",)),
    "decompose": (cmd_decompose, ("delta", "n_g")),
    "mst": (cmd_mst, ("delta",)),
    "threshnet": (cmd_threshnet, ("delta", "n_g", "c_th")),
    "report": (cmd_report, ("delta", "tail_fraction", "n_g", "c_th", "surrogates", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fxnet",
        description="Reconstruct correlation networks from panels of asset time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--prices", dest="prices_path", required=True,
                       help="price table CSV (date,CODE1,...)")
        p.add_argument("--metadata", dest="metadata_path", required=True,
                       help="asset metadata CSV")
        if name == "ingest":
            p.set_defaults(out_dir="")
        else:
            p.add_argument("--out-dir", required=True, help="output directory")
        for flag in ("fill_limit", *flags):
            p.add_argument("--" + flag.replace("_", "-"),
                           default=getattr(PipelineConfig, flag), **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    cfg = PipelineConfig(**args)  # every other dest is a field name
    try:
        report.check_settings(cfg)
        COMMANDS[command][0](cfg)
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
