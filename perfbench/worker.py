"""The one process that imports fxnet and runs the benchmark's jobs.

    python3 perfbench/worker.py --workload W --src SRC --inputs DIR --out DIR \
        --seconds S --trace 0|1 --result FILE

A job runs fxnet's command-line entry point in-process, from inputs on disk
to every artifact written: `fxnet report` once for `report` workloads, the
seven single-stage subcommands for `stages`.  Every job of a run writes to
the same output path (report.json echoes it), so byte-identical jobs give the
same digest.  Jobs repeat while the next one is expected to end within
`--seconds`; at least one runs, and with `--trace 1` untraced and traced jobs
alternate, at least one of each.  Without --trace, a speed probe
(perfbench/speed.py) samples the machine's speed while each job runs.  The
result file gets per-job wall and reference seconds, exit codes and digests, the process's peak resident memory and, for traced jobs,
the per-layer profile.  The spans of the last traced job go next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def job_calls(w: dict, inputs: str, out: str) -> list[tuple[str, list[str]]]:
    """(subcommand, argv) for each `fxnet.cli.main` call of one job of
    workload `w` (an entry of spec.WORKLOADS)."""
    io_args = ["--prices", os.path.join(inputs, "prices.csv"),
               "--metadata", os.path.join(inputs, "meta.csv")]
    if w["job"] == "report":
        return [("report", ["report", *io_args, "--out-dir", out,
                            "--surrogates", str(w["surrogates"])])]
    calls = []
    for cmd, extra in spec.STAGE_COMMANDS:
        out_args = [] if cmd == "ingest" else ["--out-dir", os.path.join(out, cmd)]
        calls.append((cmd, [cmd, *io_args, *out_args, *extra]))
    return calls


def tree_digest(root: str, stdout: str) -> str:
    """sha256 over every file's relative path and bytes, and the job's stdout."""
    h = hashlib.sha256(stdout.encode())
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_job(main, calls, out: str, tracer: tracing.Tracer | None,
            probe: speed.SpeedProbe | None = None) -> dict:
    """One job.  With `tracer`, spans are recorded; with `probe`, the machine's
    speed is sampled and the job's reference seconds reported."""
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    codes = []
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with probe or contextlib.nullcontext():
            t0 = time.perf_counter()
            with span(tracing.ROOT):
                for cmd, argv in calls:
                    with span(f"cli.{cmd}"):
                        try:
                            codes.append(main(argv))
                        except SystemExit as exc:  # argparse rejects its arguments
                            codes.append(exc.code)
            seconds = time.perf_counter() - t0
    if tracer:  # the root span, so that the self times add up to the job time
        _, start, end, _ = tracer.spans[0]
        seconds = end - start
    scaled = {}
    if probe:
        scaled = {"ref_seconds": probe.scaled(seconds), "speed": probe.speed(),
                  "probe_samples": len(probe.samples)}
        seconds -= probe.spent
    return {
        "traced": tracer is not None,
        "seconds": seconds,
        **scaled,
        "codes": codes,
        "digest": tree_digest(out, stdout.getvalue()),
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue()[-2000:],
    }


def panel_counts(raw: str, dates) -> tuple[int, int]:
    """(dates dropped, cells forward-filled) from the raw price table and the
    dates that survived into the panel."""
    kept = {d.isoformat() for d in dates}
    rows = [line.split(",") for line in raw.splitlines()[1:] if line.strip()]
    filled = sum(1 for r in rows if r[0].strip() in kept for c in r[1:] if not c.strip())
    return len(rows) - len(dates), filled


OBSERVE = {
    "market_data.parse_price_panel": lambda panel: panel.dates,
    "tails.tail_survival": len,
    "network.minimum_spanning_tree": lambda graph: graph.n_nodes,
    "modes.select_ng": int,
}


def counters(observed: list[tuple], raw_prices: str) -> dict[str, float]:
    out = {"tails.ccdf_points": 0, "network.mst_candidates": 0}
    for name, summary in observed:
        if name == "market_data.parse_price_panel" and "market_data.dates_dropped" not in out:
            out["market_data.dates_dropped"], out["market_data.cells_filled"] = (
                panel_counts(raw_prices, summary))
        elif name == "tails.tail_survival":
            out["tails.ccdf_points"] += summary
        elif name == "network.minimum_spanning_tree":
            out["network.mst_candidates"] += summary * (summary - 1) // 2
        elif name == "modes.select_ng":
            out.setdefault("modes.n_g_auto", summary)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--src", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import fxnet
    import fxnet.cli
    import numpy
    import scipy

    if not os.path.abspath(fxnet.__file__).startswith(src + os.sep):
        print(f"fxnet imported from {fxnet.__file__}, not from {src}", file=sys.stderr)
        return 2

    calls = job_calls(spec.WORKLOADS[args.workload], args.inputs, args.out)
    kernel = speed.numpy_kernel()
    jobs, profiles = [], []
    last_spans: list[list] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            with tracer.patched(fxnet, OBSERVE):
                job = run_job(fxnet.cli.main, calls, args.out, tracer)
            profile = tracing.job_profile(tracer.spans)
            with open(os.path.join(args.inputs, "prices.csv"), encoding="utf-8") as fh:
                profile["counters"] = counters(tracer.observed, fh.read())
            profile["run_s"] = job["seconds"]
            profiles.append(profile)
            last_spans = tracer.spans
        elif args.trace:
            job = run_job(fxnet.cli.main, calls, args.out, None)
        else:
            probe = speed.SpeedProbe(kernel, speed.NUMPY_KERNEL_REF_S, speed.JOB_INTERVAL_S)
            job = run_job(fxnet.cli.main, calls, args.out, None, probe)
        jobs.append(job)
        elapsed = time.perf_counter() - start
        enough = len(jobs) >= (2 if args.trace else 1)
        if enough and elapsed + job["seconds"] > args.seconds:
            break

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of its build config
        blas = {}
    result = {
        "fxnet_file": fxnet.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": jobs,
        "profiles": profiles,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if last_spans:
        spans_path = os.path.join(os.path.dirname(args.result), "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": last_spans},
                      fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
