"""The fxnet benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Run from the repository root; fxnet is imported from ./src.  A run

1. generates the workload's inputs from the seed, in a process of its own;
2. times `import fxnet` in fresh interpreters (setup_s), or with --trace 1
   breaks that time down with `python -X importtime`;
3. runs jobs for --seconds in one worker process (perfbench/worker.py);
   setup_s and run_s are wall times scaled by the machine's speed, which a
   probe samples while they run (perfbench/speed.py);
4. checks the outputs against independent oracles (perfbench/checks.py);
5. prints a readable summary, then as its last line one JSON object with
   `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
   with --trace 0, the per-layer metrics of a traced run with --trace 1.

BLAS and OpenMP threads are pinned to 1 for every process.  Inputs, outputs
and the run record go to .perfbench_work/<workload>/.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

SETUP_REPS = 5  # timed fresh-interpreter imports per run
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{cmd[1]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return proc


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and fxnet's own part, from the
    `-X importtime` report of `import fxnet`.

    A package's time is the cumulative time of its entries that no numpy or
    scipy entry encloses (numpy modules that scipy pulls in count as scipy's);
    fxnet's own part is its cumulative time minus those two.
    """
    entries = []  # (depth, name, cumulative seconds), in the order printed
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cum = int(parts[1]) / 1e6
        except ValueError:  # the header line
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), cum))
    totals = {"numpy": 0.0, "scipy": 0.0, "fxnet": 0.0}
    ancestors: list[str] = []
    # children are printed before their parent, so walk backwards
    for depth, name, cum in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top == "fxnet" and depth == 0:
            totals[top] += cum
        elif top in ("numpy", "scipy") and not any(
                a.split(".")[0] in ("numpy", "scipy") for a in ancestors):
            totals[top] += cum
        ancestors.append(name)
    if totals["fxnet"] == 0.0:
        raise BenchError("`import fxnet` left no -X importtime entry for fxnet")
    return {
        "setup.import.numpy_s": totals["numpy"],
        "setup.import.scipy_s": totals["scipy"],
        "setup.import.fxnet_s": totals["fxnet"] - totals["numpy"] - totals["scipy"],
    }


def measure_setup(trace: bool) -> dict[str, float]:
    """Medians over SETUP_REPS fresh interpreters importing fxnet, after one
    untimed import that writes fxnet's bytecode cache.

    Without `trace`, each interpreter imports fxnet under a speed probe
    (perfbench/speed.py), and its wall time, start-up and exit included, is
    scaled to reference seconds; with `trace`, `python -X importtime` breaks
    the import down instead.
    """
    cmd = ([sys.executable, "-X", "importtime", "-c", "import fxnet"] if trace
           else [sys.executable, os.path.join(HERE, "speed.py")])
    run_child(cmd, 60)
    samples: list[dict[str, float]] = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = run_child(cmd, 60)
        wall = time.perf_counter() - t0
        if trace:
            samples.append(import_times(proc.stderr))
            continue
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append({"setup_s": (wall - probe["spent"]) * probe["speed"],
                        "setup_wall_s": wall, "setup_speed": probe["speed"]})
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def tree_size(root: str) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p, statistics.quantiles(values, n=1000)[round(p * 10) - 1]
    return None


def environment(versions: dict) -> dict:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                text=True, capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        **versions,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit or "unknown (not a git checkout)",
    }


def layer_metrics(result: dict, facts: dict, out: str, setup: dict) -> dict[str, float]:
    """Per-layer metrics: means over the traced jobs of the run."""
    profiles = result["profiles"]
    jobs = result["jobs"]

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    m: dict[str, float] = {}
    for name in tracing.partition_metrics():
        m[name] = mean(p["buckets"].get(name, 0.0) for p in profiles)
    m["network.threshold_sweep.s"] = mean(
        p["inclusive"].get("network.threshold_sweep", 0.0) for p in profiles)
    m["report.export.s"] = sum(m[f"report.{fn}.s"] for fn in spec.NAMED_FUNCTIONS["report"])
    for name in spec.CALL_COUNTS:
        m[f"{name}.calls"] = mean(p["calls"].get(name, 0) for p in profiles)
    for name in ("market_data.dates_dropped", "market_data.cells_filled",
                 "tails.ccdf_points", "network.mst_candidates", "modes.n_g_auto"):
        m[name] = mean(p["counters"].get(name, 0) for p in profiles)
    m.update({"spectral.eig_residual": 0.0, "spectral.bulk_fraction": 0.0, **facts})
    m["report.files_written"], m["report.bytes_written"] = tree_size(out)
    m.update(setup)
    m["trace.run_s"] = mean(p["run_s"] for p in profiles)
    m["trace.self_sum_s"] = mean(sum(p["buckets"].values()) for p in profiles)
    # the first job also pays one-off lazy initialisation; leave it out if we can
    untraced = [j["seconds"] for j in jobs[1:] if not j["traced"]] or [jobs[0]["seconds"]]
    m["trace.overhead_s"] = mean(j["seconds"] for j in jobs if j["traced"]) - mean(untraced)
    return m


def run(args) -> tuple[dict, list[str]]:
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "fxnet", "__init__.py")):
        raise BenchError(f"no fxnet sources under {SRC}; run from a full checkout")
    w = spec.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    run_child([sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", inputs], 120)
    with open(os.path.join(inputs, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    setup = measure_setup(bool(args.trace))

    result_path = os.path.join(work, "worker.json")
    run_child([sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--src", SRC, "--inputs", inputs, "--out", out,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", result_path],
              max(10.0, DEADLINE_S - (time.perf_counter() - started)))
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    jobs = result["jobs"]
    last = jobs[-1]  # `out` holds the last job's files
    problems, facts = checks.check_outputs(w["job"], out, last["stdout"], truth,
                                           w["surrogates"])
    job_problems = []
    for k, job in enumerate(jobs):
        if any(code != 0 for code in job["codes"]):
            job_problems.append(f"job {k} exited with {job['codes']}: "
                                f"{job['stderr'][-500:]}")
        elif job["digest"] != last["digest"]:
            job_problems.append(f"job {k} wrote other bytes than job {len(jobs) - 1}")
    # the checked files stand for every job that wrote the same bytes
    failed = len(jobs) if problems else len(job_problems)
    problems += job_problems

    untraced = [j["seconds"] for j in jobs if not j["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(result["versions"]),
        "attempted": len(jobs),
        "failed": failed,
        "failed_frac": failed / len(jobs),
        "problems": problems,
        "digest": last["digest"],
        "job_seconds": [j["seconds"] for j in jobs],
        "truth": {k: truth[k] for k in ("n_assets", "n_dates", "n_groups", "cells_filled")}
        | {"n_dropped": len(truth["dropped_dates"])},
    }
    if args.trace:
        metrics = layer_metrics(result, facts, out, setup)
        if abs(metrics["trace.self_sum_s"] - metrics["trace.run_s"]) > 1e-6:
            problems.append("per-layer self times do not add up to the traced job time")
    else:
        metrics = {
            "run_s": statistics.median(j["ref_seconds"] for j in jobs),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "ok_frac": (len(jobs) - failed) / len(jobs),
        }
        record["run_s_tail"] = tail_percentile([j["ref_seconds"] for j in jobs])
        record["wall"] = {
            "run_s": statistics.median(untraced),
            "setup_s": setup["setup_wall_s"],
            "speed_jobs": statistics.median(j["speed"] for j in jobs),
            "speed_setup": setup["setup_speed"],
        }
    record["metrics"] = metrics
    with open(os.path.join(work, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record, problems


def summary_lines(record: dict) -> list[str]:
    env = record["environment"]
    n = record["attempted"]
    lines = [
        f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}",
        f"# python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"blas {env['blas']}  threads {env['threads']}  nproc {env['nproc']}  "
        f"commit {env['git_commit']}",
        f"# jobs {n}  failed {record['failed']}  failed_frac {record['failed_frac']:g}",
        f"# output digest sha256:{record['digest']}",
    ]
    if not record["trace"]:
        tail = record["run_s_tail"]
        lines.append(f"# run_s median of {n} jobs; tail percentile: "
                     + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail else
                        "none (needs at least 20 jobs)"))
        wall = record["wall"]
        lines.append(f"# wall medians: run {wall['run_s']:.4f} s, setup "
                     f"{wall['setup_s']:.4f} s; machine speed: jobs "
                     f"{wall['speed_jobs']:.3f}, imports {wall['speed_setup']:.3f} "
                     "(reference seconds = wall seconds x speed)")
    lines += [f"# {name:40s} {value:14.6g} {spec.UNITS[name]}"
              for name, value in record["metrics"].items()]
    lines += [f"# FAILED CHECK: {p}" for p in record["problems"]]
    return lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        record, problems = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary_lines(record)))
    names = ([m["name"] for m in spec.END_TO_END] if not args.trace
             else list(spec.LAYER_METRICS))
    print(json.dumps({
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": spec.UNITS[n]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
