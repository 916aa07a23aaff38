"""End-to-end acceptance checks.

Each test prints one `criterion N (<name>): PASS|FAIL` line on the real
stdout so the verdicts are visible even under pytest's output capture.
"""

import hashlib
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
from scipy import stats

from conftest import (
    make_assets,
    normalized_noise_panel,
    planted_group_panel,
    planted_price_files,
    synthetic_price_files,
)
from fxnet.modes import decompose_modes, select_ng
from fxnet.network import (
    cluster_report,
    minimum_spanning_tree,
    threshold_network,
    threshold_sweep,
)
from fxnet.report import (
    PipelineConfig,
    run_pipeline,
)
from fxnet.spectral import (
    correlation_matrix,
    derive_seeds,
    eigendecompose,
    rmt_bounds,
    surrogate_correlation,
)
from fxnet.tails import fit_tail_exponent, hill_estimate
from oracles import (
    brute_force_mst_weight,
    charpoly_eigenvalues,
    component_labels,
    pareto_samples,
    rand_index,
    read_json_report,
    read_pajek,
    tree_weight,
)


def announce(capfd, number, name, ok):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"criterion {number} ({name}): {verdict}", flush=True)
    return ok


def test_criterion_1_mp_bounds(capfd):
    b = rmt_bounds(74, 6034)
    ok = (
        abs(b.q - 81.54) <= 0.005
        and abs(b.lambda_max - 1.23) <= 0.005
        and abs(b.lambda_min - 0.79) <= 0.005
    )
    assert announce(capfd, 1, "mp-bounds", ok), (b.q, b.lambda_min, b.lambda_max)


def test_criterion_2_surrogate_bulk(capfd):
    start = time.monotonic()
    rng = np.random.default_rng(74)
    rp = normalized_noise_panel(rng, 74, 6034)
    bounds = rmt_bounds(74, 6034)
    lo = bounds.lambda_min - 0.05
    hi = bounds.lambda_max + 0.05
    eigenvalues = []
    pooled = []
    buf = np.empty(rp.returns.shape)
    for seed in derive_seeds(2012, 10):
        sd = eigendecompose(surrogate_correlation(rp, seed, buf))
        eigenvalues.append(sd.eigenvalues)
        lam = sd.eigenvalues
        pooled.append(sd.eigenvectors[(lam >= lo) & (lam <= hi)].ravel())
    vals = np.concatenate(eigenvalues)
    bulk_fraction = np.mean((vals >= lo) & (vals <= hi))
    ks = stats.kstest(np.concatenate(pooled), "norm").statistic
    elapsed = time.monotonic() - start
    ok = bulk_fraction >= 0.99 and ks < 0.05 and elapsed < 60.0
    assert announce(capfd, 2, "surrogate-bulk", ok), (bulk_fraction, ks, elapsed)


def test_criterion_3_eigensolver_oracle(capfd):
    ok = True
    detail = None
    for trial in range(100):
        rng = np.random.default_rng([3, trial])
        n = 2 + trial % 5  # sizes 2..6
        # short panels keep the spectrum spread so polynomial roots stay
        # well-conditioned
        cm = correlation_matrix(normalized_noise_panel(rng, n, 40))
        sd = eigendecompose(cm)
        oracle = charpoly_eigenvalues(cm)
        recon = (sd.eigenvectors.T * (sd.eigenvalues / n)) @ sd.eigenvectors
        checks = (
            np.abs(sd.eigenvalues - oracle).max() < 1e-8,
            np.abs(recon - cm).max() < 1e-8,
            np.abs((sd.eigenvectors ** 2).sum(axis=1) - n).max() < 1e-9,
        )
        if not all(checks):
            ok = False
            detail = (trial, checks)
            break
    assert announce(capfd, 3, "eigensolver-oracle", ok), detail


def test_criterion_4_decomposition_identity(capfd):
    ok = True
    detail = None
    n = 10
    for trial in range(50):
        rng = np.random.default_rng([4, trial])
        cm = correlation_matrix(normalized_noise_panel(rng, n, 200))
        sd = eigendecompose(cm)
        for n_g in (0, 3, 6, n - 1):
            md = decompose_modes(sd, n_g)
            total = md.c_global + md.c_group + md.c_random
            singular = np.linalg.svd(md.c_global, compute_uv=False)
            checks = (
                np.abs(total - cm).max() < 1e-8,
                singular[1] < 1e-8 * singular[0],
            )
            if not all(checks):
                ok = False
                detail = (trial, n_g, checks)
                break
        if not ok:
            break
    assert announce(capfd, 4, "decomposition-identity", ok), detail


def test_criterion_5_mst_exactness(capfd):
    ok = True
    detail = None
    n = 7
    assets = make_assets(n)
    for trial in range(100):
        rng = np.random.default_rng([5, trial])
        m = rng.random((n, n)) * 2.0
        d = (m + m.T) / 2.0
        np.fill_diagonal(d, 0.0)
        g = minimum_spanning_tree(d, assets)
        repeat = minimum_spanning_tree(d, assets)
        report = cluster_report(g)
        checks = (
            tree_weight(d, g.edges) == brute_force_mst_weight(d),
            len(g.edges) == n - 1,
            len(report.components) == 1 and len(report.components[0]) == n,
            g.edges == repeat.edges,
        )
        if not all(checks):
            ok = False
            detail = (trial, checks)
            break
    assert announce(capfd, 5, "mst-exactness", ok), detail


def test_criterion_6_planted_group_recovery(capfd):
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    rp, _ = planted_group_panel(rng)
    sd = eigendecompose(correlation_matrix(rp))
    bounds = rmt_bounds(rp.n_assets, rp.n_steps)
    ng_ok = select_ng(sd, bounds) == 2

    hits = 0
    for trial in range(20):
        trial_rng = np.random.default_rng([6, trial])
        rp, labels = planted_group_panel(trial_rng)
        sd = eigendecompose(correlation_matrix(rp))
        md = decompose_modes(sd, 2)
        sweep = threshold_sweep(md.c_group)
        tnet = threshold_network(md.c_group, sweep.recommended, rp.assets)
        recovered = component_labels(cluster_report(tnet).components, rp.n_assets)
        grouped = labels >= 0
        hits += rand_index(recovered[grouped], labels[grouped]) >= 0.9
    elapsed = time.monotonic() - start
    ok = ng_ok and hits >= 18 and elapsed < 30.0
    assert announce(capfd, 6, "planted-group-recovery", ok), (ng_ok, hits, elapsed)


def test_criterion_7_tail_estimator(capfd):
    fixture = hill_estimate(np.array([math.e, math.e ** 2, math.e ** 3]), 1.0)
    fixture_ok = abs(fixture - 0.5) < 1e-12
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng([7, trial])
        samples = pareto_samples(rng, 6000, 3.0)
        fit = fit_tail_exponent(samples, "positive", 0.10)
        hits += 2.7 <= fit.alpha <= 3.3
    ok = fixture_ok and hits >= 95
    assert announce(capfd, 7, "tail-estimator", ok), (fixture, hits)


def snapshot_tree(root):
    tree = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


def test_criterion_8_determinism_roundtrip(tmp_path, capfd):
    prices, meta = synthetic_price_files(tmp_path)
    out_dir = str(tmp_path / "out")
    cfg = PipelineConfig(
        prices_path=prices, metadata_path=meta, out_dir=out_dir, surrogates=3
    )
    run_pipeline(cfg)
    first = snapshot_tree(out_dir)
    shutil.rmtree(out_dir)
    run_pipeline(cfg)
    second = snapshot_tree(out_dir)
    identical = first == second

    labels, edges = read_pajek(os.path.join(out_dir, "mst.net"))
    mst_json = read_json_report(os.path.join(out_dir, "mst.json"))
    report = read_json_report(os.path.join(out_dir, "report.json"))
    roundtrip = (
        labels == [node["code"] for node in mst_json["nodes"]]
        and [(i, j) for i, j, _ in edges]
        == [(i, j) for i, j, _ in mst_json["edges"]]
        and all(
            abs(a - b) < 1e-6
            for (_, _, a), (_, _, b) in zip(edges, mst_json["edges"])
        )
        and report["panel"]["codes"] == labels
    )
    ok = identical and roundtrip
    assert announce(capfd, 8, "determinism-roundtrip", ok), (identical, roundtrip)


_PIPELINE_SCRIPT = """
import sys
from fxnet.report import PipelineConfig, run_pipeline
run_pipeline(PipelineConfig(prices_path=sys.argv[1], metadata_path=sys.argv[2],
                            out_dir=sys.argv[3], n_g="auto", surrogates=2))
"""


def _run_in_fresh_interpreter(threads, prices, meta, out_dir):
    # BLAS reads its thread count once per process
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", _PIPELINE_SCRIPT, prices, meta, out_dir],
                   env=env, check=True, timeout=300)
    return snapshot_tree(out_dir)


def test_same_bytes_at_any_blas_thread_count_and_any_paths(tmp_path):
    # each run reads its own copy of the inputs and writes its own out_dir; at
    # 150 x 750 an unpinned BLAS splits its work at two threads, so two runs
    # there must also agree with each other
    prices, meta, _ = planted_price_files(tmp_path, n=150, t=750, group_size=40)
    trees = []
    for k, threads in enumerate(("1", "2", "2")):
        run_dir = tmp_path / f"run{k}"
        run_dir.mkdir()
        shutil.copy(prices, run_dir / "prices.csv")
        shutil.copy(meta, run_dir / "meta.csv")
        trees.append(_run_in_fresh_interpreter(
            threads, str(run_dir / "prices.csv"), str(run_dir / "meta.csv"),
            str(run_dir / "out")))
    assert trees[0] and trees[0] == trees[1] == trees[2]


def test_one_changed_price_byte_changes_the_recorded_digest(tmp_path):
    prices, meta = synthetic_price_files(tmp_path)
    with open(prices, "rb") as fh:
        raw = fh.read()
    first = run_pipeline(PipelineConfig(prices_path=prices, metadata_path=meta,
                                        out_dir=str(tmp_path / "a"), surrogates=1))
    assert first["inputs"]["prices"] == {"sha256": hashlib.sha256(raw).hexdigest(),
                                         "bytes": len(raw)}
    # the last digit of the last price, which stays a positive price
    last = raw[-2:-1]
    assert last.isdigit()
    with open(prices, "wb") as fh:
        fh.write(raw[:-2] + (b"1" if last == b"0" else b"0") + b"\n")
    second = run_pipeline(PipelineConfig(prices_path=prices, metadata_path=meta,
                                         out_dir=str(tmp_path / "b"), surrogates=1))
    assert second["inputs"]["prices"]["bytes"] == first["inputs"]["prices"]["bytes"]
    assert second["inputs"]["prices"]["sha256"] != first["inputs"]["prices"]["sha256"]
    assert second["inputs"]["metadata"] == first["inputs"]["metadata"]
