"""The output checks pass on real fxnet output and fail on corrupted output."""

import json
import os
import shutil

import pytest

import checks
import gen
import worker

TINY = {"why": "test", "n_assets": 30, "n_dates": 1500, "n_groups": 2,
        "blank_frac": 0.005, "outages": 2, "job": "report", "surrogates": 1}


@pytest.fixture(scope="module")
def report_run(tmp_path_factory):
    """One `report` and one `stages` job on a small planted panel with gaps."""
    import fxnet.cli

    root = tmp_path_factory.mktemp("tiny")
    inputs, out, stages_out = str(root / "in"), str(root / "out"), str(root / "stages")
    gen.WORKLOADS["tiny"] = TINY
    try:
        gen.write_inputs("tiny", 5, inputs)
    finally:
        del gen.WORKLOADS["tiny"]
    job = worker.run_job(fxnet.cli.main, worker.job_calls(TINY, inputs, out), out, None)
    stages = worker.run_job(fxnet.cli.main,
                            worker.job_calls(dict(TINY, job="stages"), inputs, stages_out),
                            stages_out, None)
    with open(os.path.join(inputs, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    assert job["codes"] == [0] and stages["codes"] == [0] * 7
    return inputs, out, stages_out, stages["stdout"], truth


def copy_of(src, tmp_path):
    dst = str(tmp_path / "copy")
    shutil.copytree(src, dst)
    return dst


def report_fails(out, truth):
    fails, _ = checks.check_outputs("report", out, "", truth, 1)
    return fails


def test_real_outputs_pass(report_run):
    _, out, stages_out, stdout, truth = report_run
    assert truth["dropped_dates"], "the tiny panel should drop dates"
    assert report_fails(out, truth) == []
    fails, facts = checks.check_outputs("stages", stages_out, stdout, truth, 0)
    assert fails == []
    assert facts["spectral.eig_residual"] < 1e-9


def rewrite_csv_cell(path, row, col, fn):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_perturbed_eigenvalue_fails(report_run, tmp_path):
    _, out, _, _, truth = report_run
    bad = copy_of(out, tmp_path)
    rewrite_csv_cell(os.path.join(bad, "spectrum.csv"), 3, 1,
                     lambda x: repr(float(x) * (1 + 1e-7)))
    assert any("residual" in f for f in report_fails(bad, truth))


def test_swapped_eigenvalues_fail_the_order_check(report_run, tmp_path):
    _, out, _, _, truth = report_run
    bad = copy_of(out, tmp_path)
    path = os.path.join(bad, "spectrum.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    a, b = lines[2].split(","), lines[3].split(",")
    lines[2], lines[3] = f"{a[0]},{b[1]}", f"{b[0]},{a[1]}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("descending" in f for f in report_fails(bad, truth))


def test_swapped_mst_edge_fails(report_run, tmp_path):
    _, out, _, _, truth = report_run
    bad = copy_of(out, tmp_path)
    path = os.path.join(bad, "mst.json")
    with open(path, encoding="utf-8") as fh:
        mst = json.load(fh)
    c = checks.read_matrix_csv(os.path.join(bad, "correlation.csv"))
    d = checks.mantegna(c)
    # swap the first edge for the cheapest pair that is not a tree edge
    tree = {(i, j) for i, j, _ in mst["edges"]}
    n = c.shape[0]
    i, j = min(((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree),
               key=lambda e: d[e])
    mst["edges"][0] = [i, j, float(f"{d[i, j]:.12g}")]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mst, fh)
    assert any("MST" in f for f in report_fails(bad, truth))


def test_perturbed_mode_matrix_fails(report_run, tmp_path):
    _, out, _, _, truth = report_run
    bad = copy_of(out, tmp_path)
    rewrite_csv_cell(os.path.join(bad, "c_group.csv"), 2, 5,
                     lambda x: repr(float(x) + 1e-8))
    assert any("c_global + c_group + c_random" in f for f in report_fails(bad, truth))


def test_wrong_group_count_fails(report_run):
    _, out, _, _, truth = report_run
    assert any("n_g_auto" in f for f in report_fails(out, dict(truth, n_groups=3)))


def test_stages_dropped_date_count_is_checked(report_run):
    _, _, stages_out, stdout, truth = report_run
    wrong = dict(truth, n_dates=truth["n_dates"] + 1)
    fails, _ = checks.check_outputs("stages", stages_out, stdout, wrong, 0)
    assert any("ingest reports" in f for f in fails)


def test_missing_file_is_a_failure(report_run, tmp_path):
    _, out, _, _, truth = report_run
    bad = copy_of(out, tmp_path)
    os.unlink(os.path.join(bad, "mst.json"))
    assert report_fails(bad, truth)


def test_failing_command_is_reported(tmp_path):
    import fxnet.cli

    missing = str(tmp_path / "missing.csv")
    job = worker.run_job(fxnet.cli.main,
                         [("ingest", ["ingest", "--prices", missing, "--metadata", missing])],
                         str(tmp_path / "out"), None)
    assert job["codes"] == [1]


def test_same_inputs_same_digest(report_run):
    import fxnet.cli

    inputs, out, _, _, _ = report_run
    calls = worker.job_calls(TINY, inputs, out)
    first = worker.run_job(fxnet.cli.main, calls, out, None)
    second = worker.run_job(fxnet.cli.main, calls, out, None)
    assert first["digest"] == second["digest"]
