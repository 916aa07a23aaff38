"""The committed report tree of a 12-asset panel, against a fresh run.

`golden/prices.csv` and `golden/meta.csv` are committed as bytes, so that no
random stream enters, and `golden/report` is their report tree, written by

    fxnet report --prices tests/golden/prices.csv \\
        --metadata tests/golden/meta.csv --out-dir tests/golden/report --surrogates 0

(rerun it after a deliberate change of the output). The panel has ties, zero
returns, a filled gap and two dropped dates. `golden/surrogates.json` is the
`surrogates` block of report.json from the same command with
`--surrogates 3`, as `json.dumps(block, sort_keys=True, indent=2)` prints it.

The files computed from the returns and C alone must keep their bytes. The
files computed from the eigensolver may differ by as much as two backward
stable solvers, such as numpy's on two LAPACK builds, may differ. Each
eigenpair of either run has a residual of at most eta = 10 n eps ||C||_2, the
bound `test_spectral` checks, so the eigenvalues agree within 2 eta (Weyl)
and eigenvector j within sin theta_j <= 2 eta / gap_j (Davis-Kahan). Every
printed number may also differ by the `%.12g` rounding of both runs.

scipy bundles its own OpenBLAS, a second build beside numpy's, so the module
checks the contract across builds offline: the fresh tree is made once with
numpy's eigensolver and once with each of two of scipy's LAPACK drivers
(`TestScipyEigensolvers`), and C is built a second time with scipy's BLAS
(`test_c_from_scipys_dsyrk_prints_the_committed_files`).
"""

import dataclasses
import functools
import json
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dsyrk

from fxnet.modes import HISTOGRAM_BINS
from fxnet.report import (
    PipelineConfig,
    build_mst,
    correlate,
    decompose,
    graph_files,
    panel_returns,
    read_panel,
    run_pipeline,
    spectrum,
    spectrum_files,
)
from fxnet.spectral import derive_seeds, surrogate_correlation
from oracles import read_json_report, read_pajek

GOLDEN = pathlib.Path(__file__).parent / "golden"
EPS = np.finfo(float).eps
ROUND = 0.5e-11  # the relative rounding of a `%.12g` cell
# the fresh tree's eigensolver, put in place of numpy.linalg.eigh by name:
# numpy's own, which wrote the committed tree; scipy's divide and conquer
# `evd`, the algorithm numpy runs; and scipy's MRRR `evr`, another algorithm
EIGENSOLVERS = {
    "numpy": np.linalg.eigh,
    "evd": functools.partial(scipy.linalg.eigh, driver="evd"),
    "evr": functools.partial(scipy.linalg.eigh, driver="evr"),
}


def _golden_config(out_dir=""):
    return PipelineConfig(str(GOLDEN / "prices.csv"), str(GOLDEN / "meta.csv"), out_dir,
                          surrogates=0)


def _golden_returns():
    cfg = _golden_config()
    return panel_returns(read_panel(cfg.prices_path, cfg.metadata_path, cfg.fill_limit), cfg.delta)


def _trees(tmp_path_factory, solver):
    """(committed tree, fresh tree), the fresh one with EIGENSOLVERS[solver]."""
    out = tmp_path_factory.mktemp(f"golden-{solver}") / "report"
    with mock.patch("numpy.linalg.eigh", EIGENSOLVERS[solver]):
        run_pipeline(_golden_config(str(out)))
    return GOLDEN / "report", out


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    return _trees(tmp_path_factory, "numpy")


@pytest.fixture(scope="module")
def bounds(trees):
    return _bounds(trees, "numpy")


def _bounds(trees, solver):
    """How far each eigensolver-derived quantity of two runs may differ:
    "weyl" for an eigenvalue, "vector"[j] for a cell of eigenvector j as
    printed (sum of squares N), and for a cell of each mode matrix c_<part>
    the 2-norm bound of that matrix's change. The run of EIGENSOLVERS[solver]
    must itself be backward stable."""
    rp = _golden_returns()
    c = correlate(rp)
    with mock.patch("numpy.linalg.eigh", EIGENSOLVERS[solver]):
        sd, _ = spectrum(c, rp.n_steps)
    n = c.shape[0]
    lam, u = sd.eigenvalues, sd.eigenvectors.T / math.sqrt(n)
    eta = 10 * n * EPS * np.linalg.norm(c, 2)
    # this run is backward stable: its residual and its loss of orthogonality
    # are within eta, so C differs from the sum of all its terms
    # lam_j u_j u_j^T by at most 2 eta
    assert np.linalg.norm(c @ u - u * lam) <= eta
    assert np.linalg.norm(u.T @ u - np.eye(n), 2) * np.linalg.norm(c, 2) <= eta
    weyl = 2 * eta
    gap = np.array([np.abs(np.delete(lam, j) - lam[j]).min() for j in range(n)]) - 2 * weyl
    assert np.all(gap > 0)  # no near-degenerate pair in this panel
    sin = 2 * eta / gap + n * EPS
    # the term lam_j u_j u_j^T moves by at most |d lam_j| + |lam_j| sin theta_j
    # in the 2-norm, which bounds every entry; n eps |lam_j| covers its evaluation
    term = weyl + (np.abs(lam) + weyl) * sin + n * EPS * np.abs(lam)
    n_g = read_json_report(trees[1] / "report.json")["modes"]["n_g_used"]
    glob, group = term[0], term[1:1 + n_g].sum()
    # c_random is C minus the other two parts, up to 2 eta of each run
    rest = glob + group + 4 * eta + n * EPS * np.abs(lam[1 + n_g:]).sum()
    # a unit vector within sin theta is within sqrt(2) sin theta in the 2-norm
    return {"weyl": weyl, "vector": math.sqrt(2 * n) * sin,
            "global": glob, "group": group, "random": rest}


def _close(a, b, bound):
    """Whether each |a - b| is within bound plus the print rounding of both."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= bound + (ROUND + EPS) * (np.abs(a) + np.abs(b))))


def _table(path):
    """(header, label column, number matrix) of a CSV whose first column is a label."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = [row.split(",") for row in rows]
    return header, [r[0] for r in cells], np.array([[float(x) for x in r[1:]] for r in cells])


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_files_from_the_returns_and_c_keep_their_bytes(trees):
    golden, fresh = map(_files, trees)
    assert set(golden) == set(fresh)
    exact = [rel for rel in golden
             if rel.startswith("ccdf/") or rel in ("correlation.csv", "mst.net", "mst.json")]
    assert len(exact) == 3 + 2 * 12
    for rel in exact:
        assert golden[rel] == fresh[rel], rel


def test_spectrum_and_eigenvectors_within_weyl_and_davis_kahan(trees, bounds):
    (header, index, lam), (header2, index2, lam2) = (_table(t / "spectrum.csv") for t in trees)
    assert (header, index) == (header2, index2)
    assert _close(lam, lam2, bounds["weyl"])
    (header, index, u), (header2, index2, u2) = (_table(t / "eigenvectors.csv") for t in trees)
    assert (header, index) == (header2, index2)
    for j, (a, b) in enumerate(zip(u, u2)):
        # the direction of u_j, whichever sign the canonical choice gave it
        assert _close(a, np.sign(a @ b) * b, bounds["vector"][j]), j


@pytest.mark.parametrize("part", ["global", "group", "random"])
def test_mode_matrices_within_their_terms_bounds(trees, bounds, part):
    (header, codes, m), (header2, codes2, m2) = (_table(t / f"c_{part}.csv") for t in trees)
    assert (header, codes) == (header2, codes2)
    assert _close(m, m2, bounds[part])


def test_histograms_count_the_same_elements(trees, bounds):
    """The histogram of C keeps its bytes. Each part's bins move by at most the
    part's bound, as do its elements, so none of them changes bin while every
    element lies further than twice that bound from an inner bin edge; then
    the counts are equal and only the bin centres move."""
    texts = [(t / "histograms.csv").read_text(encoding="utf-8").splitlines() for t in trees]
    assert texts[0][0] == texts[1][0]
    full = [[r for r in text if r.endswith(",full")] for text in texts]
    assert full[0] == full[1] and len(full[0]) == HISTOGRAM_BINS
    m = 12 * 11 // 2  # off-diagonal elements
    for part in ("global", "group", "random"):
        rows = [np.array([[float(x) for x in r.split(",")[:2]] for r in text
                          if r.endswith("," + part)]) for text in texts]
        assert rows[0].shape == rows[1].shape == (HISTOGRAM_BINS, 2), part
        assert _close(rows[0][:, 0], rows[1][:, 0], bounds[part]), part
        counts = []
        for centre, density in (r.T for r in rows):
            width = (centre[-1] - centre[0]) / (HISTOGRAM_BINS - 1)
            count = density * m * width
            assert np.allclose(count, count.round(), rtol=0, atol=1e-6), part
            counts.append(count.round())
        assert np.array_equal(counts[0], counts[1]), part
        _, _, c = _table(trees[1] / f"c_{part}.csv")
        vals = c[np.triu_indices(12, k=1)]
        edges = np.linspace(vals.min(), vals.max(), HISTOGRAM_BINS + 1)[1:-1]
        margin = np.abs(vals[:, None] - edges).min()
        assert margin > 2 * bounds[part] + 2 * ROUND * np.abs(vals).max(), part


def _sweep(path):
    """(header, cutoffs, the other cells of each row as text) of sweep.csv."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = [row.split(",", 1) for row in rows]
    return header, [float(c) for c, _ in cells], [rest for _, rest in cells]


def test_threshold_edges_match_and_weights_within_the_group_bound(trees, bounds):
    bound = bounds["group"]
    (labels, edges), (labels2, edges2) = (read_pajek(t / "threshold.net") for t in trees)
    assert labels == labels2
    assert [e[:2] for e in edges] == [e[:2] for e in edges2] and edges
    assert _close([e[2] for e in edges], [e[2] for e in edges2], bound + 1e-6)  # each rounded to 6 decimals
    graph, graph2 = (read_json_report(t / "threshold.json") for t in trees)
    edges, edges2 = graph.pop("edges"), graph2.pop("edges")
    assert graph == graph2
    assert [e[:2] for e in edges] == [e[:2] for e in edges2]
    assert _close([e[2] for e in edges], [e[2] for e in edges2], bound)
    # the cutoffs are k/40 of the largest element of c_group
    (header, cuts, counts), (header2, cuts2, counts2) = (_sweep(t / "sweep.csv") for t in trees)
    assert header == header2 and counts == counts2
    assert _close(cuts, cuts2, bound)


def _walk(a, b, path, tolerance):
    """Assert that two JSON trees are equal, except each real at a path that
    `tolerance` maps (integer indices as "*") to a bound, which must be
    within that bound."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        for key in a:
            _walk(a[key], b[key], (*path, key), tolerance)
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, (*path, k), tolerance)
    else:
        bound = tolerance.get(tuple("*" if isinstance(p, int) else p for p in path))
        if bound is None or not isinstance(a, float):
            assert a == b and type(a) is type(b), path
        else:
            assert isinstance(b, float) and _close(a, b, bound), path


def test_report_json_numbers_within_their_bounds(trees, bounds):
    golden, fresh = (read_json_report(t / "report.json") for t in trees)
    n_edges = fresh["graphs"]["threshold"]["n_edges"]
    tolerance = {
        ("spectrum", "eigenvalues", "*"): bounds["weyl"],
        ("leading_mode", "*", "component"): bounds["vector"][0],
        ("graphs", "threshold", "c_th"): bounds["group"],
        ("graphs", "threshold", "recommended"): bounds["group"],
        ("graphs", "threshold", "total_weight"): n_edges * bounds["group"],
    }
    for part in ("global", "group", "random"):
        for stat in ("mean", "std", "min", "max"):
            # each moves by at most the largest change of an element
            tolerance["modes", "element_stats", part, stat] = bounds[part]
    _walk(golden, fresh, (), tolerance)


def test_c_from_scipys_dsyrk_prints_the_committed_files():
    """C built a second way, by scipy's OpenBLAS, prints the committed
    correlation.csv, mst.net and mst.json. `dsyrk` fills one triangle of the
    centred returns' Gram product, which is mirrored, divided by T and given
    a unit diagonal, as `_correlation_of` does; numpy computes the product as
    a rank-k update too and copies the triangle itself. Some of the entries
    may differ from numpy's in their last bits (52 of 144 with numpy 2.4's
    and scipy 1.17's wheels), but not at the printed digits."""
    rp = _golden_returns()
    centred = rp.returns - rp.returns.mean(axis=1, keepdims=True)
    upper = dsyrk(1.0, centred)  # the strict lower triangle is left at zero
    c = (upper + np.triu(upper, 1).T) / rp.n_steps
    np.fill_diagonal(c, 1.0)
    sd, _ = spectrum(c, rp.n_steps)
    mst, _ = build_mst(c, rp.assets, _golden_config().hub_sigma)
    fresh = dict(spectrum_files(rp.assets, c, sd)) | dict(graph_files(mst))
    for rel in ("correlation.csv", "mst.net", "mst.json"):
        assert fresh[rel] == (GOLDEN / "report" / rel).read_text(encoding="utf-8"), rel


def _surrogate_block(tmp_path_factory, solver):
    """The text golden/surrogates.json holds, from a fresh run with
    EIGENSOLVERS[solver]."""
    out = tmp_path_factory.mktemp(f"surrogates-{solver}") / "report"
    cfg = dataclasses.replace(_golden_config(str(out)), surrogates=3)
    with mock.patch("numpy.linalg.eigh", EIGENSOLVERS[solver]):
        run_pipeline(cfg)
    block = read_json_report(out / "report.json")["surrogates"]
    return json.dumps(block, sort_keys=True, indent=2) + "\n"


def test_surrogate_summary_keeps_its_bytes(tmp_path_factory):
    """The surrogates' seeds, shuffles, bulk window and statistics, pinned."""
    golden = (GOLDEN / "surrogates.json").read_text(encoding="utf-8")
    assert _surrogate_block(tmp_path_factory, "numpy") == golden


class TestScipyEigensolvers:
    """The checks above on fresh trees whose eigenpairs come from scipy's
    OpenBLAS: each tree keeps the bytes of the files from the returns and C,
    and stays within the bounds of two backward stable solvers elsewhere."""

    @pytest.fixture(scope="class", params=["evd", "evr"])
    def solver(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def trees(self, tmp_path_factory, solver):
        return _trees(tmp_path_factory, solver)

    @pytest.fixture(scope="class")
    def bounds(self, trees, solver):
        return _bounds(trees, solver)

    test_files_from_the_returns_and_c_keep_their_bytes = staticmethod(
        test_files_from_the_returns_and_c_keep_their_bytes)
    test_spectrum_and_eigenvectors_within_weyl_and_davis_kahan = staticmethod(
        test_spectrum_and_eigenvectors_within_weyl_and_davis_kahan)
    test_mode_matrices_within_their_terms_bounds = staticmethod(
        test_mode_matrices_within_their_terms_bounds)
    test_histograms_count_the_same_elements = staticmethod(
        test_histograms_count_the_same_elements)
    test_threshold_edges_match_and_weights_within_the_group_bound = staticmethod(
        test_threshold_edges_match_and_weights_within_the_group_bound)
    test_report_json_numbers_within_their_bounds = staticmethod(
        test_report_json_numbers_within_their_bounds)

    def test_unprinted_numbers_within_the_bounds(self, bounds, solver):
        """The checks above compare printed cells, within the bounds plus the
        `%.12g` rounding of both runs, and on this panel `evr` moves no cell
        by more than that rounding. So compare the eigenpairs and the mode
        matrices of the two solvers before they are printed, within the
        bounds alone."""
        rp = _golden_returns()
        c = correlate(rp)
        runs = []
        for name in ("numpy", solver):
            with mock.patch("numpy.linalg.eigh", EIGENSOLVERS[name]):
                sd, rmt = spectrum(c, rp.n_steps)
            runs.append((sd, decompose(sd, rmt, _golden_config().n_g)[0]))
        (sd, md), (sd2, md2) = runs
        assert np.all(np.abs(sd.eigenvalues - sd2.eigenvalues) <= bounds["weyl"])
        for j, (a, b) in enumerate(zip(sd.eigenvectors, sd2.eigenvectors)):
            assert np.all(np.abs(a - np.sign(a @ b) * b) <= bounds["vector"][j]), j
        for part in ("global", "group", "random"):
            m, m2 = getattr(md, f"c_{part}"), getattr(md2, f"c_{part}")
            assert np.all(np.abs(m - m2) <= bounds[part]), part

    def test_surrogate_summary_within_weyl(self, tmp_path_factory, solver):
        """The surrogate summary of a scipy run: every surrogate eigenvalue of
        a backward stable solver is within 2 eta of numpy's (Weyl). None lies
        within 2 eta of the bulk window's edges, so `bulk_fraction` is exact;
        `eigenvalue_max` and `eigenvalue_min` are within 2 eta plus the print
        rounding. The numbers not from the eigensolver are exact, and
        `ks_statistic`, from the eigenvectors, is not compared."""
        golden = read_json_report(GOLDEN / "surrogates.json")
        fresh = json.loads(_surrogate_block(tmp_path_factory, solver))
        rp = _golden_returns()
        buf = np.empty(rp.returns.shape)
        n = rp.n_assets
        assert n < rp.n_steps  # so every eigenvalue enters the summary
        lams, eta = [], 0.0
        for seed in derive_seeds(golden["seed"], golden["count"]):
            c = surrogate_correlation(rp, seed, buf)
            lam, u = EIGENSOLVERS[solver](c)
            eta_k = 10 * n * EPS * np.linalg.norm(c, 2)
            assert np.linalg.norm(c @ u - u * lam) <= eta_k
            assert np.linalg.norm(u.T @ u - np.eye(n), 2) * np.linalg.norm(c, 2) <= eta_k
            lams.append(lam)
            eta = max(eta, eta_k)
        lam = np.concatenate(lams)
        for edge in (golden["bulk_low"], golden["bulk_high"]):
            # the printed edge is within its rounding of the one compared
            assert np.abs(lam - edge).min() > 2 * eta + (ROUND + EPS) * abs(edge)
        for key in ("eigenvalue_max", "eigenvalue_min"):
            assert _close(fresh.pop(key), golden.pop(key), 2 * eta), key
        del fresh["ks_statistic"], golden["ks_statistic"]
        assert fresh == golden

    @pytest.mark.parametrize("solver", ["evr"], indirect=True)
    def test_evr_changes_some_bytes(self, trees):
        """At least one file of the `evr` tree differs from the committed one,
        so its checks above compare numbers that differ."""
        golden, fresh = map(_files, trees)
        assert any(golden[rel] != fresh[rel] for rel in golden)
