"""Output checks against oracles independent of fxnet.

Each check reads the files a job wrote and returns a list of failure messages
(empty when it passes).  A job whose outputs fail any check counts as failed.

Tolerances follow from how the files are written.  fxnet prints reals with
12 significant digits, so each value read back carries a relative rounding
error of at most EPS = 5e-12.  The solver term SOLVER(N, lambda_max) covers
the eigensolver itself: fxnet's Jacobi sweeps stop once the off-diagonal
Frobenius norm is below 1e-12 * N, which bounds both the residual
|C u - lambda u| and the error of sum_j lambda_j u_j u_j^T / N against C; the
second term is the rounding of the N-dimensional products, well below that.
"""

from __future__ import annotations

import csv
import json
import os
import re

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst

EPS = 5e-12


def solver_tol(n: int, lam_max: float) -> float:
    return 1e-12 * n + 1e-14 * n * max(1.0, lam_max)


def read_matrix_csv(path: str) -> np.ndarray:
    """Numeric body of a CSV whose first row and first column are labels."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def read_spectrum(d: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvector rows, correlation matrix) from one directory."""
    lam = read_matrix_csv(os.path.join(d, "spectrum.csv"))[:, 0]
    u = read_matrix_csv(os.path.join(d, "eigenvectors.csv"))
    c = read_matrix_csv(os.path.join(d, "correlation.csv"))
    return lam, u, c


def eig_residual(lam: np.ndarray, u: np.ndarray, c: np.ndarray) -> float:
    """max_j |C v_j - lambda_j v_j| with v_j = u_j / sqrt(N), a unit vector."""
    v = u / np.sqrt(c.shape[0])
    return float(np.linalg.norm(c @ v.T - v.T * lam, axis=0).max())


def check_spectrum(lam: np.ndarray, u: np.ndarray, c: np.ndarray) -> list[str]:
    n = c.shape[0]
    fails = []
    if lam.shape != (n,) or u.shape != (n, n):
        return [f"spectrum shapes {lam.shape}, {u.shape} do not match N={n}"]
    if np.any(np.diff(lam) > 0):
        fails.append("eigenvalues are not in descending order")
    lam_max = float(np.abs(lam).max())
    solver = solver_tol(n, lam_max)
    trace_err = abs(float(lam.sum()) - n)
    if trace_err > 2 * EPS * float(np.abs(lam).sum()) + solver:
        fails.append(f"eigenvalues sum to N{trace_err:+.3g}, not N={n}")
    # each product u_j . u_k sums N terms, each rounded twice: <= 2 EPS N
    orth_err = float(np.abs(u @ u.T - n * np.eye(n)).max())
    if orth_err > 2 * EPS * n + n * solver:
        fails.append(f"U U^T deviates from N I by {orth_err:.3g}")
    # rounding of C (|dC|_2 <= |dC|_F <= N EPS), of v and of lambda
    res = eig_residual(lam, u, c)
    if res > 2 * (n * EPS + 3 * EPS * lam_max) + solver:
        fails.append(f"eigen residual {res:.3g} exceeds the tolerance")
    return fails


def check_modes(d: str, c: np.ndarray, lam_max: float) -> list[str]:
    parts = [read_matrix_csv(os.path.join(d, f"c_{k}.csv"))
             for k in ("global", "group", "random")]
    if any(p.shape != c.shape for p in parts):
        return ["mode matrices do not match the correlation matrix's shape"]
    total = parts[0] + parts[1] + parts[2]
    tol = 2 * EPS * (sum(np.abs(p) for p in parts) + np.abs(c))
    tol += solver_tol(c.shape[0], lam_max)
    err = np.abs(total - c) - tol
    if np.any(err > 0):
        return [f"c_global + c_group + c_random differs from C by "
                f"{float(np.abs(total - c).max()):.3g}"]
    return []


def mantegna(c: np.ndarray) -> np.ndarray:
    d = np.sqrt(2.0 * (1.0 - np.clip(c, -1.0, 1.0)))
    np.fill_diagonal(d, 0.0)
    return d


def check_mst(path: str, c: np.ndarray) -> list[str]:
    """The tree spans every node, its weights are Mantegna distances, and its
    total equals scipy's minimum spanning tree on the same distances."""
    with open(path, encoding="utf-8") as fh:
        edges = json.load(fh)["edges"]
    n = c.shape[0]
    d = mantegna(c)
    if len(edges) != n - 1:
        return [f"MST has {len(edges)} edges, expected {n - 1}"]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    fails = []
    # |d(C + dC) - d(C)| <= EPS / d for the rounded C, plus the weight's own rounding
    edge_tol = lambda dij: 2 * EPS * (1.0 / dij + dij)  # noqa: E731
    for i, j, w in edges:
        parent[find(i)] = find(j)
        if abs(w - d[i, j]) > edge_tol(d[i, j]):
            fails.append(f"MST edge ({i}, {j}) weight {w} is not the distance {d[i, j]:.12g}")
            break
    if len({find(x) for x in range(n)}) != 1:
        fails.append("MST edges do not connect every node")
    oracle = float(scipy_mst(d).sum())
    off = d[np.triu_indices(n, k=1)]
    total_tol = 2 * (n - 1) * edge_tol(float(off.min())) + 4 * (n - 1) * EPS
    total = sum(w for _, _, w in edges)
    if abs(total - oracle) > total_tol:
        fails.append(f"MST total weight {total:.12g} differs from the oracle's {oracle:.12g}")
    return fails


def check_report(out: str, truth: dict, surrogates: int) -> tuple[list[str], dict]:
    """Checks for one `fxnet report` output directory; also returns facts."""
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    lam, u, c = read_spectrum(out)
    fails = check_spectrum(lam, u, c)
    fails += check_modes(out, c, float(lam.max()))
    fails += check_mst(os.path.join(out, "mst.json"), c)
    n_g = report["modes"]["n_g_auto"]
    if n_g != truth["n_groups"]:
        fails.append(f"n_g_auto is {n_g}, the generator planted {truth['n_groups']} groups")
    if report["panel"]["n_dates"] != truth["n_dates"]:
        fails.append(f"panel has {report['panel']['n_dates']} dates, "
                     f"expected {truth['n_dates']}")
    if report["surrogates"]["count"] != surrogates:
        fails.append("surrogate count does not match the request")
    n_ccdf = len(os.listdir(os.path.join(out, "ccdf")))
    if n_ccdf != 2 * truth["n_assets"]:
        fails.append(f"{n_ccdf} CCDF files, expected {2 * truth['n_assets']}")
    facts = {
        "spectral.eig_residual": eig_residual(lam, u, c),
        "spectral.bulk_fraction": report["surrogates"].get("bulk_fraction", 0.0),
    }
    return fails, facts


def check_stages(out: str, stdout: str, truth: dict) -> tuple[list[str], dict]:
    """Checks for the seven output directories of one `stages` job."""
    fails = []
    m = re.search(r"panel: (\d+) assets, (\d+) dates", stdout)
    if not m or (int(m[1]), int(m[2])) != (truth["n_assets"], truth["n_dates"]):
        fails.append(f"ingest reports {m[0] if m else 'nothing'}, expected "
                     f"{truth['n_assets']} assets and {truth['n_dates']} dates "
                     f"({len(truth['dropped_dates'])} dropped)")
    with open(os.path.join(out, "returns", "returns.csv"), encoding="utf-8") as fh:
        steps = len(fh.readline().split(",")) - 1
    if steps != truth["n_dates"] - 1:
        fails.append(f"returns.csv has {steps} steps, expected {truth['n_dates'] - 1}")
    m = re.search(r"decomposed with n_g=(\d+)", stdout)
    if not m or int(m[1]) != truth["n_groups"]:
        fails.append(f"decompose used {m[0] if m else 'nothing'}, the generator "
                     f"planted {truth['n_groups']} groups")
    n_ccdf = sum(f.startswith("ccdf_") for f in os.listdir(os.path.join(out, "tails")))
    if n_ccdf != 2 * truth["n_assets"]:
        fails.append(f"{n_ccdf} CCDF files, expected {2 * truth['n_assets']}")
    lam, u, c = read_spectrum(os.path.join(out, "spectrum"))
    fails += check_spectrum(lam, u, c)
    fails += check_modes(os.path.join(out, "decompose"), c, float(lam.max()))
    fails += check_mst(os.path.join(out, "mst", "mst.json"), c)
    facts = {"spectral.eig_residual": eig_residual(lam, u, c), "spectral.bulk_fraction": 0.0}
    return fails, facts


def check_outputs(job: str, out: str, stdout: str, truth: dict,
                  surrogates: int) -> tuple[list[str], dict]:
    """Run every check for one job; a check that crashes is a failure."""
    try:
        if job == "report":
            return check_report(out, truth, surrogates)
        return check_stages(out, stdout, truth)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"], {}
