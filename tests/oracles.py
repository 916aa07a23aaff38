"""Independent reference implementations used only to check results."""

import csv
import datetime
import io
import itertools
import json
import math

import numpy as np

from fxnet.market_data import (
    DEFAULT_FILL_LIMIT,
    PanelError,
    PricePanel,
    _csv_rows,
    _freeze,
    _iso_date,
    parse_asset_metadata,
)
from fxnet.report import SCHEMA_VERSION, export_json_report


def charpoly_coefficients(m):
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] for det(lambda I - M); avoids any
    eigendecomposition so it is independent of the solver under test.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    coeffs = [1.0]
    aux = np.zeros_like(m)
    for k in range(1, n + 1):
        aux = m @ aux + coeffs[-1] * np.eye(n)
        prod = m @ aux
        coeffs.append(-np.trace(prod) / k)
    return coeffs


def charpoly_eigenvalues(m):
    """Real eigenvalues of a symmetric matrix from its characteristic polynomial."""
    roots = np.roots(charpoly_coefficients(m))
    return np.sort(roots.real)[::-1]


def _jacobi_rotate(a, v, p, q):
    apq = a[p, q]
    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s * col_q
    a[:, q] = s * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = s * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - s * vq
    v[:, q] = s * vp + c * vq


def _off_norm(a):
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))


def jacobi_eigh(m, max_sweeps=100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix, in pure Python.

    Sweeps run until the off-diagonal Frobenius norm drops below 1e-12 * N.
    Returns (eigenvalues descending, unit eigenvectors as columns in the same
    order); signs and the order inside degenerate blocks are whatever the
    sweeps leave. Shares no code with LAPACK.
    """
    a = np.array(m, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    tol = 1e-12 * n
    skip = tol / (n * n)
    for _ in range(max_sweeps):
        if _off_norm(a) < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > skip:
                    _jacobi_rotate(a, v, p, q)
    else:
        if _off_norm(a) >= tol:
            raise RuntimeError(f"Jacobi did not converge within {max_sweeps} sweeps")
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]


def tail_survival_loop(samples, side="positive"):
    """Empirical CCDF (x, P(X > x)) by one count per unique value; a zero of
    either sign is reported as 0.0."""
    x = np.asarray(samples, dtype=float)
    if side == "negative":
        x = -x
    xs = np.sort(x)
    n = xs.size
    out = []
    for v in np.unique(xs):
        # count strictly greater: everything after the last occurrence of v
        greater = n - np.searchsorted(xs, v, side="right")
        if greater > 0:
            out.append((0.0 if v == 0 else float(v), greater / n))
    return out


def ccdf_texts_two_sided(samples):
    """{side: text} of the CCDF files of one series as they were written
    before each file kept only its rows x > 0: every unique value but the
    side's largest, x ≤ 0 included, a zero printed as `0`.

    This is the former writer: each magnitude |u| printed once, a `-` before
    the run of negative x at the top of each file, the ccdf column printed
    once per count."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    values, counts = np.unique(x + 0.0, return_counts=True)
    at_or_below = np.cumsum(counts)
    greater, less = n - at_or_below, at_or_below - counts
    column = [",%.12g\n" % (k / n) for k in range(n)]
    mags = ("%.12g " * len(values) % tuple(np.abs(values).tolist())).split()

    def text(mags, counts, signed):
        cells = [""] * (3 * len(mags))
        cells[: 3 * signed : 3] = ["-"] * signed
        cells[1::3] = mags
        cells[2::3] = map(column.__getitem__, counts)
        return "x,ccdf\n" + "".join(cells)

    return {
        "positive": text(mags[:-1], greater[:-1].tolist(), np.count_nonzero(values[:-1] < 0)),
        "negative": text(mags[:0:-1], less[:0:-1].tolist(), np.count_nonzero(values[1:] > 0)),
    }


def shuffle_surrogate_gather(returns, seed):
    """Each row of `returns` permuted in time by gathering through
    `rng.permutation(t)`, one generator per (seed, row index)."""
    returns = np.asarray(returns, dtype=float)
    out = np.empty_like(returns)
    for i, row in enumerate(returns):
        out[i] = row[np.random.default_rng([seed, i]).permutation(row.size)]
    return out


def surrogate_spectra_loop(returns, master_seed, count):
    """(eigenvalues, eigenvectors) of each of `count` shuffled surrogates,
    one after another in one thread: surrogate k is `shuffle_surrogate_gather`
    with the k-th state of SeedSequence(master_seed), minus its row means,
    C = X X^T / T made symmetric with a unit diagonal, then `np.linalg.eigh`.
    Eigenvalues descend (stable order); row j of the eigenvectors is u_j,
    flipped so that its largest-magnitude component is positive and scaled
    to sum_i u_ji^2 = N."""
    returns = np.asarray(returns, dtype=float)
    n, t = returns.shape
    seeds = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    spectra = []
    for seed in seeds.tolist():
        x = shuffle_surrogate_gather(returns, seed)
        x = x - x.mean(axis=1, keepdims=True)
        c = x @ x.T / t
        c = (c + c.T) / 2.0
        np.fill_diagonal(c, 1.0)
        vals, v = np.linalg.eigh(c)
        order = np.argsort(-vals, kind="stable")
        vecs = v[:, order].T
        for row in vecs:
            if row[np.argmax(np.abs(row))] < 0:
                row *= -1.0
        spectra.append((vals[order], vecs * math.sqrt(n)))
    return spectra


def dual_nonzero_eigenvalues(returns):
    """The nonzero eigenvalues, descending, of C = X X^T / T for the N x T
    rows X of `returns` less their means, read off the T x T dual matrix
    X^T X / T, which has the same nonzero eigenvalues. Its rows sum to 0, so
    X has rank at most T - 1: the smallest dual eigenvalue, that of the
    all-ones vector, is dropped, and so are any beyond the N largest."""
    x = np.asarray(returns, dtype=float)
    n, t = x.shape
    x = x - x.mean(axis=1, keepdims=True)
    vals = np.linalg.eigvalsh(x.T @ x / t)[::-1]
    return vals[:min(n, t - 1)]


def kruskal_mst_tuples(d):
    """Minimum spanning tree edges (i, j, d[i, j]) in the order Kruskal takes
    them from a sorted list of (d[i, j], i, j) tuples over every pair i < j,
    with a union-find by rank of its own."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    parent = list(range(n))
    rank = [0] * n

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = []
    for w, i, j in sorted((float(d[i, j]), i, j) for i in range(n) for j in range(i + 1, n)):
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        if rank[ri] < rank[rj]:
            ri, rj = rj, ri
        parent[rj] = ri
        rank[ri] += rank[ri] == rank[rj]
        edges.append((i, j, w))
    return tuple(edges)


def threshold_components_bfs(c, c_th):
    """Components of the graph with edge (i, j), i < j, iff c[i, j] > c_th, by
    breadth-first search over the boolean adjacency; isolated nodes left out.
    Each component is an ascending tuple; largest first, ties by first node."""
    adj = np.triu(np.asarray(c, dtype=float) > c_th, k=1)
    adj = adj | adj.T
    seen = set()
    components = []
    for start in range(adj.shape[0]):
        if start in seen or not adj[start].any():
            continue
        seen.add(start)
        queue = [start]
        for v in queue:
            for u in np.flatnonzero(adj[v]).tolist():
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        components.append(tuple(sorted(queue)))
    return sorted(components, key=lambda comp: (-len(comp), comp[0]))


def threshold_sweep_bfs(c, grid, min_cluster_size=3):
    """((c_th, n_active, n_components, sizes, clustered) per cutoff, the
    cutoff with the most nodes in components of >= min_cluster_size nodes,
    ties to the larger cutoff), building every threshold graph anew."""
    entries = []
    best = None
    for c_th in grid:
        sizes = tuple(len(comp) for comp in threshold_components_bfs(c, c_th))
        clustered = sum(s for s in sizes if s >= min_cluster_size)
        entries.append((c_th, sum(sizes), len(sizes), sizes, clustered))
        if best is None or (clustered, c_th) >= best:
            best = (clustered, c_th)
    return tuple(entries), best[1]


_PRUFER_CACHE = {}


def all_spanning_trees(n):
    """Edge arrays of every labeled tree on n nodes (via Prufer sequences)."""
    if n in _PRUFER_CACHE:
        return _PRUFER_CACHE[n]
    trees = []
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        seq_list = list(seq)
        used = [False] * n
        for v in seq_list:
            leaf = next(i for i in range(n) if degree[i] == 1 and not used[i])
            edges.append((leaf, v))
            used[leaf] = True
            degree[leaf] -= 1
            degree[v] -= 1
        last = [i for i in range(n) if degree[i] == 1 and not used[i]]
        edges.append((last[0], last[1]))
        trees.append(edges)
    arr = np.array(trees)  # (n^(n-2), n-1, 2)
    _PRUFER_CACHE[n] = arr
    return arr


def brute_force_mst_weight(d):
    """Minimum total weight over every spanning tree (exhaustive).

    Uses math.fsum for the final comparison so the result does not depend on
    summation order.
    """
    d = np.asarray(d, dtype=float)
    trees = all_spanning_trees(d.shape[0])
    weights = d[trees[:, :, 0], trees[:, :, 1]].sum(axis=1)
    near_min = np.flatnonzero(weights <= weights.min() + 1e-9)
    return min(
        math.fsum(d[a, b] for a, b in trees[idx]) for idx in near_min
    )


def tree_weight(d, edges):
    """Order-independent total weight of an edge list."""
    d = np.asarray(d, dtype=float)
    return math.fsum(d[i, j] for i, j, *_ in edges)


def pareto_samples(rng, n, alpha, x_min=1.0):
    """Inverse-CDF draws with CCDF (x / x_min) ** -alpha."""
    u = rng.random(n)
    return x_min * (1.0 - u) ** (-1.0 / alpha)


def read_pajek(path):
    """Minimal Pajek reader: returns (labels, edges) with 0-based endpoints."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    assert lines[0].startswith("*Vertices ")
    n = int(lines[0].split()[1])
    labels = []
    for line in lines[1 : 1 + n]:
        idx, label = line.split(" ", 1)
        labels.append(label.strip('"'))
    assert lines[1 + n] == "*Edges"
    edges = []
    for line in lines[2 + n :]:
        i, j, w = line.split()
        edges.append((int(i) - 1, int(j) - 1, float(w)))
    return labels, edges


def read_json_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def rand_index(labels_a, labels_b):
    """Fraction of node pairs on which two partitions agree."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    n = labels_a.size
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = labels_a[i] == labels_a[j]
            same_b = labels_b[i] == labels_b[j]
            agree += same_a == same_b
            total += 1
    return agree / total


def component_labels(components, n, offset=0):
    """Label vector from a component list; unassigned nodes get unique labels."""
    labels = np.full(n, -1)
    for c_idx, comp in enumerate(components):
        for node in comp:
            labels[node] = c_idx
    next_label = len(components) + offset
    for i in range(n):
        if labels[i] < 0:
            labels[i] = next_label
            next_label += 1
    return labels


def parse_price_panel_loop(
    raw_table: str,
    meta: str,
    fill_limit: int = DEFAULT_FILL_LIMIT,
) -> PricePanel:
    """Parse a `date,CODE1,CODE2,...` price table against its metadata table,
    one cell at a time (the reference for `parse_price_panel`).

    Short quote gaps are forward-filled (at most `fill_limit` consecutive rows
    per asset); dates still incomplete after filling are dropped so that the
    surviving panel stays cross-sectionally aligned.
    """
    metas = parse_asset_metadata(meta)
    records = _csv_rows(raw_table, "price table")
    _, header = next(records, (0, None))
    if header is None:
        raise PanelError("empty price table")
    if not header or header[0].strip().lower() != "date":
        raise PanelError("price table header must start with 'date'")
    codes = [c.strip() for c in header[1:]]
    if len(codes) < 2:
        raise PanelError("price table must contain at least 2 assets")
    for code in codes:
        if code not in metas:
            raise PanelError(f"unknown asset code in price table: {code}")
    if len(set(codes)) != len(codes):
        raise PanelError("duplicate asset column in price table")

    n = len(codes)
    dates: list[datetime.date] = []
    rows: list[list[float]] = []
    last_value: list[float | None] = [None] * n
    gap_run: list[int] = [0] * n
    prev_date: datetime.date | None = None

    for lineno, row in records:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != n + 1:
            raise PanelError(f"line {lineno}: expected {n + 1} fields, got {len(row)}")
        try:
            date = _iso_date(row[0].strip())
        except ValueError as exc:
            raise PanelError(f"line {lineno}: bad date {row[0]!r}") from exc
        if prev_date is not None and date <= prev_date:
            problem = "duplicate date" if date == prev_date else "dates not strictly increasing at"
            raise PanelError(f"line {lineno}: {problem} {date.isoformat()}")
        prev_date = date

        values: list[float] = []
        complete = True
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell:
                try:
                    price = float(cell)
                except ValueError as exc:
                    raise PanelError(
                        f"line {lineno}: non-numeric price {cell!r} for {codes[j]}"
                    ) from exc
                if not math.isfinite(price) or price <= 0:
                    raise PanelError(
                        f"line {lineno}: non-positive price {cell!r} for {codes[j]}"
                    )
                last_value[j] = price
                gap_run[j] = 0
                values.append(price)
            else:
                gap_run[j] += 1
                if last_value[j] is not None and gap_run[j] <= fill_limit:
                    values.append(last_value[j])
                else:
                    complete = False
                    values.append(float("nan"))
        if complete:
            dates.append(date)
            rows.append(values)

    if len(dates) < 3:
        raise PanelError(f"only {len(dates)} complete dates survive alignment, need >= 3")

    assets = tuple(metas[c] for c in codes)
    prices = _freeze(np.array(rows, dtype=float).T)
    return PricePanel(assets=assets, dates=tuple(dates), prices=prices)


def graph_json_by_json_dumps(g):
    """A graph's JSON text as `export_json_report` prints the whole payload,
    the edges included."""
    return export_json_report({
        "schema_version": SCHEMA_VERSION,
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
        "edges": [[i, j, w] for i, j, w in g.edges],
    })


def csv_text(header, rows):
    """CSV text as the csv module writes it, with LF line ends, every
    non-str cell printed as `%.12g` first."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else "%.12g" % c for c in row])
    return buf.getvalue()
