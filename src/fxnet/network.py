"""Graph reconstruction: Mantegna distances, minimum spanning tree, threshold
networks and component/hub reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import AssetMeta

CLAMP_TOL = 1e-9
DEFAULT_HUB_SIGMA = 2.0
MIN_CLUSTER_SIZE = 3
THRESHOLD_GRID_POINTS = 40


@dataclass(frozen=True)
class Graph:
    assets: tuple[AssetMeta, ...]  # node i is asset i
    edges: tuple[tuple[int, int, float], ...]  # (i, j, weight) with i < j
    kind: str  # "mst" or "threshold"

    @property
    def n_nodes(self) -> int:
        return len(self.assets)

    def degrees(self) -> np.ndarray:
        return np.bincount([v for i, j, _ in self.edges for v in (i, j)], minlength=self.n_nodes)


@dataclass(frozen=True)
class ClusterReport:
    components: tuple[tuple[int, ...], ...]  # descending size, non-isolated nodes
    isolated: tuple[int, ...]
    hubs: tuple[tuple[int, int], ...]  # (node, degree)


@dataclass(frozen=True)
class SweepEntry:
    c_th: float
    n_active: int  # nodes with degree > 0
    n_components: int
    sizes: tuple[int, ...]
    clustered: int  # nodes in components of size >= MIN_CLUSTER_SIZE


@dataclass(frozen=True)
class SweepResult:
    entries: tuple[SweepEntry, ...]
    recommended: float


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _kruskal(key: np.ndarray) -> list[tuple[int, int]]:
    """Spanning forest edges (i, j), i < j, taken by Kruskal visiting the pairs
    in (key[i, j], i, j) order, in the order they were taken."""
    n = key.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    order = np.argsort(key[rows, cols], kind="stable")  # ties keep the (i, j) order
    parent = list(range(n))
    forest: list[tuple[int, int]] = []
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[rj] = ri
            forest.append((i, j))
            if len(forest) == n - 1:
                break
    return forest


def _components(n: int, edges: list[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Connected components of the nodes that edges touch, each in ascending
    order, largest first and equal sizes by their smallest node."""
    parent = list(range(n))
    for i, j in edges:
        parent[_find(parent, j)] = _find(parent, i)
    groups: dict[int, list[int]] = {}
    for node in sorted({v for edge in edges for v in edge}):
        groups.setdefault(_find(parent, node), []).append(node)
    return tuple(sorted(map(tuple, groups.values()), key=lambda c: (-len(c), c[0])))


def mantegna_distance(c: np.ndarray) -> np.ndarray:
    """d_ij = sqrt(2 (1 - C_ij)); zero diagonal, range [0, 2]."""
    vals = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("correlation matrix contains non-finite entries")
    if vals.min() < -1 - CLAMP_TOL or vals.max() > 1 + CLAMP_TOL:
        raise ValueError("correlation entries outside [-1, 1] beyond tolerance")
    clamped = np.clip(vals, -1.0, 1.0)
    d = np.sqrt(2.0 * (1.0 - clamped))
    np.fill_diagonal(d, 0.0)
    return d


def _matrix_for(m: np.ndarray, assets: tuple[AssetMeta, ...], what: str) -> np.ndarray:
    """m as a float array, checked to have one row per asset."""
    m = np.asarray(m, dtype=float)
    if m.shape[0] != len(assets):
        raise ValueError(f"{what} size does not match asset list")
    return m


def minimum_spanning_tree(d: np.ndarray, assets: tuple[AssetMeta, ...]) -> Graph:
    """Kruskal MST with edges sorted by (weight, i, j) so ties break
    deterministically."""
    d = _matrix_for(d, assets, "distance matrix")
    if not np.all(np.isfinite(d)):
        raise ValueError("distance matrix contains non-finite entries")
    edges = [(i, j, float(d[i, j])) for i, j in _kruskal(d)]
    return Graph(assets=tuple(assets), edges=tuple(edges), kind="mst")


def threshold_network(
    c_group: np.ndarray, c_th: float, assets: tuple[AssetMeta, ...]
) -> Graph:
    """Edge (i, j) present iff the group-correlation element strictly exceeds
    c_th, a finite real; the element is kept as the edge weight."""
    if not np.isfinite(c_th):
        raise ValueError(f"threshold c_th must be finite, got {c_th}")
    c_group = _matrix_for(c_group, assets, "matrix")
    rows, cols = np.nonzero(np.triu(c_group > c_th, k=1))
    edges = tuple(zip(rows.tolist(), cols.tolist(), c_group[rows, cols].tolist()))
    return Graph(assets=tuple(assets), edges=edges, kind="threshold")


def cluster_report(g: Graph, hub_sigma: float = DEFAULT_HUB_SIGMA) -> ClusterReport:
    """Connected components of the non-isolated nodes plus degree-based hubs.

    A hub has degree above mean + hub_sigma * std of all node degrees; hub_sigma
    must be finite.
    """
    if not np.isfinite(hub_sigma):
        raise ValueError(f"hub_sigma must be finite, got {hub_sigma}")
    n = g.n_nodes
    deg = g.degrees()
    components = _components(n, [(i, j) for i, j, _ in g.edges])
    isolated = tuple(int(i) for i in np.flatnonzero(deg == 0))
    cutoff = deg.mean() + hub_sigma * deg.std()
    hubs = sorted(
        ((int(i), int(deg[i])) for i in range(n) if deg[i] > cutoff),
        key=lambda h: (-h[1], h[0]),
    )
    return ClusterReport(components=components, isolated=isolated, hubs=tuple(hubs))


def threshold_sweep(c_group: np.ndarray) -> SweepResult:
    """Evaluate threshold networks over THRESHOLD_GRID_POINTS evenly spaced
    cutoffs in (0, top], top being the largest off-diagonal element (where
    the network empties out), or at the one cutoff 0 if top <= 0.

    The recommended cutoff maximizes the number of nodes sitting in components
    of size >= 3, with ties broken toward the larger cutoff. The components at
    every cutoff c are those of the edges above c in one maximum spanning
    forest of c_group, which connect what the threshold graph at c connects
    (the single-linkage / MST equivalence).
    """
    c_group = np.asarray(c_group, dtype=float)
    top = float(c_group[np.triu_indices(len(c_group), k=1)].max())
    grid = np.linspace(0.0, top, THRESHOLD_GRID_POINTS + 1)[1:].tolist() if top > 0 else [0.0]
    forest = [(i, j, c_group[i, j]) for i, j in _kruskal(-c_group)]
    entries: list[SweepEntry] = []
    for c_th in grid:
        above = [(i, j) for i, j, w in forest if w > c_th]
        sizes = tuple(len(c) for c in _components(len(c_group), above))
        clustered = sum(s for s in sizes if s >= MIN_CLUSTER_SIZE)
        entries.append(
            SweepEntry(
                c_th=c_th,
                n_active=sum(sizes),
                n_components=len(sizes),
                sizes=sizes,
                clustered=clustered,
            )
        )
    recommended = max((e.clustered, e.c_th) for e in entries)[1]
    return SweepResult(entries=tuple(entries), recommended=recommended)
