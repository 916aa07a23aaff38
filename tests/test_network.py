import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_assets, planted_group_panel
from fxnet.network import (
    Graph,
    cluster_report,
    mantegna_distance,
    minimum_spanning_tree,
    threshold_network,
    threshold_sweep,
)
from fxnet.modes import decompose_modes
from fxnet.spectral import correlation_matrix, eigendecompose
from oracles import (
    brute_force_mst_weight,
    component_labels,
    kruskal_mst_tuples,
    rand_index,
    threshold_components_bfs,
    threshold_sweep_bfs,
    tree_weight,
)


def symmetric_distances(rng, n):
    m = rng.random((n, n)) * 2.0
    d = (m + m.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


# A small value set makes ties among the entries and between entries and
# cutoffs; the continuous draw covers everything in between.
TIED_VALUES = (-0.6, -0.2, 0.0, 0.15, 0.3, 0.7)
ENTRIES = (st.sampled_from(TIED_VALUES), st.floats(-1.0, 1.0))


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(2, 30))
    a = draw(hnp.arrays(float, (n, n), elements=draw(st.sampled_from(ENTRIES))))
    m = np.triu(a, k=1)
    m = m + m.T
    np.fill_diagonal(m, 1.0)
    return m


def sweep_grid(m):
    """The cutoffs threshold_sweep promises: 40 evenly spaced in (0, top], top
    being the largest off-diagonal entry, or the one cutoff 0 if top <= 0."""
    top = float(m[np.triu_indices(m.shape[0], k=1)].max())
    return np.linspace(0.0, top, 41)[1:].tolist() if top > 0 else [0.0]


@st.composite
def swept_matrices(draw):
    """Symmetric matrices whose off-diagonal entries are 0 or the cutoffs of
    their own sweep grid or their negatives, so that edge weights equal
    cutoffs; when drawn so, every entry is <= 0 and the grid is [0.0]."""
    n = draw(st.integers(2, 30))
    top = draw(st.floats(1e-3, 1.0))
    cutoffs = np.linspace(0.0, top, 41)[1:]
    values = np.concatenate([cutoffs, -cutoffs, [0.0]]).tolist()
    m = np.triu(draw(hnp.arrays(float, (n, n), elements=st.sampled_from(values))), k=1)
    if draw(st.booleans()):
        m = -np.abs(m)
    else:
        m[0, 1] = top  # the largest entry, so that the grid is `cutoffs`
    m = m + m.T
    np.fill_diagonal(m, 1.0)
    return m


class TestMantegnaDistance:
    def test_formula_anchors(self):
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert mantegna_distance(c)[0, 1] == 0.0
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert mantegna_distance(c)[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        c = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert mantegna_distance(c)[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_out_of_range_rejected(self):
        c = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(ValueError):
            mantegna_distance(c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            mantegna_distance(np.array([[1.0, bad], [bad, 1.0]]))

    def test_slight_excursion_clamped(self):
        c = np.array([[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]])
        assert mantegna_distance(c)[0, 1] == 0.0

    def test_monotone_decreasing_in_correlation(self, rng):
        cs = np.sort(rng.uniform(-1, 1, 20))
        ds = [mantegna_distance(np.array([[1.0, c], [c, 1.0]]))[0, 1] for c in cs]
        assert all(b < a for a, b in zip(ds, ds[1:]))


class TestMinimumSpanningTree:
    def test_three_node_example(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        g = minimum_spanning_tree(d, make_assets(3))
        assert [(i, j) for i, j, _ in g.edges] == [(0, 1), (0, 2)]
        assert sum(w for _, _, w in g.edges) == 3.0

    def test_path_graph(self):
        n = 6
        d = np.full((n, n), 10.0)
        np.fill_diagonal(d, 0.0)
        for i in range(n - 1):
            d[i, i + 1] = d[i + 1, i] = 1.0
        g = minimum_spanning_tree(d, make_assets(n))
        assert [(i, j) for i, j, _ in g.edges] == [(i, i + 1) for i in range(n - 1)]

    def test_matches_exhaustive_minimum(self, rng):
        for _ in range(10):
            d = symmetric_distances(rng, 7)
            g = minimum_spanning_tree(d, make_assets(7))
            assert tree_weight(d, g.edges) == brute_force_mst_weight(d)

    def test_structure_invariants(self, rng):
        n = 12
        d = symmetric_distances(rng, n)
        g = minimum_spanning_tree(d, make_assets(n))
        assert len(g.edges) == n - 1
        report = cluster_report(g)
        assert len(report.components) == 1
        assert len(report.components[0]) == n  # connected, hence acyclic at N-1 edges

    def test_deterministic_under_ties(self):
        n = 4
        d = np.ones((n, n))
        np.fill_diagonal(d, 0.0)
        g1 = minimum_spanning_tree(d, make_assets(n))
        g2 = minimum_spanning_tree(d, make_assets(n))
        assert g1.edges == g2.edges
        assert [(i, j) for i, j, _ in g1.edges] == [(0, 1), (0, 2), (0, 3)]

    def test_non_finite_rejected(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            minimum_spanning_tree(d, make_assets(3))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^distance matrix size does not match asset list$"):
            minimum_spanning_tree(np.zeros((4, 4)), make_assets(3))

    @settings(max_examples=200, deadline=None)
    @given(d=symmetric_matrices())
    def test_matches_sorted_tuple_kruskal(self, d):
        g = minimum_spanning_tree(d, make_assets(d.shape[0]))
        assert g.edges == kruskal_mst_tuples(d)


class TestThresholdNetwork:
    def matrix_with_pairs(self, n, pairs, value=0.5, base=0.0):
        m = np.full((n, n), base)
        np.fill_diagonal(m, 1.0)
        for i, j in pairs:
            m[i, j] = m[j, i] = value
        return m

    def test_reference_threshold_selects_pairs(self):
        m = self.matrix_with_pairs(4, [(1, 2), (2, 3)], value=0.2, base=0.05)
        g = threshold_network(m, 0.133, make_assets(4))
        assert [(i, j) for i, j, _ in g.edges] == [(1, 2), (2, 3)]

    def test_above_max_empty(self, rng):
        m = self.matrix_with_pairs(5, [(0, 1)], value=0.4)
        g = threshold_network(m, 0.9, make_assets(5))
        assert g.edges == ()

    def test_below_min_complete(self):
        m = self.matrix_with_pairs(5, [], base=0.1)
        g = threshold_network(m, 0.05, make_assets(5))
        assert len(g.edges) == 5 * 4 // 2

    def test_strict_inequality_at_boundary(self):
        m = self.matrix_with_pairs(3, [(0, 1)], value=0.133)
        g = threshold_network(m, 0.133, make_assets(3))
        assert g.edges == ()  # equality excluded

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cutoffs_rejected(self, bad):
        with pytest.raises(ValueError, match="threshold c_th must be finite"):
            threshold_network(np.eye(3), bad, make_assets(3))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^matrix size does not match asset list$"):
            threshold_network(np.eye(4), 0.1, make_assets(3))

    def test_edge_sets_nested_across_thresholds(self, rng):
        m = rng.uniform(-0.2, 0.4, (8, 8))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 1.0)
        prev = None
        for c_th in (0.0, 0.1, 0.2, 0.3):
            edges = set(threshold_network(m, c_th, make_assets(8)).edges)
            if prev is not None:
                assert edges <= prev
            prev = edges


class TestClusterReport:
    def test_empty_graph(self):
        g = threshold_network(np.eye(5), 0.5, make_assets(5))
        report = cluster_report(g)
        assert report.components == ()
        assert set(report.isolated) == set(range(5))
        assert report.hubs == ()

    def test_star_center_is_unique_hub(self):
        n = 10
        m = np.zeros((n, n))
        np.fill_diagonal(m, 1.0)
        for i in range(1, n):
            m[0, i] = m[i, 0] = 0.5
        g = threshold_network(m, 0.1, make_assets(n))
        report = cluster_report(g)
        assert len(report.components) == 1
        assert report.hubs == ((0, 9),)

    def test_hub_cutoff_is_two_degree_standard_deviations(self):
        """Node 0's degree is 2.35 standard deviations above the mean degree
        and node 1's 1.76, so a hub cutoff of mean + 2 std picks node 0 alone;
        one of 1.5 std would add node 1, and one of 2.5 std would pick none."""
        degrees = [6, 5, 2, 2, 1, 1, 1, 1, 1, 1, 1]
        pairs = [(0, j) for j in range(2, 8)] + [(1, j) for j in (2, 3, 8, 9, 10)]
        g = Graph(assets=make_assets(11), edges=tuple((i, j, 0.5) for i, j in pairs),
                  kind="threshold")
        assert g.degrees().tolist() == degrees
        z = (np.array(degrees) - np.mean(degrees)) / np.std(degrees)
        assert 2 < z[0] < 2.5 and 1.5 < z[1] < 2 and max(z[2:]) < 1.5
        assert cluster_report(g).hubs == ((0, 6),)

    def test_components_partition_non_isolated(self, rng):
        m = rng.uniform(-0.5, 0.5, (12, 12))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 1.0)
        g = threshold_network(m, 0.25, make_assets(12))
        report = cluster_report(g)
        covered = [n for comp in report.components for n in comp]
        assert len(covered) == len(set(covered))
        assert set(covered) | set(report.isolated) == set(range(12))
        assert set(covered) & set(report.isolated) == set()


class TestThresholdSweep:
    def test_bracketing_grid(self, rng):
        m = rng.uniform(0.1, 0.3, (6, 6))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 1.0)
        sweep = threshold_sweep(m)
        assert sweep.entries[0].n_active == 6  # complete graph
        assert sweep.entries[0].n_components == 1
        assert sweep.entries[-1].n_active == 0  # empty graph

    def test_single_triangle_reported(self):
        m = np.zeros((6, 6))
        np.fill_diagonal(m, 1.0)
        for i, j in [(0, 1), (1, 2), (0, 2)]:
            m[i, j] = m[j, i] = 0.8
        sweep = threshold_sweep(m)
        entry = sweep.entries[0]
        assert entry.sizes == (3,)
        assert entry.clustered == 3

    @settings(max_examples=200, deadline=None)
    @given(m=swept_matrices())
    def test_matches_per_cutoff_bfs(self, m):
        grid = sweep_grid(m)
        assets = make_assets(m.shape[0])
        sweep = threshold_sweep(m)
        assert [e.c_th for e in sweep.entries] == grid
        entries, recommended = threshold_sweep_bfs(m, grid)
        assert tuple(dataclasses.astuple(e) for e in sweep.entries) == entries
        assert sweep.recommended == recommended
        tnet = threshold_network(m, recommended, assets)
        assert cluster_report(tnet).components == tuple(
            threshold_components_bfs(m, recommended)
        )

    def test_planted_groups_recovered(self):
        rng = np.random.default_rng(55)
        rp, labels = planted_group_panel(rng)
        sd = eigendecompose(correlation_matrix(rp))
        md = decompose_modes(sd, 2)
        sweep = threshold_sweep(md.c_group)
        tnet = threshold_network(md.c_group, sweep.recommended, rp.assets)
        components = cluster_report(tnet).components
        recovered = component_labels(components, rp.n_assets)
        grouped = labels >= 0
        assert rand_index(recovered[grouped], labels[grouped]) >= 0.9


class TestMstOfPlantedModel:
    def test_tree_connected_with_hubs_inside_groups(self):
        rng = np.random.default_rng(314)
        rp, labels = planted_group_panel(rng)
        cm = correlation_matrix(rp)
        mst = minimum_spanning_tree(mantegna_distance(cm), rp.assets)
        report = cluster_report(mst)
        assert len(report.components) == 1
        assert len(report.components[0]) == rp.n_assets
