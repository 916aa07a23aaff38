import numpy as np
import pytest

from conftest import normalized_noise_panel, planted_group_panel
from fxnet.modes import decompose_modes, element_histogram, select_ng
from fxnet.network import threshold_network, threshold_sweep, cluster_report
from fxnet.report import default_threshold_grid
from fxnet.spectral import (
    RmtBounds,
    SpectralDecomposition,
    correlation_matrix,
    eigendecompose,
    rmt_bounds,
)


def spectrum_of(rng, n, t=400):
    rp = normalized_noise_panel(rng, n, t)
    cm = correlation_matrix(rp)
    return cm, eigendecompose(cm)


def fake_decomposition(eigenvalues):
    n = len(eigenvalues)
    vecs = np.eye(n) * np.sqrt(n)
    return SpectralDecomposition(
        eigenvalues=np.array(eigenvalues, dtype=float), eigenvectors=vecs
    )


class TestDecomposeModes:
    def test_zero_groups(self, rng):
        _, sd = spectrum_of(rng, 6)
        md = decompose_modes(sd, 0)
        assert np.abs(md.c_group).max() == 0.0
        assert md.c_group.tobytes() == np.zeros((6, 6)).tobytes()  # +0.0, which prints as 0

    def test_all_groups_leaves_empty_random(self, rng):
        _, sd = spectrum_of(rng, 6)
        md = decompose_modes(sd, 5)
        assert np.abs(md.c_random).max() < 1e-8
        assert md.c_random.tobytes() == np.zeros((6, 6)).tobytes()  # +0.0, which prints as 0

    def test_reconstruction(self, rng):
        cm, sd = spectrum_of(rng, 8)
        for n_g in range(8):
            md = decompose_modes(sd, n_g)
            total = md.c_global + md.c_group + md.c_random
            assert np.abs(total - cm).max() < 1e-8

    def test_global_is_rank_one(self, rng):
        _, sd = spectrum_of(rng, 8)
        md = decompose_modes(sd, 3)
        singular = np.linalg.svd(md.c_global, compute_uv=False)
        assert singular[1] < 1e-8 * sd.eigenvalues[0]

    def test_symmetry(self, rng):
        _, sd = spectrum_of(rng, 8)
        md = decompose_modes(sd, 3)
        for m in (md.c_global, md.c_group, md.c_random):
            assert np.abs(m - m.T).max() < 1e-12

    def test_out_of_range_rejected(self, rng):
        _, sd = spectrum_of(rng, 6)
        with pytest.raises(ValueError):
            decompose_modes(sd, -1)
        with pytest.raises(ValueError):
            decompose_modes(sd, 6)

    def test_group_norm_monotone_in_ng(self, rng):
        _, sd = spectrum_of(rng, 10)
        group_norms = []
        random_norms = []
        for n_g in range(10):
            md = decompose_modes(sd, n_g)
            group_norms.append(np.linalg.norm(md.c_group))
            random_norms.append(np.linalg.norm(md.c_random))
        assert all(b >= a - 1e-12 for a, b in zip(group_norms, group_norms[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(random_norms, random_norms[1:]))


class TestSelectNg:
    def test_no_intermediate_modes(self):
        sd = fake_decomposition([5.0, 1.0, 0.9, 0.8])
        assert select_ng(sd, RmtBounds(q=4.0, lambda_min=0.25, lambda_max=2.25)) == 0

    def test_counting(self):
        sd = fake_decomposition([12.0, 3.0, 2.0, 1.5, 1.1, 0.9, 0.5])
        assert select_ng(sd, RmtBounds(q=81.54, lambda_min=0.79, lambda_max=1.23)) == 3

    def test_planted_two_groups(self):
        rng = np.random.default_rng(2024)
        rp, _ = planted_group_panel(rng)
        sd = eigendecompose(correlation_matrix(rp))
        bounds = rmt_bounds(rp.n_assets, rp.n_steps)
        assert select_ng(sd, bounds) == 2


class TestElementHistogram:
    def test_all_zero_matrix(self):
        hist = element_histogram(np.zeros((5, 5)), bins=4)
        occupied = [(c, d) for c, d in hist if d > 0]
        assert len(occupied) == 1
        center, density = occupied[0]
        assert abs(center) < 0.5

    def test_two_peak_symmetry(self):
        m = np.zeros((4, 4))
        pairs = [(0, 1), (2, 3)], [(0, 2), (0, 3), (1, 2), (1, 3)]
        for i, j in pairs[0]:
            m[i, j] = m[j, i] = 0.5
        for i, j in pairs[1]:
            m[i, j] = m[j, i] = -0.5
        hist = element_histogram(m, bins=5)
        densities = [d for _, d in hist]
        assert densities[0] > 0 and densities[-1] > 0
        assert all(d == 0 for d in densities[1:-1])

    def test_density_integrates_to_one(self, rng):
        m = rng.standard_normal((10, 10))
        m = (m + m.T) / 2
        hist = element_histogram(m, bins=13)
        centers = np.array([c for c, _ in hist])
        width = centers[1] - centers[0]
        assert np.sum([d for _, d in hist]) * width == pytest.approx(1.0, abs=1e-9)

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            element_histogram(np.zeros((3, 3)), bins=1)

    def test_group_tail_exceeds_random(self):
        rng = np.random.default_rng(99)
        rp, _ = planted_group_panel(rng)
        sd = eigendecompose(correlation_matrix(rp))
        md = decompose_modes(sd, 2)
        n = rp.n_assets
        random_vals = md.c_random[np.triu_indices(n, k=1)]
        group_vals = md.c_group[np.triu_indices(n, k=1)]
        cutoff = 3 * random_vals.std()
        group_mass = np.mean(group_vals > cutoff)
        random_mass = np.mean(random_vals > cutoff)
        assert group_mass > random_mass


class TestRobustnessToNg:
    def test_partition_stable_when_extra_mode_is_bulk(self):
        rng = np.random.default_rng(1234)
        rp, labels = planted_group_panel(rng)
        grouped = {int(i) for i in np.flatnonzero(labels >= 0)}
        sd = eigendecompose(correlation_matrix(rp))
        bounds = rmt_bounds(rp.n_assets, rp.n_steps)
        n_g = select_ng(sd, bounds)
        assert sd.eigenvalues[n_g + 1] <= bounds.lambda_max  # extra mode in bulk
        partitions = []
        for k in (n_g, n_g + 1):
            md = decompose_modes(sd, k)
            grid = default_threshold_grid(md.c_group)
            sweep = threshold_sweep(md.c_group, grid)
            tnet = threshold_network(md.c_group, sweep.recommended, rp.assets)
            components = cluster_report(tnet).components
            partitions.append(
                sorted(
                    tuple(n for n in comp if n in grouped)
                    for comp in components
                    if any(n in grouped for n in comp)
                )
            )
        assert partitions[0] == partitions[1]
