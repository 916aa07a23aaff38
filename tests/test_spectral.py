import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import make_assets, normalized_noise_panel, panel_from_returns, planted_group_panel
from fxnet.market_data import PanelError, ReturnPanel
from fxnet.spectral import (
    _KS_CHUNK,
    _shuffle_rows,
    correlation_matrix,
    derive_seeds,
    eigendecompose,
    normal_ks_statistic,
    rmt_bounds,
    surrogate_correlation,
)
from oracles import (
    charpoly_eigenvalues,
    dual_nonzero_eigenvalues,
    jacobi_eigh,
    shuffle_surrogate_gather,
)


def random_correlation(rng, n, t=400):
    rp = normalized_noise_panel(rng, n, t)
    return correlation_matrix(rp)


class TestCorrelationMatrix:
    def test_identical_rows(self):
        rp = panel_from_returns([[1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
        c = correlation_matrix(rp)
        assert np.allclose(c, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_orthogonal_rows(self):
        rp = panel_from_returns([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
        c = correlation_matrix(rp)
        assert c[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_rows(self):
        rp = panel_from_returns([[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])
        c = correlation_matrix(rp)
        assert c[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_invariants(self, rng):
        c = random_correlation(rng, 8)
        assert np.abs(c - c.T).max() < 1e-12
        assert np.abs(np.diag(c) - 1.0).max() < 1e-12
        assert c.min() >= -1 - 1e-12 and c.max() <= 1 + 1e-12
        assert np.trace(c) == pytest.approx(8.0, abs=1e-12)

    def test_one_step_rejected(self):
        rp = ReturnPanel(assets=make_assets(2), returns=np.ones((2, 1)), sigma=np.ones(2))
        with pytest.raises(PanelError, match="need at least 2 time steps"):
            correlation_matrix(rp)

    def test_read_only_and_not_aliased(self, rng):
        rp = normalized_noise_panel(rng, 6, 50)
        c = correlation_matrix(rp)
        assert not c.flags.writeable
        assert not np.shares_memory(c, rp.returns)
        buf = np.empty(rp.returns.shape)
        s = surrogate_correlation(rp, 11, buf)
        assert not s.flags.writeable
        assert not np.shares_memory(s, rp.returns) and not np.shares_memory(s, buf)
        # the surrogate stage reuses buf for its next surrogate
        kept = s.copy()
        buf[...] = 7.0
        assert np.array_equal(s, kept)


class TestEigendecompose:
    def test_two_by_two_analytic(self):
        for coupling in (0.3, -0.6, 0.95):
            cm = np.array([[1.0, coupling], [coupling, 1.0]])
            sd = eigendecompose(cm)
            expected = sorted([1 + coupling, 1 - coupling], reverse=True)
            assert sd.eigenvalues == pytest.approx(expected, abs=1e-12)

    def test_identity_degenerate(self):
        cm = np.eye(5)
        sd = eigendecompose(cm)
        assert sd.eigenvalues == pytest.approx([1.0] * 5, abs=1e-12)
        assert np.allclose((sd.eigenvectors ** 2).sum(axis=1), 5.0, atol=1e-9)

    def test_matches_charpoly_oracle(self, rng):
        # short panels spread the spectrum, keeping the polynomial roots
        # well-conditioned
        for _ in range(10):
            cm = random_correlation(rng, 6, t=40)
            sd = eigendecompose(cm)
            oracle = charpoly_eigenvalues(cm)
            assert np.abs(sd.eigenvalues - oracle).max() < 1e-8

    def test_near_degenerate_spectrum_is_descending(self):
        # two 2 x 2 blocks whose couplings differ by 1e-12: the eigenvalue
        # pairs 1.5 and 0.5 each lie within 1e-12 of each other
        c = np.zeros((4, 4))
        c[:2, :2] = [[1.0, 0.5 + 1e-12], [0.5 + 1e-12, 1.0]]
        c[2:, 2:] = [[1.0, 0.5], [0.5, 1.0]]
        lam = eigendecompose(c).eigenvalues
        assert np.all(np.diff(lam) <= 0), lam
        assert lam == pytest.approx([1.5, 1.5, 0.5, 0.5], abs=1e-11)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            eigendecompose(np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize(
        "c, message",
        [(np.ones((2, 3)), r"must be square, got \(2, 3\)"),
         ([[1.0, 0.5], [0.4, 1.0]], "asymmetry 0.1 exceeds"),
         ([[0.9, 0.5], [0.5, 1.0]], "diagonal deviates from 1"),
         ([[1.0, 1.5], [1.5, 1.0]], r"entries fall outside \[-1, 1\]")],
        ids=["non-square", "asymmetric", "diagonal-not-1", "entry-above-1"],
    )
    def test_rejects_what_is_not_a_correlation_matrix(self, c, message):
        with pytest.raises(ValueError, match=message):
            eigendecompose(c)

    def test_fewer_steps_than_assets_matches_the_dual_matrix(self):
        # 200 assets x 150 steps: the centred rows have rank 149, so C has
        # 149 nonzero eigenvalues, those of the 150 x 150 dual matrix, and
        # 51 zeros
        rp = normalized_noise_panel(np.random.default_rng(2002), 200, 150)
        lam = eigendecompose(correlation_matrix(rp)).eigenvalues
        dual = dual_nonzero_eigenvalues(rp.returns)
        assert dual.size == 149
        assert np.abs(lam[:149] - dual).max() < 1e-10
        assert np.abs(lam[149:]).max() < 1e-10
        # the Q = 3/4 edges hold the nonzero spectrum up to a finite-N margin
        # of 10 % of the upper edge
        b = rmt_bounds(200, 150)
        margin = 0.1 * b.lambda_max
        assert abs(dual[0] - b.lambda_max) <= margin
        assert abs(dual[-1] - b.lambda_min) <= margin

    def test_normalization_and_reconstruction(self, rng):
        cm = random_correlation(rng, 12)
        sd = eigendecompose(cm)
        n = 12
        assert np.abs((sd.eigenvectors ** 2).sum(axis=1) - n).max() < 1e-9
        recon = (sd.eigenvectors.T * (sd.eigenvalues / n)) @ sd.eigenvectors
        assert np.abs(recon - cm).max() < 1e-8

    def test_orthogonality(self, rng):
        cm = random_correlation(rng, 10)
        sd = eigendecompose(cm)
        gram = sd.eigenvectors @ sd.eigenvectors.T / 10
        assert np.abs(gram - np.eye(10)).max() < 1e-8

    def test_eigenvalue_sum_and_positivity(self, rng):
        cm = random_correlation(rng, 15)
        sd = eigendecompose(cm)
        assert sd.eigenvalues.sum() == pytest.approx(15.0, abs=1e-8)
        assert sd.eigenvalues.min() >= -1e-10

    def test_sign_convention(self, rng):
        cm = random_correlation(rng, 9)
        sd = eigendecompose(cm)
        for row in sd.eigenvectors:
            assert row[np.argmax(np.abs(row))] > 0

    def test_bitwise_determinism(self, rng):
        cm = random_correlation(rng, 10)
        a = eigendecompose(cm)
        b = eigendecompose(cm)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_matches_jacobi_oracle_within_residual_bounds(self):
        # The residuals r_j = |C v_j - l_j v_j| must be those of a backward
        # stable solver, and the result must agree with an independent one:
        # eigenvalues within the sum of the two residual norms (Weyl), each
        # eigenvector within (r_j + r'_j) / gap_j (Davis-Kahan sin theta), so
        # near-degenerate pairs get a loose bound instead of a fixed one.
        # n * eps covers the rounding in evaluating the differences themselves.
        eps = np.finfo(float).eps
        for trial in range(46):
            rng = np.random.default_rng([2, trial])
            n = 2 + trial % 19  # sizes 2..20
            if trial >= 40:
                # pegged panels: 2..7 assets track asset 0 up to 1e-5 noise,
                # which leaves as many eigenvalues near 1e-10, less than 1e-9 apart
                n = 12
                rows = rng.standard_normal((n, 200))
                pegged = trial - 38
                rows[1 : 1 + pegged] = rows[0] + 1e-5 * rng.standard_normal((pegged, 200))
                rp = panel_from_returns(rows)
            elif trial % 2:
                rp, _ = planted_group_panel(rng, n=n, t=200, group_size=max(1, n // 3))
            else:
                rp = normalized_noise_panel(rng, n, 200 if trial % 4 else 3 * n)
            c = correlation_matrix(rp)
            sd = eigendecompose(c)
            lam, u = sd.eigenvalues, sd.eigenvectors.T / math.sqrt(n)
            lam_ref, u_ref = jacobi_eigh(c)
            r = np.linalg.norm(c @ u - u * lam, axis=0)
            r_ref = np.linalg.norm(c @ u_ref - u_ref * lam_ref, axis=0)
            assert np.linalg.norm(r) <= 10 * n * eps * np.linalg.norm(c, 2), (trial, n)
            weyl = np.linalg.norm(r) + np.linalg.norm(r_ref)
            assert np.abs(lam - lam_ref).max() <= weyl + n * eps, (trial, n)
            for j in range(n):
                gap = np.abs(np.delete(lam, j) - lam[j]).min() - 2 * weyl
                if gap <= 0:
                    continue
                cos = u[:, j] @ u_ref[:, j]
                sin = np.linalg.norm(u_ref[:, j] - cos * u[:, j])
                assert sin <= (r[j] + r_ref[j]) / gap + n * eps, (trial, n, j)

    def test_planted_one_factor_scaling(self):
        lead = {}
        for n in (20, 40):
            rng = np.random.default_rng(5150)
            t = 4000
            f = rng.standard_normal(t)
            rows = 0.6 * f + 0.8 * rng.standard_normal((n, t))
            rp = panel_from_returns(rows)
            sd = eigendecompose(correlation_matrix(rp))
            lead[n] = sd.eigenvalues[0]
            bounds = rmt_bounds(n, t)
            # variance absorbed by the factor pushes the bulk downward, so
            # only the upper bound constrains it
            assert sd.eigenvalues[1] <= bounds.lambda_max + 0.05
        assert lead[40] / lead[20] == pytest.approx(2.0, rel=0.15)


class TestRmtBounds:
    def test_reference_panel_dimensions(self):
        b = rmt_bounds(74, 6034)
        assert b.q == pytest.approx(81.54, abs=0.005)
        assert b.lambda_max == pytest.approx(1.23, abs=0.005)
        assert b.lambda_min == pytest.approx(0.79, abs=0.005)

    def test_square_case(self):
        b = rmt_bounds(10, 10)
        assert (b.lambda_min, b.lambda_max) == (0.0, 4.0)

    def test_q_four(self):
        b = rmt_bounds(10, 40)
        assert b.lambda_min == pytest.approx(0.25, abs=1e-12)
        assert b.lambda_max == pytest.approx(2.25, abs=1e-12)

    def test_q_below_one(self):
        # Q = 1/4: the edges bound the nonzero eigenvalues
        b = rmt_bounds(40, 10)
        assert b.q == 0.25
        assert (b.lambda_min, b.lambda_max) == (1.0, 9.0)

    def test_rejects_fewer_than_two_assets_or_steps(self):
        with pytest.raises(ValueError):
            rmt_bounds(1, 10)
        with pytest.raises(ValueError):
            rmt_bounds(10, 1)


# Past |x| ~ 38.5, Phi(x) underflows to 0 or rounds to 1.
_KS_EDGE_VALUES = st.floats(-40.0, 40.0) | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 8.5, -8.5, 38.5, -38.5, 40.0, -40.0]
)


class TestNormalKsStatistic:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 0.5, 1.0, 2.0, 40.0]),
        shift=st.floats(-40.0, 40.0),
        decimals=st.sampled_from([None, 0, 1, 3]),
        edges=st.lists(_KS_EDGE_VALUES, max_size=20),
    )
    def test_matches_scipy_kstest(self, n, seed, scale, shift, decimals, edges):
        x = shift + scale * np.random.default_rng(seed).standard_normal(n)
        if decimals is not None:
            x = np.round(x, decimals)  # ties
        x = np.concatenate([edges, np.clip(x, -40.0, 40.0)])[:5000]
        expected = stats.kstest(x, "norm").statistic
        assert abs(normal_ks_statistic(x) - expected) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [_KS_CHUNK - 1, _KS_CHUNK, _KS_CHUNK + 1, 3 * _KS_CHUNK + 7])
    def test_chunks_give_the_one_pass_value(self, n):
        """The largest of the chunks' maxima is the maximum over the whole
        sorted sample in one pass, bit for bit."""
        x = np.sort(np.random.default_rng(n).standard_normal(n))
        phi = 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
        one_pass = max(np.max(np.arange(1.0, n + 1) / n - phi), np.max(phi - np.arange(0.0, n) / n))
        assert normal_ks_statistic(x) == one_pass


def shuffled(returns, seed):
    """The rows `surrogate_correlation` shuffles before it centres them, on a
    copy, so that a single step (which has no C) can be shuffled too."""
    out = np.array(returns)
    _shuffle_rows(out, seed)
    return out


class TestShuffleSurrogate:
    def test_preserves_row_marginals(self, rng):
        rp = normalized_noise_panel(rng, 5, 50)
        out = shuffled(rp.returns, seed=99)
        for i in range(5):
            assert np.array_equal(np.sort(out[i]), np.sort(rp.returns[i]))

    def test_deterministic(self, rng):
        rp = normalized_noise_panel(rng, 5, 50)
        a = shuffled(rp.returns, seed=123)
        b = shuffled(rp.returns, seed=123)
        assert np.array_equal(a, b)
        c = shuffled(rp.returns, seed=124)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("t", [1, 2, 3, 750])
    @pytest.mark.parametrize("seed", [0, 1, 2**63])
    def test_matches_gather_oracle(self, t, seed):
        # rows as drawn: a single step has no std to divide by
        returns = np.random.default_rng(t).standard_normal((4, t))
        assert np.array_equal(shuffled(returns, seed), shuffle_surrogate_gather(returns, seed))

    # SHA-256 of the float64 little-endian bytes of row `row` of
    # np.arange(50.0) rows after _shuffle_rows(rows, seed), and of the uint64
    # little-endian bytes of derive_seeds(seed, count): numpy does not promise
    # that its Generator streams stay the same across versions (NEP 19), and
    # these digests show whether the surrogate streams have changed
    @pytest.mark.parametrize("seed, row, digest", [
        (0, 0, "02ed5d78255b2628212e4db7a16d4385eeca2c280eed6039286f0afdb42db52a"),
        (1, 3, "5e1e0a0787dac2af4b559bd834ee9d2829ff264ec5cbcc7d3b3924225f8bed28"),
        (20120430, 1, "bb8fcd6bcc3bf47d9520ad9eeafc9af963252b5852fb512b0321005bfe7d207d"),
        (2**64 - 1, 2, "8f0781372771722706ca3d96bd4ad29666452d6c545f9a981220dab044e08931"),
    ], ids=["seed0-row0", "seed1-row3", "seed20120430-row1", "seed2**64-1-row2"])
    def test_shuffle_stream_is_pinned(self, seed, row, digest):
        rows = np.tile(np.arange(50.0), (row + 1, 1))
        _shuffle_rows(rows, seed)
        assert hashlib.sha256(rows[row].astype("<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed, count, digest", [
        (0, 4, "d1dc8abad612fe44a7248fafc370e13573283627771ab88c4396a36d417c9175"),
        (20120430, 10, "9fe1b20f160e067df18c4c01ce8b02c53552e282f9213c3f2ef3fb14a475c2d9"),
        (2**32, 3, "335e8507c0453e0cd33a53451acfd0834f4b925cc4db998c612622cca3d1664d"),
    ], ids=["seed0-count4", "seed20120430-count10", "seed2**32-count3"])
    def test_derive_seeds_stream_is_pinned(self, seed, count, digest):
        seeds = np.array(derive_seeds(seed, count), dtype="<u8")
        assert hashlib.sha256(seeds.tobytes()).hexdigest() == digest

    def test_derive_seeds_deterministic(self):
        assert derive_seeds(7, 5) == derive_seeds(7, 5)
        assert derive_seeds(7, 5) != derive_seeds(8, 5)

    def test_bulk_eigenvalues_stay_random(self):
        rng = np.random.default_rng(31)
        # correlated panel: shuffling must destroy the correlation
        t = 2000
        f = rng.standard_normal(t)
        rows = 0.7 * f + 0.7 * rng.standard_normal((20, t))
        rp = panel_from_returns(rows)
        sd = eigendecompose(surrogate_correlation(rp, 5, np.empty(rp.returns.shape)))
        bounds = rmt_bounds(20, t)
        frac = np.mean((sd.eigenvalues >= bounds.lambda_min - 0.05) &
                       (sd.eigenvalues <= bounds.lambda_max + 0.05))
        assert frac >= 0.95


class TestEigenvectorComponentSample:
    """The pooled components of selected eigenvectors, picked by a boolean
    mask over the eigenvalues as the surrogate stage does."""

    def test_identity_pooled_normalization(self):
        pooled = eigendecompose(np.eye(6)).eigenvectors.ravel()
        assert (pooled ** 2).sum() / pooled.size == pytest.approx(1.0, abs=1e-9)

    def test_bulk_components_look_normal(self):
        rng = np.random.default_rng(808)
        rp = normalized_noise_panel(rng, 40, 2000)
        sd = eigendecompose(correlation_matrix(rp))
        bounds = rmt_bounds(40, 2000)
        lam = sd.eigenvalues
        bulk = (lam >= bounds.lambda_min - 0.05) & (lam <= bounds.lambda_max + 0.05)
        pooled = sd.eigenvectors[bulk].ravel()
        assert pooled.size >= 1000
        assert stats.kstest(pooled, "norm").statistic < 0.06
