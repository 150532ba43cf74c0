import numpy as np
import pytest

from wrdpm import (
    BlockModelSpec,
    ChungLuSpec,
    DomainError,
    NotPSDError,
    WeightedGraph,
    complete_diagonal,
    dot_product_grid,
    draw_vectors,
    factor_psd,
    fit_poisson_er,
    make_chung_lu,
    make_er,
    make_sbm,
    sample_network,
    total_weight,
)

# block parameter matrix worked through in the assortative example
B_EXAMPLE = np.array([
    [0.50, 0.05, 0.10],
    [0.05, 0.40, 0.05],
    [0.10, 0.05, 0.30],
])


def random_offdiag(rng, n, scale=5.0):
    a = rng.uniform(-scale, scale, (n, n))
    a = np.triu(a, 1)
    return a + a.T


class TestCompleteDiagonal:
    def test_two_by_two_dominant(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = complete_diagonal(m)
        assert np.array_equal(np.diag(c), [2.0, 2.0])
        assert np.allclose(np.linalg.eigvalsh(c), [1.0, 3.0])

    def test_zero_offdiagonal(self):
        m = np.zeros((4, 4))
        c = complete_diagonal(m)
        assert np.array_equal(c, np.eye(4))

    @pytest.mark.parametrize("m, shape", [(np.ones((2, 3)), r"\(2, 3\)"), (np.ones(3), r"\(3,\)")])
    def test_non_square_rejected(self, m, shape):
        with pytest.raises(ValueError, match="expected square matrix, got shape " + shape):
            complete_diagonal(m)

    def test_min_eigenvalue_property(self, rng):
        for _ in range(200):
            m = random_offdiag(rng, int(rng.integers(5, 51)))
            c = complete_diagonal(m)
            assert np.linalg.eigvalsh(c)[0] >= 1.0 - 1e-9


class TestFactorPsd:
    def test_block_matrix_factorization(self):
        x = factor_psd(B_EXAMPLE)
        assert np.abs(x @ x.T - B_EXAMPLE).max() < 1e-10
        assert np.dot(x[0], x[0]) == pytest.approx(0.5, abs=1e-12)

    def test_identity(self):
        x = factor_psd(np.eye(4))
        assert np.allclose(x @ x.T, np.eye(4), atol=1e-12)
        assert np.allclose(x.T @ x, np.eye(4), atol=1e-12)

    def test_rank_one(self):
        v = np.array([1.0, -2.0, 3.0])
        x = factor_psd(np.outer(v, v))
        assert np.allclose(np.abs(x[:, 0]), np.abs(v))
        assert np.allclose(np.outer(x[:, 0], x[:, 0]), np.outer(v, v))

    def test_not_psd_reports_eigenvalue(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotPSDError, match="-1"):
            factor_psd(m)

    @pytest.mark.parametrize("c", [1e-12, 1e-300, 1.0])
    def test_not_psd_at_every_scale(self, c):
        # An absolute floor on the tolerance would accept the eigenvalue -c
        # of a small enough matrix.
        with pytest.raises(NotPSDError, match="not PSD"):
            factor_psd(c * np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_zero_matrix_factors_to_zero(self):
        assert not factor_psd(np.zeros((3, 3))).any()

    def test_not_psd_past_the_square_root_of_the_float_maximum(self):
        # The sum of squares of these entries overflows; a tolerance taken
        # from it would be inf and accept the eigenvalue -1e200.
        with pytest.raises(NotPSDError, match=r"-1e\+200"):
            factor_psd(1e200 * np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("c", [1e-30, 1.0, 1e30])
    def test_orientation_is_scale_free(self, c):
        # Every eigenvector of this matrix has a nonzero first entry, which
        # the orientation makes positive at every scale of the matrix.
        m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        x = factor_psd(c * m)
        assert (x[0] > 0).all()
        np.testing.assert_allclose(x, np.sqrt(c) * factor_psd(m), rtol=1e-12,
                                   atol=1e-12 * np.sqrt(c))

    def test_canonical_orientation_deterministic(self, rng):
        m = random_offdiag(rng, 8)
        c = complete_diagonal(m)
        assert np.array_equal(factor_psd(c), factor_psd(c))

    def test_roundtrip_after_completion(self, rng):
        for _ in range(100):
            m = random_offdiag(rng, int(rng.integers(5, 30)))
            c = complete_diagonal(m)
            x = factor_psd(c)
            assert np.linalg.norm(x @ x.T - c) <= 1e-10 * np.linalg.norm(c)


class TestMakeEr:
    def test_bernoulli_quarter(self):
        m = make_er(5, "bernoulli", 0.25, d=1)
        assert m.source.vector[0] == pytest.approx(0.5)

    def test_poisson_norm(self):
        m = make_er(5, "poisson", 4.0, d=2)
        v = m.source.vector
        assert np.dot(v, v) == pytest.approx(4.0)

    def test_grid_is_constant(self):
        m = make_er(6, "poisson", 2.0)
        grid = dot_product_grid(draw_vectors(m, 0))
        off = grid[~np.eye(6, dtype=bool)]
        assert np.allclose(off, 2.0)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            make_er(5, "bernoulli", 1.5)

    def test_zero_dimension_is_named(self):
        with pytest.raises(ValueError, match="d must be >= 1, got 0"):
            make_er(5, "poisson", 1.0, d=0)


class TestFitPoissonEr:
    def test_three_node_example(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2
        w[1, 2] = w[2, 1] = 3
        w[0, 2] = w[2, 0] = 1
        m = fit_poisson_er(WeightedGraph(w))
        v = m.source.vector
        assert np.dot(v, v) == pytest.approx(2.0)

    def test_empty_graph_degenerate(self):
        m = fit_poisson_er(WeightedGraph(np.zeros((6, 6))))
        g = sample_network(m, draw_vectors(m, 0), seed=1)
        assert total_weight(g) == 0

    def test_mle_is_exact_ratio(self, rng):
        from fractions import Fraction

        for _ in range(20):
            n = int(rng.integers(2, 20))
            w = rng.integers(0, 6, (n, n)).astype(float)
            w = np.triu(w, 1)
            g = WeightedGraph(w + w.T)
            m = fit_poisson_er(g)
            v = m.source.vector
            lam = float(np.dot(v, v))
            exact = Fraction(int(total_weight(g)), n * (n - 1) // 2)
            assert lam == pytest.approx(float(exact), rel=1e-15)


class TestMakeSbm:
    def test_paper_block_matrix_grid(self):
        spec = BlockModelSpec(B_EXAMPLE, (2, 2, 2))
        m = make_sbm(spec, "poisson")
        vecs = m.source.vectors
        assert np.abs(vecs @ vecs.T - B_EXAMPLE).max() < 1e-10

    def test_all_ones_collapses_to_er(self):
        p = 0.3
        spec = BlockModelSpec(np.full((3, 3), p), (2, 3, 4))
        m = make_sbm(spec, "bernoulli")
        grid = dot_product_grid(draw_vectors(m, 0))
        off = grid[~np.eye(9, dtype=bool)]
        assert np.allclose(off, p, atol=1e-12)

    def test_anti_assortative_not_psd(self):
        spec = BlockModelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), (2, 2))
        with pytest.raises(NotPSDError):
            make_sbm(spec, "poisson")

    def test_bernoulli_domain_checked_first(self):
        spec = BlockModelSpec(np.array([[0.5, 1.5], [1.5, 0.5]]), (2, 2))
        with pytest.raises(DomainError):
            make_sbm(spec, "bernoulli")

    def test_grid_law_by_community(self):
        spec = BlockModelSpec(B_EXAMPLE, (3, 2, 4))
        m = make_sbm(spec, "poisson")
        grid = dot_product_grid(draw_vectors(m, 0))
        comm = spec.assignment()
        for j in range(spec.n):
            for l in range(spec.n):
                if j != l and comm[j] != comm[l]:
                    assert grid[j, l] == pytest.approx(
                        B_EXAMPLE[comm[j], comm[l]], abs=1e-12
                    )

    def test_magnitude_normalization_equalizes_lengths(self):
        spec = BlockModelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), (3, 3))
        m = make_sbm(spec, "poisson", magnitude_normalization=True)
        vecs = m.source.vectors
        lengths = np.linalg.norm(vecs, axis=1)
        assert np.allclose(lengths, lengths[0])
        grid = dot_product_grid(draw_vectors(m, 0))
        comm = spec.assignment()
        inter = grid[np.ix_(comm == 0, comm == 1)]
        assert np.allclose(inter, 1.0, atol=1e-12)


class TestBlockMatrixSymmetry:
    """B is symmetric up to ``graph.SYMMETRY_TOL`` of its largest entry."""

    def test_asymmetry_large_against_the_entries_is_refused(self):
        with pytest.raises(ValueError, match="B must be symmetric"):
            BlockModelSpec(np.array([[1e-3, 1e-14], [1e-20, 1e-3]]), (2, 2))

    def test_one_ulp_asymmetry_at_large_scale_is_averaged(self):
        b = np.array([[2e6, 1e6], [np.nextafter(1e6, 2e6), 2e6]])
        before = b.copy()
        spec = BlockModelSpec(b, (2, 2))
        assert np.array_equal(spec.B, spec.B.T)
        assert spec.B[0, 1] in (b[0, 1], b[1, 0])
        assert b.tobytes() == before.tobytes() and b.flags.writeable

    def test_exactly_symmetric_block_matrix_keeps_its_bytes(self):
        spec = BlockModelSpec(B_EXAMPLE, (2, 2, 2))
        assert spec.B.tobytes() == B_EXAMPLE.tobytes()
        assert B_EXAMPLE.flags.writeable

    def test_block_matrix_of_three_dimensions_is_refused(self):
        with pytest.raises(ValueError, match=r"B must be square, got shape \(1, 1, 1\)"):
            BlockModelSpec(np.ones((1, 1, 1)), (1,))


class TestMakeChungLu:
    def test_equal_weights(self):
        m = make_chung_lu(ChungLuSpec(np.ones(4)), "bernoulli")
        grid = dot_product_grid(draw_vectors(m, 0))
        off = grid[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.25, atol=1e-14)

    def test_poisson_expected_weight(self):
        m = make_chung_lu(ChungLuSpec(np.array([1.0, 2.0, 3.0])), "poisson")
        grid = dot_product_grid(draw_vectors(m, 0))
        assert grid[1, 2] == pytest.approx(1.0, abs=1e-12)

    def test_bernoulli_domain_violation(self):
        with pytest.raises(DomainError):
            make_chung_lu(ChungLuSpec(np.array([10.0, 10.0])), "bernoulli")

    def test_zero_dimension_is_named(self):
        with pytest.raises(ValueError, match="d must be >= 1, got 0"):
            make_chung_lu(ChungLuSpec(np.ones(3)), "poisson", d=0)

    @pytest.mark.parametrize("weights", [[], [1e-320], [1e-320, 1e-320]])
    def test_sum_without_a_finite_reciprocal_is_refused(self, weights):
        # make_chung_lu divides by the sum.
        with pytest.raises(ValueError, match="finite reciprocal"):
            ChungLuSpec(np.array(weights))

    def test_grid_law_random_weights(self, rng):
        w = rng.uniform(0.1, 2.0, 30)
        m = make_chung_lu(ChungLuSpec(w), "poisson")
        grid = dot_product_grid(draw_vectors(m, 0))
        expected = np.outer(w, w) / w.sum()
        assert np.abs(grid - expected).max() < 1e-12


class TestNonFiniteEntries:
    """NaN fails every comparison, so range and symmetry checks let it through."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_off_diagonal(self, bad):
        m = np.zeros((3, 3))
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(ValueError, match=r"entries\[1, 2\] is (nan|inf); entries must be finite"):
            complete_diagonal(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_block_matrix(self, bad):
        b = B_EXAMPLE.copy()
        b[0, 2] = b[2, 0] = bad
        with pytest.raises(ValueError, match=r"B\[0, 2\] is (nan|inf)"):
            BlockModelSpec(b, (2, 2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_chung_lu_weights(self, bad):
        with pytest.raises(ValueError, match=r"weights\[1\] is (nan|inf)"):
            ChungLuSpec(np.array([1.0, bad, 2.0]))


def test_corollary_roundtrip_random_parameters(rng):
    # arbitrary in-domain edge parameters are reproduced exactly off-diagonal
    for _ in range(30):
        n = int(rng.integers(3, 20))
        params = rng.uniform(0.0, 4.0, (n, n))
        params = np.triu(params, 1)
        params = params + params.T
        c = complete_diagonal(params)
        x = factor_psd(c)
        grid = x @ x.T
        off = ~np.eye(n, dtype=bool)
        assert np.abs(grid - params)[off].max() < 1e-9
