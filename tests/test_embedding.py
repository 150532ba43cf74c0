import numpy as np
import pytest

from wrdpm import SolverConfig, WeightedGraph, embed, embedding, residual
from conftest import bridge_graph, disjoint_cliques, random_integer_graph


class TestEmbed:
    def test_disjoint_cliques_exact_recovery(self):
        g = disjoint_cliques([5, 5, 5])
        emb = embed(g, 3)
        assert emb.converged
        assert emb.residual < 1e-6
        # rows are community-constant unit vectors in orthogonal directions
        x = emb.X
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-4)
        gram = x @ x.T
        for block in range(3):
            rows = slice(5 * block, 5 * block + 5)
            assert np.allclose(gram[rows, rows], 1.0, atol=1e-4)

    def test_rank_one_recovers_weights(self):
        w = np.array([0.5, 1.0, 1.5, 2.0, 0.8])
        a = np.outer(w, w)
        np.fill_diagonal(a, 0.0)
        g = WeightedGraph(a)
        emb = embed(g, 1)
        assert emb.residual < 1e-6
        ratio = emb.X[:, 0] / w
        assert np.allclose(ratio, ratio[0], atol=1e-5)

    def test_full_rank_is_exact(self, rng):
        g = random_integer_graph(rng, 10)
        emb = embed(g, g.n)
        assert emb.residual < 1e-6

    def test_dimension_bounds(self):
        g = disjoint_cliques([4])
        with pytest.raises(ValueError):
            embed(g, 0)
        with pytest.raises(ValueError):
            embed(g, 5)

    def test_residual_monotone_over_iterations(self, rng):
        for _ in range(5):
            g = random_integer_graph(rng, 15)
            emb = embed(g, 4)
            hist = np.array(emb.residual_history)
            assert (np.diff(hist) <= 1e-9).all()

    def test_determinism(self, rng):
        g = random_integer_graph(rng, 12)
        a = embed(g, 3)
        b = embed(g, 3)
        assert np.array_equal(a.X, b.X)
        assert a.residual == b.residual
        assert a.iterations == b.iterations

    def test_zeros_init_also_converges(self):
        g = disjoint_cliques([5, 5])
        emb = embed(g, 2, SolverConfig(diagonal_init="zeros"))
        assert emb.residual < 1e-6

    def test_iteration_cap_returns_best_so_far(self, rng):
        g = random_integer_graph(rng, 15)
        capped = embed(g, 3, SolverConfig(max_iterations=2))
        assert not capped.converged
        assert capped.iterations == 2
        assert capped.residual == min(capped.residual_history)

    def test_bridge_centrality_geometry(self):
        emb = embed(bridge_graph(5), 3)
        assert emb.residual < 1e-6
        lengths = np.linalg.norm(emb.X, axis=1)
        bridge = lengths[[0, 5]]
        others = np.delete(lengths, [0, 5])
        assert bridge.min() > others.max()
        assert np.allclose(bridge, np.sqrt(2), rtol=0.05)


class TestResidual:
    def test_exact_factorization_zero(self, rng):
        x = np.abs(rng.normal(size=(8, 3)))
        a = x @ x.T
        np.fill_diagonal(a, 0.0)
        g = WeightedGraph(a)
        assert residual(g, x) < 1e-12

    def test_zero_vectors(self, rng):
        g = random_integer_graph(rng, 9)
        x = np.zeros((9, 2))
        off = g.weights[~np.eye(9, dtype=bool)]
        assert residual(g, x) == pytest.approx(np.sqrt((off ** 2).sum()))

    def test_perturbation_first_order(self, rng):
        x = np.abs(rng.normal(size=(6, 2)))
        a = x @ x.T
        np.fill_diagonal(a, 0.0)
        g = WeightedGraph(a)
        base = residual(g, x)
        eps = 1e-6
        xp = x.copy()
        xp[2, 1] += eps
        # residual grows at most linearly in the perturbation
        assert residual(g, xp) - base < 10 * eps * np.abs(x).max() * 6

    def test_orthogonal_invariance(self, rng):
        g = random_integer_graph(rng, 10)
        x = rng.normal(size=(10, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert residual(g, x @ q) == pytest.approx(residual(g, x), abs=1e-9)

    def test_shape_mismatch(self, rng):
        g = random_integer_graph(rng, 5)
        with pytest.raises(ValueError):
            residual(g, np.zeros((4, 2)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(diagonal_init="bogus")


def poisson_graph(seed, n, mean=0.5):
    w = np.triu(np.random.default_rng(seed).poisson(mean, (n, n)), 1).astype(float)
    return WeightedGraph(w + w.T)


class TestLargeGraphPath:
    """Graphs above the size crossover, where embed asks ARPACK for the top d."""

    @pytest.mark.parametrize("d", [3, 8])
    def test_matches_dense_path(self, monkeypatch, d):
        g = poisson_graph(1, 300)
        fast = embed(g, d)
        monkeypatch.setattr(embedding, "_ARPACK_MIN_N", 10**9)
        full = embed(g, d)
        assert fast.eigensolver == "arpack"
        assert full.eigensolver == "dense"
        assert fast.converged and full.converged
        assert fast.iterations == full.iterations
        assert fast.residual == pytest.approx(full.residual, rel=1e-9)

    @pytest.mark.parametrize("sizes, d, solvers", [
        ([100] * 4, 4, {"arpack", "arpack+dense-fallback"}),
        ([100] * 8, 8, {"arpack+dense-fallback"}),
        ([100, 100, 60], 3, {"arpack+dense-fallback"}),
    ])
    def test_repeated_top_eigenvalue_matches_dense_path(self, monkeypatch, sizes, d, solvers):
        # Equal cliques repeat the top eigenvalue; a single Krylov space holds
        # one vector of that eigenspace, so ARPACK alone can miss copies.
        g = disjoint_cliques(sizes)
        a_hat = g.weights + np.diag(g.weights.sum(axis=1) / (g.n - 1))
        top = np.linalg.eigvalsh(a_hat)[-2:]
        assert top[1] - top[0] < 1e-9 * top[1]
        fast = embed(g, d)
        monkeypatch.setattr(embedding, "_ARPACK_MIN_N", 10**9)
        full = embed(g, d)
        assert fast.eigensolver in solvers
        assert fast.converged
        scale = np.linalg.norm(g.weights)
        assert abs(fast.residual - full.residual) < 1e-9 * scale

    @pytest.mark.parametrize("graph", [poisson_graph(2, 300), disjoint_cliques([100] * 4)])
    def test_reruns_are_bit_identical(self, graph):
        a = embed(graph, 4)
        b = embed(graph, 4)
        assert a.eigensolver.startswith("arpack")
        assert np.array_equal(a.X, b.X)
        assert a.residual_history == b.residual_history

    @pytest.mark.parametrize("n, d", [(320, 11), (255, 3)])
    def test_small_or_high_rank_takes_dense_path(self, n, d):
        assert embed(poisson_graph(3, n), d, SolverConfig(max_iterations=2)).eigensolver == "dense"
