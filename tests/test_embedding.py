import numpy as np
import pytest

from wrdpm import SolverConfig, WeightedGraph, dimension_sweep, embed, embedding, residual
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


def three_block_sbm(seed, block_size, within=1.0, between=0.1):
    """Poisson block model with three equal blocks."""
    b = np.full((3, 3), between)
    np.fill_diagonal(b, within)
    z = np.repeat(np.arange(3), block_size)
    w = np.triu(np.random.default_rng(seed).poisson(b[np.ix_(z, z)]), 1).astype(float)
    return WeightedGraph(w + w.T)


class TestAcceleration:
    """The Anderson-accelerated diagonal fixed point and its safeguards."""

    def test_star_without_minimizer_stays_unconverged(self):
        # Edges 1-3 and 2-3 plus an isolated node: at d = 1 the residual keeps
        # falling as the center's diagonal grows, so there is no fixed point.
        # Unbounded extrapolation met the stopping rule far out on that ray
        # at a point rounding picked: converged=True after 54 to 133 steps,
        # with the center's squared norm anywhere from 623 to 1113 across
        # the 24 node orders. The step bound keeps every order at the cap,
        # as the plain iteration does. The position reached on the ray still
        # carries amplified rounding, so the orders agree to a few percent
        # (1.4 % over all 24 orders when written), not to rounding.
        w = np.zeros((4, 4))
        w[1, 3] = w[3, 1] = w[2, 3] = w[3, 2] = 1.0
        grams = []
        for perm in [(0, 1, 2, 3), (3, 2, 1, 0), (1, 2, 0, 3), (0, 3, 1, 2)]:
            p = np.array(perm)
            emb = embed(WeightedGraph(w[np.ix_(p, p)]), 1)
            assert not emb.converged
            assert emb.iterations == SolverConfig().max_iterations
            back = np.argsort(p)
            grams.append((emb.X @ emb.X.T)[np.ix_(back, back)])
        for gram in grams[1:]:
            np.testing.assert_allclose(gram, grams[0], atol=3e-2 * np.abs(grams[0]).max())

    def test_residual_monotone_on_arpack_path(self):
        # On this graph one accelerated step raises the residual and is
        # rejected, so the history skips it.
        g = three_block_sbm(4, 100)
        emb = embed(g, 6)
        assert emb.eigensolver == "arpack"
        assert emb.converged
        assert emb.iterations > len(emb.residual_history)
        hist = np.array(emb.residual_history)
        assert (np.diff(hist) <= 1e-9).all()

    def test_rejected_steps_count_against_the_cap(self):
        # The full solve rejects one step, so a cap one below its count
        # stops it short of convergence only if rejected steps count.
        g = three_block_sbm(4, 100)
        full = embed(g, 6)
        capped = embed(g, 6, SolverConfig(max_iterations=full.iterations - 1))
        assert not capped.converged
        assert capped.iterations == full.iterations - 1

    def test_sweep_takes_at_most_half_the_plain_iterations(self):
        # Without acceleration this sweep took 276 iterations
        # (18, 9, 21, 43, 65, 69, 51 for d = 2..8).
        report = dimension_sweep(three_block_sbm(0, 50), range(2, 9))
        assert all(rec.embedding.converged for rec in report.records)
        assert sum(rec.embedding.iterations for rec in report.records) <= 276 // 2
        assert report.selected_d == 3


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
