import itertools

import numpy as np
import pytest

from wrdpm import SolverConfig, WeightedGraph, dimension_sweep, embed, embedding, graph
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

    @pytest.mark.parametrize("rank_deficit", [2, 1, 0])
    def test_full_rank_is_exact(self, rng, rank_deficit):
        # Near full rank the start has columns far shorter than the longest;
        # with the column scale floored at 1e-3 of the longest, these solves
        # hit the 500-step cap at residuals up to 0.56.
        g = random_integer_graph(rng, 10)
        emb = embed(g, g.n - rank_deficit)
        assert emb.converged
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


def three_block_sbm(seed, block_size, within=1.0, between=0.1):
    """Poisson block model with three equal blocks."""
    b = np.full((3, 3), between)
    np.fill_diagonal(b, within)
    z = np.repeat(np.arange(3), block_size)
    w = np.triu(np.random.default_rng(seed).poisson(b[np.ix_(z, z)]), 1).astype(float)
    return WeightedGraph(w + w.T)


class TestDescent:
    """Column-scaled L-BFGS: its history, its cap and its stop reasons."""

    def test_star_has_no_minimiser_in_any_node_order(self):
        # Edges 1-3 and 2-3 plus an isolated node: at d = 1 the residual only
        # nears its infimum 0 as the center's row grows without bound and its
        # neighbours' rows shrink, so no X minimizes it. Every node order runs
        # away on the center's row until the cap. The off-diagonal products
        # the graph fixes agree across orders; how far out on the ray each
        # order gets is rounding amplified over 500 steps (the center's
        # squared norm ends between 4551 and 5056).
        w = np.zeros((4, 4))
        w[1, 3] = w[3, 1] = w[2, 3] = w[3, 2] = 1.0
        off = ~np.eye(4, dtype=bool)
        grams = []
        for perm in itertools.permutations(range(4)):
            p = np.array(perm)
            emb = embed(WeightedGraph(w[np.ix_(p, p)]), 1)
            assert not emb.converged
            assert emb.stop_reason == "no-minimiser"
            assert emb.iterations == SolverConfig().max_iterations
            assert len(emb.residual_history) == emb.iterations + 1
            back = np.argsort(p)
            grams.append((emb.X @ emb.X.T)[np.ix_(back, back)])
        for gram in grams:
            assert np.argmax(np.diag(gram)) == 3 and gram[3, 3] > 1e3
            np.testing.assert_allclose(gram[off], grams[0][off], atol=1e-3)
            np.testing.assert_allclose(gram[3, 3], grams[0][3, 3], rtol=0.15)

    def test_hub_with_an_exact_fit_converges(self):
        # A hub of 20 with 50 leaves of 0.05 is fit exactly at d = 1 with the
        # hub's squared norm at 400 max |A|. Descent from the start (about 5)
        # grows the hub row at first as on the star above, then settles.
        u = np.r_[20.0, np.full(50, 0.05)]
        a = np.outer(u, u)
        np.fill_diagonal(a, 0.0)
        emb = embed(WeightedGraph(a), 1)
        assert emb.converged and emb.stop_reason == "tolerance"
        assert emb.residual < 1e-9 * np.linalg.norm(a)
        np.testing.assert_allclose(np.abs(emb.X[:, 0]), u, rtol=1e-6)

    def test_stall_before_the_cap_is_not_reported_as_the_cap(self):
        # Node 0 grows and node 2, its only neighbour, shrinks until f is flat
        # to rounding: the line search finds no lower f at step 87.
        w = np.array([[0, 1, 3, 1, 0, 2], [1, 0, 0, 1, 2, 2], [3, 0, 0, 0, 0, 0],
                      [1, 1, 0, 0, 2, 3], [0, 2, 0, 2, 0, 2], [2, 2, 0, 3, 2, 0]], dtype=float)
        emb = embed(WeightedGraph(w), 2)
        assert not emb.converged
        assert emb.stop_reason == "stalled"
        assert emb.iterations < SolverConfig().max_iterations
        assert len(emb.residual_history) == emb.iterations + 1

    @pytest.mark.parametrize("graph, d", [(three_block_sbm(4, 100), 6),
                                          (bridge_graph(5), 3), (disjoint_cliques([4, 6]), 3)])
    def test_objective_history_never_rises(self, graph, d):
        emb = embed(graph, d)
        assert emb.converged and emb.stop_reason == "tolerance"
        hist = np.array(emb.residual_history)
        assert len(hist) == emb.iterations + 1
        assert (np.diff(hist) <= 0).all()
        assert emb.residual == hist[-1]

    @pytest.mark.parametrize("cap", [1, 7])
    def test_cap_stops_unconverged(self, cap):
        g = three_block_sbm(4, 100)
        emb = embed(g, 6, SolverConfig(max_iterations=cap))
        assert not emb.converged
        assert emb.stop_reason == "cap"
        assert emb.iterations == cap
        assert len(emb.residual_history) == cap + 1
        assert emb.residual == min(emb.residual_history)
        assert emb.residual > embed(g, 6).residual

    def test_capped_solve_keeps_the_cap_reason(self, rng):
        # At d = 7 this graph ends at the default cap still descending, at
        # residual 0.0042, without the runaway of a missing minimiser.
        emb = embed(random_integer_graph(rng, 10), 7)
        assert emb.stop_reason == "cap"
        assert emb.iterations == SolverConfig().max_iterations
        assert emb.residual == min(emb.residual_history)

    def test_sweep_residuals_at_most_the_fixed_points(self):
        # Residuals of the diagonal fixed point this solver replaced, at
        # d = 2..8, each converged to an absolute step of 1e-8.
        fixed_point = [101.42504611478245, 90.30170761559582, 89.00436095355917,
                       87.80932327885378, 86.72696081567693, 85.63895110405021,
                       84.53580134511527]
        report = dimension_sweep(three_block_sbm(0, 50), range(2, 9))
        assert all(rec.embedding.converged for rec in report.records)
        for rec, old in zip(report.records, fixed_point):
            assert rec.embedding.residual <= old * (1 + 1e-9)
        assert report.selected_d == 3

    def test_zero_column_is_filled_where_the_residual_falls(self):
        # The start has two positive eigenvalues, so its third column is zero,
        # and descent never moves a zero column. Filling it along the most
        # negative eigenvector of offdiag(X X^T - A) reaches an exact fit.
        w = np.array([[0, 0, 0, 2], [0, 0, 3, 2], [0, 3, 0, 0], [2, 2, 0, 0]], dtype=float)
        emb = embed(WeightedGraph(w), 3)
        assert emb.converged
        assert emb.residual < 1e-6
        assert np.linalg.norm(emb.X, axis=0).min() > 0.1
        # Three cliques at d = 4: the start's fourth column is zero, and fills
        # alone reach the exact fit, in three steps.
        emb = embed(disjoint_cliques([5, 5, 5]), 4)
        assert emb.stop_reason == "tolerance" and emb.iterations == 3
        assert len(emb.residual_history) == 4

    def test_scaling_weights_by_four_doubles_x_bit_for_bit(self, rng):
        g = random_integer_graph(rng, 30)
        base = embed(g, 3)
        scaled = embed(WeightedGraph(4.0 * g.weights), 3)
        assert np.array_equal(scaled.X, 2.0 * base.X)
        assert scaled.residual == 4.0 * base.residual
        assert scaled.iterations == base.iterations

    def test_weights_near_the_float_maximum(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1e308
        w[1, 2] = w[2, 1] = 1.0
        emb = embed(WeightedGraph(w), 1)
        assert np.isfinite(emb.X).all() and np.isfinite(emb.residual)
        assert emb.converged
        assert emb.X[0, 0] * emb.X[1, 0] == pytest.approx(1e308, rel=1e-9)

    def test_a_fit_past_the_float_maximum_is_refused(self):
        # Node 4 is joined to two nodes that are not joined to each other; the
        # fit gives it a squared row norm past the largest weight, the float
        # maximum.
        top = np.finfo(float).max
        w = np.zeros((5, 5))
        for j, l in ((0, 4), (1, 2), (3, 4)):
            w[j, l] = w[l, j] = top
        with pytest.raises(ValueError, match="d=2 overflows the float range"):
            embed(WeightedGraph(w), 2)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            SolverConfig(tolerance=tol)


def poisson_graph(seed, n, mean=0.5):
    w = np.triu(np.random.default_rng(seed).poisson(mean, (n, n)), 1).astype(float)
    return WeightedGraph(w + w.T)


class Unscaled:
    """A stand-in for `graph._FitMatrix` that holds the matrix m as it is."""

    def __init__(self, m):
        self.m = m

    def __matmul__(self, v):
        return self.m @ v

    def dense(self, c, y=None):
        assert y is None
        return self.m + np.diag(c)


@pytest.fixture
def start_solver(monkeypatch):
    """Label of the eigensolves embed ran since the fixture was set up or
    the label was last read: "dense", "lanczos", or "lanczos+dense-fallback"
    when a Lanczos run was made and a full eigendecomposition stood in."""
    calls = set()

    def spy(name, func):
        def wrapped(*args, **kwargs):
            calls.add(name)
            return func(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(embedding, "_eigentruncate", spy("dense", embedding._eigentruncate))
    monkeypatch.setattr(embedding, "_lanczos", spy("lanczos", embedding._lanczos))

    def label():
        if "lanczos" not in calls:
            name = "dense"
        else:
            name = "lanczos+dense-fallback" if "dense" in calls else "lanczos"
        calls.clear()
        return name

    return label


class TestLargeGraphPath:
    """Graphs above the size crossover, where embed starts from a Lanczos run's top d."""

    @pytest.mark.parametrize("d", [3, 8])
    def test_matches_dense_path(self, monkeypatch, start_solver, d):
        # The two starts differ by rounding, so the step counts may differ;
        # the minimum reached may not.
        g = poisson_graph(1, 300)
        fast = embed(g, d)
        assert start_solver() == "lanczos"
        monkeypatch.setattr(embedding, "_LANCZOS_MIN_N", 10**9)
        full = embed(g, d)
        assert start_solver() == "dense"
        assert fast.converged and full.converged
        assert fast.residual == pytest.approx(full.residual, rel=1e-9)

    @pytest.mark.parametrize("sizes, d, solver", [
        ([100] * 4, 4, "lanczos+dense-fallback"),
        ([100] * 8, 8, "lanczos+dense-fallback"),
        ([100, 100, 60], 3, "lanczos"),
    ])
    def test_repeated_top_eigenvalue_matches_dense_path(self, monkeypatch, start_solver,
                                                        sizes, d, solver):
        # Equal cliques repeat the top eigenvalue; a single Krylov space holds
        # one vector of that eigenspace. The run's restarts, where ones / sqrt(n)
        # spans an invariant subspace, find the second copy on the third graph
        # and not every copy on the others, where the check sees the miss.
        g = disjoint_cliques(sizes)
        a_hat = g.weights + np.diag(g.weights.sum(axis=1) / (g.n - 1))
        top = np.linalg.eigvalsh(a_hat)[-2:]
        assert top[1] - top[0] < 1e-9 * top[1]
        fast = embed(g, d)
        assert start_solver() == solver
        monkeypatch.setattr(embedding, "_LANCZOS_MIN_N", 10**9)
        full = embed(g, d)
        assert start_solver() == "dense"
        assert fast.converged and full.converged
        scale = np.linalg.norm(g.weights)
        assert abs(fast.residual - full.residual) < 1e-9 * scale

    def test_an_invariant_start_space_is_left_by_a_fixed_restart(self, start_solver):
        # On cliques of 100, 100 and 60 the Krylov space of ones is invariant
        # after two steps and holds one copy of the top eigenvalue. The run
        # goes on from a fixed random vector and finds the second copy itself.
        g = disjoint_cliques([100, 100, 60])
        m = g.weights + np.diag(g.weights.sum(axis=1) / (g.n - 1))
        products = []

        class Counting(Unscaled):
            def __matmul__(self, v):
                products.append(v)
                return self.m @ v

        x = embedding._truncated_factor(Counting(m), np.zeros(g.n), 3)
        assert start_solver() == "lanczos"
        exact = embedding._eigentruncate(m, 3)[0]
        np.testing.assert_allclose(x @ x.T, exact @ exact.T, atol=1e-9)
        # The third product is the restart: orthogonal to the first two.
        basis = np.array(products[:3])
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)
        assert not np.allclose(products[2], products[2][0])

    def test_missed_eigenvalue_falls_back_to_the_full_eigendecomposition(self, start_solver):
        # Four equal cliques repeat the top eigenvalue four times. Each restart
        # adds one copy and one vector of the next eigenvalue, so the run ends
        # with three copies and the fourth value in place of the fourth copy.
        g = disjoint_cliques([100] * 4)
        m = g.weights + np.diag(g.weights.sum(axis=1) / (g.n - 1))
        x = embedding._truncated_factor(Unscaled(m), np.zeros(g.n), 4)
        assert start_solver() == "lanczos+dense-fallback"
        exact = embedding._eigentruncate(m, 4)[0]
        np.testing.assert_allclose(x @ x.T, exact @ exact.T, atol=1e-9)

    def test_unconverged_lanczos_falls_back_to_the_full_eigendecomposition(
            self, monkeypatch, start_solver):
        monkeypatch.setattr(embedding, "_LANCZOS_STEP_SHARE", 100)  # 3 steps at n = 300
        g = poisson_graph(1, 300)
        m = g.weights + np.diag(g.weights.sum(axis=1) / (g.n - 1))
        assert not embedding._takes_eigh(g.n, 3)
        x = embedding._truncated_factor(Unscaled(m), np.zeros(g.n), 3)
        assert start_solver() == "lanczos+dense-fallback"
        assert x.tobytes() == embedding._eigentruncate(m, 3)[0].tobytes()

    def test_start_reads_the_matrix_only_through_products(self, start_solver):
        # Where the Lanczos run misses nothing, the start forms no n x n
        # matrix, so a fit operator need not hold one to serve it.
        fit = graph._FitMatrix(poisson_graph(1, 300))
        calls = []

        class Spy:
            def __matmul__(self, v):
                calls.append("@")
                return fit @ v

            def __getattr__(self, name):
                calls.append(name)
                return getattr(fit, name)

        x = embedding._truncated_factor(Spy(), fit.degree_mean, 3)
        assert start_solver() == "lanczos"
        assert set(calls) == {"@"}
        assert x.tobytes() == embedding._truncated_factor(fit, fit.degree_mean, 3).tobytes()

    @pytest.mark.parametrize("sizes", [[100, 100, 60], [129, 129, 83]])
    def test_cliques_with_a_repeated_top_eigenvalue_fit_exactly(self, start_solver, sizes):
        # Equal cliques repeat the top eigenvalue. Descent from a start that
        # misses a copy stops at a saddle point with residual 128.7 on the
        # second graph. The run's restart finds the copy itself, under the
        # SkylakeX and Haswell kernels alike, and the fit is exact.
        emb = embed(disjoint_cliques(sizes), 3)
        assert emb.converged
        assert emb.residual < 1e-6
        assert start_solver() == "lanczos"

    @pytest.mark.parametrize("sizes", [[100, 100, 60], [129, 129, 83]])
    def test_a_missed_copy_is_detected_and_eigh_stands_in(self, monkeypatch, start_solver,
                                                          sizes):
        # The first Lanczos run is made to miss the top eigenpair on every
        # kernel: it solves for one pair more and drops the largest. The
        # deflation check must see the miss, and the fit from eigh's start
        # must still be exact.
        lanczos = embedding._lanczos

        def missing_top(product, v, k, tol, rng):
            if k == 1:  # the check
                return lanczos(product, v, k, tol, rng)
            values, vectors = lanczos(product, v, k + 1, tol, rng)  # descending
            return values[1:], vectors[:, 1:]

        monkeypatch.setattr(embedding, "_lanczos", missing_top)
        emb = embed(disjoint_cliques(sizes), 3)
        assert start_solver() == "lanczos+dense-fallback"
        assert emb.converged
        assert emb.residual < 1e-6

    @pytest.mark.parametrize("graph", [poisson_graph(2, 300), disjoint_cliques([100] * 4)])
    def test_reruns_are_bit_identical(self, start_solver, graph):
        a = embed(graph, 4)
        b = embed(graph, 4)
        assert start_solver().startswith("lanczos")
        assert np.array_equal(a.X, b.X)
        assert a.residual_history == b.residual_history

    @pytest.mark.parametrize("n, d", [(320, 11), (255, 3)])
    def test_small_or_high_rank_takes_dense_path(self, start_solver, n, d):
        embed(poisson_graph(3, n), d, SolverConfig(max_iterations=2))
        assert start_solver() == "dense"
