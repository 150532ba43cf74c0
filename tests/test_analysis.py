import itertools
import json
import math

import numpy as np
import pytest

from wrdpm import (
    AxisNoise,
    EdgeDistribution,
    LatentModel,
    WeightedGraph,
    dot_product_grid,
    draw_vectors,
    evaluate_null_likelihood,
    fit_poisson_er,
    log_likelihood,
    null_compare,
    sample_from_grids,
    sample_network,
    total_weight,
    weighted_clustering,
)
from wrdpm.model import derive_seed
from conftest import disjoint_cliques, random_integer_graph


def barrat_reference(w):
    """Brute-force per-node weighted clustering by triangle enumeration."""
    n = w.shape[0]
    out = np.zeros(n)
    for j in range(n):
        neighbors = [l for l in range(n) if w[j, l] > 0]
        k = len(neighbors)
        s = w[j].sum()
        if k < 2:
            continue
        acc = 0.0
        # ordered neighbor pairs: (l,h) and (h,l) both contribute (w_jl+w_jh)/2
        for l, h in itertools.combinations(neighbors, 2):
            if w[l, h] > 0:
                acc += w[j, l] + w[j, h]
        out[j] = acc / (s * (k - 1))
    return out


def matmul_reference(g):
    """Per-node weighted clustering with the common-neighbor counts from a
    float64 ``A @ A``; every other step as in ``weighted_clustering``."""
    w = g.weights
    a = (w > 0).astype(float)
    degree = a.sum(axis=1)
    numer = (w * (a @ a)).sum(axis=1)
    denom = w.sum(axis=1) * (degree - 1)
    return np.where(denom > 0, numer / np.where(denom > 0, denom, 1.0), 0.0)


def graph_from_edges(n, edges):
    w = np.zeros((n, n))
    for i, j, weight in edges:
        w[i, j] = w[j, i] = weight
    return WeightedGraph(w)


class TestWeightedClustering:
    def test_triangle_is_one(self):
        g = disjoint_cliques([3])
        per_node, avg = weighted_clustering(g)
        assert np.allclose(per_node, 1.0)
        assert avg == pytest.approx(1.0)

    def test_path_is_zero(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        per_node, avg = weighted_clustering(g)
        assert not per_node.any()
        assert avg == 0.0

    def test_uniformly_weighted_triangle(self):
        g = graph_from_edges(3, [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0)])
        per_node, _ = weighted_clustering(g)
        assert np.allclose(per_node, 1.0)

    def test_asymmetric_weights_match_reference(self):
        g = graph_from_edges(
            4, [(0, 1, 3.0), (0, 2, 1.0), (1, 2, 2.0), (2, 3, 5.0)]
        )
        per_node, avg = weighted_clustering(g)
        ref = barrat_reference(g.weights)
        assert np.allclose(per_node, ref)
        assert avg == pytest.approx(ref.mean())

    def test_matches_binary_clustering_on_01_graphs(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 9))
            g = random_integer_graph(rng, n, max_weight=1, density=0.5)
            per_node, _ = weighted_clustering(g)
            assert np.allclose(per_node, barrat_reference(g.weights))

    def test_matches_reference_on_weighted_graphs(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 9))
            g = random_integer_graph(rng, n, max_weight=5, density=0.6)
            per_node, _ = weighted_clustering(g)
            assert np.allclose(per_node, barrat_reference(g.weights))

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 40, 300])
    @pytest.mark.parametrize("weights", ["integer", "real"])
    def test_bitwise_equal_to_matmul_reference(self, rng, n, weights):
        for _ in range(3):
            if weights == "integer":
                g = random_integer_graph(rng, n, max_weight=4, density=0.5)
            else:
                w = np.triu(rng.exponential(1.0, (n, n)) * (rng.random((n, n)) < 0.5), 1)
                g = WeightedGraph(w + w.T)
            # isolate a node: its row and column of A^2 are zero
            w = g.weights.copy()
            w[n // 2] = w[:, n // 2] = 0.0
            for graph in (g, WeightedGraph(w)):
                per_node, avg = weighted_clustering(graph)
                ref = matmul_reference(graph)
                assert per_node.tobytes() == ref.tobytes()
                assert avg == float(ref.mean())

    def test_isolated_and_pendant_nodes_zero(self):
        g = graph_from_edges(4, [(0, 1, 2.0)])
        per_node, _ = weighted_clustering(g)
        assert not per_node.any()


def simple_community_graph(seed, n=60):
    m = LatentModel(EdgeDistribution("poisson"), n, AxisNoise(3, 0.01))
    return sample_network(m, draw_vectors(m, seed), seed + 1)


class TestNullCompare:
    def test_deterministic_report(self):
        g = simple_community_graph(0)
        a = null_compare(g, n_samples=20, seed=5)
        b = null_compare(g, n_samples=20, seed=5)
        assert a.samples == b.samples
        assert a.observed == b.observed
        assert a.quantile == b.quantile

    def test_seeds_draw_different_ensembles(self):
        g = simple_community_graph(0)
        a = null_compare(g, n_samples=10, seed=0)
        b = null_compare(g, n_samples=10, seed=1)
        assert sorted(a.samples) != sorted(b.samples)

    def test_poisson_er_preserves_total_weight(self):
        g = simple_community_graph(1, n=80)
        report = null_compare(g, statistic="total_weight", n_samples=200, seed=3)
        lam_total = total_weight(g)  # MLE null matches the observed total exactly
        se = math.sqrt(lam_total / 200)
        assert abs(report.null_mean - lam_total) < 4 * se

    def test_dot_product_null_preserves_grid(self):
        m = LatentModel(EdgeDistribution("poisson"), 20, AxisNoise(3, 0.01))
        vecs = draw_vectors(m, seed=7)
        grid = dot_product_grid(vecs)
        g = sample_network(m, vecs, seed=8)
        report = null_compare(
            g, null="dot_product", statistic="total_weight",
            n_samples=400, seed=2, x=vecs,
        )
        expected = grid[np.triu_indices(20, k=1)].sum()
        se = math.sqrt(expected / 400)
        assert abs(report.null_mean - expected) < 4 * se

    def test_observed_in_sample_range_self_consistency(self):
        # scoring a graph that *is* a null draw should land mid-ensemble
        g = simple_community_graph(2)
        from wrdpm import fit_poisson_er, sample_from_grids

        model = fit_poisson_er(g)
        grid = dot_product_grid(draw_vectors(model, 0))
        null_draw = sample_from_grids(EdgeDistribution("poisson"), grid, seed=99, clamp=True)
        report = null_compare(null_draw, n_samples=100, seed=11)
        assert 0.01 < report.quantile < 0.99

    @pytest.mark.parametrize("null", ["poisson_er", "dot_product"])
    @pytest.mark.parametrize("statistic", ["avg_weighted_clustering", "total_weight",
                                           "log_likelihood"])
    @pytest.mark.parametrize("n", [2, 3, 60])
    def test_samples_are_the_draws_of_sample_from_grids(self, rng, null, statistic, n):
        # the ensemble gathers its rates once; its draws must not change for it
        dist = EdgeDistribution("poisson")
        x = rng.normal(0.5, 1.0, (n, 2))  # negative grid entries are clamped to 0
        # a draw of the dot-product null itself, so its likelihood is finite
        g = sample_from_grids(dist, dot_product_grid(x), seed=n, clamp=True)
        for seed in (0, 7, 1211):
            report = null_compare(g, null=null, statistic=statistic, n_samples=4,
                                  seed=seed, x=x)
            vectors = draw_vectors(fit_poisson_er(g), seed) if null == "poisson_er" else x
            grid = dot_product_grid(vectors)
            expected = []
            for i in range(4):
                draw = sample_from_grids(dist, grid, derive_seed(seed, i), clamp=True)
                expected.append({
                    "avg_weighted_clustering": lambda: weighted_clustering(draw)[1],
                    "total_weight": lambda: total_weight(draw),
                    "log_likelihood": lambda: log_likelihood(dist, grid, draw, clamp=True),
                }[statistic]())
            assert report.samples == tuple(expected)

    def test_quantile_and_std_fields(self):
        g = simple_community_graph(3)
        report = null_compare(g, n_samples=10, seed=0)
        doc = json.loads(report.to_json())
        assert doc["N"] == 10
        assert 0.0 <= doc["quantile"] <= 1.0
        assert doc["null_std"] > 0
        assert len(doc["samples"]) == 10

    def test_single_sample_has_no_std(self):
        g = simple_community_graph(4)
        report = null_compare(g, n_samples=1, seed=0)
        assert report.null_std is None
        assert json.loads(report.to_json())["null_std"] is None

    def test_unknown_statistic_lists_valid_names(self):
        g = disjoint_cliques([3])
        with pytest.raises(ValueError, match="avg_weighted_clustering"):
            null_compare(g, statistic="bogus")

    def test_unknown_null_kind(self):
        g = disjoint_cliques([3])
        with pytest.raises(ValueError, match="poisson_er"):
            null_compare(g, null="bogus")

    def test_dot_product_null_requires_vectors(self):
        g = disjoint_cliques([3])
        with pytest.raises(ValueError, match="vectors"):
            null_compare(g, null="dot_product")

    def test_log_likelihood_statistic_matches_direct(self):
        g = simple_community_graph(5)
        report = null_compare(g, statistic="log_likelihood", n_samples=5, seed=1)
        from wrdpm import fit_poisson_er

        grid = dot_product_grid(draw_vectors(fit_poisson_er(g), 1))
        direct = log_likelihood(EdgeDistribution("poisson"), grid, g, clamp=True)
        assert report.observed == pytest.approx(direct)


class TestEvaluateNullLikelihood:
    def test_matches_log_likelihood_of_grid(self):
        w = np.array([[0.0, 3.0], [3.0, 0.0]])
        g = WeightedGraph(w)
        x = np.array([[np.sqrt(2.0)], [np.sqrt(2.0)]])  # grid entry 2.0
        expected = math.log(4 / 3) - 2
        assert evaluate_null_likelihood(g, x) == pytest.approx(expected)

    def test_bernoulli_family(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1
        g = WeightedGraph(w)
        x = np.full((3, 1), np.sqrt(0.5))
        expected = 3 * math.log(0.5)
        assert evaluate_null_likelihood(g, x, family="bernoulli") == pytest.approx(expected)
