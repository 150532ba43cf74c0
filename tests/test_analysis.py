import itertools
import json
import math
import threading
import time

import numpy as np
import pytest

from wrdpm import (
    AxisNoise,
    Constant,
    EdgeDistribution,
    LatentModel,
    ModelError,
    WeightedGraph,
    dot_product_grid,
    draw_vectors,
    evaluate_null_likelihood,
    load_graph,
    null_compare,
    sample_network,
    save_graph,
    total_weight,
    weighted_clustering,
)
from wrdpm import analysis, model
from wrdpm.graph import _pair_weights
from wrdpm.model import NETWORK, NULL_SAMPLE, derive_seed
from conftest import disjoint_cliques, random_integer_graph


def barrat_reference(w):
    """Brute-force per-node weighted clustering by triangle enumeration."""
    w = np.asarray(w, dtype=float)  # uint8 sums wrap past 255
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
    w = g.weights.astype(float)
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

    def test_overflowing_strength_is_named(self):
        g = graph_from_edges(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)])
        with pytest.raises(ValueError, match="node strengths overflow the float range"):
            weighted_clustering(g)

    def test_strength_times_degree_past_the_float_range_is_named(self):
        # Node 2's strength is finite, but times its degree less one it is not.
        g = graph_from_edges(4, [(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1e308)])
        with pytest.raises(ValueError, match="node strengths overflow the float range"):
            weighted_clustering(g)

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

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 40, 257, 300, 600])
    @pytest.mark.parametrize("weights", ["integer", "real"])
    def test_bitwise_equal_to_matmul_reference(self, rng, n, weights):
        # A^2 is formed in tiles of 256 rows, so n = 257 ends on a one-row
        # tile; at n = 600 OpenBLAS threads the tiles' products. The kernel
        # keeps these bits.
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

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("n", [2, 65, 600])
    def test_count_graph_is_bitwise_its_float64_graph(self, rng, n):
        # The null ensemble scores its one-byte draws as graphs: each statistic
        # must give the bits of the same counts held as float64. n = 65 spans
        # two row blocks; at n = 600 OpenBLAS threads the products of A^2.
        c = np.triu(rng.poisson(2.0, (n, n)), 1).astype(np.uint8)
        c[0, -1] = 255
        counts = WeightedGraph._wrap(c + c.T)
        floats = WeightedGraph._wrap(counts.weights.astype(float))
        assert counts.weights.dtype == np.uint8 and floats.weights.dtype == np.float64
        assert total_weight(counts).hex() == total_weight(floats).hex()
        (per_count, avg_count), (per_float, avg_float) = map(weighted_clustering, (counts, floats))
        assert per_count.tobytes() == per_float.tobytes() and avg_count == avg_float
        pairs = _pair_weights(counts)
        assert pairs.dtype == np.uint8
        assert pairs.astype(float).tobytes() == _pair_weights(floats).tobytes()
        dist = EdgeDistribution("poisson")
        rates = rng.uniform(0.5, 3.0, pairs.size)
        assert (dist.log_likelihood(rates, pairs).hex()
                == dist.log_likelihood(rates, _pair_weights(floats)).hex())

    def test_isolated_and_pendant_nodes_zero(self):
        g = graph_from_edges(4, [(0, 1, 2.0)])
        per_node, _ = weighted_clustering(g)
        assert not per_node.any()


def simple_community_graph(seed, n=60):
    m = LatentModel(EdgeDistribution("poisson"), n, AxisNoise(3, 0.01))
    return sample_network(m, draw_vectors(m, seed), seed + 1)


class TestNullCompare:
    """The ensemble scores each draw on a worker thread while the caller
    samples the next; in the tests marked `blas_threads`, its samples, and
    the error it raises first, must be those of drawing and scoring in turn
    at any BLAS thread count."""

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
        rate = total_weight(g) / math.comb(g.n, 2)
        m = LatentModel(EdgeDistribution("poisson"), g.n, Constant(np.array([np.sqrt(rate)])))
        null_draw = sample_network(m, draw_vectors(m, 0), seed=99)
        report = null_compare(null_draw, n_samples=100, seed=11)
        assert 0.01 < report.quantile < 0.99

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("null", ["poisson_er", "dot_product"])
    @pytest.mark.parametrize("statistic", ["avg_weighted_clustering", "total_weight",
                                           "log_likelihood"])
    @pytest.mark.parametrize("n, scale", [(2, 1.0), (3, 1.0), (60, 1.0), (150, 1.0),
                                          (300, 1.0), (3, 4.0), (150, 4.0)],
                             ids=["2", "3", "60", "150", "300", "3-rates-past-16",
                                  "150-rates-past-16"])
    def test_samples_are_the_draws_of_sample_network(self, monkeypatch, rng, null, statistic,
                                                     n, scale):
        # the ensemble gathers its rates once and reuses two count buffers and
        # one clustering workspace; its draws and scores must not change for
        # it. Sample i of the dot-product null is, bit for bit, the draw of
        # sample_network from the vectors, whose rates come from the same
        # row-block walk; n = 150 and 300 span several 64-row blocks. The Erdos-Renyi null's reference is
        # built here: every pair drawn at total/C(n,2) from the sample's
        # stream. At scale 1 every rate is at most 16
        # (model._BYTE_COUNT_RATE_MAX), so the draws fill one-byte buffers;
        # at scale 4 the dot-product rates pass it, so that null's draws fill
        # float64 ones.
        dist = EdgeDistribution("poisson")
        m = LatentModel(dist, n, Constant(np.zeros(2)))
        x = scale * rng.normal(0.5, 1.0, (n, 2))  # negative products are clamped to 0
        assert (np.max(dot_product_grid(x)[np.triu_indices(n, 1)]) > 16) == (scale > 1)
        # a draw of the dot-product null itself, so its likelihood is finite
        g = sample_network(m, x, seed=n, clamp=True)
        rate = total_weight(g) / math.comb(n, 2)
        upper = np.triu_indices(n, 1)

        def erdos_renyi(seed):
            w = np.zeros((n, n))
            stream = np.random.default_rng(derive_seed(seed, NETWORK))
            w[upper] = stream.poisson(rate, len(upper[0]))
            return WeightedGraph(w + w.T)

        def direct(graph):
            return {
                "avg_weighted_clustering": lambda: weighted_clustering(graph)[1],
                "total_weight": lambda: total_weight(graph),
                "log_likelihood": lambda: (dist.log_likelihood(rate, _pair_weights(graph))
                                           if null == "poisson_er"
                                           else evaluate_null_likelihood(graph, x, clamp=True)),
            }[statistic]()

        drawn = []

        def sample_pairs(*args):
            h = model._sample_pairs(*args)
            drawn.append(h.weights.astype(float))  # before the buffer is drawn into again
            return h

        monkeypatch.setattr(analysis, "_sample_pairs", sample_pairs)
        for seed in (0, 7, 1211):
            drawn.clear()
            report = null_compare(g, null=null, statistic=statistic, n_samples=4,
                                  seed=seed, x=x)
            assert report.observed == direct(g)
            seeds = [derive_seed(seed, NULL_SAMPLE, i) for i in range(4)]
            draws = [erdos_renyi(s) if null == "poisson_er"
                     else sample_network(m, x, s, clamp=True) for s in seeds]
            assert [w.tobytes() for w in drawn] == [h.weights.astype(float).tobytes()
                                                    for h in draws]
            assert report.samples == tuple(direct(h) for h in draws)

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("null, weights, counts", [
        ("dot_product", [4.0, 4.0], np.uint8),
        ("dot_product", [4.0, np.nextafter(4.0, 5.0)], np.float64),
        ("poisson_er", [16.0, 16.0], np.uint8),
        ("poisson_er", [16.0, 17.0], np.float64),
    ], ids=["dot-product-16", "dot-product-past-16", "erdos-renyi-16", "erdos-renyi-past-16"])
    def test_draws_of_sample_take_one_byte_buffers_up_to_rate_16(self, monkeypatch, null,
                                                                 weights, counts):
        # The largest rate is 16 (one-byte buffers) or just past it (float64):
        # the dot-product null's pair (0, 1) rate is the product of the two
        # vectors, the Erdos-Renyi null's rate the mean of the weights.
        x = np.array([[weights[0]], [weights[1]], [0.5]])
        u, v = weights
        g = WeightedGraph(np.array([[0.0, u, u], [u, 0.0, v], [u, v, 0.0]]))
        dtypes = []
        sample_pairs = analysis._sample_pairs

        def recording(dist, rates, seed, out):
            dtypes.append(out.dtype)
            return sample_pairs(dist, rates, seed, out)

        monkeypatch.setattr(analysis, "_sample_pairs", recording)
        null_compare(g, null=null, statistic="total_weight", n_samples=3, seed=0, x=x)
        assert dtypes == [np.dtype(counts)] * 3

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("failing_call", [1, 3], ids=["observed", "draw"])
    def test_worker_error_reaches_the_caller(self, monkeypatch, failing_call):
        # The observed graph (call 1) and the draws are scored on a worker
        # thread; its error must be raised as is, and the thread joined.
        error = ValueError("scoring failed")
        calls = []
        clustering = analysis._clustering

        def failing(w, work):
            calls.append(None)
            if len(calls) == failing_call:
                raise error
            return clustering(w, work)

        monkeypatch.setattr(analysis, "_clustering", failing)
        threads = threading.active_count()
        with pytest.raises(ValueError) as caught:
            null_compare(simple_community_graph(0), n_samples=5, seed=0)
        assert caught.value is error
        assert threading.active_count() == threads

    @pytest.mark.blas_threads
    def test_slow_worker_scores_each_draw_before_it_is_overwritten(self, monkeypatch):
        # The caller draws into the one weights buffer; it must wait for the
        # worker's score of the previous draw, however slow, before it writes.
        g = simple_community_graph(0)
        expected = null_compare(g, n_samples=4, seed=3)
        clustering = analysis._clustering

        def slow(w, work):
            time.sleep(0.05)
            return clustering(w, work)

        monkeypatch.setattr(analysis, "_clustering", slow)
        assert null_compare(g, n_samples=4, seed=3) == expected

    @pytest.mark.blas_threads
    def test_worker_a_buffer_behind_scores_each_draw_before_it_is_overwritten(
            self, monkeypatch):
        # Every other score is slow, so the caller samples a buffer ahead of a
        # worker that is still scoring the draw before; it must wait for the
        # score of the draw before that, the last to read the buffer it fills.
        g = simple_community_graph(0)
        expected = null_compare(g, n_samples=7, seed=4)
        clustering = analysis._clustering
        calls = []

        def slow_every_other(w, work):
            calls.append(None)
            if len(calls) % 2:
                time.sleep(0.05)
            return clustering(w, work)

        monkeypatch.setattr(analysis, "_clustering", slow_every_other)
        assert null_compare(g, n_samples=7, seed=4) == expected

    @pytest.mark.blas_threads
    def test_first_of_several_worker_errors_wins(self, monkeypatch):
        # Every score fails with an error of its own; the observed graph's,
        # first in sequence, is raised, however far the caller has run ahead.
        errors = [ValueError(f"score {k} failed") for k in range(6)]
        calls = []

        def failing(w, work):
            calls.append(None)
            time.sleep(0.01)
            raise errors[len(calls) - 1]

        monkeypatch.setattr(analysis, "_clustering", failing)
        threads = threading.active_count()
        with pytest.raises(ValueError) as caught:
            null_compare(simple_community_graph(0), n_samples=5, seed=0)
        assert caught.value is errors[0]
        assert threading.active_count() == threads

    @pytest.mark.blas_threads
    def test_worker_error_wins_over_a_later_draw_error(self, monkeypatch):
        # In sequence the observed graph is scored before the first draw, so
        # its error is the one raised, though the draw fails first in time.
        score_error, draw_error = ValueError("scoring failed"), ValueError("draw failed")

        def failing_score(w, work):
            time.sleep(0.05)
            raise score_error

        def failing_draw(*args):
            raise draw_error

        monkeypatch.setattr(analysis, "_clustering", failing_score)
        monkeypatch.setattr(analysis, "_sample_pairs", failing_draw)
        threads = threading.active_count()
        with pytest.raises(ValueError) as caught:
            null_compare(simple_community_graph(0), n_samples=5, seed=0)
        assert caught.value is score_error
        assert threading.active_count() == threads

    def test_erdos_renyi_null_makes_no_pair_mask(self):
        # One rate serves every pair, and neither statistic gathers a pair
        # vector.
        g = simple_community_graph(0)
        for statistic in ("avg_weighted_clustering", "total_weight"):
            assert null_compare(g, statistic=statistic, n_samples=3, seed=0).n_samples == 3
        n = 70
        w = model._sample_pairs(EdgeDistribution("poisson"), 0.7, 0, np.zeros((n, n))).weights
        assert np.array_equal(w, w.T) and not np.diag(w).any()

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

    def test_no_samples_refused(self):
        with pytest.raises(ValueError, match="need at least one null sample"):
            null_compare(disjoint_cliques([3]), n_samples=0)

    @pytest.mark.parametrize("null", ["poisson_er", "dot_product"])
    def test_log_likelihood_statistic_refuses_non_integer_weights(self, null):
        w = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ModelError, match="poisson likelihood needs integer weights"):
            null_compare(WeightedGraph(w), null=null, statistic="log_likelihood",
                         n_samples=2, x=np.ones((3, 1)))

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("statistic", analysis.STATISTICS)
    @pytest.mark.parametrize("null", analysis.NULL_KINDS)
    def test_count_graph_report_is_bitwise_its_float64_graph(self, tmp_path, null, statistic):
        # A loaded graph of small integer weights is held as one-byte counts
        # (graph._weight_dtype): the observed value and every sample keep the
        # float64 graph's bits, under both nulls. n = 130 spans three row
        # blocks.
        m = LatentModel(EdgeDistribution("poisson"), 130, AxisNoise(3, 0.01))
        x = draw_vectors(m, seed=2)
        save_graph(sample_network(m, x, seed=3), tmp_path / "g.edgelist")
        counts = load_graph(tmp_path / "g.edgelist")
        assert counts.weights.dtype == np.uint8
        g = WeightedGraph._wrap(counts.weights.astype(float))
        reports = [null_compare(h, null=null, statistic=statistic, n_samples=4, seed=6, x=x)
                   for h in (g, counts)]
        assert reports[0].to_json() == reports[1].to_json()

    def test_log_likelihood_statistic_matches_direct(self):
        g = simple_community_graph(5)
        report = null_compare(g, statistic="log_likelihood", n_samples=5, seed=1)
        rate = total_weight(g) / math.comb(g.n, 2)
        assert report.observed == EdgeDistribution("poisson").log_likelihood(rate, _pair_weights(g))


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
