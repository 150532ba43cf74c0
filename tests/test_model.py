import json
import math

import numpy as np
import pytest

from wrdpm import (
    AxisNoise,
    Constant,
    DomainError,
    EdgeDistribution,
    FiniteSupport,
    LatentModel,
    ModelError,
    MultiresolutionAxis,
    Ray,
    WeightedGraph,
    dot_product_grid,
    draw_vectors,
    log_likelihood,
    sample_from_grids,
    sample_network,
    total_weight,
)
from wrdpm.model import _sample_pairs, _upper_mask, derive_seed

POISSON = EdgeDistribution("poisson")
BERNOULLI = EdgeDistribution("bernoulli")


def poisson_model(source, n):
    return LatentModel(POISSON, n, source)


class TestDrawVectors:
    def test_constant_source(self):
        v = np.array([0.3, 0.4])
        drawn = draw_vectors(poisson_model(Constant(v), 10), seed=1)
        assert np.array_equal(drawn, np.tile(v, (10, 1)))

    def test_degenerate_finite_support_equals_constant(self):
        v = np.array([1.0, 2.0])
        src = FiniteSupport(np.array([v]), np.array([1.0]))
        drawn = draw_vectors(poisson_model(src, 7), seed=3)
        assert np.array_equal(drawn, np.tile(v, (7, 1)))

    def test_axis_noise_clusters_around_basis(self):
        # half-normal mean for scale sqrt(sigma2)
        sigma2 = 0.01
        hmean = math.sqrt(sigma2) * math.sqrt(2 / math.pi)
        drawn = draw_vectors(poisson_model(AxisNoise(3, sigma2), 150), seed=5)
        x = drawn
        peak = x.max(axis=1)
        rest = (x.sum(axis=1) - peak) / 2
        assert abs(peak.mean() - (1 + hmean)) < 0.05
        assert abs(rest.mean() - hmean) < 0.05
        # every row is dominated by exactly one near-unit coordinate
        assert (peak > 0.9).all()
        assert ((x < 0.6).sum(axis=1) == 2).all()

    def test_multiresolution_axis_magnitudes(self):
        src = MultiresolutionAxis(3, sigma2=0.01, exp_mean=2.0)
        drawn = draw_vectors(poisson_model(src, 4000), seed=11)
        x = drawn
        # noise coordinates stay below ~0.5, so large entries are axis magnitudes
        noise = np.sort(x, axis=1)[:, :2]
        assert noise.max() < 0.6
        mags = x.sum(axis=1) - noise.sum(axis=1)
        assert abs(mags.mean() - 2.0) < 0.15

    def test_determinism(self):
        m = poisson_model(AxisNoise(3, 0.01), 50)
        a = draw_vectors(m, seed=42)
        b = draw_vectors(m, seed=42)
        assert np.array_equal(a, b)
        c = draw_vectors(m, seed=43)
        assert not np.array_equal(a, c)

    def test_ray_fixed_magnitudes(self):
        src = Ray(np.array([0.5]), magnitudes=np.array([1.0, 2.0, 3.0]))
        drawn = draw_vectors(poisson_model(src, 3), seed=0)
        assert np.allclose(drawn[:, 0], [0.5, 1.0, 1.5])

    def test_finite_support_probabilities_must_sum_to_one(self):
        with pytest.raises(ModelError):
            FiniteSupport(np.eye(2), np.array([0.5, 0.4]))

    @pytest.mark.parametrize("make, name", [
        (lambda v: AxisNoise(3, v), "sigma2"),
        (lambda v: MultiresolutionAxis(3, v, 2.0), "sigma2"),
        (lambda v: MultiresolutionAxis(3, 0.01, v), "exp_mean"),
        (lambda v: Ray(np.array([1.0]), rate=v), "rate"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_source_parameter_is_named(self, make, name, value):
        with pytest.raises(ModelError, match=f"finite {name}|{name} must be finite"):
            make(value)


class TestDotProductGrid:
    def test_orthogonal_unit_vectors(self):
        vecs = np.eye(2)
        grid = dot_product_grid(vecs)
        assert np.allclose(grid, np.eye(2))

    def test_chung_lu_ray_entries(self):
        w = np.array([1.0, 2.0, 3.0])
        x0_norm2 = 1.0 / w.sum()
        x = np.outer(w, [np.sqrt(x0_norm2)])
        grid = dot_product_grid(x)
        expected = np.outer(w, w) / w.sum()
        assert np.allclose(grid, expected, atol=1e-14)

    def test_symmetry_exact(self, rng):
        x = rng.normal(size=(20, 4))
        grid = dot_product_grid(x)
        assert np.array_equal(grid, grid.T)


class TestSampleNetwork:
    def test_bernoulli_near_one_is_nearly_complete(self):
        m = LatentModel(BERNOULLI, 10, Constant(np.array([np.sqrt(0.999)])))
        vecs = draw_vectors(m, seed=0)
        missing = 0
        for seed in range(100):
            g = sample_network(m, vecs, seed)
            missing += 45 - total_weight(g)
        # expected 4.5 missing edges over 100 samples
        assert missing < 20

    def test_poisson_mean_matches_grid(self):
        lam = 2.5
        m = poisson_model(Constant(np.array([np.sqrt(lam)])), 2)
        vecs = draw_vectors(m, seed=0)
        n_samples = 10_000
        mean = np.mean(
            [sample_network(m, vecs, s).weights[0, 1] for s in range(n_samples)]
        )
        assert abs(mean - lam) < 4 * math.sqrt(lam / n_samples)

    def test_simple_community_block_structure(self):
        m = poisson_model(AxisNoise(3, 0.01), 150)
        vecs = draw_vectors(m, seed=9)
        grid = dot_product_grid(vecs)
        g = sample_network(m, vecs, seed=10)
        x = vecs
        comm = x.argmax(axis=1)
        for a in range(3):
            for b in range(3):
                mask = np.outer(comm == a, comm == b)
                np.fill_diagonal(mask, False)
                if mask.sum() < 100:
                    continue
                lam = grid[mask].mean()
                got = g.weights[mask].mean()
                assert abs(got - lam) < 4 * math.sqrt(lam / mask.sum()) + 0.05

    def test_determinism(self):
        m = poisson_model(AxisNoise(3, 0.01), 40)
        vecs = draw_vectors(m, seed=1)
        g1 = sample_network(m, vecs, seed=2)
        g2 = sample_network(m, vecs, seed=2)
        assert np.array_equal(g1.weights, g2.weights)

    def test_sampled_graph_invariants(self):
        m = poisson_model(MultiresolutionAxis(3, 0.01, 2.0), 60)
        vecs = draw_vectors(m, seed=4)
        g = sample_network(m, vecs, seed=5)
        assert np.array_equal(g.weights, g.weights.T)
        assert not np.diag(g.weights).any()
        assert g.is_integer_valued()

    def test_domain_violation_names_pair(self):
        x = np.array([[1.0], [2.0]])  # bernoulli p = 2 for the pair
        m = LatentModel(BERNOULLI, 2, Constant(np.array([1.0])))
        with pytest.raises(DomainError, match=r"\(0,1\) = 2 outside the bernoulli"):
            sample_network(m, x, seed=0)

    def test_clamp_recovers_from_negative_rates(self):
        x = np.array([[1.0], [-1.0], [0.5]])
        g = sample_from_grids(POISSON, x @ x.T, seed=3, clamp=True)
        assert g.weights[0, 1] == 0  # rate clamped to zero

    @pytest.mark.parametrize("clamp", [False, True])
    def test_non_square_grid_rejected(self, clamp):
        with pytest.raises(ModelError, match=r"must be square, got shape \(3, 5\)"):
            sample_from_grids(POISSON, np.ones((3, 5)), seed=0, clamp=clamp)

    @pytest.mark.parametrize("dist, high", [(POISSON, 3.0), (BERNOULLI, 1.0)])
    @pytest.mark.parametrize("n", [1, 2, 5, 70])
    def test_draw_is_symmetric_with_zero_diagonal(self, dist, high, n):
        grid = dot_product_grid(np.random.default_rng(n).uniform(0.0, high, (n, 1)))
        for seed in range(3):
            w = sample_from_grids(dist, grid, seed, clamp=True).weights
            assert np.array_equal(w, w.T)
            assert not np.diag(w).any()
            # the j < l weights, in row-major order, are the stream's draws
            params = dist.clamp(grid[np.triu_indices(n, 1)])
            rng = np.random.default_rng(seed)
            draws = rng.random(params.size) < params if dist is BERNOULLI else rng.poisson(params)
            assert np.array_equal(w[np.triu_indices(n, 1)], draws)

    @pytest.mark.parametrize("dist, rate", [(POISSON, 0.7), (BERNOULLI, 0.3)])
    def test_one_rate_for_all_pairs_draws_the_per_pair_graph(self, dist, rate):
        n = 40
        for seed in range(3):
            one = _sample_pairs(dist, rate, _upper_mask(n), seed)
            per_pair = sample_from_grids(dist, np.full((n, n), rate), seed)
            assert np.array_equal(one.weights, per_pair.weights)

    def test_domain_check_covers_both_triangles(self):
        # only the upper triangle is sampled, but every off-diagonal entry is checked
        grid = np.ones((3, 3))
        grid[2, 1] = -1.0
        with pytest.raises(DomainError, match=r"\(2,1\) = -1 outside the poisson"):
            sample_from_grids(POISSON, grid, seed=0)


class TestLogLikelihood:
    def test_uniform_coin(self):
        n = 6
        w = np.zeros((n, n))
        w[0, 1] = w[1, 0] = 1
        g = WeightedGraph(w)
        grid = np.full((n, n), 0.5)
        expected = math.comb(n, 2) * math.log(0.5)
        assert log_likelihood(BERNOULLI, grid, g) == pytest.approx(expected)

    def test_poisson_zero_weight_unit_rate(self):
        g = WeightedGraph(np.zeros((2, 2)))
        grid = np.ones((2, 2))
        assert log_likelihood(POISSON, grid, g) == pytest.approx(-1.0)

    def test_poisson_weight_three_rate_two(self):
        w = np.array([[0.0, 3.0], [3.0, 0.0]])
        grid = np.full((2, 2), 2.0)
        expected = math.log(4 / 3) - 2  # ln(2^3 e^-2 / 3!)
        assert log_likelihood(POISSON, grid, WeightedGraph(w)) == pytest.approx(expected)

    def test_impossible_observation_is_neg_inf(self):
        w = np.array([[0.0, 2.0], [2.0, 0.0]])
        grid = np.zeros((2, 2))
        with pytest.warns(UserWarning, match="zero-probability"):
            assert log_likelihood(POISSON, grid, WeightedGraph(w), clamp=True) == -np.inf

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4)])
    def test_grid_must_match_graph(self, shape):
        with pytest.raises(ModelError, match="for a 3-node graph"):
            log_likelihood(POISSON, np.ones(shape), WeightedGraph(np.zeros((3, 3))))

    def test_non_integer_weights_rejected(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ModelError):
            log_likelihood(POISSON, np.ones((2, 2)), WeightedGraph(w))

    def test_mle_consistency_one_parameter_family(self):
        # average log-likelihood is maximized near the sampling rate
        lam = 1.5
        m = poisson_model(Constant(np.array([np.sqrt(lam)])), 30)
        vecs = draw_vectors(m, seed=0)
        grid = dot_product_grid(vecs)
        diffs = {scale: 0.0 for scale in (0.6, 0.8, 1.25, 1.6)}
        for seed in range(50):
            g = sample_network(m, vecs, seed)
            base = log_likelihood(POISSON, grid, g)
            for scale in diffs:
                diffs[scale] += base - log_likelihood(POISSON, grid * scale, g)
        assert all(total > 0 for total in diffs.values())


def test_derive_seed_streams_are_distinct_across_seeds():
    seeds = {derive_seed(s, i) for s in range(8) for i in range(8)}
    assert len(seeds) == 64
    assert derive_seed(3, 5) == derive_seed(3, 5)


def test_model_json_roundtrip():
    sources = [
        Constant(np.array([1.0, 0.0])),
        FiniteSupport(np.eye(2), np.array([0.25, 0.75]), np.array([0, 1, 1])),
        AxisNoise(3, 0.01),
        MultiresolutionAxis(3, 0.01, 2.0),
        Ray(np.array([0.5, 0.5]), magnitudes=np.array([1.0, 2.0, 3.0])),
        Ray(np.array([1.0]), rate=0.5),
    ]
    for src in sources:
        m = LatentModel(POISSON, 3, src)
        restored = LatentModel.from_json(m.to_json())
        assert restored.to_json() == m.to_json()
        a = draw_vectors(m, seed=8)
        b = draw_vectors(restored, seed=8)
        assert np.array_equal(a, b)


def test_model_json_needs_exactly_one_source():
    doc = json.loads(poisson_model(AxisNoise(3, 0.01), 3).to_json())
    for sources in ([], doc["sources"] * 2):
        with pytest.raises(ModelError, match="one vector source"):
            LatentModel.from_json(json.dumps({**doc, "sources": sources}))
