import json
import math

import numpy as np
import pytest

from wrdpm import (
    AxisNoise,
    BlockModelSpec,
    ChungLuSpec,
    Constant,
    DomainError,
    EdgeDistribution,
    Embedding,
    FiniteSupport,
    LatentModel,
    ModelError,
    MultiresolutionAxis,
    Partition,
    Ray,
    WeightedGraph,
    dot_product_grid,
    draw_vectors,
    log_likelihood,
    sample_from_grids,
    sample_network,
    total_weight,
)
from wrdpm.graph import _pair_weights
from wrdpm.model import NETWORK, _pair_parameters, _sample_pairs, derive_seed
from conftest import traced_peak

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

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "reversed"])
    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 65, 600])
    def test_symmetry_exact(self, rng, n, d, layout):
        # numpy runs x @ x.T as a symmetric rank-k update and mirrors it, or,
        # on strides BLAS cannot take, sums each entry in one order; at
        # n = 600 OpenBLAS threads the product.
        x = {"C": lambda: rng.normal(size=(n, d)),
             "F": lambda: np.asfortranarray(rng.normal(size=(n, d))),
             "strided": lambda: rng.normal(size=(2 * n, 2 * d))[::2, ::2],
             "reversed": lambda: rng.normal(size=(n, d))[::-1, ::-1]}[layout]()
        grid = dot_product_grid(x)
        assert np.array_equal(grid, grid.T)

    def test_odd_subnormal_product_is_kept(self):
        # The product 2^-1074 is the smallest subnormal; halved and doubled,
        # as the grid was once symmetrized, it rounded to 0.
        grid = dot_product_grid(np.array([[2.0 ** -537], [2.0 ** -537]]))
        assert grid[0, 1] == grid[1, 0] == 5e-324

    def test_rows_near_the_root_of_the_float_maximum(self):
        # Each product is just below the float maximum and stays finite.
        assert np.all(dot_product_grid(np.full((3, 1), 1e154)) == 1e308)

    def test_equals_the_mean_of_the_product_and_its_transpose(self, rng):
        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(1, 40)), 3)) * 10.0 ** rng.integers(-3, 4)
            grid = x @ x.T
            assert dot_product_grid(x).tobytes() == ((grid + grid.T) / 2.0).tobytes()


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
        assert np.array_equal(g.weights, np.round(g.weights))

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
            rng = np.random.default_rng(derive_seed(seed, NETWORK))
            draws = rng.random(params.size) < params if dist is BERNOULLI else rng.poisson(params)
            assert np.array_equal(w[np.triu_indices(n, 1)], draws)

    @pytest.mark.parametrize("dist, rate", [(POISSON, 0.7), (BERNOULLI, 0.3)])
    def test_one_rate_for_all_pairs_draws_the_per_pair_graph(self, dist, rate):
        n = 40
        for seed in range(3):
            one = _sample_pairs(dist, rate, seed, np.zeros((n, n))).weights
            per_pair = sample_from_grids(dist, np.full((n, n), rate), seed)
            assert np.array_equal(one, per_pair.weights)

    @pytest.mark.parametrize("dist, rate", [(POISSON, 0.7), (BERNOULLI, 0.3)])
    def test_draws_into_one_buffer_equal_fresh_draws(self, dist, rate):
        # each draw overwrites the buffer, so no entry of an earlier one may remain
        n = 40
        params = np.random.default_rng(5).uniform(0.0, rate, n * (n - 1) // 2)
        out = np.zeros((n, n))
        for seed in (0, 1, 2):
            into = _sample_pairs(dist, params, seed, out).weights
            fresh = _sample_pairs(dist, params, seed, np.zeros((n, n))).weights
            assert np.shares_memory(into, out)
            assert into.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("n", [300, 50, 63, 64, 65, 129])
    @pytest.mark.parametrize("dist, params", [
        (POISSON, lambda rng, pairs: 0.7),
        (POISSON, lambda rng, pairs: rng.uniform(0.0, 3.0, pairs)),
        (BERNOULLI, lambda rng, pairs: rng.uniform(0.0, 1.0, pairs)),
    ], ids=["poisson-scalar", "poisson-per-pair", "bernoulli-per-pair"])
    def test_row_blocks_draw_the_one_shot_network(self, n, dist, params):
        # The sampler draws by row blocks of the upper triangle and mirrors
        # each block as it is drawn; n = 300 spans several blocks, n = 50 less
        # than one, and n = 63, 64, 65 and 129 sit on the edges of blocks.
        # The pair walk that reads the blocks back must undo the sampler.
        pairs = n * (n - 1) // 2
        rates = params(np.random.default_rng(n), pairs)
        upper = np.triu_indices(n, 1)
        for seed in (0, 9):
            once = dist.sample(rates, np.random.default_rng(derive_seed(seed, NETWORK)), pairs)
            expected = np.zeros((n, n))
            expected[upper] = once
            expected.T[upper] = once
            drawn = _sample_pairs(dist, rates, seed, np.zeros((n, n)))
            assert drawn.weights.tobytes() == expected.tobytes()
            assert _pair_weights(drawn).tobytes() == expected[upper].tobytes()

    def test_sampled_graph_is_read_only(self):
        out = np.zeros((5, 5))
        for w in (_sample_pairs(POISSON, 2.0, 0, out).weights,
                  sample_from_grids(POISSON, np.full((5, 5), 2.0), seed=0).weights):
            assert not w.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                w[0, 1] = 1.0

    def test_one_byte_buffer_holds_the_draw_or_names_the_count_it_cannot(self):
        # An integer buffer gets the float64 buffer's counts; a count past its
        # dtype is refused, never wrapped. sample_from_grids draws into a
        # one-byte buffer up to a largest rate of 16, as on every Bernoulli
        # grid, and into a float64 one just past it: each draw has the bits
        # of the float64 draw of its seed.
        n = 70
        for rate in (0.7, 16.0):
            counts = _sample_pairs(POISSON, rate, 3, np.zeros((n, n), np.uint8)).weights
            floats = _sample_pairs(POISSON, rate, 3, np.zeros((n, n))).weights
            assert counts.dtype == np.uint8 and np.array_equal(counts, floats)
        for dist, top, dtype in [(POISSON, 16.0, np.uint8), (BERNOULLI, 0.99, np.uint8),
                                 (POISSON, np.nextafter(16.0, 17.0), np.float64)]:
            grid = np.random.default_rng(4).uniform(0.0, top, (n, n))
            grid[0, 1] = top
            drawn = sample_from_grids(dist, grid, seed=3).weights
            floats = _sample_pairs(dist, _pair_parameters(dist, grid, clamp=False), 3,
                                   np.zeros((n, n))).weights
            assert drawn.dtype == dtype and not drawn.flags.writeable
            assert drawn.astype(float).tobytes() == floats.tobytes()
        with pytest.raises(DomainError, match=r"count \d+ does not fit the uint8 draw buffer"):
            _sample_pairs(POISSON, 1000.0, 3, np.zeros((n, n), np.uint8))

    def test_network_draw_frees_the_grid_before_the_weights(self):
        # sample_network passes its grid on as a temporary, which
        # sample_from_grids lets go before it allocates the weights: the
        # peak is the grid's check (13.1 n^2 bytes). Holding the grid through
        # the draw would put its 8 n^2 beside the pair rates and the one-byte
        # weights, 14.75 n^2; with float64 weights the draw alone took 13.75.
        n = 600
        m = LatentModel(POISSON, n, AxisNoise(3, 0.01))
        vecs = draw_vectors(m, seed=0)
        peak = traced_peak(lambda: sample_network(m, vecs, seed=1))
        assert sample_network(m, vecs, seed=1).weights.dtype == np.uint8
        assert peak < 14 * n * n

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
    def test_grid_is_the_halved_products_plus_their_transpose(self, n):
        # The grid is exactly symmetric, so it has the bits of h + h^T, h the
        # halved products, at and across 64-row block edges, and where a
        # product overflows; the two part only on a subnormal product.
        x = np.random.default_rng(n).normal(0.0, 1.0, (n, 3))
        x[n // 2] = 1e200
        with np.errstate(over="ignore"):
            h = (x @ x.T) * 0.5
        assert dot_product_grid(x).tobytes() == (h + h.T).tobytes()

    @pytest.mark.parametrize("bad, named", [
        ([(70, 130), (150, 3)], (70, 130)),
        ([(150, 3), (151, 2)], (150, 3)),
        ([(199, 198)], (199, 198)),
    ], ids=["upper-first", "lower-only", "last-block"])
    @pytest.mark.parametrize("value", [-1.0, np.nan], ids=["domain", "non-finite"])
    def test_first_bad_entry_in_row_major_order_is_named(self, bad, named, value):
        # The grid is checked by 64-row blocks, both triangles of each block
        # at once, so the entry named is the first in row-major order, as a
        # whole-grid scan names it, although no pair reads the lower triangle.
        n = 200
        grid = np.ones((n, n))
        np.fill_diagonal(grid, np.nan)  # the diagonal is never read
        for j, l in bad:
            grid[j, l] = value
        g = WeightedGraph(np.zeros((n, n)))
        message = rf"grid entry \({named[0]},{named[1]}\) = {value:g} outside the poisson"
        with pytest.raises(DomainError, match=message):
            sample_from_grids(POISSON, grid, seed=0)
        with pytest.raises(DomainError, match=message):
            log_likelihood(POISSON, grid, g)

    def test_domain_check_covers_both_triangles(self):
        # only the upper triangle is sampled, but every off-diagonal entry is checked
        grid = np.ones((3, 3))
        grid[2, 1] = -1.0
        with pytest.raises(DomainError, match=r"\(2,1\) = -1 outside the poisson"):
            sample_from_grids(POISSON, grid, seed=0)


@pytest.mark.parametrize("clamp", [False, True])
def test_grid_entry_past_the_float_range_is_named(clamp):
    grid = dot_product_grid(np.array([[1e300], [1e300], [0.0]]))
    with pytest.raises(DomainError, match=r"grid entry \(0,1\) = inf outside the poisson"):
        sample_from_grids(POISSON, grid, seed=0, clamp=clamp)


def test_rate_too_large_to_sample_is_named():
    with pytest.raises(DomainError, match="Poisson rate 1e[+]20 is too large to sample"):
        sample_from_grids(POISSON, np.full((3, 3), 1e20), seed=0)


def test_rate_too_large_to_sample_names_the_largest_rate_of_the_network():
    # The first row block already holds a rate numpy refuses, but the message
    # names the network's largest, which lies in a later block.
    n = 200
    rates = np.ones(n * (n - 1) // 2)
    rates[0], rates[-1] = 1e19, 1e20
    with pytest.raises(DomainError, match="Poisson rate 1e[+]20 is too large to sample"):
        _sample_pairs(POISSON, rates, 0, np.zeros((n, n)))


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
        assert log_likelihood(POISSON, grid, WeightedGraph(w), clamp=True) == -np.inf

    def test_overflowing_term_is_named(self):
        w = np.array([[0.0, 1e308], [1e308, 0.0]])
        with pytest.raises(DomainError, match="weight 1e[+]308 at Poisson rate 1e[+]308 "
                                              "overflows the float range"):
            log_likelihood(POISSON, np.full((2, 2), 1e308), WeightedGraph(w))
        # one rate for every pair, as the Erdos-Renyi null passes it
        with pytest.raises(DomainError, match="weight 1e[+]308 at Poisson rate 1e[+]308 "
                                              "overflows the float range"):
            POISSON.log_likelihood(1e308, np.array([0.0, 1e308]))

    @pytest.mark.parametrize("dist", [POISSON, BERNOULLI])
    @pytest.mark.parametrize("per_pair", [False, True], ids=["one-rate", "per-pair"])
    def test_kernel_builds_its_terms_in_place(self, dist, per_pair):
        # One rate stays a scalar and the terms are built in one pair-sized
        # buffer; the Poisson kernel's log-factorial takes one more, freed
        # before the checks. The formula on broadcast arrays takes 3 (with
        # scipy.special already imported: its import is not counted here).
        pairs = 600 * 599 // 2
        rng = np.random.default_rng(0)
        observed = rng.poisson(0.5, pairs).astype(float)
        if dist is BERNOULLI:
            observed = np.minimum(observed, 1.0)
        params = rng.uniform(0.1, 0.9, pairs) if per_pair else 0.5
        dist.log_likelihood(0.5, observed[:10])  # imports scipy.special
        assert traced_peak(lambda: dist.log_likelihood(params, observed)) < 2.5 * observed.nbytes

    def test_sum_past_the_float_range_is_named(self):
        w = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0], [0.0, 3.0, 0.0]])
        grid = np.full((3, 3), 1e308)
        with pytest.raises(DomainError, match="terms sum past the float range"):
            log_likelihood(POISSON, grid, WeightedGraph(w))

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4)])
    def test_grid_must_match_graph(self, shape):
        with pytest.raises(ModelError, match="for a 3-node graph"):
            log_likelihood(POISSON, np.ones(shape), WeightedGraph(np.zeros((3, 3))))

    def test_non_integer_weights_rejected(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ModelError, match="poisson likelihood needs integer weights"):
            log_likelihood(POISSON, np.ones((2, 2)), WeightedGraph(w))

    def test_bernoulli_weight_above_one_rejected(self):
        w = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ModelError, match="bernoulli likelihood needs 0/1 weights"):
            log_likelihood(BERNOULLI, np.full((2, 2), 0.5), WeightedGraph(w))

    @pytest.mark.parametrize("dist, rate", [(POISSON, 0.7), (POISSON, 0.0), (BERNOULLI, 0.3)])
    def test_one_parameter_for_all_pairs_scores_as_one_per_pair(self, dist, rate):
        n = 40
        grid = np.full((n, n), rate)
        g = sample_from_grids(dist, grid, seed=2)
        observed = g.weights[np.triu_indices(n, 1)]
        per_pair = dist.log_likelihood(np.full(observed.size, rate), observed)
        assert dist.log_likelihood(rate, observed) == per_pair == log_likelihood(dist, grid, g)

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


@pytest.mark.parametrize("call, message", [
    (lambda: FiniteSupport(np.eye(2), np.array([0.5, 0.5]), assignment=np.array([0, 2])),
     "assignment index out of range"),
    (lambda: Ray(np.array([1.0]), magnitudes=np.array([1.0, 2.0])).draw(3, np.random.default_rng(0)),
     "2 magnitudes for n=3"),
    (lambda: sample_network(poisson_model(Constant(np.array([1.0])), 3), np.ones((2, 1)), seed=0),
     "vectors for 2 nodes, model has n=3"),
], ids=["assignment-index", "ray-magnitudes", "vector-rows"])
def test_inconsistent_model_input_is_named(call, message):
    with pytest.raises(ModelError, match=message):
        call()


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


@pytest.mark.parametrize("make", [
    lambda: WeightedGraph(np.ones((2, 2)) - np.eye(2)),
    lambda: Embedding(np.ones((2, 1)), "tolerance", ()),
    lambda: Partition(np.array([0, 1]), 2),
    lambda: Constant(np.array([0.5])),
    lambda: FiniteSupport(np.eye(2), np.array([0.5, 0.5])),
    lambda: Ray(np.array([1.0]), rate=0.5),
    lambda: BlockModelSpec(np.eye(2), (2, 3)),
    lambda: ChungLuSpec(np.array([1.0, 2.0])),
    lambda: LatentModel(POISSON, 2, FiniteSupport(np.eye(2), np.array([0.5, 0.5]))),
], ids=["WeightedGraph", "Embedding", "Partition", "Constant", "FiniteSupport", "Ray",
        "BlockModelSpec", "ChungLuSpec", "LatentModel"])
def test_holders_of_arrays_compare_and_hash_by_identity(make):
    # An array has no single truth value, so a class that holds one compares
    # and hashes as an object; a LatentModel compares its source so.
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False
    assert len({a, a, b}) == 2
