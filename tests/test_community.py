import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wrdpm import (
    BlockModelSpec,
    Partition,
    StressReport,
    WeightedGraph,
    angular_kmeans,
    centrality,
    community,
    dimension_sweep,
    draw_vectors,
    embed,
    embedding,
    make_sbm,
    sample_network,
    stress,
)
from wrdpm.model import SWEEP_DIMENSION, derive_seed
from conftest import bridge_graph, disjoint_cliques, traced_peak


def repeated_basis(k, reps):
    return np.repeat(np.eye(k), reps, axis=0)


def fig9_graph(seed, size=50):
    b = np.full((3, 3), 0.1)
    np.fill_diagonal(b, 1.0)
    model = make_sbm(BlockModelSpec(b, (size, size, size)), "poisson")
    return sample_network(model, draw_vectors(model, seed), seed + 1000)


class TestAngularKmeans:
    def test_orthogonal_directions_pure(self):
        x = repeated_basis(3, 50) * 2.0
        p = angular_kmeans(x, 3, seed=1)
        truth = np.repeat(np.arange(3), 50)
        # perfect purity up to label permutation
        for c in range(3):
            members = truth[p.assignment == c]
            assert len(set(members)) == 1
        assert sorted(p.sizes) == [50, 50, 50]

    def test_single_cluster(self, rng):
        x = rng.normal(size=(20, 3))
        p = angular_kmeans(x, 1, seed=0)
        assert p.k == 1
        assert (p.assignment == 0).all()

    def test_near_angles_split_against_enumeration(self):
        angles = np.deg2rad([0.0, 1.0, 89.0, 90.0])
        x = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        p = angular_kmeans(x, 2, seed=3)

        def objective(labels):
            total = 0.0
            for c in set(labels):
                members = x[np.array(labels) == c]
                centroid = members.mean(axis=0)
                centroid /= np.linalg.norm(centroid)
                total += float((members @ centroid).sum())
            return total

        best = max(
            (labels for labels in itertools.product([0, 1], repeat=4)
             if len(set(labels)) == 2),
            key=objective,
        )
        assert objective(tuple(p.assignment)) == pytest.approx(objective(best))
        assert p.assignment[0] == p.assignment[1]
        assert p.assignment[2] == p.assignment[3]
        assert p.assignment[0] != p.assignment[2]

    def test_deterministic(self, rng):
        x = rng.normal(size=(40, 4))
        a = angular_kmeans(x, 4, seed=9)
        b = angular_kmeans(x, 4, seed=9)
        assert np.array_equal(a.assignment, b.assignment)

    def test_orthogonal_map_preserves_objective(self, rng):
        x = rng.normal(size=(60, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pa = angular_kmeans(x, 3, seed=4)
        pb = angular_kmeans(x @ q, 3, seed=4)
        # partitions may relabel; compare via the stress objective
        assert stress(x, pa) == pytest.approx(stress(x @ q, pb), abs=1e-6)

    def test_all_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            angular_kmeans(np.zeros((5, 2)), 2, seed=0)

    def test_more_clusters_than_directions_leaves_none_empty(self):
        # Three directions: farthest-point seeding repeats a point for k > 3,
        # so empty clusters must be re-seeded without emptying another.
        for k in range(4, 16):
            p = angular_kmeans(repeated_basis(3, 5), k, seed=0)
            assert p.sizes.min() >= 1, k

    def test_zero_rows_assigned_deterministically(self):
        x = np.vstack([repeated_basis(2, 3), np.zeros((1, 2))])
        a = angular_kmeans(x, 2, seed=5)
        b = angular_kmeans(x, 2, seed=5)
        assert np.array_equal(a.assignment, b.assignment)


class TestStress:
    def test_three_orthogonal_pure_communities(self):
        x = repeated_basis(3, 50)
        p = Partition(np.repeat(np.arange(3), 50), 3)
        assert stress(x, p) == pytest.approx(0.0, abs=1e-12)

    def test_single_identical_community(self):
        x = np.tile([0.6, 0.8], (7, 1))
        p = Partition(np.zeros(7, dtype=int), 1)
        assert stress(x, p) == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degree_pairs(self):
        # two communities of 2 identical unit vectors, inter-angle 60 degrees
        u = np.array([1.0, 0.0])
        v = np.array([0.5, math.sqrt(3) / 2])
        x = np.array([u, u, v, v])
        p = Partition(np.array([0, 0, 1, 1]), 2)
        assert stress(x, p) == pytest.approx(2.0)

    def test_relabel_invariance(self, rng):
        x = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, 12)
        p1 = Partition(labels, 3)
        p2 = Partition((labels + 1) % 3, 3)
        assert stress(x, p1) == pytest.approx(stress(x, p2))

    def test_row_rescaling_invariance(self, rng):
        x = rng.normal(size=(10, 3))
        scales = rng.uniform(0.5, 3.0, 10)
        p = Partition(rng.integers(0, 2, 10), 2)
        assert stress(x, p) == pytest.approx(stress(x * scales[:, None], p))

    def test_lower_bound(self, rng):
        for _ in range(20):
            x = rng.normal(size=(15, 3))
            p = Partition(rng.integers(0, 3, 15), 3)
            bound = -sum(math.comb(int(z), 2) for z in p.sizes)
            assert stress(x, p) >= bound - 1e-9


def pair_loop_stress(x, p, normalize_rows):
    """Stress by its definition, one pair i < j at a time.

    Returns the stress and the sum of |x_i . x_j| over those pairs.
    """
    if normalize_rows:
        norms = np.linalg.norm(x, axis=1)
        x = x / np.where(norms > 0, norms, 1.0)[:, None]
    value = float(sum(math.comb(int(z), 2) for z in p.sizes))
    scale = 0.0
    for i in range(p.n):
        for j in range(i + 1, p.n):
            dot = float(x[i] @ x[j])
            value += -dot if p.assignment[i] == p.assignment[j] else dot
            scale += abs(dot)
    return value, scale


@st.composite
def partitioned_rows(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    x = draw(hnp.arrays(float, (n, d), elements=st.floats(-4, 4, allow_subnormal=False)))
    x[draw(hnp.arrays(bool, n))] = 0.0
    assignment = draw(hnp.arrays(int, n, elements=st.integers(0, k - 1)))
    return x, Partition(assignment, k)


# community 1 is empty and row 2 is zero
EMPTY_COMMUNITY_ZERO_ROW = (np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 0.0], [3.0, 0.25]]),
                            Partition(np.array([0, 2, 2, 0]), 3))


class TestStressClosedForm:
    @given(partitioned_rows(), st.booleans())
    @example(EMPTY_COMMUNITY_ZERO_ROW, True)
    @example(EMPTY_COMMUNITY_ZERO_ROW, False)
    def test_matches_the_pair_loop(self, rows, normalize_rows):
        x, p = rows
        expected, scale = pair_loop_stress(x, p, normalize_rows)
        got = stress(x, p, normalize_rows)
        assert type(got) is float
        assert abs(got - expected) <= 1e-12 * (1 + scale)

    def test_memory_is_linear_in_n(self):
        n, d = 3000, 8
        rng = np.random.default_rng(3)
        x = rng.normal(size=(n, d))
        p = Partition(rng.integers(0, d, n), d)
        peak = traced_peak(lambda: [stress(x, p, normalize_rows)
                                    for normalize_rows in (True, False)])
        assert peak < 16 * n * d * 8


class TestStressPenalized:
    def test_lambda2_zero_reduces_to_stress(self):
        (rec,) = dimension_sweep(disjoint_cliques([4, 4]), [2], penalty=(2.0, 0.0)).records
        assert rec.penalized_stress == pytest.approx(2.0 * rec.stress)

    def test_lambda1_zero_exact_factorization(self):
        (rec,) = dimension_sweep(disjoint_cliques([4, 4]), [2], penalty=(0.0, 1.0)).records
        assert rec.penalized_stress < 1e-6

    def test_sum_of_parts(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.5, math.sqrt(3) / 2])
        x = np.array([u, u, v, v])
        a = x @ x.T
        np.fill_diagonal(a, 0.0)
        (rec,) = dimension_sweep(WeightedGraph(a), [2], penalty=(1.0, 1.0)).records
        assert rec.penalized_stress == rec.stress + rec.embedding.residual
        assert rec.penalized_stress == pytest.approx(2.0, abs=1e-9)

    def test_negative_weights_rejected(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("embedded before the penalty weights were checked")

        monkeypatch.setattr(community, "embed", refuse)
        for lam1, lam2 in ((-1.0, 1.0), (1.0, float("nan")), (float("inf"), 1.0)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                dimension_sweep(disjoint_cliques([4, 4]), [2], penalty=(lam1, lam2))

    def test_each_partition_is_scored_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return stress(*args, **kwargs)

        monkeypatch.setattr(community, "stress", counted)
        dimension_sweep(disjoint_cliques([4, 4, 4]), [2, 3, 4], penalty=(1.0, 1.0))
        assert len(calls) == 3


class TestCentrality:
    def test_zero_row(self):
        assert centrality(np.zeros((3, 2)))[1] == 0.0

    def test_scaling_homogeneity(self, rng):
        x = rng.normal(size=(8, 3))
        assert np.allclose(centrality(3.0 * x), 3.0 * centrality(x))

    def test_rows_whose_squares_overflow(self):
        top = np.finfo(float).max
        x = np.array([[1e154, 1e154], [3.0, 4.0], [top, 0.0]])
        assert centrality(x).tolist() == [np.hypot(1e154, 1e154), 5.0, top]
        assert np.isfinite(community._normalize_rows(x)[0]).all()

    def test_bridge_nodes_strictly_longest(self):
        emb = embed(bridge_graph(5), 3)
        lengths = centrality(emb.X)
        assert lengths[[0, 5]].min() > np.delete(lengths, [0, 5]).max()


class TestDimensionSweep:
    def test_disjoint_cliques_select_three(self):
        g = disjoint_cliques([5, 5, 5])
        report = dimension_sweep(g, [2, 3, 4], seed=7)
        assert report.selected_d == 3
        assert report.record_for(3).stress == pytest.approx(0.0, abs=1e-6)

    def test_range_past_the_communities(self):
        report = dimension_sweep(disjoint_cliques([5, 5, 5]), range(2, 16), seed=7)
        assert report.selected_d == 3

    def test_singleton_range(self):
        g = disjoint_cliques([4, 4])
        report = dimension_sweep(g, [1], seed=0)
        assert report.selected_d == 1

    def test_fig9_instance_selects_three(self):
        g = fig9_graph(0)
        report = dimension_sweep(g, range(2, 9), seed=0)
        assert report.selected_d == 3

    def test_oversplit_detected(self):
        # splitting a true community inflates the inter-community sum
        for seed in (1, 2):
            g = fig9_graph(seed)
            report = dimension_sweep(g, [3, 4], seed=seed)
            assert report.record_for(4).stress > report.record_for(3).stress

    def test_penalized_column(self):
        g = disjoint_cliques([4, 4])
        report = dimension_sweep(g, [2, 3], seed=0, penalty=(1.0, 1.0))
        for rec in report.records:
            assert rec.penalized_stress is not None
            assert rec.penalized_stress >= rec.stress - 1e-9

    def test_penalty_uses_the_reported_residual(self):
        # each row of stress.csv must add up exactly: a residual recomputed
        # from X differs from the fit's in the last digits
        report = dimension_sweep(fig9_graph(0), [2, 3, 4], seed=0, penalty=(0.5, 2.0))
        for rec in report.records:
            assert rec.penalized_stress == 0.5 * rec.stress + 2.0 * rec.embedding.residual

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            dimension_sweep(disjoint_cliques([4]), [], seed=0)


def lloyd_per_centroid(xn, centroids):
    """_lloyd_spherical with each centroid updated through its own mask."""
    k = centroids.shape[0]
    assignment = np.full(xn.shape[0], -1)
    for _ in range(community._KMEANS_MAX_ITER):
        sims = xn @ centroids.T
        new_assignment = np.argmax(sims, axis=1)
        sizes = np.bincount(new_assignment, minlength=k)
        for c in np.flatnonzero(sizes == 0):
            fit = sims[np.arange(len(xn)), new_assignment]
            fit[sizes[new_assignment] < 2] = np.inf
            worst = int(np.argmin(fit))
            sizes[new_assignment[worst]] -= 1
            sizes[c] = 1
            new_assignment[worst] = c
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(k):
            members = xn[assignment == c]
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0:
                centroids[c] = mean / norm
    objective = float((xn * centroids[assignment]).sum())
    return assignment, centroids, objective


class TestLloydUpdate:
    def assert_same_run(self, xn, centroids):
        ref = lloyd_per_centroid(xn, centroids.copy())
        got = community._lloyd_spherical(xn, centroids.copy())
        np.testing.assert_array_equal(got[0], ref[0])
        assert got[1].tobytes() == ref[1].tobytes()
        assert got[2] == ref[2]

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_per_centroid_update(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 300)), int(rng.integers(1, 40))
        k = int(rng.integers(2, min(n, 20) + 1))
        xn = community._normalize_rows(rng.standard_normal((n, d)))[0]
        self.assert_same_run(xn, community._farthest_point_init(xn, k, rng))

    @pytest.mark.parametrize("d", [2, 8])
    def test_equals_the_per_centroid_update_on_a_sweep_embedding(self, d):
        xn = community._normalize_rows(embed(fig9_graph(3), d).X)[0]
        for r in range(3):
            rng = np.random.default_rng([d, r])
            self.assert_same_run(xn, community._farthest_point_init(xn, d, rng))

    def test_equals_the_per_centroid_update_through_a_reseed(self):
        # Two equal centroids: argmax gives every point to the first, so the
        # second cluster starts empty and is re-seeded.
        rng = np.random.default_rng(5)
        xn = community._normalize_rows(rng.standard_normal((40, 3)))[0]
        centroids = np.repeat(xn[:1], 3, axis=0)
        assert np.bincount(np.argmax(xn @ centroids.T, axis=1), minlength=3)[1] == 0
        self.assert_same_run(xn, centroids)


def sweep_alone(g, ds, seed):
    """Each sweep record's fields, from embed and angular_kmeans run per d."""
    for d in ds:
        emb = embed(g, d)
        part = angular_kmeans(emb.X, d, derive_seed(seed, SWEEP_DIMENSION, d))
        yield emb, part, stress(emb.X, part, normalize_rows=False)


def straddling_graph():
    # n = 300 starts d <= 9 from a Lanczos run and d >= 10 from a full eigh.
    return fig9_graph(4, size=100)


@pytest.mark.blas_threads
class TestSweepSharesTheStart:
    """A sweep's records have the bits of each d run alone, on the shared eigh
    start and on Lanczos starts, at any BLAS thread count."""

    @pytest.mark.parametrize("graph, ds", [
        (lambda: fig9_graph(3), range(2, 9)),
        (lambda: disjoint_cliques([5, 5, 5]), range(1, 8)),
        (straddling_graph, range(6, 13)),
        (straddling_graph, range(6, 10)),
    ], ids=["sbm-150", "cliques", "lanczos-and-eigh", "lanczos-only"])
    def test_records_equal_each_d_run_alone(self, graph, ds):
        g = graph()
        report = dimension_sweep(g, ds, seed=11)
        for rec, (emb, part, s) in zip(report.records, sweep_alone(g, ds, 11), strict=True):
            assert rec.embedding.X.tobytes() == emb.X.tobytes()
            assert rec.embedding.residual == emb.residual
            assert rec.embedding.iterations == emb.iterations
            assert rec.embedding.stop_reason == emb.stop_reason
            np.testing.assert_array_equal(rec.partition.assignment, part.assignment)
            assert rec.stress == s

    def test_crossover_of_the_straddling_graph(self):
        n = straddling_graph().n
        assert [embedding._takes_eigh(n, d) for d in range(6, 13)] == [False] * 4 + [True] * 3

    @pytest.mark.parametrize("graph, ds, eigh_at", [
        (lambda: fig9_graph(3), range(2, 9), [8]),
        (straddling_graph, range(6, 13), [12]),
        (straddling_graph, range(6, 10), []),
    ], ids=["sbm-150", "lanczos-and-eigh", "lanczos-only"])
    def test_one_eigendecomposition_per_sweep(self, monkeypatch, graph, ds, eigh_at):
        g = graph()
        calls = []

        def counted(m, d):
            calls.append(d)
            return eigentruncate(m, d)

        eigentruncate = embedding._eigentruncate
        monkeypatch.setattr(embedding, "_eigentruncate", counted)
        dimension_sweep(g, ds)
        assert calls == eigh_at


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0, 2]), 2)
    p = Partition(np.array([0, 1, 1]), 3)
    assert list(p.sizes) == [1, 2, 0]


@pytest.mark.parametrize("call, error, message", [
    (lambda: Partition(np.zeros(3, dtype=int), 0), ValueError, "k must be >= 1"),
    (lambda: angular_kmeans(np.eye(3), 0), ValueError, "k must be >= 1"),
    (lambda: angular_kmeans(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), 3),
     ValueError, "only 2 nonzero rows for k=3"),
    (lambda: stress(np.eye(3), Partition(np.zeros(2, dtype=int), 1)), ValueError,
     "partition does not cover the rows of x"),
    (lambda: StressReport((), 1).record_for(5), KeyError, "no record for d=5"),
], ids=["partition-k", "kmeans-k", "kmeans-nonzero-rows", "stress-length", "record-for"])
def test_bad_argument_is_named(call, error, message):
    with pytest.raises(error, match=message):
        call()
