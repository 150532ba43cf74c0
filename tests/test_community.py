import itertools
import math

import numpy as np
import pytest

from wrdpm import (
    BlockModelSpec,
    Partition,
    angular_kmeans,
    centrality,
    dimension_sweep,
    draw_vectors,
    embed,
    make_sbm,
    sample_network,
    stress,
    stress_penalized,
)
from conftest import bridge_graph, disjoint_cliques


def repeated_basis(k, reps):
    return np.repeat(np.eye(k), reps, axis=0)


def fig9_graph(seed):
    b = np.full((3, 3), 0.1)
    np.fill_diagonal(b, 1.0)
    model = make_sbm(BlockModelSpec(b, (50, 50, 50)), "poisson")
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


class TestStressPenalized:
    def test_lambda2_zero_reduces_to_stress(self, rng):
        g = disjoint_cliques([4, 4])
        emb = embed(g, 2)
        p = angular_kmeans(emb.X, 2, seed=0)
        assert stress_penalized(emb.X, p, g, 2.0, 0.0) == pytest.approx(
            2.0 * stress(emb.X, p)
        )

    def test_lambda1_zero_exact_factorization(self):
        g = disjoint_cliques([4, 4])
        emb = embed(g, 2)
        p = angular_kmeans(emb.X, 2, seed=0)
        assert stress_penalized(emb.X, p, g, 0.0, 1.0) < 1e-6

    def test_sum_of_parts(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.5, math.sqrt(3) / 2])
        x = np.array([u, u, v, v])
        p = Partition(np.array([0, 0, 1, 1]), 2)
        a = x @ x.T
        np.fill_diagonal(a, 0.0)
        from wrdpm import WeightedGraph

        g = WeightedGraph(a)
        assert stress_penalized(x, p, g, 1.0, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_negative_weights_rejected(self):
        g = disjoint_cliques([3])
        x = np.ones((3, 1))
        p = Partition(np.zeros(3, dtype=int), 1)
        with pytest.raises(ValueError):
            stress_penalized(x, p, g, -1.0, 1.0)


class TestCentrality:
    def test_zero_row(self):
        assert centrality(np.zeros((3, 2)))[1] == 0.0

    def test_scaling_homogeneity(self, rng):
        x = rng.normal(size=(8, 3))
        assert np.allclose(centrality(3.0 * x), 3.0 * centrality(x))

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
        report = dimension_sweep(g, [2, 3], seed=0, penalized=True, lam1=1.0, lam2=1.0)
        for rec in report.records:
            assert rec.penalized_stress is not None
            assert rec.penalized_stress >= rec.stress - 1e-9

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            dimension_sweep(disjoint_cliques([4]), [], seed=0)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0, 2]), 2)
    p = Partition(np.array([0, 1, 1]), 3)
    assert list(p.sizes) == [1, 2, 0]
