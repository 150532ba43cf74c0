"""The fit is the paper's fixed point: X ↦ eigentruncate_d(A + diag(r(X))).

`embed` minimizes ||offdiag(X X^T - A)||_F^2, whose gradient is zero exactly
when (A + diag(r)) X = X (X^T X), r the squared row norms of X: X then spans
an invariant subspace of A + diag(r). A converged X stops with a gradient of
at most ``tolerance`` ||A||_F ||X||_F, so, by Davis and Kahan's sin-theta
theorem, its Gram is the rank-d eigentruncation's to within a multiple of
``tolerance`` over the relative gap between the eigenvalues X carries and the
rest. The gap must not be negative: a negative gap is a saddle, an invariant
subspace that leaves a larger eigenvalue out. The checks read no bits, so
they hold on every start path and BLAS kernel.
"""

import numpy as np
import pytest

from wrdpm import (AxisNoise, EdgeDistribution, LatentModel, SolverConfig, WeightedGraph,
                   dimension_sweep, draw_vectors, embed, embedding, sample_network)
from conftest import disjoint_cliques

# Largest error x gap / tolerance measured over these solves: 0.41 (a float
# graph at n = 300, d = 3), most of them 0.005 to 0.1.
MULTIPLE = 2.0
# A gap this far below zero, relative to the top eigenvalue, is rounding: a
# repeated zero eigenvalue at d (the cliques at d = 4) reads -6.6e-17.
ROUNDING = 1e-12


def poisson_graph(n, seed):
    """A Poisson graph of one-byte counts from three noisy axes, vectors x 2."""
    model = LatentModel(EdgeDistribution("poisson"), n, AxisNoise(3, 0.01))
    return sample_network(model, 2 * draw_vectors(model, seed), seed + 1)


def float_graph(n, seed):
    """The Poisson graph with each weight times its own factor in [0.5, 1.5)."""
    g = poisson_graph(n, seed)
    factors = np.random.default_rng(seed).uniform(0.5, 1.5, (n, n))
    w = g.weights * np.triu(factors, 1)
    return WeightedGraph(w + w.T)


def fixed_point_error_and_gap(g, x):
    """||F F^T - X X^T||_F / ||X X^T||_F, F the rank-d eigentruncation of
    A + diag(r(X)), and the relative gap: the d-th eigenvalue X carries (0
    for a null column) less the largest one off X's span (0 if negative),
    over the top eigenvalue."""
    d = x.shape[1]
    m = g.weights + np.diag(np.einsum("ij,ij->i", x, x))
    values, vectors = np.linalg.eigh(m)
    top = vectors[:, -d:] * np.sqrt(np.clip(values[-d:], 0.0, None))
    gram = x @ x.T
    error = np.linalg.norm(top @ top.T - gram) / np.linalg.norm(gram)
    u, sing, _ = np.linalg.svd(x)
    rank = int((sing**2 > embedding._NULL_SHARE * sing[0] ** 2).sum())
    off = u[:, rank:]
    left_out = max(np.linalg.eigvalsh(off.T @ m @ off)[-1], 0.0)
    carried = sing[d - 1] ** 2 if rank == d else 0.0
    return error, (carried - left_out) / values[-1]


def assert_fixed_point(g, emb, tolerance=SolverConfig().tolerance):
    assert emb.stop_reason == "tolerance"
    error, gap = fixed_point_error_and_gap(g, emb.X)
    assert gap >= -ROUNDING, gap
    assert error * gap <= MULTIPLE * tolerance, (error, gap)


@pytest.mark.parametrize("n", [150, 300], ids=["eigh-start", "lanczos-start"])
@pytest.mark.parametrize("make", [poisson_graph, float_graph], ids=["counts", "floats"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_fit_is_the_top_fixed_point(make, n, d):
    g = make(n, 1)
    assert embedding._takes_eigh(n, d) == (n < 256)
    assert_fixed_point(g, embed(g, d))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_golden_cliques_are_the_top_fixed_point(d):
    # At d = 1 and 2 the diagonal r breaks the tie of the three equal
    # cliques' top eigenvalue; at d = 4 the fourth column is null.
    g = disjoint_cliques([5, 5, 5])
    assert_fixed_point(g, embed(g, d))


def test_every_fit_of_a_sweep_is_the_top_fixed_point():
    g = poisson_graph(150, 7)
    records = dimension_sweep(g, range(2, 7)).records
    assert [rec.d for rec in records] == [2, 3, 4, 5, 6]
    for rec in records:
        assert_fixed_point(g, rec.embedding)


def test_a_loose_tolerance_loosens_the_fit_within_its_bound():
    # The bound scales with the tolerance a solve stops on.
    g = poisson_graph(300, 0)
    config = SolverConfig(tolerance=1e-4)
    assert_fixed_point(g, embed(g, 3, config), config.tolerance)
