"""Property tests: embed respects the symmetries of the dot-product model.

X is defined only up to an orthogonal map, so the tests compare Gram
matrices X X^T, which that map leaves unchanged. They must hold, on the
Lanczos start too, at any BLAS thread count.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wrdpm import WeightedGraph, embed, embedding

pytestmark = pytest.mark.blas_threads

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def graphs_dims_perms(draw):
    """A small integer-weighted graph, an embedding dimension, a node permutation."""
    n = draw(st.integers(4, 9))
    upper = draw(st.lists(st.integers(0, 5), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    w = np.zeros((n, n))
    w[np.triu_indices(n, k=1)] = upper
    d = draw(st.integers(1, 3))
    perm = np.array(draw(st.permutations(range(n))))
    return WeightedGraph(w + w.T), d, perm


def gram(x):
    return x @ x.T


def has_unique_truncation(g, emb):
    """True when the top-d eigenspace at the fixed point is well separated.

    With a tie between the d-th and (d+1)-th positive eigenvalue the rank-d
    truncation, and so the Gram matrix, is not unique. Neither is it when the
    d-th eigenvalue is not positive: X is then rank-deficient, and another
    diagonal can fit as exactly (see the test below).
    """
    x = emb.X
    a_hat = g.weights + np.diag(np.einsum("ij,ij->i", x, x))
    vals = np.linalg.eigvalsh(a_hat)[::-1]
    scale = max(abs(vals).max(), 1.0)
    return emb.converged and vals[emb.d - 1] - max(vals[emb.d], 0.0) > 1e-3 * scale


def test_rank_deficient_fit_is_not_unique():
    # Node 0 isolated; edges 1-2 (1), 1-3 (2), 2-3 (1). At d = 3 both Gram
    # diagonals (2, 2/3, 2) and (2, 1/2, 2) for nodes 1-3 make A + diag PSD,
    # and a PSD 4 x 4 matrix with a zero row has rank at most 3: two exact fits.
    w = np.zeros((4, 4))
    w[1, 2] = w[2, 1] = w[2, 3] = w[3, 2] = 1.0
    w[1, 3] = w[3, 1] = 2.0
    for diag in ([0, 2, 2 / 3, 2], [0, 2, 1 / 2, 2]):
        assert np.linalg.eigvalsh(w + np.diag(diag)).min() > -1e-12
    g = WeightedGraph(w)
    emb = embed(g, 3)
    assert emb.converged
    assert not has_unique_truncation(g, emb)


@PROPERTY_SETTINGS
@given(graphs_dims_perms())
def test_permuting_nodes_permutes_the_gram(case):
    g, d, perm = case
    base = embed(g, d)
    assume(has_unique_truncation(g, base))
    permuted = embed(WeightedGraph(g.weights[np.ix_(perm, perm)]), d)
    expected = gram(base.X)[np.ix_(perm, perm)]
    scale = max(np.abs(expected).max(), 1.0)
    np.testing.assert_allclose(gram(permuted.X), expected, atol=1e-5 * scale)


@PROPERTY_SETTINGS
@given(graphs_dims_perms(), st.floats(0.1, 10.0))
def test_scaling_weights_scales_the_gram(case, c):
    g, d, _ = case
    base = embed(g, d)
    assume(has_unique_truncation(g, base))
    scaled = embed(WeightedGraph(c * g.weights), d)
    expected = c * gram(base.X)
    scale = max(np.abs(expected).max(), 1.0)
    np.testing.assert_allclose(gram(scaled.X), expected, atol=1e-5 * scale)


def four_block_poisson_graph(seed, n=400):
    """Four equal planted blocks: Poisson rate 1.0 within a block, 0.1 across."""
    block = np.repeat(np.arange(4), n // 4)
    rates = np.where(block[:, None] == block[None, :], 1.0, 0.1)
    w = np.triu(np.random.default_rng(seed).poisson(rates), 1).astype(float)
    return WeightedGraph(w + w.T)


@pytest.mark.parametrize("seed", range(4))
def test_lanczos_start_keeps_both_equivariances(seed):
    # n = 400 and d = 6 start from a Lanczos run's top d, which the small graphs
    # above never reach.
    g, d = four_block_poisson_graph(seed), 6
    assert not embedding._takes_eigh(g.n, d)
    expected = gram(embed(g, d).X)
    perm = np.random.default_rng(seed).permutation(g.n)
    permuted = embed(WeightedGraph(g.weights[np.ix_(perm, perm)]), d)
    np.testing.assert_allclose(gram(permuted.X), expected[np.ix_(perm, perm)],
                               rtol=0, atol=1e-6 * np.abs(expected).max())
    c = 3.7
    scaled = embed(WeightedGraph(c * g.weights), d)
    np.testing.assert_allclose(gram(scaled.X), c * expected,
                               rtol=0, atol=1e-6 * c * np.abs(expected).max())
