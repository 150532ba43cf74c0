"""Memory bounds per call: the traced peak of a warm call, in n^2 bytes.

Every row runs on one Poisson AxisNoise (d = 3) graph at n = 600 (density
about 0.34), as float64 or as one-byte counts, as it is drawn and loaded;
the rows of the second table on one such graph at n = 1100, where the fit
and the edge-list load run on two threads (`graph._SPLIT_MIN_N`), with the
bounds of their n = 600 rows. The peak does not count the inputs a call is
handed. Five bounds sit
beside the tests of their behaviour instead, because their unit or input
is not this table's:

- `save_graph` (test_graph): written at n = 1200, at two rates and from
  each dtype;
- the likelihood kernel (test_model): bounded per pair, not per n^2;
- `stress` (test_community): at n = 3000, bounded in n d;
- the cold draw of `sample_network` (test_model): its first call, unwarmed;
- the array parser's loads with and without a header (test_graph): each
  also checks the loaded bytes.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from wrdpm import (
    AxisNoise,
    EdgeDistribution,
    LatentModel,
    WeightedGraph,
    angular_kmeans,
    dot_product_grid,
    draw_vectors,
    embed,
    evaluate_null_likelihood,
    graph,
    load_graph,
    null_compare,
    sample_network,
    save_graph,
    total_weight,
    weighted_clustering,
)
from wrdpm.cli import main
from wrdpm.model import _pair_parameters
from conftest import traced_peak

N = 600
POISSON = EdgeDistribution("poisson")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    m = LatentModel(POISSON, N, AxisNoise(3, 0.01))
    x = draw_vectors(m, seed=0)
    drawn = sample_network(m, x, seed=1)
    tmp = tmp_path_factory.mktemp("memory")
    path = tmp / "g.edgelist"
    save_graph(drawn, path)
    save_graph(drawn, path.with_suffix(".csv"), "dense")
    counts = load_graph(path)
    assert drawn.weights.dtype == counts.weights.dtype == np.uint8
    assert counts.weights.tobytes() == drawn.weights.tobytes()
    floats = WeightedGraph._wrap(counts.weights.astype(float))
    return SimpleNamespace(m=m, x=x, path=path, floats=floats,
                           counts=counts, fit=embed(counts, 8).X, tmp=tmp, runs=itertools.count())


def command(s, *argv):
    """Run the CLI on the saved edge list, into a fresh output directory."""
    out = s.tmp / f"run-{next(s.runs)}"
    assert main([*argv, "--graph", str(s.path), "--out", str(out)]) == 0


@pytest.mark.parametrize("call, bound", [
    # The counts (1) and the parsed rows (16 bytes per edge): 4.9. Built as
    # float64 and then cast to counts, the weights took 11.1.
    pytest.param(lambda s: load_graph(s.path), 6, id="load_graph"),
    # np.loadtxt's float64 matrix (8), checked in place, and the counts (1):
    # 10.2. Copied again by the constructor before the check, it took 17.2.
    pytest.param(lambda s: load_graph(s.path.with_suffix(".csv"), "dense"), 10.5,
                 id="load_graph-dense"),
    # The uint8 copy (1) and the symmetry check's n^2 bool (1): 2.0. Cast to
    # uint8 again and scanned by np.isfinite, it took 3.0; copied as float64
    # before the check, 10.2.
    pytest.param(lambda s: WeightedGraph(s.counts.weights), 2.5, id="WeightedGraph-counts"),
    # The grid (8). Halved and mirrored by row blocks, it took 9.1.
    pytest.param(lambda s: dot_product_grid(s.x), 8.5, id="dot_product_grid-d3"),
    # The one-byte weights (1) and one 64-row block's products, check and
    # draw: 2.9. Drawn from the whole grid and its pair rates, it took 13.1;
    # with each block's pairs gathered out of its products, 3.0.
    pytest.param(lambda s: sample_network(s.m, s.x, seed=1), 3.5, id="sample_network"),
    # The rates (4) and one row block's products and check, its pairs moved
    # within the block: 5.3. Gathered out of the block (`block[mask]`), they made 5.9; read
    # from a whole grid that is not counted, 5.1.
    pytest.param(lambda s: _pair_parameters(POISSON, s.x, clamp=False), 5.5,
                 id="_pair_parameters"),
    # The pair rates (4), made by row blocks with no grid, the gathered
    # weights, widened to float64 (4), and the kernel's terms and
    # log-factorial buffers (4 + 4): 16.0, for counts as for float64. With
    # the whole grid (8) held through the kernel, it made 24.0 for both.
    pytest.param(lambda s: evaluate_null_likelihood(s.counts, s.x), 17,
                 id="evaluate_null_likelihood-counts"),
    pytest.param(lambda s: evaluate_null_likelihood(s.floats, s.x), 17,
                 id="evaluate_null_likelihood-float64"),
    # Under the clustering statistic the ensemble holds the float32 buffer of
    # A and A^2 (4) with one 256-row tile's product (1.7 at n = 600), two
    # one-byte count buffers (2) and a draw's block: 7.9-8.8, as the draw
    # and the score overlap. The dot-product null holds its pair rates (4) as
    # well: 11.7-12.8. Gathered from its whole grid (8), they made it peak
    # at 13.1. With A^2 in a second buffer the peaks were 12.3 and 16.7;
    # with two float64 buffers as well, 26.8 and 30.9.
    pytest.param(lambda s: null_compare(s.counts, null="poisson_er", n_samples=3, seed=0, x=s.x),
                 9.5, id="null_compare-poisson_er", marks=pytest.mark.blas_threads),
    pytest.param(lambda s: null_compare(s.counts, null="dot_product", n_samples=3, seed=0, x=s.x),
                 13, id="null_compare-dot_product", marks=pytest.mark.blas_threads),
    # The loader's peak (4.9) comes before the command's work, and it builds
    # the graph as counts from the start. The ensemble's peak above beside
    # the observed graph as counts (1): 9.5-10.0. With A^2 in a second
    # buffer it made 14.2, and with the graph as float64 (8) 21.0.
    pytest.param(lambda s: command(s, "null", "--samples", "3"), 10.5, id="cli-null"),
    # embed's scaled copy and its start (13) beside the graph as counts (1);
    # as float64 it made 21.1.
    pytest.param(lambda s: command(s, "cluster", "--d", "8"), 17, id="cli-cluster"),
    # The scaled float64 copy (8) and the Lanczos start: 12.9.
    pytest.param(lambda s: embed(s.counts, 8), 13.5, id="embed-d8-counts"),
    # The np.triu copy (1 on counts, 8 on float64) and its bool mask (1).
    pytest.param(lambda s: total_weight(s.counts), 2.5, id="total_weight-counts"),
    pytest.param(lambda s: total_weight(s.floats), 9.5, id="total_weight-float64"),
    # The float32 buffer of A and A^2 (4) and one 256-row tile's product
    # (1.7 at n = 600): 5.7. With A^2 in a second buffer it took 9.2.
    pytest.param(lambda s: weighted_clustering(s.counts), 6, id="weighted_clustering-counts"),
    # Of an n x 8 fit, k = 8: 0.6.
    pytest.param(lambda s: angular_kmeans(s.fit, 8), 1, id="angular_kmeans-d8-k8"),
])
def test_warm_peak_in_n_squared_bytes(inputs, call, bound):
    call(inputs)  # first-call allocations are not counted
    assert traced_peak(lambda: call(inputs)) < bound * N * N


LARGE = 1100


@pytest.fixture(scope="module")
def large(tmp_path_factory):
    m = LatentModel(POISSON, LARGE, AxisNoise(3, 0.01))
    path = tmp_path_factory.mktemp("memory-large") / "g.edgelist"
    save_graph(sample_network(m, draw_vectors(m, seed=0), seed=1), path)
    return SimpleNamespace(path=path, counts=load_graph(path))


@pytest.mark.parametrize("call, bound", [
    # The counts and the parsed rows, the two halves of the edges written
    # at once: 4.8, as written whole. Sorting the pair keys for the duplicate check
    # while the matrix is written would hold both.
    pytest.param(lambda s: load_graph(s.path), 6, id="load_graph"),
    # The scaled float64 copy, built and multiplied in row halves into
    # whole arrays, and the Lanczos start: 12.0, as by whole calls.
    pytest.param(lambda s: embed(s.counts, 8), 13.5, id="embed-d8-counts"),
])
def test_warm_peak_above_the_split_floor(large, call, bound):
    assert large.counts.n >= graph._SPLIT_MIN_N
    call(large)  # first-call allocations are not counted
    assert traced_peak(lambda: call(large)) < bound * LARGE * LARGE
