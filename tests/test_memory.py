"""Memory bounds per call: the traced peak of a warm call, in n^2 bytes.

Every row runs on one Poisson AxisNoise (d = 3) graph at n = 600 (density
about 0.34), as float64 or as one-byte counts, as it is drawn and loaded.
The peak does not count the inputs a call is handed. Five bounds sit
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
    return SimpleNamespace(m=m, x=x, grid=dot_product_grid(x), path=path, floats=floats,
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
    # The grid (8). Halved and mirrored by row blocks, it took 9.1.
    pytest.param(lambda s: dot_product_grid(s.x), 8.5, id="dot_product_grid-d3"),
    # dot_product_grid makes one n x n array, so the peak is the grid and its
    # pair rates with one row block's check (13.1); a second grid for
    # h + h^T made it 16.2, and float64 weights, with a float64 cast of each
    # block's int64 draw, 13.75.
    pytest.param(lambda s: sample_network(s.m, s.x, seed=1), 13.4, id="sample_network"),
    # The rates (4) and one row block's check and gather; an n x n mask of
    # bad entries and its np.isfinite temporary made it 6.0.
    pytest.param(lambda s: _pair_parameters(POISSON, s.grid, clamp=False), 5.5,
                 id="_pair_parameters"),
    # The grid (8) is freed once the pair rates (4) are gathered, before the
    # gathered weights, widened to float64 (4), and the kernel's terms and
    # log-factorial buffers (4 + 4): 16.0, for counts as for float64. Held
    # through the kernel, as a local of its caller, it made 24.0 for both.
    pytest.param(lambda s: evaluate_null_likelihood(s.counts, s.x), 17,
                 id="evaluate_null_likelihood-counts"),
    pytest.param(lambda s: evaluate_null_likelihood(s.floats, s.x), 17,
                 id="evaluate_null_likelihood-float64"),
    # Under the clustering statistic the ensemble holds the float32 A and A^2
    # (8) and two one-byte count buffers (2); the dot-product null adds its
    # pair rates (4). With two float64 buffers the peaks are 26.8 and 30.9.
    pytest.param(lambda s: null_compare(s.counts, null="poisson_er", n_samples=3, seed=0, x=s.x),
                 16, id="null_compare-poisson_er", marks=pytest.mark.blas_threads),
    pytest.param(lambda s: null_compare(s.counts, null="dot_product", n_samples=3, seed=0, x=s.x),
                 20, id="null_compare-dot_product", marks=pytest.mark.blas_threads),
    # The loader's peak (4.9) comes before the command's work, and it builds
    # the graph as counts from the start. The ensemble's float32 A and A^2
    # (8), its two one-byte count buffers (2) and the observed graph as
    # counts (1); as float64 (8) it made 21.0.
    pytest.param(lambda s: command(s, "null", "--samples", "3"), 15, id="cli-null"),
    # embed's scaled copy and its start (13) beside the graph as counts (1);
    # as float64 it made 21.1.
    pytest.param(lambda s: command(s, "cluster", "--d", "8"), 17, id="cli-cluster"),
    # The scaled float64 copy (8) and the ARPACK start: 12.9.
    pytest.param(lambda s: embed(s.counts, 8), 13.5, id="embed-d8-counts"),
    # The np.triu copy (1 on counts, 8 on float64) and its bool mask (1).
    pytest.param(lambda s: total_weight(s.counts), 2.5, id="total_weight-counts"),
    pytest.param(lambda s: total_weight(s.floats), 9.5, id="total_weight-float64"),
    # The float32 A and A^2 (8), by design: 9.2.
    pytest.param(lambda s: weighted_clustering(s.counts), 9.5, id="weighted_clustering-counts"),
    # Of an n x 8 fit, k = 8: 0.6.
    pytest.param(lambda s: angular_kmeans(s.fit, 8), 1, id="angular_kmeans-d8-k8"),
])
def test_warm_peak_in_n_squared_bytes(inputs, call, bound):
    call(inputs)  # first-call allocations are not counted
    assert traced_peak(lambda: call(inputs)) < bound * N * N
