"""Memory bounds per call: the traced peak of a warm call, in n^2 bytes.

Every row runs on one Poisson AxisNoise (d = 3) graph at n = 600 (density
about 0.34), as float64 or as one-byte counts, as it is drawn and loaded.
The peak does not count the inputs a call is handed. Bounds on other
calls sit beside the tests of their behaviour: `save_graph` (test_graph),
`sample_network`, `_pair_parameters` (test_model), `null_compare`,
`evaluate_null_likelihood` (test_analysis) and whole commands (test_cli).
"""

import tracemalloc
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
    load_graph,
    sample_network,
    save_graph,
    total_weight,
    weighted_clustering,
)

N = 600


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    m = LatentModel(EdgeDistribution("poisson"), N, AxisNoise(3, 0.01))
    x = draw_vectors(m, seed=0)
    drawn = sample_network(m, x, seed=1)
    path = tmp_path_factory.mktemp("memory") / "g.edgelist"
    save_graph(drawn, path)
    save_graph(drawn, path.with_suffix(".csv"), "dense")
    counts = load_graph(path)
    assert drawn.weights.dtype == counts.weights.dtype == np.uint8
    assert counts.weights.tobytes() == drawn.weights.tobytes()
    floats = WeightedGraph._wrap(counts.weights.astype(float))
    return SimpleNamespace(x=x, path=path, floats=floats, counts=counts,
                           fit=embed(counts, 8).X)


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
    tracemalloc.start()
    try:
        call(inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * N * N
