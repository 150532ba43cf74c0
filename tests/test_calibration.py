"""Statistical contracts that hold whatever the bits: a change that moves
rates or draws at rounding level must keep them, and a wrong null must not.
"""

import numpy as np

from wrdpm import (AxisNoise, EdgeDistribution, LatentModel, draw_vectors, null_compare,
                   sample_network)


def test_dot_product_null_quantiles_are_uniform():
    # Graphs drawn from the vectors the null is built from are exchangeable
    # with its samples, so the count of the 19 samples at or below the
    # observed value is uniform on 0..19 (up to ties of the integer total
    # weight). Over 200 observed graphs, in 10 bins of two counts, the
    # chi-square statistic measured 12.7 (total_weight) and 12.8
    # (log_likelihood); the bound is the 0.999 quantile of chi-square with 9
    # degrees of freedom. With the null's rates taken from permuted vectors
    # every log_likelihood quantile is 0 (chi-square 1800).
    n, graphs, samples = 60, 200, 19
    m = LatentModel(EdgeDistribution("poisson"), n, AxisNoise(3, 0.01))
    x = draw_vectors(m, seed=0)
    ranks = {"total_weight": [], "log_likelihood": []}
    for k in range(graphs):
        g = sample_network(m, x, seed=1000 + k)
        for statistic, found in ranks.items():
            report = null_compare(g, null="dot_product", statistic=statistic,
                                  n_samples=samples, seed=k, x=x)
            found.append(round(report.quantile * samples))
    for statistic, found in ranks.items():
        counts = np.bincount(np.array(found) // 2, minlength=10)
        chi_square = float(((counts - graphs / 10) ** 2 / (graphs / 10)).sum())
        assert chi_square < 27.88, (statistic, counts.tolist())
