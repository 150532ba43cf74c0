"""Null-model ensembles and weighted summary statistics.

Compares an observed network against draws from a fitted Poisson
Erdos-Renyi null or a fixed dot-product null, using the weighted
clustering coefficient, total weight, or model log-likelihood.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import WeightedGraph, _clustering, _clustering_workspace, _pair_weights, total_weight
from .model import (NULL_SAMPLE, EdgeDistribution, _draw_buffer, _pair_parameters, _sample_pairs,
                    derive_seed)
from .specialize import _poisson_er_rate

STATISTICS = ("avg_weighted_clustering", "total_weight", "log_likelihood")
NULL_KINDS = ("poisson_er", "dot_product")


def weighted_clustering(g: WeightedGraph) -> tuple[np.ndarray, float]:
    """Strength-normalized weighted clustering coefficient, per node and average.

    c_j = (1 / (s_j (k_j - 1))) * sum over neighbor pairs (l,h) closing a
    triangle of (w_jl + w_jh)/2, with s_j the strength and k_j the binary
    degree. Nodes of degree < 2 get zero. Reduces to the classical local
    clustering coefficient on 0/1 weights.
    """
    per_node = _clustering(g, _clustering_workspace(g.n))
    return per_node, float(per_node.mean())


@dataclass(frozen=True)
class NullEnsembleReport:
    statistic: str
    observed: float
    samples: tuple[float, ...]
    seed: int
    null_kind: str

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def null_mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def null_std(self) -> Optional[float]:
        if self.n_samples < 2:
            return None
        return float(np.std(self.samples, ddof=1))

    @property
    def quantile(self) -> float:
        """Fraction of null samples at or below the observed value."""
        return float(np.mean(np.asarray(self.samples) <= self.observed))

    def to_json(self) -> str:
        """The report as JSON; an observed log-likelihood of -inf is null."""
        return json.dumps(
            {
                "statistic": self.statistic,
                "null": self.null_kind,
                "observed": None if self.observed == -np.inf else self.observed,
                "null_mean": self.null_mean,
                "null_std": self.null_std,
                "quantile": self.quantile,
                "N": self.n_samples,
                "seed": self.seed,
                "samples": list(self.samples),
            },
            indent=2,
            allow_nan=False,
        )


def _node_vectors(x: np.ndarray, g: WeightedGraph) -> np.ndarray:
    """The vectors x as an n x d matrix, one row per node of g."""
    xm = np.atleast_2d(np.asarray(x, dtype=float))
    if xm.shape[0] != g.n:
        raise ValueError(f"embedding has {xm.shape[0]} rows for a {g.n}-node graph")
    return xm


def evaluate_null_likelihood(
    g: WeightedGraph, x: np.ndarray, family: str = "poisson", clamp: bool = False
) -> float:
    """Log-likelihood of g's weights at the dot products of the vectors x, its
    pair rates gathered by row blocks (`model._pair_parameters`), no n x n grid
    made. Returns -inf, silently, when a weight has zero probability under its
    rate; the caller decides how to report it."""
    dist = EdgeDistribution(family)
    return dist.log_likelihood(_pair_parameters(dist, _node_vectors(x, g), clamp),
                               _pair_weights(g))


def null_compare(
    g: WeightedGraph,
    null: str = "poisson_er",
    statistic: str = "avg_weighted_clustering",
    n_samples: int = 100,
    seed: int = 0,
    x: Optional[np.ndarray] = None,
) -> NullEnsembleReport:
    """Draw an ensemble from the fitted null and score g against it.

    The dot-product null preserves the pairwise dot products of the supplied
    vectors (clamped into the Poisson domain); the Poisson Erdos-Renyi
    null preserves only the expected total weight. Sample i draws from
    derive_seed(seed, NULL_SAMPLE, i), so reports are reproducible and
    ensembles of different seeds are independent.

    The ensemble holds the null as its clamped pair rates only, or as one
    rate under the Erdos-Renyi null, built once, with two n x n
    `model._draw_buffer`s and, under the clustering statistic, that
    statistic's workspace. Each draw samples into a buffer while one worker
    thread scores the draw before it in the other, so an ensemble uses two
    cores even with one BLAS thread. The results are those of drawing and
    scoring in turn, bit for bit, and an error is the first that order
    would meet. Under the dot-product null, sample i is the graph that
    ``sample_network(model, x, derive_seed(seed, NULL_SAMPLE, i), clamp=True)``
    draws, for a Poisson model of g.n nodes: its rates come from the same
    row-block walk. The Erdos-Renyi null draws every pair at total/C(n,2)
    itself, not at the fl(sqrt(theta))^2 of `fit_poisson_er`'s sampled
    vector model.
    """
    if n_samples < 1:
        raise ValueError("need at least one null sample")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; valid: {', '.join(STATISTICS)}")
    if null not in NULL_KINDS:
        raise ValueError(f"unknown null kind {null!r}; valid: {', '.join(NULL_KINDS)}")

    dist = EdgeDistribution("poisson")
    if null == "poisson_er":
        rates = _poisson_er_rate(g)
    elif x is None:
        raise ValueError("dot_product null requires embedding vectors")
    else:
        rates = _pair_parameters(dist, _node_vectors(x, g), clamp=True)

    work = _clustering_workspace(g.n) if statistic == "avg_weighted_clustering" else None

    def score(h: WeightedGraph) -> float:
        if statistic == "avg_weighted_clustering":
            return float(_clustering(h, work).mean())
        if statistic == "total_weight":
            return total_weight(h)
        return dist.log_likelihood(rates, _pair_weights(h))

    # Imported here: importing concurrent.futures adds about 6 ms to the
    # start-up of every CLI run.
    from concurrent.futures import ThreadPoolExecutor

    # Draw i is sampled into buffers[i % 2] while the worker scores draw i - 1
    # in the other buffer; the score of draw i - 2, the last to read
    # buffers[i % 2], has been taken by then.
    buffers = _draw_buffer(g.n, rates), _draw_buffer(g.n, rates)
    with ThreadPoolExecutor(1) as worker:
        pending, results = worker.submit(score, g), []
        for i in range(n_samples):
            try:
                draw = _sample_pairs(dist, rates, derive_seed(seed, NULL_SAMPLE, i),
                                     buffers[i % 2])
            except BaseException:
                pending.result()  # an earlier score's error comes first in sequence
                raise
            results.append(pending.result())
            pending = worker.submit(score, draw)
        results.append(pending.result())
    observed, *samples = results
    return NullEnsembleReport(
        statistic=statistic,
        observed=observed,
        samples=tuple(samples),
        seed=seed,
        null_kind=null,
    )
