"""Null-model ensembles and weighted summary statistics.

Compares an observed network against draws from a fitted Poisson
Erdos-Renyi null or a fixed dot-product-grid null, using the weighted
clustering coefficient, total weight, or model log-likelihood.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import WeightedGraph, total_weight
from .model import (
    EdgeDistribution,
    _pair_parameters,
    _sample_pairs,
    _upper_mask,
    derive_seed,
    dot_product_grid,
    draw_vectors,
    log_likelihood,
)
from .specialize import fit_poisson_er

STATISTICS = ("avg_weighted_clustering", "total_weight", "log_likelihood")
NULL_KINDS = ("poisson_er", "dot_product")


def weighted_clustering(g: WeightedGraph) -> tuple[np.ndarray, float]:
    """Strength-normalized weighted clustering coefficient, per node and average.

    c_j = (1 / (s_j (k_j - 1))) * sum over neighbor pairs (l,h) closing a
    triangle of (w_jl + w_jh)/2, with s_j the strength and k_j the binary
    degree. Nodes of degree < 2 get zero. Reduces to the classical local
    clustering coefficient on 0/1 weights.

    The 0/1 adjacency A is held in float32, and ``ssyrk`` forms only one
    triangle of the symmetric A A^T = A^2, about half the work of a full
    product; it is then mirrored into the other. That is exact: each entry
    of A^2 counts common neighbors, an integer at most n, and float32
    represents every integer up to 2^24, above ``graph.MAX_NODES``; the
    partial sums of the product are such integers as well, in any order of
    summation. So the counts, and the float64 arithmetic after them, match a
    float64 ``A @ A`` bit for bit.
    """
    # Imported here: a module-level import of scipy.linalg slows the start-up
    # of every CLI run.
    from scipy.linalg.blas import ssyrk

    w = g.weights
    a = (w > 0).astype(np.float32)
    degree = a.sum(axis=1, dtype=float)
    strength = w.sum(axis=1)
    # Ordered neighbor pairs (l,h): sum_l w_jl a_jl (A^2)_jl counts each
    # unordered pair twice, matching the (w_jl + w_jh)/2 symmetrization.
    # A is symmetric, so its Fortran-ordered view A^T goes to BLAS uncopied;
    # the transpose of the Fortran-ordered result is C-ordered, like w, with
    # BLAS's triangle below the diagonal.
    common = ssyrk(1.0, a.T).T
    np.copyto(common, common.T, where=_upper_mask(g.n))
    numer = (w * common).sum(axis=1)
    denom = strength * (degree - 1)
    per_node = np.where(denom > 0, numer / np.where(denom > 0, denom, 1.0), 0.0)
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
        return json.dumps(
            {
                "statistic": self.statistic,
                "null": self.null_kind,
                "observed": self.observed,
                "null_mean": self.null_mean,
                "null_std": self.null_std,
                "quantile": self.quantile,
                "N": self.n_samples,
                "seed": self.seed,
                "samples": list(self.samples),
            },
            indent=2,
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
    """Log-likelihood of g under the dot-product grid of the vectors x."""
    grid = dot_product_grid(_node_vectors(x, g))
    return log_likelihood(EdgeDistribution(family), grid, g, clamp=clamp)


def null_compare(
    g: WeightedGraph,
    null: str = "poisson_er",
    statistic: str = "avg_weighted_clustering",
    n_samples: int = 100,
    seed: int = 0,
    x: Optional[np.ndarray] = None,
) -> NullEnsembleReport:
    """Draw an ensemble from the fitted null and score g against it.

    The dot-product null preserves the pairwise grid of the supplied
    vectors (clamped into the Poisson domain); the Poisson Erdos-Renyi
    null preserves only the expected total weight. Sample i draws from
    derive_seed(seed, i), so reports are reproducible and ensembles of
    different seeds are independent.

    The pair mask and the clamped pair rates are built once per ensemble,
    and each draw only samples from them; sample i is still the graph that
    ``sample_from_grids(dist, grid, derive_seed(seed, i), clamp=True)``
    draws. The Erdos-Renyi null has one rate for every pair, its grid's
    entry (0, 1), so it builds no n x n grid unless a log-likelihood is
    scored.
    """
    if n_samples < 1:
        raise ValueError("need at least one null sample")
    if statistic not in STATISTICS:
        raise ValueError(
            f"unknown statistic {statistic!r}; valid: {', '.join(STATISTICS)}"
        )
    if null not in NULL_KINDS:
        raise ValueError(f"unknown null kind {null!r}; valid: {', '.join(NULL_KINDS)}")

    dist = EdgeDistribution("poisson")
    if null == "poisson_er":
        vectors = draw_vectors(fit_poisson_er(g), seed)
    elif x is None:
        raise ValueError("dot_product null requires embedding vectors")
    else:
        vectors = _node_vectors(x, g)
    grid = None
    if null == "dot_product" or statistic == "log_likelihood":
        grid = dot_product_grid(vectors)
    if null == "dot_product":
        upper, rates = _pair_parameters(dist, grid, clamp=True)
    else:
        upper, rates = _upper_mask(g.n), dist.clamp(dot_product_grid(vectors[:2])[0, 1])

    def score(graph: WeightedGraph) -> float:
        if statistic == "avg_weighted_clustering":
            return weighted_clustering(graph)[1]
        if statistic == "total_weight":
            return total_weight(graph)
        return log_likelihood(dist, grid, graph, clamp=True)

    observed = score(g)
    samples = [score(_sample_pairs(dist, rates, upper, derive_seed(seed, i)))
               for i in range(n_samples)]
    return NullEnsembleReport(
        statistic=statistic,
        observed=observed,
        samples=tuple(samples),
        seed=seed,
        null_kind=null,
    )
