"""Geometry-based community detection and dimension selection.

Clusters embedded nodes by direction (angular k-means on unit-normalized
rows), measures partition quality with a stress function built from intra-
and inter-community dot products, and selects the embedding dimension by
sweeping d and minimizing the stress.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

import numpy as np

from .embedding import Embedding, SolverConfig, _shared_start, embed
from .graph import WeightedGraph
from .model import KMEANS_RESTART, SWEEP_DIMENSION, derive_seed

_KMEANS_MAX_ITER = 100  # Lloyd steps per restart
_KMEANS_RESTARTS = 10


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of n nodes to k communities."""

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if a.ndim != 1 or np.any(a < 0) or np.any(a >= self.k):
            raise ValueError("assignment entries must lie in [0, k)")
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the finite x, also where its squares overflow.

    Rows of an embedding of weights near the float maximum are near the root
    of it, so their squared norms overflow; np.hypot takes those rows.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    big = np.isinf(norms)
    if big.any():
        norms[big] = np.hypot.reduce(x[big], axis=1)
    return norms


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalize rows; zero rows stay zero. Returns (normalized, nonzero mask)."""
    norms = _row_norms(x)
    nonzero = norms > 0
    out = np.zeros_like(x, dtype=float)
    out[nonzero] = x[nonzero] / norms[nonzero, None]
    return out, nonzero


def _farthest_point_init(
    xn: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """First center random, the rest greedily minimax on cosine similarity."""
    n = xn.shape[0]
    centers = [int(rng.integers(n))]
    max_sim = xn @ xn[centers[0]]
    for _ in range(1, k):
        cand = int(np.argmin(max_sim))
        centers.append(cand)
        max_sim = np.maximum(max_sim, xn @ xn[cand])
    return xn[centers].copy()


def _community_sums(x: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """Each of the k communities' sum of x's rows, added in row order from 0.0."""
    return np.stack([np.bincount(assignment, weights=col, minlength=k) for col in x.T], axis=1)


def _lloyd_spherical(
    xn: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    k = centroids.shape[0]
    assignment = np.full(xn.shape[0], -1)
    for _ in range(_KMEANS_MAX_ITER):
        sims = xn @ centroids.T
        new_assignment = np.argmax(sims, axis=1)
        # Re-seed each empty cluster with the point farthest from its
        # centroid, among points whose cluster keeps another member. A moved
        # point is then a singleton, so no later move takes it. Some cluster
        # holds two points whenever one is empty, since n >= k.
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
        # Summed in row order and divided by the sizes, as mean() does; the
        # batched 1 x d @ d x 1 products are the dot of np.linalg.norm, so each
        # centroid is the one a per-cluster mean and norm give, bit for bit.
        means = _community_sums(xn, assignment, k)
        means /= sizes[:, None]
        norms = np.sqrt((means[:, None, :] @ means[:, :, None]).ravel())
        moved = norms > 0
        centroids[moved] = means[moved] / norms[moved, None]
    objective = float((xn * centroids[assignment]).sum())
    return assignment, centroids, objective


def angular_kmeans(x: np.ndarray, k: int, seed: int = 0) -> Partition:
    """Cluster rows of x by direction, maximizing within-cluster cosine similarity.

    Rows are unit-normalized first; zero rows are excluded from the fit and
    then attached to the cluster whose centroid best matches a fixed
    tie-break direction. The best of ``_KMEANS_RESTARTS`` farthest-point
    starts is kept. Deterministic given the seed.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    xn, nonzero = _normalize_rows(x)
    if not nonzero.any():
        raise ValueError("angular k-means needs at least one nonzero row")
    if k == 1:
        return Partition(np.zeros(n, dtype=int), 1)
    active = xn[nonzero]
    if active.shape[0] < k:
        raise ValueError(f"only {active.shape[0]} nonzero rows for k={k}")

    best = None
    for r in range(_KMEANS_RESTARTS):
        rng = np.random.default_rng(derive_seed(seed, KMEANS_RESTART, r))
        centroids = _farthest_point_init(active, k, rng)
        assignment, centroids, objective = _lloyd_spherical(active, centroids)
        if best is None or objective > best[2]:
            best = (assignment, centroids, objective)

    assignment, centroids, _ = best
    full = np.zeros(n, dtype=int)
    full[nonzero] = assignment
    if not nonzero.all():
        tiebreak = np.ones(x.shape[1]) / np.sqrt(x.shape[1])
        full[~nonzero] = int(np.argmax(centroids @ tiebreak))
    return Partition(full, k)


def stress(x: np.ndarray, p: Partition, normalize_rows: bool = True) -> float:
    """Partition stress: sum C(z_c,2) - (intra dot sum) + (inter dot sum).

    The dot sums run over node pairs i < j, in O(n*d) time and memory: with
    S_c the vector sum of community c and T the sum of all rows, all pairs
    sum to (|T|^2 - sum |x_i|^2) / 2 and the intra pairs to
    (sum |S_c|^2 - sum |x_i|^2) / 2, and the stress is
    sum C(z_c,2) + (all pairs) - 2 (intra pairs). Computed on unit-normalized
    rows by default, so a perfectly orthogonal community structure with
    aligned members scores exactly zero.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if p.n != x.shape[0]:
        raise ValueError("partition does not cover the rows of x")
    xn = _normalize_rows(x)[0] if normalize_rows else x
    sums = _community_sums(xn, p.assignment, p.k)
    total = sums.sum(axis=0)
    ideal = sum(comb(int(z), 2) for z in p.sizes)
    # Raw rows near sqrt of the float maximum overflow the dot sums; the
    # stress is then not finite, and the caller decides what that means.
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.vdot(xn, xn)
        pairs = 0.5 * (total @ total - squares)
        intra = 0.5 * (np.vdot(sums, sums) - squares)
        return float(ideal + pairs - 2 * intra)


def centrality(x: np.ndarray) -> np.ndarray:
    """Vector magnitude per node; larger magnitudes mark more central nodes."""
    return _row_norms(np.atleast_2d(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class StressRecord:
    d: int
    stress: float
    penalized_stress: Optional[float]
    partition: Partition
    embedding: Embedding


@dataclass(frozen=True)
class StressReport:
    records: tuple[StressRecord, ...]
    selected_d: int

    def record_for(self, d: int) -> StressRecord:
        for rec in self.records:
            if rec.d == d:
                return rec
        raise KeyError(f"no record for d={d}")

    @property
    def selected(self) -> StressRecord:
        return self.record_for(self.selected_d)


def dimension_sweep(
    g: WeightedGraph,
    d_values: Iterable[int],
    config: SolverConfig | None = None,
    seed: int = 0,
    penalty: tuple[float, float] | None = None,
) -> StressReport:
    """Embed, cluster (k=d), and score every dimension; pick the stress argmin.

    The sweep scores partitions on raw dot products: on weighted block
    models the normalized variant systematically under-selects (the
    squeezed low-d geometry keeps inter-community cosines cheap), while the
    raw stress pays the full inter-community weight.

    With ``penalty = (lam1, lam2)``, two finite nonnegative weights checked
    before the first embedding, each record also holds the penalized stress
    lam1 * stress + lam2 * residual, with the fit's ``Embedding.residual``,
    and the argmin is taken over it. Each partition is scored once.

    Each dimension clusters with its own seed, derive_seed(seed,
    SWEEP_DIMENSION, d), so sweep entries are independent; ties in the
    argmin go to the smallest d. Every record equals embed(g, d) and its
    clustering run alone: the dimensions whose start is a full
    eigendecomposition share one, taken at the sweep's largest d, and each
    Lanczos start is computed for its own d.
    """
    ds = sorted(set(int(d) for d in d_values))
    if not ds:
        raise ValueError("empty dimension range")
    if penalty is not None:
        lam1, lam2 = penalty
        if not (0 <= lam1 < np.inf and 0 <= lam2 < np.inf):
            raise ValueError(f"penalty weights must be finite and nonnegative, got {lam1}, {lam2}")
    records = []
    start = _shared_start(g, ds[-1])
    for d in ds:
        emb = embed(g, d, config, _start=start)
        part = angular_kmeans(emb.X, k=d, seed=derive_seed(seed, SWEEP_DIMENSION, d))
        s = stress(emb.X, part, normalize_rows=False)
        sf = None if penalty is None else lam1 * s + lam2 * emb.residual
        records.append(
            StressRecord(d=d, stress=s, penalized_stress=sf, partition=part, embedding=emb)
        )
    key = (lambda r: r.stress) if penalty is None else (lambda r: r.penalized_stress)
    return StressReport(records=tuple(records), selected_d=min(records, key=key).d)
