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

from .embedding import Embedding, SolverConfig, embed, residual
from .graph import WeightedGraph
from .model import derive_seed


@dataclass(frozen=True)
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


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalize rows; zero rows stay zero. Returns (normalized, nonzero mask)."""
    norms = np.linalg.norm(x, axis=1)
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


def _lloyd_spherical(
    xn: np.ndarray, centroids: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, float]:
    k = centroids.shape[0]
    assignment = np.full(xn.shape[0], -1)
    for _ in range(max_iter):
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
        for c in range(k):
            members = xn[assignment == c]
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0:
                centroids[c] = mean / norm
    objective = float((xn * centroids[assignment]).sum())
    return assignment, centroids, objective


def angular_kmeans(
    x: np.ndarray, k: int, seed: int = 0, max_iter: int = 100, restarts: int = 10
) -> Partition:
    """Cluster rows of x by direction, maximizing within-cluster cosine similarity.

    Rows are unit-normalized first; zero rows are excluded from the fit and
    then attached to the cluster whose centroid best matches a fixed
    tie-break direction. Deterministic given the seed.
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
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centroids = _farthest_point_init(active, k, rng)
        assignment, centroids, objective = _lloyd_spherical(
            active, centroids, max_iter
        )
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
    """Partition stress: sum C(z_i,2) - (intra dot sum) + (inter dot sum).

    Computed on unit-normalized rows by default, so a perfectly orthogonal
    community structure with aligned members scores exactly zero.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if p.n != x.shape[0]:
        raise ValueError("partition does not cover the rows of x")
    xn = _normalize_rows(x)[0] if normalize_rows else x
    gram = xn @ xn.T
    same = p.assignment[:, None] == p.assignment[None, :]
    iu, ju = np.triu_indices(x.shape[0], k=1)
    pair_dots = gram[iu, ju]
    pair_same = same[iu, ju]
    intra = float(pair_dots[pair_same].sum())
    inter = float(pair_dots[~pair_same].sum())
    ideal = sum(comb(int(z), 2) for z in p.sizes)
    return ideal - intra + inter


def stress_penalized(
    x: np.ndarray,
    p: Partition,
    g: WeightedGraph,
    lam1: float,
    lam2: float,
    normalize_rows: bool = True,
) -> float:
    """Stress plus a Frobenius fit penalty: lam1*s + lam2*residual."""
    if lam1 < 0 or lam2 < 0:
        raise ValueError("penalty weights must be nonnegative")
    return lam1 * stress(x, p, normalize_rows) + lam2 * residual(g, x)


def centrality(x: np.ndarray) -> np.ndarray:
    """Vector magnitude per node; larger magnitudes mark more central nodes."""
    return np.linalg.norm(np.atleast_2d(np.asarray(x, dtype=float)), axis=1)


@dataclass(frozen=True)
class StressRecord:
    d: int
    stress: float
    penalized_stress: Optional[float]
    partition: Partition
    residual: float
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
    penalized: bool = False,
    lam1: float = 1.0,
    lam2: float = 1.0,
    normalize_rows: bool = False,
) -> StressReport:
    """Embed, cluster (k=d), and score every dimension; pick the stress argmin.

    The sweep scores partitions on raw dot products by default: on weighted
    block models the normalized variant systematically under-selects (the
    squeezed low-d geometry keeps inter-community cosines cheap), while the
    raw stress pays the full inter-community weight.

    Each dimension clusters with its own seed, derive_seed(seed, d), so sweep
    entries are independent; ties in the argmin go to the smallest d.
    """
    ds = sorted(set(int(d) for d in d_values))
    if not ds:
        raise ValueError("empty dimension range")
    records = []
    for d in ds:
        emb = embed(g, d, config)
        part = angular_kmeans(emb.X, k=d, seed=derive_seed(seed, d))
        s = stress(emb.X, part, normalize_rows=normalize_rows)
        sf = (
            stress_penalized(emb.X, part, g, lam1, lam2, normalize_rows)
            if penalized
            else None
        )
        records.append(
            StressRecord(
                d=d,
                stress=s,
                penalized_stress=sf,
                partition=part,
                residual=emb.residual,
                embedding=emb,
            )
        )
    key = (lambda r: r.penalized_stress) if penalized else (lambda r: r.stress)
    best = records[0]
    for rec in records[1:]:
        if key(rec) < key(best):
            best = rec
    return StressReport(records=tuple(records), selected_d=best.d)
