"""Classical edge-parametrized models realized as dot-product latent models.

Covers diagonal completion of a prescribed off-diagonal parameter matrix,
symmetric PSD factorization, and constructors for Erdos-Renyi, stochastic
block, and Chung-Lu models under either shipped weight family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MAX_NODES, WeightedGraph, _require_finite, _symmetrize, total_weight
from .model import (
    Constant,
    DomainError,
    EdgeDistribution,
    FiniteSupport,
    LatentModel,
    Ray,
    _dimension,
    _integer,
)


class NotPSDError(ValueError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


def complete_diagonal(m) -> np.ndarray:
    """Complete the diagonal of the square symmetric m (its diagonal ignored,
    its entries possibly negative) so that the matrix is positive definite.

    Each diagonal entry is the absolute off-diagonal row sum plus 1, which
    forces strict diagonal dominance and hence all eigenvalues >= 1 by the
    Gershgorin disc argument.
    """
    out = np.array(m, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected square matrix, got shape {out.shape}")
    _require_finite(out, "entries")
    np.fill_diagonal(out, 0.0)
    if _symmetrize(out) is not None:
        raise ValueError("off-diagonal entries must be symmetric")
    np.fill_diagonal(out, np.abs(out).sum(axis=1) + 1.0)
    return out


def canonical_orientation(x: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's first nonzero entry is nonnegative.

    The factor X is only determined up to orthogonal maps; this fixes a
    deterministic representative for tests and serialized output. Entries up
    to 1e-12 of the column's largest |entry| count as zero, at every scale.
    """
    x = x.copy()
    for c in range(x.shape[1]):
        col = x[:, c]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if len(nz) and col[nz[0]] < 0:
            x[:, c] = -col
    return x


def _eigentruncate(m: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """Best rank-d PSD approximation X X^T of the symmetric matrix m.

    Returns X, whose columns are the top d eigenvectors scaled by the square
    roots of their eigenvalues (negative ones clipped to zero) in descending
    order, and the smallest eigenvalue of m before clipping.
    """
    eigvals, eigvecs = np.linalg.eigh(m)
    lowest = eigvals[0]
    eigvals = np.clip(eigvals, 0.0, None)
    order = np.argsort(eigvals)[::-1][:d]
    return eigvecs[:, order] * np.sqrt(eigvals[order]), lowest


def factor_psd(m: np.ndarray) -> np.ndarray:
    """Factor a symmetric PSD matrix as X X^T: its eigenvectors, scaled by the
    square roots of their eigenvalues, in descending order and canonically
    oriented. Eigenvalues in (-tol, 0), with tol = 1e-9 ||m||_F, are clamped
    to zero; anything below -tol is an error, at every scale of m. ||m||_F is
    taken as max |m| times the norm of m / max |m|, which stays finite past
    1e154.
    """
    m = np.asarray(m, dtype=float)
    big = np.abs(m).max()
    tol = 1e-9 * big * np.linalg.norm(m / big) if big else 0.0
    x, lowest = _eigentruncate(m, m.shape[0])
    if lowest < -tol:
        raise NotPSDError(
            f"matrix is not PSD within tolerance: min eigenvalue {lowest:g}"
        )
    return canonical_orientation(x)


def make_er(
    n: int, family: str = "poisson", theta: float = 1.0, d: int = 1
) -> LatentModel:
    """Erdos-Renyi style model: one constant vector with squared norm theta."""
    d = _dimension(d)
    dist = EdgeDistribution(family)
    if not np.isfinite(theta) or dist.domain_violations(np.array([theta])).any():
        raise DomainError(f"ER parameter {theta} is outside the {family} domain")
    v = np.zeros(d)
    v[0] = np.sqrt(theta)
    return LatentModel(dist, n, Constant(v))


def _poisson_er_rate(g: WeightedGraph) -> float:
    """The MLE rate total/C(n,2) of the Poisson Erdos-Renyi model of g."""
    if g.n < 2:
        raise ValueError("need at least 2 nodes to fit an edge-rate model")
    return total_weight(g) / (g.n * (g.n - 1) // 2)


def fit_poisson_er(g: WeightedGraph) -> LatentModel:
    """Poisson Erdos-Renyi model of g: the constant vector sqrt(theta), with
    theta the MLE rate. Sampled, its grid reads theta back as fl(sqrt(theta))^2."""
    return make_er(g.n, "poisson", _poisson_er_rate(g))


@dataclass(frozen=True, eq=False)
class BlockModelSpec:
    """b x b symmetric parameter matrix plus per-community sizes."""

    B: np.ndarray
    community_sizes: tuple[int, ...]

    def __post_init__(self):
        b_mat = np.atleast_2d(np.array(self.B, dtype=float))
        if b_mat.ndim != 2 or b_mat.shape[0] != b_mat.shape[1]:
            raise ValueError(f"B must be square, got shape {b_mat.shape}")
        _require_finite(b_mat, "B")
        if _symmetrize(b_mat) is not None:
            raise ValueError("B must be symmetric")
        sizes = tuple(_integer(z, "a community size") for z in self.community_sizes)
        if len(sizes) != b_mat.shape[0]:
            raise ValueError("one size per community required")
        if any(z <= 0 for z in sizes):
            raise ValueError("community sizes must be positive")
        if sum(sizes) > MAX_NODES:
            raise ValueError(f"community sizes sum to {sum(sizes)}, "
                             f"past the limit of {MAX_NODES} nodes")
        b_mat.setflags(write=False)
        object.__setattr__(self, "B", b_mat)
        object.__setattr__(self, "community_sizes", sizes)

    @property
    def b(self) -> int:
        return self.B.shape[0]

    @property
    def n(self) -> int:
        return sum(self.community_sizes)

    def assignment(self) -> np.ndarray:
        return np.repeat(np.arange(self.b), self.community_sizes)


def make_sbm(
    spec: BlockModelSpec,
    family: str = "poisson",
    magnitude_normalization: bool = False,
) -> LatentModel:
    """Block model as a finite-support latent model.

    With magnitude normalization on, the diagonal of B is replaced by
    n * (row sum of B) before factoring, giving every community vector a
    comparable magnitude; otherwise B itself must be PSD. Off-diagonal
    grid entries between distinct communities equal B exactly either way.
    """
    dist = EdgeDistribution(family)
    if dist.domain_violations(spec.B).any():
        raise DomainError(f"block parameters outside the {family} domain")
    b_mat = spec.B.copy()
    if magnitude_normalization:
        np.fill_diagonal(b_mat, spec.n * spec.B.sum(axis=1))
    x = factor_psd(b_mat)
    probs = np.asarray(spec.community_sizes, dtype=float) / spec.n
    src = FiniteSupport(x, probs, assignment=spec.assignment())
    return LatentModel(dist, spec.n, src)


@dataclass(frozen=True, eq=False)
class ChungLuSpec:
    """Per-node expected-strength weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        _require_finite(w, "weights")
        if np.any(w <= 0):
            raise ValueError("Chung-Lu weights must be positive")
        # make_chung_lu divides by the sum: no weights, or subnormal ones,
        # overflow its reciprocal.
        with np.errstate(over="ignore", divide="ignore"):
            if not np.isfinite(w.sum()) or not np.isfinite(1.0 / w.sum()):
                raise ValueError("Chung-Lu weights must have a finite sum with a "
                                 f"finite reciprocal, got sum {w.sum():g}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def make_chung_lu(
    spec: ChungLuSpec, family: str = "bernoulli", d: int = 1
) -> LatentModel:
    """Chung-Lu model: node j gets w_j X0 with ||X0||^2 = 1/sum(w).

    Grid entry (j,l) is then w_j w_l / sum(w), the Chung-Lu edge parameter.
    """
    d = _dimension(d)
    w = spec.weights
    w_sum = w.sum()
    if family == "bernoulli":
        top_two = np.sort(w)[-2:]
        worst = top_two[0] * top_two[1] / w_sum
        if worst >= 1:
            raise DomainError(
                f"max edge probability {worst:g} >= 1; weights too large for Bernoulli"
            )
    x0 = np.zeros(d)
    x0[0] = np.sqrt(1.0 / w_sum)
    return LatentModel(EdgeDistribution(family), spec.n, Ray(x0, magnitudes=w))
