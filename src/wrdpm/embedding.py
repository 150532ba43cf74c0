"""Inverse problem: fit latent vectors to an observed weighted network.

Minimizes the off-diagonal Frobenius discrepancy between X X^T and the
adjacency matrix by alternating a rank-d PSD eigentruncation with a
diagonal update (the free quantity in the fixed point iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph
from .specialize import canonical_orientation


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 500
    tolerance: float = 1e-8
    diagonal_init: str = "degree-mean"  # or "zeros"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.diagonal_init not in ("degree-mean", "zeros"):
            raise ValueError(f"unknown diagonal_init {self.diagonal_init!r}")


@dataclass(frozen=True)
class Embedding:
    """n x d latent vectors with the fit diagnostics of the solve."""

    X: np.ndarray
    d: int
    residual: float
    iterations: int
    converged: bool
    # "dense", "arpack", or "arpack+dense-fallback" when ARPACK failed or
    # missed an eigenvalue on some iteration and a full eigh stood in.
    eigensolver: str
    residual_history: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "X", x)


def residual(g: WeightedGraph, x: np.ndarray) -> float:
    """Off-diagonal Frobenius error between X X^T and the adjacency matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != g.n:
        raise ValueError(f"X has {x.shape[0]} rows for an {g.n}-node graph")
    diff = x @ x.T - g.weights
    np.fill_diagonal(diff, 0.0)
    return float(np.linalg.norm(diff))


# Crossover measured per solve with one OpenBLAS thread on a 2-vCPU x86 VM:
# ARPACK loses to a full eigh at n = 150 (4.7 vs 3.6 ms) and at d = n / 16
# (192 vs 168 ms at n = 800), and wins at n = 256, d = 8 and at d = n / 32.
_ARPACK_MIN_N = 256
_ARPACK_MAX_D_SHARE = 32


def _dense_factor(a_hat: np.ndarray, d: int) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(a_hat)
    eigvals = np.clip(eigvals, 0.0, None)
    order = np.argsort(eigvals)[::-1][:d]
    return eigvecs[:, order] * np.sqrt(eigvals[order])


def _truncated_factor(
    a_hat: np.ndarray, d: int, prev_x: np.ndarray | None
) -> tuple[np.ndarray, str]:
    """Best rank-d PSD factor of a_hat, and the eigensolver that produced it.

    Large matrices need only their top d eigenpairs: implicitly restarted
    Lanczos (ARPACK), started from the row sums of the previous iterate so
    that it converges in few restarts and stays a pure function of its
    input. A single-vector Krylov space holds one vector per eigenspace, so
    ARPACK can report convergence while missing copies of a repeated
    eigenvalue; a Lanczos run on a_hat with the found eigenvectors projected
    out finds any such copy. If ARPACK fails or missed an eigenvalue, the
    full eigendecomposition stands in. The label is "dense", "arpack" or
    "arpack+dense-fallback".
    """
    n = a_hat.shape[0]
    if n < _ARPACK_MIN_N or d > n // _ARPACK_MAX_D_SHARE:
        return _dense_factor(a_hat, d), "dense"
    # Imported here: a module-level import costs every small run start-up
    # time and memory.
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    # ARPACK draws a new start vector when its Krylov space becomes invariant;
    # a fixed generator keeps that draw, and so X, a function of a_hat alone.
    rng = np.random.default_rng(0)
    v0 = np.ones(n) if prev_x is None else prev_x.sum(axis=1)
    try:
        eigvals, eigvecs = eigsh(a_hat, k=d, which="LA", tol=0, v0=v0, rng=rng)

        def deflated(v):
            v = a_hat @ (v - eigvecs @ (eigvecs.T @ v))
            return v - eigvecs @ (eigvecs.T @ v)

        # Ritz values never exceed the top eigenvalue, so a loose tolerance
        # cannot report a miss that is not there.
        rest_top = eigsh(
            LinearOperator((n, n), matvec=deflated, dtype=float), k=1, which="LA",
            tol=0.1, v0=rng.standard_normal(n), rng=rng, return_eigenvectors=False,
        )[0]
    except ArpackError:
        return _dense_factor(a_hat, d), "arpack+dense-fallback"
    # eigvals is ascending. An eigenvalue of the rest above the smallest one
    # found, and above zero, where the clip makes ties harmless, was missed.
    if rest_top > max(eigvals[0], 0.0) + 1e-9 * np.abs(eigvals).max():
        return _dense_factor(a_hat, d), "arpack+dense-fallback"
    eigvals = np.clip(eigvals[::-1], 0.0, None)
    return eigvecs[:, ::-1] * np.sqrt(eigvals), "arpack"


def embed(g: WeightedGraph, d: int, config: SolverConfig | None = None) -> Embedding:
    """Iteratively factor the adjacency matrix at rank d.

    Each step eigentruncates the diagonal-completed matrix to the best
    rank-d PSD approximation, then feeds the resulting diagonal back in.
    Convergence is declared when the diagonal stops moving; on hitting the
    iteration cap the best X seen so far is returned with converged=False.
    """
    if config is None:
        config = SolverConfig()
    n = g.n
    if not 1 <= d <= n:
        raise ValueError(f"embedding dimension d={d} outside [1, {n}]")
    a_hat = g.weights.copy()
    if config.diagonal_init == "degree-mean":
        diag = g.weights.sum(axis=1) / max(n - 1, 1)
    else:
        diag = np.zeros(n)
    np.fill_diagonal(a_hat, diag)

    x = None
    eigensolver = None
    best_x = None
    best_res = np.inf
    history = []
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        x, solver = _truncated_factor(a_hat, d, x)
        # One fallback marks the whole solve.
        if eigensolver != "arpack+dense-fallback":
            eigensolver = solver
        res = residual(g, x)
        history.append(res)
        if res < best_res:
            best_res = res
            best_x = x
        new_diag = np.einsum("ij,ij->i", x, x)
        change = np.linalg.norm(new_diag - np.diag(a_hat))
        np.fill_diagonal(a_hat, new_diag)
        if change < config.tolerance:
            converged = True
            break

    return Embedding(
        X=canonical_orientation(best_x),
        d=d,
        residual=best_res,
        iterations=iterations,
        converged=converged,
        eigensolver=eigensolver,
        residual_history=tuple(history),
    )
