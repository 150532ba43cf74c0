"""Inverse problem: fit latent vectors to an observed weighted network.

Minimizes the off-diagonal Frobenius discrepancy between X X^T and the
adjacency matrix by alternating a rank-d PSD eigentruncation with a
diagonal update (the free quantity in the fixed point iteration).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph
from .specialize import _eigentruncate, canonical_orientation


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
        return _eigentruncate(a_hat, d)[0], "dense"
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
        return _eigentruncate(a_hat, d)[0], "arpack+dense-fallback"
    # eigvals is ascending. An eigenvalue of the rest above the smallest one
    # found, and above zero, where the clip makes ties harmless, was missed.
    if rest_top > max(eigvals[0], 0.0) + 1e-9 * np.abs(eigvals).max():
        return _eigentruncate(a_hat, d)[0], "arpack+dense-fallback"
    eigvals = np.clip(eigvals[::-1], 0.0, None)
    return eigvecs[:, ::-1] * np.sqrt(eigvals), "arpack"


# Anderson acceleration of the diagonal map (Walker & Ni 2011, "Anderson
# acceleration for fixed-point iterations", SIAM J. Numer. Anal. 49).
# Depth m of the history: over d = 2..8 on the 19 three-block n = 150 graphs
# of the sweep-150 benchmark the solves took 3236 iterations in all at m = 3,
# 2565 at m = 5 and 2556 at m = 8 (9362 without acceleration).
_ANDERSON_DEPTH = 5
# Largest accelerated step as a multiple of the plain step. Some graphs have
# no minimizer: the residual keeps falling as a diagonal entry grows without
# bound (edges 1-3 and 2-3 plus an isolated node, at d = 1). Unbounded steps
# race along that ray and meet the stopping rule at a point that rounding
# picks, so relabelling the nodes changed the Gram matrix; bounded steps
# leave the solve at the iteration cap, as without acceleration. On the
# sweep-150 graphs a bound of 10 left 3 of 133 solves at the cap and took
# 3408 iterations; 30 left none and took 2565.
_ANDERSON_MAX_STEP = 30.0
# Singular values of the residual differences below this share of the
# largest are dropped from the least-squares solve. Symmetric or isolated
# nodes make the differences rank-deficient, and rounding noise in the null
# directions otherwise steers the step: on the graph above, over all 24 node
# orders, the Gram matrices at the cap differed by up to 29 % of their
# largest entry, and by 1.4 % with this cutoff.
_ANDERSON_RCOND = 1e-10
# Near the fixed point the residual is flat to second order and rounding
# moves it by about 1e-14 of its size, so a rise smaller than this share of
# it is noise, not ascent; rejecting on it made the dense and ARPACK paths
# take different numbers of steps on the same graph.
_DESCENT_SLACK = 1e-12


def embed(g: WeightedGraph, d: int, config: SolverConfig | None = None) -> Embedding:
    """Iteratively factor the adjacency matrix at rank d.

    Each step eigentruncates the diagonal-completed matrix A + diag(delta)
    to the best rank-d PSD approximation X X^T (Scheinerman & Tucker 2010);
    the plain fixed point map sends delta to g(delta), the squared row norms
    of X. Anderson acceleration keeps the plain steps f = g(delta) - delta
    and images g of the last few accepted points, solves a small least-
    squares problem on their differences and proposes the mixed diagonal;
    with an empty history the step is the plain one. Two safeguards keep it
    a descent method: an accelerated step is at most _ANDERSON_MAX_STEP
    times as long as the plain step |f|, and its point is accepted only if
    its residual is no higher than the last accepted one (up to a rounding
    slack of _DESCENT_SLACK of it). Otherwise the history is cleared and the
    plain step is taken from the last accepted point, whose image is known.

    ``iterations`` counts every eigensolve, rejected steps included, so
    ``max_iterations`` caps eigensolves. ``residual_history`` holds the
    residuals of accepted points only, and so does not rise. Convergence is
    declared at an accepted point whose plain step |f| is below the
    tolerance; on hitting the iteration cap the best X seen so far is
    returned with converged=False.
    """
    if config is None:
        config = SolverConfig()
    n = g.n
    if not 1 <= d <= n:
        raise ValueError(f"embedding dimension d={d} outside [1, {n}]")
    if config.diagonal_init == "degree-mean":
        trial = g.weights.sum(axis=1) / max(n - 1, 1)
    else:
        trial = np.zeros(n)
    a_hat = g.weights.copy()

    eigensolver = None
    best_x = None
    best_res = np.inf
    history = []
    converged = False
    # The last accepted point: its diagonal, factor, residual, image g and
    # plain step f = g - diagonal; and the differences of f and g between
    # consecutive accepted points, newest last.
    diag = x = res = image = step = None
    d_steps = deque(maxlen=_ANDERSON_DEPTH)
    d_images = deque(maxlen=_ANDERSON_DEPTH)
    accelerated = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        np.fill_diagonal(a_hat, trial)
        trial_x, solver = _truncated_factor(a_hat, d, x)
        # One fallback marks the whole solve.
        if eigensolver != "arpack+dense-fallback":
            eigensolver = solver
        trial_res = residual(g, trial_x)
        if accelerated and trial_res > res * (1.0 + _DESCENT_SLACK):
            d_steps.clear()
            d_images.clear()
            trial, accelerated = image, False
            continue
        trial_image = np.einsum("ij,ij->i", trial_x, trial_x)
        trial_step = trial_image - trial
        if diag is not None:
            d_steps.append(trial_step - step)
            d_images.append(trial_image - image)
        diag, x, res, image, step = trial, trial_x, trial_res, trial_image, trial_step
        history.append(res)
        if res < best_res:
            best_res = res
            best_x = x
        change = np.linalg.norm(step)
        if change < config.tolerance:
            converged = True
            break
        trial, accelerated = image, bool(d_steps)
        if accelerated:
            gamma = np.linalg.lstsq(np.column_stack(d_steps), step, rcond=_ANDERSON_RCOND)[0]
            trial = image - np.column_stack(d_images) @ gamma
            reach = np.linalg.norm(trial - diag) / (_ANDERSON_MAX_STEP * change)
            if reach > 1.0:
                trial = diag + (trial - diag) / reach

    return Embedding(
        X=canonical_orientation(best_x),
        d=d,
        residual=best_res,
        iterations=iterations,
        converged=converged,
        eigensolver=eigensolver,
        residual_history=tuple(history),
    )
