"""Inverse problem: fit latent vectors to an observed weighted network.

Minimizes the off-diagonal discrepancy ||offdiag(X X^T - A)||_F^2 over X by
L-BFGS (Liu & Nocedal 1989), from one eigentruncation, as Fiori et al. fit
random dot product graphs by gradient descent with the diagonal masked out
(IEEE TSIPN 2024). L-BFGS runs on the column-scaled Z = X diag(s), as
scaled gradient descent preconditions the same fit (Tong, Ma & Chi, JMLR
2021).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph, _scaled
from .specialize import _eigentruncate, canonical_orientation


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 500
    # Largest gradient norm of a converged X, relative to ||A||_F ||X||_F.
    tolerance: float = 1e-7

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")


@dataclass(frozen=True, eq=False)
class Embedding:
    """n x d latent vectors with the fit diagnostics of the solve."""

    X: np.ndarray
    stop_reason: str  # "tolerance" when converged, or "no-minimiser", "cap", "stalled"
    residual_history: tuple[float, ...] = field(repr=False)

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "X", x)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def residual(self) -> float:
        return self.residual_history[-1]

    @property
    def iterations(self) -> int:  # one residual at the start and one per step
        return len(self.residual_history) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"


# Crossover measured per solve with one OpenBLAS thread on a 2-vCPU x86 VM:
# ARPACK loses to a full eigh at n = 150 (4.7 vs 3.6 ms) and at d = n / 16
# (192 vs 168 ms at n = 800), and wins at n = 256, d = 8 and at d = n / 32.
_ARPACK_MIN_N = 256
_ARPACK_MAX_D_SHARE = 32


def _takes_eigh(n: int, d: int) -> bool:
    """Whether a rank-d factor of an n x n matrix comes from a full eigh."""
    return n < _ARPACK_MIN_N or d > n // _ARPACK_MAX_D_SHARE


def _truncated_factor(dense, product, n: int, d: int) -> np.ndarray:
    """Best rank-d PSD factor of the symmetric matrix ``dense()`` builds.

    Large ones need only their top d eigenpairs, from ARPACK on ``product``.
    One Krylov space holds one vector per eigenspace, so ARPACK can miss a
    copy of a repeated eigenvalue; a Lanczos run with the found eigenvectors
    projected out finds it, and then, or if ARPACK fails, eigh stands in.
    """
    if _takes_eigh(n, d):
        return _eigentruncate(dense(), d)[0]
    # Imported here: a module-level import costs every small run start-up
    # time and memory.
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    # ARPACK draws a new start vector when its Krylov space becomes invariant;
    # a fixed generator keeps that draw, and so X, a function of the matrix.
    rng = np.random.default_rng(0)
    op = LinearOperator((n, n), matvec=product, matmat=product, dtype=float)
    try:
        eigvals, eigvecs = eigsh(op, k=d, which="LA", tol=0, v0=np.ones(n), rng=rng)

        def deflated(v):
            v = product(v - eigvecs @ (eigvecs.T @ v))
            return v - eigvecs @ (eigvecs.T @ v)

        # Ritz values never exceed the top eigenvalue, so a loose tolerance
        # cannot report a miss that is not there.
        rest_top = eigsh(
            LinearOperator((n, n), matvec=deflated, dtype=float), k=1, which="LA",
            tol=0.1, v0=rng.standard_normal(n), rng=rng, return_eigenvectors=False,
        )[0]
    except ArpackError:
        return _eigentruncate(dense(), d)[0]
    # eigvals is ascending. An eigenvalue of the rest above the smallest one
    # found, and above zero, where the clip makes ties harmless, was missed.
    if rest_top > max(eigvals[0], 0.0) + 1e-9 * np.abs(eigvals).max():
        return _eigentruncate(dense(), d)[0]
    eigvals = np.clip(eigvals[::-1], 0.0, None)
    return eigvecs[:, ::-1] * np.sqrt(eigvals)


# Below this share of ||A||_F^2, f is summed from the n x n difference: the
# closed form's terms cancel to rounding noise near an exact fit. On cliques
# of 100, 100 and 60 nodes at d = 3 it ended at residual 2.6e-5, the sum at
# 1.5e-7.
_DIRECT_SHARE = 1e-3
# An unconverged solve whose largest squared row norm grew more than this
# factor over its second half (as fast as the step count) ran away, as where
# no minimizer exists: 2.4 to 3.1 on the star (edges 1-3, 2-3, d = 1) capped
# at 20 to 1000 steps, 1.18 at most on three Poisson blocks of 100 at d = 6.
_RUNAWAY = 2.0
# Squared singular values of X below this share of the largest are rounding
# (eigh returns a zero eigenvalue as about 1e-16 of the largest).
_NULL_SHARE = 1e-12
# L-BFGS memory: on Z, the 133 sweep-150 solves took 6276, 5859, 5495 and
# 5360 iterations with 3, 5, 8 and 10 pairs, in times within noise (0.9 to
# 1.2 s). Capped solves of a 10-node graph (d = 6, 7) end lowest with 10.
_MEMORY = 10
# Floor of the column scale s, as a share of its largest entry. A short
# column takes steps up to 1 / _FLOOR^2 times longer than the longest one.
# Full-rank fits of a 10-node graph (d = 8, 9, 10) hit the 500-step cap at a
# floor of 1e-3 (residual up to 0.56) and converge in 191 to 93 steps at 0.1
# and in 62 to 44 at 0.3. Of the 133 sweep-150 solves it binds on none at
# 0.4 and on some at 0.5 (5360 and 5479 iterations).
_FLOOR = 0.3


def _shared_start(g: WeightedGraph, d_max: int) -> np.ndarray | None:
    """One start factor for every d <= ``d_max`` whose start is a full eigh.

    _takes_eigh is monotone in d, so some d <= ``d_max`` takes a full eigh
    exactly when ``d_max`` does; the factor is then the eigentruncation at
    ``d_max``, else None. _eigentruncate orders the eigenpairs by one
    argsort, so its first d columns are the rank-d start bit for bit.
    """
    if not _takes_eigh(g.n, d_max):
        return None
    a, _, _, start = _scaled(g)
    return _eigentruncate(a + np.diag(start), d_max)[0]


def embed(g: WeightedGraph, d: int, config: SolverConfig | None = None, *,
          _start: np.ndarray | None = None) -> Embedding:
    """Fit n x d latent vectors X minimizing f = ||offdiag(X X^T - A)||_F^2.

    With r the squared row norms of X, f = ||X^T X||_F^2 - sum(r^2)
    - 2 tr(X^T A X) + ||A||_F^2 and grad f = 4 (X X^T X - A X - diag(r) X):
    O(n^2 d) and no n x n matrix, until f falls below _DIRECT_SHARE of
    ||A||_F^2 and is summed directly. The start is the rank-d eigentruncation
    of A + diag(degree mean). The fit runs on A / 4^m (4^m near
    max |A|) over its norm: the power of two is exact, so embed(4 A).X is
    2 embed(A).X bit for bit, and the norm makes the path scale-free. X is
    returned on its principal axes, canonically oriented.

    Each L-BFGS run works on Z = X diag(s), s the column norms of the X it
    starts from, floored at _FLOOR of the largest. That X is on its
    principal axes, so 1 / s is (X^T X)^(-1/2), the preconditioner of scaled
    gradient descent (Tong, Ma & Chi, arXiv:2005.08898): the step count does
    not grow with the spread of the start's eigenvalues. The stopping rule
    and the stop reasons read X and its gradient, not Z.

    Stop reasons: "tolerance" (converged) when |grad f| <= ``tolerance``
    ||A||_F ||X||_F, sqrt(_DIRECT_SHARE) times that where f is summed
    directly; for an unconverged solve, "no-minimiser" when its largest
    squared row norm grew _RUNAWAY-fold over the second half of its steps,
    else "cap" after ``max_iterations`` steps, or "stalled" when the line
    search found no lower f before that. A null column of X never moves
    under descent, so where f falls along it the column is filled, as one
    step. ``residual_history`` holds sqrt(f) at the start and after each
    step (L-BFGS iteration or fill), and never rises; ``iterations``, the
    step count, is its length - 1.

    ``_start`` is a factor from ``_shared_start``: where the start is a full
    eigh, its first d columns are the start, so that a sweep over d runs
    one eigendecomposition. ARPACK starts are computed per d.
    """
    if config is None:
        config = SolverConfig()
    n = g.n
    if not 1 <= d <= n:
        raise ValueError(f"embedding dimension d={d} outside [1, {n}]")
    # Imported here for the reason given in _truncated_factor.
    from scipy.optimize import minimize

    a, m, scale, start = _scaled(g)
    a_sq = np.einsum("ij,ij->", a, a)
    if _start is not None and _takes_eigh(n, d):
        x = _start[:, :d]
    else:
        x = _truncated_factor(lambda: a + np.diag(start),
                              lambda v: a @ v + (start * v.T).T, n, d)
    # A directly summed f is accurate to its own size, so the rounding floor
    # of the gradient falls with sqrt(f) there.
    tight = config.tolerance * np.sqrt(_DIRECT_SHARE)
    last, done = None, False  # last: (x, f, gradient, largest squared row norm)
    history, row_max = [], []  # one entry at the start and one per step

    def evaluate(flat):
        nonlocal last
        x = flat.reshape(n, d)
        ax, gram, r = a @ x, x.T @ x, np.einsum("ij,ij->i", x, x)
        f = np.einsum("ij,ij->", gram, gram) - r @ r - 2.0 * np.einsum("ij,ij->", x, ax) + a_sq
        if f >= _DIRECT_SHARE * a_sq:
            grad = x @ gram - ax - r[:, None] * x
        else:
            diff = x @ x.T - a
            np.fill_diagonal(diff, 0.0)
            f, grad = np.einsum("ij,ij->", diff, diff), diff @ x
        last = (flat.copy(), f, 4.0 * grad.ravel(), r.max())
        return last[1], last[2]

    def accept():
        """Take the last evaluation as the iterate x; set done if it converged."""
        nonlocal x, done
        flat, f, grad, r_max = last
        x = flat.reshape(n, d)
        history.append(f)
        row_max.append(r_max)
        tol = config.tolerance if f >= _DIRECT_SHARE * a_sq else tight
        done = np.linalg.norm(grad) <= tol * np.linalg.norm(flat)

    def evaluate_z(z):
        """f and its gradient at Z = X diag(s), for L-BFGS on Z."""
        f, grad = evaluate((z.reshape(n, d) / s).ravel())
        return f, (grad.reshape(n, d) / s).ravel()

    def step(intermediate_result):
        # L-BFGS evaluates each iterate it accepts last, so that is ``last``.
        accept()
        if done:
            raise StopIteration

    def fill():
        """Fill a null column of x along which f falls, as one step; False if none."""
        _, sing, vt = np.linalg.svd(x, full_matrices=False)
        null = sing**2 <= _NULL_SHARE * sing[0] ** 2
        if not null.any():
            return False
        # Along u in a null column on the principal axes, f(t) = f + 2 t u^T D u
        # + t^2 ||offdiag(u u^T)||^2 with t = eps^2 and D = offdiag(X X^T - A).
        y = x @ vt.T
        y[:, null] = 0.0
        r = np.einsum("ij,ij->i", y, y)
        u = _truncated_factor(lambda: a - y @ y.T + np.diag(r),
                              lambda v: a @ v + (r * v.T).T - y @ (y.T @ v), n, 1)
        lam = np.einsum("ij,ij->", u, u)
        if lam <= config.tolerance:
            return False
        y[:, np.argmax(null)] = u[:, 0] / np.sqrt(1.0 - np.sum(u**4) / lam**2)
        evaluate(y.ravel())
        accept()
        return True

    evaluate(x.ravel())
    accept()
    while len(history) - 1 < config.max_iterations:
        if fill():
            continue
        if done:
            break
        s = np.linalg.norm(x, axis=0)  # x is on its principal axes here
        s = np.maximum(s, _FLOOR * s.max())
        minimize(
            evaluate_z, (x * s).ravel(), jac=True, method="L-BFGS-B", callback=step,
            # maxfun never binds: an iteration makes at most maxls + 1 calls.
            options={"maxiter": config.max_iterations + 1 - len(history), "maxcor": _MEMORY,
                     "gtol": 0.0, "ftol": 0.0, "maxfun": 21 * config.max_iterations},
        )
        if not done:  # the cap, or a line search that found no lower f
            break

    # Adding 0.0 turns the -0.0 of rotated exact zeros into 0.0.
    x = canonical_orientation(x @ np.linalg.svd(x, full_matrices=False)[2].T) + 0.0
    # Scaled back, the vectors or the residual of weights near the float
    # maximum can pass it: no finite fit exists then.
    with np.errstate(over="ignore"):
        history = tuple(float(np.ldexp(np.sqrt(max(f, 0.0)) * scale, 2 * m)) for f in history)
        x = np.ldexp(x * np.sqrt(scale), m)
    if not (np.isfinite(x).all() and np.isfinite(history).all()):
        raise ValueError(f"the fit at d={d} overflows the float range: the latent vectors "
                         "or the residual of these weights pass the float maximum")
    reason = ("tolerance" if done else "no-minimiser"
              if row_max[-1] > _RUNAWAY * row_max[len(row_max) // 2]
              else "cap" if len(history) - 1 == config.max_iterations else "stalled")
    return Embedding(X=x, stop_reason=reason, residual_history=history)
