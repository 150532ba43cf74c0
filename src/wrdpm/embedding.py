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

from .graph import WeightedGraph, _FitMatrix, _worker
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


# Crossover measured per start with one OpenBLAS thread on a 2-vCPU x86 VM,
# on 8-block Poisson graphs: the Lanczos start beats a full eigh at n = 256,
# d = 8 (1.8 vs 5.3 ms), ties it at d = n / 32 (81 vs 93 ms at n = 800, 0.56
# vs 0.55 s at n = 1500) and loses at d = n / 16 (167 vs 99 ms at n = 800).
# The bound on n was set for ARPACK, which lost at n = 150 (4.7 vs 3.6 ms).
# From `graph._SPLIT_MIN_N` nodes on the start's products run in two row
# halves at once and eigh runs whole. Re-measured so at d = n / 32 in
# another session: 0.55-0.58 vs 0.72-0.76 s at n = 1500 (0.65-0.70 s
# unsplit) and 0.25-0.28 vs 0.28-0.30 s at n = 1100 (0.27-0.29 s unsplit).
# The bounds are kept: eigh ran 30 % slower there than in the session above.
_LANCZOS_MIN_N = 256
_LANCZOS_MAX_D_SHARE = 32
# A Lanczos run stops when every wanted Ritz pair's residual bound is at most
# this share of the largest |Ritz value|. Over 147 starts (n = 400-1500,
# d = 2-12) 1e-3 sent two, at relative eigengaps of 2.9e-3 and 4.6e-3, to
# eigh, and 1e-4, 1e-6 and 1e-10 none, in 5685, 6680, 7815 and 9590
# products. A loose start leaves a gap a few times the tolerance unresolved,
# so 1e-6 keeps that to near-ties.
_LANCZOS_TOL = 1e-6
# A Lanczos run gives up, and eigh stands in, after n / this many steps: a
# step costs a product, and an eigh about n / 2 of them (0.55 s against
# 0.7 ms at n = 1500, 95 against 0.18 ms at n = 800). The top 46 of an
# 8-block Poisson graph at n = 1500 took 438 steps and 0.55 s, ARPACK 0.42 s.
_LANCZOS_STEP_SHARE = 2
# A Lanczos step whose new vector is below this share of the largest product
# has found an invariant subspace: two orthogonalization passes leave
# rounding of about 1e-16 there.
_VANISHED = 1e-12
# Ritz values are taken every _RITZ_EVERY steps, or every m / _RITZ_SHARE
# after m steps where that is more, and at a breakdown: an eigh of the
# m x m T costs about m^3, so a long run takes them less often.
_RITZ_EVERY = 5
_RITZ_SHARE = 8
_BASIS_ROWS = 16


def _takes_eigh(n: int, d: int) -> bool:
    """Whether a rank-d factor of an n x n matrix comes from a full eigh."""
    return n < _LANCZOS_MIN_N or d > n // _LANCZOS_MAX_D_SHARE


def _lanczos(product, v: np.ndarray, k: int, tol: float, rng: np.random.Generator):
    """Top k eigenpairs of the symmetric operator ``product`` by Lanczos from v.

    Lanczos with full reorthogonalization (Golub & Van Loan, Matrix
    Computations, 4th ed., section 10.1): each new vector is orthogonalized
    against the whole basis twice, so the Ritz pairs of the tridiagonal T
    are those of the basis. With beta the step's last coupling and s_i an
    eigenvector of T, |beta s_i[-1]| bounds the residual of the i-th Ritz
    pair; the run stops when the top k bounds are at most ``tol`` times the
    largest |Ritz value|. Where the Krylov space becomes invariant (beta
    vanishes) before that, the run goes on from a vector drawn from ``rng``,
    orthogonalized against the basis. The basis starts with room for
    _BASIS_ROWS vectors and doubles as it fills. Returns the k values,
    descending, and their n x k vectors, or None after n / _LANCZOS_STEP_SHARE
    steps.
    """
    n = len(v)
    basis, alphas, betas = np.empty((_BASIS_ROWS, n)), [], []
    scale = 0.0  # largest |product(q)| so far

    def orthogonalize(w, m):
        for _ in range(2):
            w -= basis[:m].T @ (basis[:m] @ w)
        return w

    q = v / np.linalg.norm(v)
    check = -(-k // _RITZ_EVERY) * _RITZ_EVERY  # the first multiple of _RITZ_EVERY >= k
    for m in range(1, n // _LANCZOS_STEP_SHARE + 1):
        if m > len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[m - 1] = q
        w = product(q)
        scale = max(scale, np.linalg.norm(w))
        alphas.append(q @ w)
        beta = np.linalg.norm(orthogonalize(w, m))
        vanished = beta <= _VANISHED * scale
        if m >= check or (vanished and m >= k):
            check = m + max(_RITZ_EVERY, m // _RITZ_SHARE)
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            theta, s = np.linalg.eigh(t)
            if (np.abs(beta * s[-1, -k:]) <= tol * np.abs(theta).max()).all():
                return theta[:-k - 1:-1], basis[:m].T @ s[:, :-k - 1:-1]
        if vanished:  # before k steps; after them a vanished beta passes the test above
            w = orthogonalize(rng.standard_normal(n), m)
            beta = 0.0
            q = w / np.linalg.norm(w)
        else:
            q = w / beta
        betas.append(beta)
    return None


def _truncated_factor(fit: _FitMatrix, c, d: int, y=None) -> np.ndarray:
    """Best rank-d PSD factor of A - y y^T + diag(c), A the matrix of ``fit``.

    Large ones need only their top d eigenpairs, from a Lanczos run on its
    products from the permutation-invariant ones / sqrt(n). One Krylov space
    holds one vector per eigenspace, so the run can miss a copy of a repeated
    eigenvalue; a second, loose run with the found eigenvectors projected out
    finds it, and then, or if a run does not converge, eigh stands in.
    """
    n = len(c)
    if _takes_eigh(n, d):
        return _eigentruncate(fit.dense(c, y), d)[0]

    def product(v):
        v_out = fit @ v + c * v
        return v_out if y is None else v_out - y @ (y.T @ v)

    # A fixed generator keeps the restarts' and the check's draws, and so X,
    # a function of the matrix.
    rng = np.random.default_rng(0)
    found = _lanczos(product, np.ones(n), d, _LANCZOS_TOL, rng)
    if found is None:
        return _eigentruncate(fit.dense(c, y), d)[0]
    eigvals, eigvecs = found

    def deflated(v):
        v = product(v - eigvecs @ (eigvecs.T @ v))
        return v - eigvecs @ (eigvecs.T @ v)

    # Ritz values never exceed the top eigenvalue, so a loose tolerance
    # cannot report a miss that is not there.
    rest = _lanczos(deflated, rng.standard_normal(n), 1, 0.1, rng)
    # An eigenvalue of the rest above the smallest one found, and above zero,
    # where the clip makes ties harmless, was missed.
    if rest is None or rest[0][0] > max(eigvals[-1], 0.0) + 1e-9 * np.abs(eigvals).max():
        return _eigentruncate(fit.dense(c, y), d)[0]
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


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
    fit = _FitMatrix(g)
    return _eigentruncate(fit.dense(fit.degree_mean), d_max)[0]


def embed(g: WeightedGraph, d: int, config: SolverConfig | None = None, *,
          _start: np.ndarray | None = None) -> Embedding:
    """Fit n x d latent vectors X minimizing f = ||offdiag(X X^T - A)||_F^2.

    With r the squared row norms of X, f = ||X^T X||_F^2 - sum(r^2)
    - 2 tr(X^T A X) + ||A||_F^2 and grad f = 4 (X X^T X - A X - diag(r) X):
    O(n^2 d) and no n x n matrix, until f falls below _DIRECT_SHARE of
    ||A||_F^2 and is summed directly. The start is the rank-d eigentruncation
    of A + diag(degree mean). The fit runs on A scaled by `graph._FitMatrix`,
    so embed(4 A).X is 2 embed(A).X bit for bit. From `graph._SPLIT_MIN_N`
    nodes on, its build and products take a second core through a worker
    thread that lives for this call; with one OpenBLAS thread, X has the
    bits of whole calls. X is returned on its principal axes, canonically
    oriented.

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
    one eigendecomposition. Lanczos starts are computed per d.
    """
    if config is None:
        config = SolverConfig()
    n = g.n
    if not 1 <= d <= n:
        raise ValueError(f"embedding dimension d={d} outside [1, {n}]")
    # Imported here: a module-level import costs every small run start-up
    # time and memory.
    from scipy.optimize import minimize

    with _worker(n) as worker:
        fit = _FitMatrix(g, worker)
        a_sq = fit.sq_norm
        if _start is not None and _takes_eigh(n, d):
            x = _start[:, :d]
        else:
            x = _truncated_factor(fit, fit.degree_mean, d)
        # A directly summed f is accurate to its own size, so the rounding floor
        # of the gradient falls with sqrt(f) there.
        tight = config.tolerance * np.sqrt(_DIRECT_SHARE)
        last, done = None, False  # last: (x, f, gradient, largest squared row norm)
        history, row_max = [], []  # one entry at the start and one per step

        def evaluate(flat):
            nonlocal last
            x = flat.reshape(n, d)
            ax, gram, r = fit @ x, x.T @ x, np.einsum("ij,ij->i", x, x)
            f = np.einsum("ij,ij->", gram, gram) - r @ r - 2.0 * np.einsum("ij,ij->", x, ax) + a_sq
            if f >= _DIRECT_SHARE * a_sq:
                grad = x @ gram - ax - r[:, None] * x
            else:
                diff = fit.offdiag_residual(x)
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
            u = _truncated_factor(fit, r, 1, y)
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
    x, history = fit.scaled_back(x, history)
    if not (np.isfinite(x).all() and np.isfinite(history).all()):
        raise ValueError(f"the fit at d={d} overflows the float range: the latent vectors "
                         "or the residual of these weights pass the float maximum")
    reason = ("tolerance" if done else "no-minimiser"
              if row_max[-1] > _RUNAWAY * row_max[len(row_max) // 2]
              else "cap" if len(history) - 1 == config.max_iterations else "stalled")
    return Embedding(X=x, stop_reason=reason, residual_history=history)
