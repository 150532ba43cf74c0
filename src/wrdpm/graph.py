"""Weighted graph container, validation, and edge-list / dense-CSV I/O."""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Largest asymmetry |A - A^T| accepted and averaged away, relative to max |A|.
SYMMETRY_TOL = 1e-12
# Largest node count a graph file may declare or reference. Graphs are held
# as dense n x n matrices: at this size one of one-byte counts takes 400 MB
# and a float64 one 3.2 GB. generate holds little beyond its draw, the null
# ensemble adds a 1.6 GB float32 clustering workspace and two draw buffers,
# and embed works on about three float64 n x n arrays. The edge-list parser
# refuses larger graphs before it allocates anything.
MAX_NODES = 20_000
# Rows of the upper triangle that `_upper_blocks` walks at a time and of
# w * (A^2) that `_clustering` sums.
_ROW_BLOCK = 64
# Rows of A^2 that `_clustering` forms at a time, inside A's buffer.
_CLUSTERING_TILE = 256
# Values that `_write_csv_matrix` formats at a time, whole rows at least: at
# 1024 to 16384 a 1500 x 8 matrix took the same 5.5 ms (np.savetxt 7.9 ms).
_CSV_BLOCK = 4096
# From this many nodes a `_FitMatrix`'s build and products run in two row
# halves at once, and an edge list's writes in two halves of its edges, one
# half on a worker thread (`_worker`, `_by_halves`). Medians with one
# OpenBLAS thread on a 2-vCPU x86 VM, split against whole: a matvec took
# 0.202 against 0.186 ms at n = 768, 0.222 against 0.325 at 1024 and 0.518
# against 0.736 at 1500; an n x 8 product 0.301 against 0.468, 0.520
# against 0.864 and 1.521 against 3.102 ms. A Lanczos start makes mostly
# matvecs. At n = 1500 the writes of 379 850 edges to both triangles took
# 2.9 ms in two halves against 6.0 ms whole.
_SPLIT_MIN_N = 1024


class GraphFormatError(ValueError):
    """A graph file failed to parse or an input violates a graph invariant."""


def _require_finite(values: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first NaN or infinite entry of ``values``.

    Comparisons with NaN are False, so range and symmetry checks alone let
    NaN through.
    """
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        index = tuple(int(i) for i in bad[0])
        label = ", ".join(map(str, index))
        raise ValueError(f"{name}[{label}] is {float(values[index])}; entries must be finite")


def _symmetrize(m: np.ndarray) -> float | None:
    """Make the finite square matrix ``m`` exactly symmetric, in place.

    Entries that differ from their transpose by at most ``SYMMETRY_TOL``
    times max |m| are replaced by their mean, so downstream eigensolves see a
    bit-symmetric matrix. Returns None on success; otherwise leaves ``m`` as
    it is and returns max |m - m^T|.
    """
    if np.array_equal(m, m.T):
        return None
    # Halved first, so that entries near the float maximum cannot overflow.
    half, half_t = m / 2, m.T / 2
    asym = 2 * float(np.abs(half - half_t).max())
    if asym > SYMMETRY_TOL * np.abs(m).max():
        return asym
    differ = m != m.T
    m[differ] = (half + half_t)[differ]
    return None


def _checked(w: np.ndarray) -> np.ndarray:
    """Check ``w``, a float64 or uint8 matrix its caller owns, in place as a graph's
    weights (averaging an asymmetry within `SYMMETRY_TOL`); return it in its `_weight_dtype`."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise GraphFormatError(f"weight matrix must be square, got shape {w.shape}")
    if w.shape[0] < 1:
        raise GraphFormatError("graph must have at least one node")
    if w.dtype.kind == "f" and not np.isfinite(w).all():
        raise GraphFormatError("edge weights must be finite")
    asym = _symmetrize(w)
    if asym is not None:
        raise GraphFormatError(f"weight matrix asymmetric (max |A - A^T| = {asym:g})")
    if np.any(np.diag(w) != 0):
        raise GraphFormatError("diagonal entries must all be zero")
    if np.any(w < 0):
        raise GraphFormatError("negative edge weight")
    return w.astype(_weight_dtype(w), copy=False)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Symmetric, nonnegative, zero-diagonal weighted adjacency matrix.

    The weight matrix is stored dense and read-only, in its `_weight_dtype`:
    widen it before doing arithmetic on it, as uint8 arithmetic wraps. The
    constructor copies its input, uint8 as uint8 and any other as float64,
    and checks it (`_checked`); `_wrap` builds a graph over a matrix that its
    caller guarantees, with neither.
    """

    weights: np.ndarray

    def __post_init__(self):
        counts = getattr(self.weights, "dtype", None) == np.uint8
        w = _checked(np.array(self.weights, dtype=np.uint8 if counts else float))
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def _wrap(cls, weights: np.ndarray) -> "WeightedGraph":
        """A graph over a read-only view of ``weights``, neither copied nor scanned.

        The caller guarantees a square float64 or uint8 matrix of at least
        one node that is finite, nonnegative, symmetric and zero on its
        diagonal: a checked matrix in its `_weight_dtype`, or a draw into a
        `model._draw_buffer`. The graph sees every later write to
        ``weights``: it holds until its caller refills them.
        """
        g = object.__new__(cls)
        view = weights.view()
        view.setflags(write=False)
        object.__setattr__(g, "weights", view)
        return g

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def _upper_blocks(n: int):
    """Walk the j < l pairs of an n-node graph, `_ROW_BLOCK` rows at a time.

    Yields ``(rows, mask, pairs)`` for each block: its row slice, the mask
    of its j < l entries among those rows and all n columns, and the slice
    of their indices in the row-major order of all pairs. So ``m[rows][mask]``
    block by block reads the j < l entries of an n x n ``m`` in that order,
    with no n x n mask or copy.
    """
    # Row i of the block at r0 holds the pairs (r0 + i, l) with l > r0 + i,
    # which is row i of this strip from column n - r0 on.
    strip = np.arange(_ROW_BLOCK)[:, None] < np.arange(-n, n)
    for r0 in range(0, n, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, n)
        # The rows above row r hold r(2n - r - 1)/2 pairs.
        first, end = r0 * (2 * n - r0 - 1) // 2, r1 * (2 * n - r1 - 1) // 2
        yield slice(r0, r1), strip[:r1 - r0, n - r0:2 * n - r0], slice(first, end)


def _pair_weights(g: WeightedGraph) -> np.ndarray:
    """The weights of g's j < l pairs, in row-major order, in g's dtype."""
    out = np.empty(g.n * (g.n - 1) // 2, g.weights.dtype)
    for rows, mask, pairs in _upper_blocks(g.n):
        out[pairs] = g.weights[rows][mask]
    return out


def total_weight(g: WeightedGraph) -> float:
    """Sum of edge weights over unordered pairs; a ValueError if it overflows.
    Integer sums below 2^53 are exact in any dtype and order."""
    with np.errstate(over="ignore"):
        total = float(np.sum(np.triu(g.weights, k=1)))
    if not np.isfinite(total):
        raise ValueError("the edge weights sum past the float maximum")
    return total


def _weight_dtype(w: np.ndarray) -> type:
    """The dtype a graph with the finite, nonnegative weights ``w`` is held
    in: uint8 when each is an integer in 0..255 (or there is none), else
    float64.

    Every reader of this module gives a count graph the bits of its float64
    graph, so a graph of counts takes n^2 bytes where it would take 8 n^2.
    """
    # Checked before the cast, which wraps past 255 and warns on 1e308.
    if w.dtype == np.uint8 or w.size == 0 or (
            w.max() <= 255 and np.array_equal(w.astype(np.uint8), w)):
        return np.uint8
    return np.float64


def _worker(n: int):
    """A context manager giving the worker thread that `_by_halves` runs the
    second part of an n-node job on: a one-thread ThreadPoolExecutor from
    `_SPLIT_MIN_N` nodes on, else None. Its thread starts with its first job
    and is joined on exit."""
    if n < _SPLIT_MIN_N:
        return contextlib.nullcontext()
    # Imported here: importing concurrent.futures adds about 6 ms to the
    # start-up of every CLI run.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1)


def _by_halves(worker, n: int, job) -> None:
    """``job(slice(None))`` where ``worker`` is None; with a `_worker`,
    ``job(slice(None, h))`` on the calling thread while ``job(slice(h, None))``
    runs on the worker, h a multiple of 64 near n / 2.

    Both parts have ended when it returns or raises, so neither writes on
    after it. An error of either reaches the caller; where both raise, it is
    the calling thread's. A row block of a float64 product with one
    OpenBLAS thread has the bits of the same rows of the whole product where
    it starts at a multiple of 64 (checked under the SkylakeX, Haswell and
    Zen kernels; at row 750 a matvec's did not); an elementwise job keeps
    its bits at any split.
    """
    if worker is None:
        job(slice(None))
        return
    h = (n + 64) // 128 * 64
    pending = worker.submit(job, slice(h, None))
    try:
        job(slice(None, h))
    except BaseException:
        pending.exception()  # waits for the worker's part; its error, if any, is dropped
        raise
    pending.result()


class _FitMatrix:
    """The matrix `embedding.embed` fits, A / 4^m over its norm (4^m near
    max |A|), and the operations the fit reads it through.

    A / 4^m is exact and cannot overflow; over its norm, ||A||_F = 1. The
    power of two is exact, so embed(4 A).X is 2 embed(A).X bit for bit, and
    the norm makes the fit scale-free. The matrix is held as one float64
    copy, taken whatever g's dtype: numpy's `frexp` and `ldexp` of uint8
    counts give float16. The weights are nonnegative, so their largest is
    max |A|, without a copy.

    With a `_worker` (from `_SPLIT_MIN_N` nodes on) the copy's scaling and
    each product run by `_by_halves`, with the bits of the whole call; the
    norms are taken whole. The caller owns the worker, and its thread ends
    when the caller's ``with`` block does.
    """

    def __init__(self, g: WeightedGraph, worker=None):
        self._worker = worker
        self._m = int(np.frexp(float(g.weights.max()))[1]) // 2
        a = self._a = np.empty((g.n, g.n))
        _by_halves(worker, g.n, lambda rows: np.ldexp(g.weights[rows], -2 * self._m,
                                                      dtype=float, out=a[rows]))
        self._scale = np.linalg.norm(a)
        if self._scale:
            _by_halves(worker, g.n, lambda rows: np.divide(a[rows], self._scale, out=a[rows]))
        self.sq_norm = np.einsum("ij,ij->", a, a)
        self.degree_mean = a.sum(axis=1) / max(g.n - 1, 1)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """A v as a new C-ordered array."""
        out = np.empty(self._a.shape[:1] + v.shape[1:])
        _by_halves(self._worker, len(out),
                   lambda rows: np.matmul(self._a[rows], v, out=out[rows]))
        return out

    def dense(self, c: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """A - y y^T + diag(c) as a new n x n array; A + diag(c) without y."""
        return self._a + np.diag(c) if y is None else self._a - y @ y.T + np.diag(c)

    def offdiag_residual(self, x: np.ndarray) -> np.ndarray:
        """offdiag(X X^T - A) as a new n x n array."""
        diff = x @ x.T - self._a
        np.fill_diagonal(diff, 0.0)
        return diff

    def scaled_back(self, x: np.ndarray, fs) -> tuple[np.ndarray, tuple[float, ...]]:
        """A fit X of this matrix and its residuals sqrt(f), one per f in
        ``fs``, as those of A; past the float maximum they are inf."""
        with np.errstate(over="ignore"):
            return (np.ldexp(x * np.sqrt(self._scale), self._m),
                    tuple(float(np.ldexp(np.sqrt(max(f, 0.0)) * self._scale, 2 * self._m))
                          for f in fs))


def _clustering_workspace(n: int) -> np.ndarray:
    """The buffer `_clustering` fills at n nodes: one float32 n x n array,
    which holds A and then, tile by tile, A^2."""
    return np.empty((n, n), np.float32)


def _clustering(g: WeightedGraph, work) -> np.ndarray:
    """Per-node weighted clustering of g, as `analysis.weighted_clustering`
    defines it, with ``work`` a `_clustering_workspace`, which it overwrites.

    The 0/1 adjacency A is held in float32, and A^2 formed inside A's own
    buffer, `_CLUSTERING_TILE` rows r0:r1 at a time. The tile's rows of A
    are copied out, and A being symmetric, their products with themselves
    and with the rows from r1 on, which still hold A, are its A^2 entries
    from column r0 on; those left of r0 are the transpose of the A^2 rows
    above. That is exact: every entry and partial sum counts common
    neighbors, an integer at most n < 2^24, so A^2 has the bits of any order
    of summing. Each row of w * (A^2) is summed whole, so the result matches
    a float64 ``A @ A`` bit for bit.
    """
    w = g.weights
    a = work
    np.greater(w, 0, out=a, casting="unsafe")
    tile = np.empty((min(_CLUSTERING_TILE, g.n), g.n), np.float32)
    for r0 in range(0, g.n, _CLUSTERING_TILE):
        r1 = min(r0 + _CLUSTERING_TILE, g.n)
        t = tile[:r1 - r0]
        np.copyto(t, a[r0:r1])
        np.matmul(t, t.T, out=a[r0:r1, r0:r1])
        np.matmul(t, a[r1:].T, out=a[r0:r1, r1:])
        a[r0:r1, :r0] = a[:r0, r0:r1].T
    del tile, t
    # Ordered neighbor pairs (l,h): sum_l w_jl a_jl (A^2)_jl counts each
    # unordered pair twice, matching the (w_jl + w_jh)/2 symmetrization.
    numer = np.empty(g.n)
    with np.errstate(over="ignore"):
        for r0 in range(0, g.n, _ROW_BLOCK):
            r = slice(r0, r0 + _ROW_BLOCK)
            # A float32 product would round: uint8 x float32 promotes to float32.
            numer[r] = np.multiply(w[r], a[r], dtype=float).sum(axis=1)
        # (A^2)_jj counts j's neighbors, an exact integer like every count.
        denom = w.sum(axis=1, dtype=float) * (a.diagonal().astype(float) - 1)
    if not (np.isfinite(denom).all() and np.isfinite(numer).all()):
        raise ValueError("node strengths overflow the float range; "
                         "no weighted clustering coefficient is defined")
    return np.where(denom > 0, numer / np.where(denom > 0, denom, 1.0), 0.0)


def _number(token: str, kind):
    """``kind(token)`` for an ASCII token without ``_``, on which Python's
    ``int``/``float`` and numpy's text parser agree; else a ValueError."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII decimal number: {token!r}")
    return kind(token)


def _is_utf8(line: str) -> bool:
    """Whether ``line``, read with ``errors="surrogateescape"``, was UTF-8 bytes."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _read_header(line: str, lineno: int) -> int:
    """The node count of ``line``, an ``n=<count>`` header stripped of its
    comment and whitespace; a GraphFormatError naming line ``lineno`` unless
    the count is an integer in 1..MAX_NODES spelled as a node id."""
    try:
        n = _number(line[2:].strip(), int)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: bad node-count header {line!r}")
    if n > MAX_NODES:
        raise GraphFormatError(f"line {lineno}: n={n} exceeds the limit of {MAX_NODES} nodes")
    if n < 1:
        raise GraphFormatError(f"line {lineno}: n={n} declares no nodes")
    return n


def _parse_edge_list(lines: Sequence[str]) -> np.ndarray:
    """Parse an edge list line by line, naming the first line that breaks
    the grammar (README, File formats). ``lines`` are decoded with
    ``surrogateescape``, so a byte that is not UTF-8 is named by its line.
    The matrix meets the contract of `WeightedGraph._wrap`: non-finite,
    negative, self-loop, duplicate and oversized input is refused, and each
    edge is written to both triangles of a zeroed matrix of the weights'
    `_weight_dtype`."""
    declared_n = None
    edges = {}
    max_node = -1
    for lineno, raw in enumerate(lines, start=1):
        if not _is_utf8(raw):
            raise GraphFormatError(f"line {lineno}: not UTF-8 text")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if declared_n is not None or edges:
                raise GraphFormatError(f"line {lineno}: an n= header may only be the "
                                       "first line that is not blank or a comment")
            declared_n = _read_header(line, lineno)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(
                f"line {lineno}: expected '<u> <v> <w>', got {line!r}"
            )
        try:
            u, v = _number(parts[0], int), _number(parts[1], int)
            w = _number(parts[2], float)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: could not parse {line!r}")
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative node id")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop on node {u}")
        if max(u, v) >= MAX_NODES:
            raise GraphFormatError(
                f"line {lineno}: node id {max(u, v)} exceeds the limit of {MAX_NODES} nodes"
            )
        if not math.isfinite(w):
            raise GraphFormatError(f"line {lineno}: non-finite weight {parts[2]!r}")
        if w < 0:
            raise GraphFormatError(f"line {lineno}: negative weight {w}")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {key}")
        # -0 reads as +0.0, the zero a save and a load give back.
        edges[key] = w + 0.0
        max_node = max(max_node, u, v)
    if declared_n is None and max_node < 0:
        raise GraphFormatError("empty edge list with no declared node count")
    n = max_node + 1 if declared_n is None else declared_n
    if n <= max_node:
        raise GraphFormatError(f"declared n={n} but edge references node {max_node}")
    weights = np.zeros((n, n), _weight_dtype(np.fromiter(edges.values(), float, len(edges))))
    for (u, v), w in edges.items():
        weights[u, v] = weights[v, u] = w
    return weights


# An id outside int32 fails to parse, and the line parser then names it.
_EDGE_ROW = np.dtype([("u", np.int32), ("v", np.int32), ("w", np.float64)])


def _parse_edge_array(path) -> np.ndarray | None:
    """Parse the edge list in ``path`` as one array; None for a file outside
    the grammar, which ``_parse_edge_list`` then names the first bad line of.

    The lines up to the first that is not blank or a comment are read as
    ``str``; if that line is an ``n=`` header, `_read_header` reads it (and
    raises what the line parser would raise first). numpy's text parser
    reads the rows after it straight from the file. On every file the
    grammar accepts, both parsers give the same matrix in the same dtype,
    and it meets the contract of `WeightedGraph._wrap` for the same reasons.
    """
    with open(path, encoding="utf-8") as f:
        try:
            for skip, raw in enumerate(f):
                head = raw.split("#", 1)[0].strip()
                if head:
                    break
            else:
                return None
        except UnicodeDecodeError:
            return None
    declared_n = _read_header(head, skip + 1) if head.startswith("n=") else None
    with warnings.catch_warnings():
        # A header with no rows after it ("input contained no data").
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(path, dtype=_EDGE_ROW, comments="#", encoding="utf-8",
                              skiprows=skip + (declared_n is not None), ndmin=1)
        except ValueError:
            return None
    if rows.size == 0:
        return np.zeros((declared_n, declared_n), _weight_dtype(rows["w"]))
    u, v, w = rows["u"], rows["v"], rows["w"]
    top = int(max(u.max(), v.max()))
    n = top + 1 if declared_n is None else declared_n
    # A file without a header can still name a node past MAX_NODES.
    if (min(u.min(), v.min()) < 0 or top >= n or n > MAX_NODES or (u == v).any()
            or not (np.isfinite(w).all() and (w >= 0).all())):
        return None
    # One key per unordered pair, sorted in place and let go before the matrix.
    keys = np.minimum(u, v, dtype=np.int64) * n + np.maximum(u, v)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    del keys
    weights = np.zeros((n, n), _weight_dtype(w))
    # -0 reads as +0.0, the zero a save and a load give back.
    w += 0.0

    def write(edges):
        weights[u[edges], v[edges]] = weights[v[edges], u[edges]] = w[edges]

    # The checks above leave no entry that two edges' writes reach, so the
    # two halves of the edges run at once: numpy's fancy-index assignment
    # releases the GIL.
    with _worker(n) as worker:
        _by_halves(worker, len(w), write)
    return weights


def _read_csv_matrix(path, what: str) -> np.ndarray:
    """The comma-separated matrix in ``path``, at least 2-d; a GraphFormatError
    naming ``what`` when the file does not parse or holds no rows."""
    with warnings.catch_warnings():
        # An empty file is refused below, by name.
        warnings.simplefilter("ignore", UserWarning)
        try:
            m = np.loadtxt(path, delimiter=",", ndmin=2)
        except UnicodeDecodeError:
            # numpy names only an offset into the chunk it was decoding.
            with open(path, encoding="utf-8", errors="surrogateescape") as f:
                lineno = next(k for k, line in enumerate(f, start=1) if not _is_utf8(line))
            raise GraphFormatError(f"could not parse {what}: line {lineno}: not UTF-8 text")
        except ValueError as exc:
            raise GraphFormatError(f"could not parse {what}: {exc}")
    if m.size == 0:
        raise GraphFormatError(f"{what} file {path} holds no rows")
    return m


def _write_csv_matrix(path, m) -> None:
    """Write ``m`` (a vector as one row) as `_read_csv_matrix` reads it, exactly.

    The bytes are np.savetxt(path, m, delimiter=",", fmt="%.17g")'s, but each
    block of `_CSV_BLOCK` values is formatted by one % of its rows' format,
    where savetxt makes one Python call per row.
    """
    m = np.atleast_2d(m)
    rows = max(1, _CSV_BLOCK // max(m.shape[1], 1))
    row = ",".join(["%.17g"] * m.shape[1]) + "\n"
    with open(path, "wb") as f:
        for r0 in range(0, len(m), rows):
            block = m[r0:r0 + rows]
            f.write((row * len(block) % tuple(block.ravel().tolist())).encode())


def load_graph(path, format: str = "edge-list") -> WeightedGraph:
    """Load a weighted graph from ``path`` in `edge-list` or `dense` format.

    Every edge list the grammar accepts (README, File formats) is parsed
    by numpy's text parser, straight from the file; a file it refuses is
    read again line by line, to name its first bad line. The graph is held
    in its weights' `_weight_dtype`, as `WeightedGraph` holds every graph.
    """
    if format == "edge-list":
        weights = _parse_edge_array(path)
        if weights is None:
            with open(path, encoding="utf-8", errors="surrogateescape") as f:
                weights = _parse_edge_list(f.readlines())
        # Both parsers meet `_wrap`'s contract: no copy and no second scan.
        return WeightedGraph._wrap(weights)
    if format == "dense":
        # np.loadtxt hands over a fresh float64 matrix, which `_checked` may write.
        return WeightedGraph._wrap(_checked(_read_csv_matrix(path, "dense matrix")))
    raise ValueError(f"unknown graph format {format!r}")


def _fmt_weight(w: float) -> str:
    if w == int(w):
        return str(int(w))
    return repr(float(w))


def _byte_table(strings: list[str]) -> np.ndarray:
    """The ASCII ``strings`` as the rows of a uint8 matrix, NUL-padded to the longest."""
    table = np.array(strings, dtype=bytes)
    return table.view(np.uint8).reshape(len(strings), table.itemsize)


def save_graph(g: WeightedGraph, path, format: str = "edge-list") -> None:
    """Write ``g`` so that load_graph reproduces it exactly.

    An edge list is an ``n=`` header and one ``u v w`` line per edge, u < v,
    in row-major order, one `_upper_blocks` block at a time, with no n x n
    copy. Each node id, and each distinct weight of a block, is formatted
    once into a NUL-padded byte table; a block's lines are its edges' table
    rows side by side with the padding dropped, so no Python object is made
    per edge.
    """
    if format == "edge-list":
        w = g.weights
        # Neither table holds a NUL byte but its padding.
        ids = _byte_table([f"{j} " for j in range(g.n)])
        with open(path, "wb") as f:
            f.write(f"n={g.n}\n".encode())
            for rows, mask, _ in _upper_blocks(g.n):
                i, cols = np.nonzero((w[rows] != 0) & mask)
                values, which = np.unique(w[rows][i, cols], return_inverse=True)
                text = _byte_table([f"{_fmt_weight(v)}\n" for v in values.tolist()])
                lines = np.hstack((ids[rows.start + i], ids[cols], text[which]))
                f.write(lines[lines != 0].tobytes())
    elif format == "dense":
        _write_csv_matrix(path, g.weights)
    else:
        raise ValueError(f"unknown graph format {format!r}")
