"""Weighted graph container, validation, and edge-list / dense-CSV I/O."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Largest asymmetry |A - A^T| accepted and averaged away, relative to max |A|.
SYMMETRY_TOL = 1e-12
# Largest node count a graph file may declare or reference. Graphs are held
# as dense n x n float64 matrices: at this size one takes 3.2 GB, and embed
# works on about three of them. The edge-list parser refuses larger graphs
# before it allocates anything.
MAX_NODES = 20_000


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


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric, nonnegative, zero-diagonal weighted adjacency matrix.

    Immutable after construction; the weight matrix is stored dense and
    marked read-only so the same graph can be shared across workers.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise GraphFormatError(f"weight matrix must be square, got shape {w.shape}")
        if w.shape[0] < 1:
            raise GraphFormatError("graph must have at least one node")
        if not np.isfinite(w).all():
            raise GraphFormatError("edge weights must be finite")
        asym = _symmetrize(w)
        if asym is not None:
            raise GraphFormatError(f"weight matrix asymmetric (max |A - A^T| = {asym:g})")
        if np.any(np.diag(w) != 0):
            raise GraphFormatError("diagonal entries must all be zero")
        if np.any(w < 0):
            raise GraphFormatError("negative edge weight")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def is_integer_valued(self) -> bool:
        return bool(np.all(self.weights == np.round(self.weights)))


@dataclass(frozen=True)
class SymmetricOffDiagonal:
    """The C(n,2) off-diagonal entries of a symmetric matrix.

    The diagonal is undetermined (not zero); entries may be negative.
    Stored as a full symmetric matrix whose diagonal is ignored.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected square matrix, got shape {m.shape}")
        _require_finite(m, "entries")
        np.fill_diagonal(m, 0.0)
        if _symmetrize(m) is not None:
            raise ValueError("off-diagonal entries must be symmetric")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def total_weight(g: WeightedGraph) -> float:
    """Sum of edge weights over unordered pairs."""
    return float(np.sum(np.triu(g.weights, k=1)))


def _parse_edge_list(lines: Sequence[str]) -> np.ndarray:
    declared_n = None
    edges = {}
    max_node = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            try:
                declared_n = int(line[2:])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad node-count header {line!r}")
            if declared_n > MAX_NODES:
                raise GraphFormatError(
                    f"line {lineno}: n={declared_n} exceeds the limit of {MAX_NODES} nodes"
                )
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(
                f"line {lineno}: expected '<u> <v> <w>', got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
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
        edges[key] = w
        max_node = max(max_node, u, v)
    n = max_node + 1
    if declared_n is not None:
        if declared_n < n:
            raise GraphFormatError(
                f"declared n={declared_n} but edge references node {max_node}"
            )
        n = declared_n
    if n < 1:
        raise GraphFormatError("empty edge list with no declared node count")
    weights = np.zeros((n, n))
    for (u, v), w in edges.items():
        weights[u, v] = weights[v, u] = w
    return weights


_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _parse_edge_array(lines: list[str]) -> np.ndarray | None:
    """Parse a valid edge list as one array; None for anything else.

    Accepts an optional ``n=`` header on the first line and ``u v w`` rows
    with comments. A file it returns None for, malformed or merely unusual
    (a header further down, ``1_0`` as an id), goes to ``_parse_edge_list``,
    which names the offending line. On every file this one accepts, both
    give the same matrix.
    """
    declared_n = None
    head = lines[0].split("#", 1)[0].strip() if lines else ""
    if head.startswith("n="):
        try:
            declared_n = int(head[2:])
        except ValueError:
            return None
    with warnings.catch_warnings():
        # A body without rows ("input contained no data") goes to the slow path.
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(lines, dtype=_EDGE_ROW, comments="#",
                              skiprows=0 if declared_n is None else 1, ndmin=1)
        except ValueError:
            return None
    if rows.size == 0:
        return None
    lo = np.minimum(rows["u"], rows["v"])
    hi = np.maximum(rows["u"], rows["v"])
    w = rows["w"]
    n = int(hi.max()) + 1 if declared_n is None else declared_n
    if (lo.min() < 0 or hi.max() >= n or n > MAX_NODES or (lo == hi).any()
            or not (np.isfinite(w).all() and (w >= 0).all())):
        return None
    keys = np.sort(lo * n + hi)
    if (keys[1:] == keys[:-1]).any():
        return None
    weights = np.zeros((n, n))
    weights[lo, hi] = w
    weights[hi, lo] = w
    return weights


def load_graph(path, format: str = "edge-list") -> WeightedGraph:
    """Load a weighted graph from ``path`` in `edge-list` or `dense` format."""
    if format == "edge-list":
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        weights = _parse_edge_array(lines)
        if weights is None:
            weights = _parse_edge_list(lines)
        return WeightedGraph(weights)
    if format == "dense":
        try:
            weights = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise GraphFormatError(f"could not parse dense matrix: {exc}")
        return WeightedGraph(weights)
    raise ValueError(f"unknown graph format {format!r}")


def _fmt_weight(w: float) -> str:
    if w == int(w):
        return str(int(w))
    return repr(float(w))


def save_graph(g: WeightedGraph, path, format: str = "edge-list") -> None:
    """Write ``g`` so that load_graph reproduces it exactly."""
    if format == "edge-list":
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"n={g.n}\n")
            rows, cols = np.nonzero(np.triu(g.weights, 1))
            # Each node id and each distinct weight is formatted once: lines
            # repeat ids, and sampled graphs repeat a few small weights.
            ids = [f"{j} " for j in range(g.n)]
            values, which = np.unique(g.weights[rows, cols], return_inverse=True)
            text = [f"{_fmt_weight(w)}\n" for w in values.tolist()]
            f.writelines(
                ids[j] + ids[l] + text[i]
                for j, l, i in zip(rows.tolist(), cols.tolist(), which.tolist())
            )
    elif format == "dense":
        np.savetxt(path, g.weights, delimiter=",", fmt="%.17g")
    else:
        raise ValueError(f"unknown graph format {format!r}")
