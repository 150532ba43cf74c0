"""Latent vector models and the weighted dot-product generative process.

A model couples an edge-weight distribution family (Bernoulli or Poisson,
each with one parameter) with one latent vector source. Sampling proceeds
by drawing one latent vector per node from the source, forming the pairwise
dot-product grid row block by row block, and drawing each edge weight from
the distribution parametrized by the corresponding grid entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import ClassVar, Optional

import numpy as np

from .graph import MAX_NODES, WeightedGraph, _require_finite, _upper_blocks

PROB_SUM_TOL = 1e-12
# Largest parameter whose draws go to one-byte count buffers. A uint8 holds
# counts up to 255, and for a rate lambda <= 16 the Chernoff bound gives
# P(Poisson(lambda) >= 256) <= e^-lambda (e lambda / 256)^256 < 1e-200 per
# pair; `_draw_blocks` still refuses a count its buffer cannot hold.
_BYTE_COUNT_RATE_MAX = 16.0


class DomainError(ValueError):
    """A distribution parameter fell outside its legal domain."""


class ModelError(ValueError):
    """A latent model is internally inconsistent."""


@dataclass(frozen=True)
class EdgeDistribution:
    """Edge-weight distribution family; both shipped families have one parameter."""

    family: str  # "bernoulli" | "poisson"

    def __post_init__(self):
        if self.family not in ("bernoulli", "poisson"):
            raise ModelError(f"unknown edge distribution family {self.family!r}")

    def domain_violations(self, params: np.ndarray) -> np.ndarray:
        """Boolean mask of parameter values outside the legal domain.

        Bernoulli parameters live in (0,1); Poisson rates are nonnegative
        (a zero rate degenerates to a guaranteed zero weight).
        """
        if self.family == "bernoulli":
            return (params <= 0) | (params >= 1)
        return params < 0

    def clamp(self, params: np.ndarray) -> np.ndarray:
        """The float array ``params`` clamped into the domain, in place: a
        block's pair rates are clamped where they are made, with no copy."""
        if self.family == "bernoulli":
            return np.clip(params, 0.0, 1.0, out=params)
        return np.maximum(params, 0.0, out=params)

    def sample(self, params, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` weights, drawn with one parameter each or one for all."""
        if self.family == "bernoulli":
            return rng.random(size) < params
        return rng.poisson(params, size)

    def log_likelihood(self, params, observed: np.ndarray) -> float:
        """Log probability of the integer weights ``observed``, drawn with one
        parameter each or one for all; -inf, silently, when a weight has zero
        probability under its parameter, for the caller to report.

        One parameter for all stays a scalar. The terms are built in one
        pair-sized buffer, in place, with the operations of the formula in
        its order, so they have the bits of the formula on broadcast arrays;
        the Poisson log-factorial takes a second buffer, freed at once.
        """
        params = np.asarray(params, dtype=float)
        observed = np.asarray(observed, dtype=float)
        terms = np.round(observed)
        if not np.array_equal(observed, terms):
            raise ModelError(f"{self.family} likelihood needs integer weights")
        if self.family == "bernoulli" and np.any(observed > 1):
            raise ModelError("bernoulli likelihood needs 0/1 weights")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.family == "bernoulli":
                np.negative(params, out=terms)
                np.log1p(terms, out=terms)
                np.copyto(terms, np.log(params, out=np.empty_like(terms)),
                          where=observed > 0.5)
            else:
                # Imported here: a module-level import of scipy.special doubles
                # the start-up of every CLI run.
                from scipy.special import gammaln

                # observed * log(params) - params - gammaln(observed + 1)
                np.log(params, out=terms)
                np.multiply(observed, terms, out=terms)
                np.subtract(terms, params, out=terms)
                factorial = np.add(observed, 1)
                np.subtract(terms, gammaln(factorial, out=factorial), out=terms)
                del factorial
                # A positive rate gives every count a positive probability, so
                # a term that is not finite there has overflowed.
                overflow = ~np.isfinite(terms) & (params > 0)
                if overflow.any():
                    i = np.argmax(overflow)
                    raise DomainError(f"log-probability of weight {observed[i]:g} at Poisson "
                                      f"rate {np.broadcast_to(params, terms.shape)[i]:g} "
                                      "overflows the float range")
                # lambda = 0 is a point mass at weight 0, where 0 log 0 is nan.
                np.copyto(terms, 0.0, where=(params == 0) & (observed == 0))
        if np.any(np.isnan(terms) | np.isneginf(terms)):
            return float("-inf")
        with np.errstate(over="ignore"):
            total = float(terms.sum())
        if not np.isfinite(total):
            raise DomainError("the log-likelihood terms sum past the float range")
        return total


# ---------------------------------------------------------------------------
# Vector sources
#
# Each source is a frozen dataclass whose fields are its JSON keys: the
# constructor coerces and checks them, `source_to_dict` writes them and
# `source_from_dict` reads them back.

def _half_normal(rng: np.random.Generator, sigma2: float, size) -> np.ndarray:
    return np.abs(rng.normal(0.0, np.sqrt(sigma2), size=size))


def _integer(value, name: str) -> int:
    """``value`` as an int; a float, bool or string is refused, not truncated."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float; a bool or string is refused, not converted."""
    real = (int, float, np.integer, np.floating)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, real):
        raise ModelError(f"{name} must be a number, got {value!r}")
    return float(value)


def _dimension(value) -> int:
    """``value`` as a vector dimension d, from 1 to ``graph.MAX_NODES``: the
    bound on n, so that n x d draws take no more memory than an n x n grid."""
    d = _integer(value, "d")
    if d < 1:
        raise ModelError(f"d must be >= 1, got {d}")
    if d > MAX_NODES:
        raise ModelError(f"d={d} exceeds the limit of {MAX_NODES}")
    return d


def _finite_array(value, name: str, ndim: int) -> np.ndarray:
    """``value`` as a read-only float array of ``ndim`` dimensions (a scalar
    counts as one entry), non-empty and finite."""
    a = np.asarray(value, dtype=float)
    a = np.atleast_1d(a) if ndim == 1 else np.atleast_2d(a)
    if a.ndim != ndim or a.size == 0:
        raise ModelError(f"{name} must be a non-empty {ndim}-d array, got shape {a.shape}")
    _require_finite(a, name)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Constant:
    """Every node receives the same vector."""

    kind: ClassVar[str] = "constant"
    vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vector", _finite_array(self.vector, "vector", 1))

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.tile(self.vector, (n, 1))


@dataclass(frozen=True, eq=False)
class FiniteSupport:
    """Distribution over a finite set of vectors.

    With ``assignment`` given, node j is deterministically mapped to
    ``vectors[assignment[j]]`` (block-model style); otherwise each node
    samples its vector independently by the given probabilities.
    """

    kind: ClassVar[str] = "finite_support"
    vectors: np.ndarray
    probabilities: np.ndarray
    assignment: Optional[np.ndarray] = None

    def __post_init__(self):
        vs = _finite_array(self.vectors, "vectors", 2)
        ps = _finite_array(self.probabilities, "probabilities", 1)
        if ps.shape != (vs.shape[0],):
            raise ModelError("one probability per support vector required")
        if np.any(ps < 0) or abs(ps.sum() - 1.0) > PROB_SUM_TOL:
            raise ModelError(f"probabilities must sum to 1, got {ps.sum()!r}")
        object.__setattr__(self, "vectors", vs)
        object.__setattr__(self, "probabilities", ps)
        if self.assignment is not None:
            a = np.asarray(self.assignment)
            if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
                raise ModelError("assignment must be a 1-d array of integers, "
                                 f"got shape {a.shape} of {a.dtype}")
            a = a.astype(int)
            if np.any(a < 0) or np.any(a >= vs.shape[0]):
                raise ModelError("assignment index out of range")
            a.setflags(write=False)
            object.__setattr__(self, "assignment", a)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.assignment is not None:
            if len(self.assignment) != n:
                raise ModelError(
                    f"assignment of length {len(self.assignment)} for n={n}"
                )
            idx = self.assignment
        else:
            idx = rng.choice(len(self.probabilities), size=n, p=self.probabilities)
        return self.vectors[idx]


@dataclass(frozen=True)
class AxisNoise:
    """Uniformly pick a standard basis axis, add i.i.d. half-normal noise.

    A draw is e_c + sum_j Y_j e_j with c uniform over the d axes and each
    Y_j an independent half-normal with underlying variance ``sigma2``.
    Rows therefore cluster around the basis vectors, one cluster per axis.
    The default noise scale sqrt(sigma2) = 0.1 keeps intra-community dot
    products near 1 and inter-community ones near 0.
    """

    kind: ClassVar[str] = "axis_noise"
    d: int = 3
    sigma2: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "d", _dimension(self.d))
        object.__setattr__(self, "sigma2", _real(self.sigma2, "sigma2"))
        if not 0 <= self.sigma2 < np.inf:
            raise ModelError(f"axis-noise source needs finite sigma2 >= 0, got {self.sigma2}")

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        axes = rng.integers(0, self.d, size=n)
        out = _half_normal(rng, self.sigma2, (n, self.d))
        out[np.arange(n), axes] += 1.0
        return out


@dataclass(frozen=True)
class MultiresolutionAxis:
    """Exponential magnitude on a random axis, half-normal noise elsewhere.

    A draw is X e_c + sum_{j != c} Y_j e_j with X exponential with mean
    ``exp_mean`` and Y_j half-normal; the exponential magnitudes produce
    heterogeneous within-community strength.
    """

    kind: ClassVar[str] = "multiresolution_axis"
    d: int = 3
    sigma2: float = 0.01
    exp_mean: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "d", _dimension(self.d))
        object.__setattr__(self, "sigma2", _real(self.sigma2, "sigma2"))
        object.__setattr__(self, "exp_mean", _real(self.exp_mean, "exp_mean"))
        if not 0 <= self.sigma2 < np.inf or not 0 < self.exp_mean < np.inf:
            raise ModelError(
                "multiresolution source needs finite sigma2 >= 0 and finite exp_mean > 0, "
                f"got sigma2={self.sigma2}, exp_mean={self.exp_mean}"
            )

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        axes = rng.integers(0, self.d, size=n)
        out = _half_normal(rng, self.sigma2, (n, self.d))
        out[np.arange(n), axes] = rng.exponential(self.exp_mean, size=n)
        return out


@dataclass(frozen=True, eq=False)
class Ray:
    """Vectors along a fixed direction with nonnegative magnitudes.

    Magnitudes are either fixed per node (``magnitudes``, Chung-Lu style)
    or drawn i.i.d. exponential with the given rate.
    """

    kind: ClassVar[str] = "ray"
    direction: np.ndarray
    magnitudes: Optional[np.ndarray] = None
    rate: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "direction", _finite_array(self.direction, "direction", 1))
        if (self.magnitudes is None) == (self.rate is None):
            raise ModelError("ray source needs exactly one of magnitudes or rate")
        if self.magnitudes is not None:
            m = _finite_array(self.magnitudes, "magnitudes", 1)
            if np.any(m < 0):
                raise ModelError("ray magnitudes must be nonnegative")
            object.__setattr__(self, "magnitudes", m)
        else:
            object.__setattr__(self, "rate", _real(self.rate, "rate"))
            if not 0 < self.rate < np.inf:
                raise ModelError(
                    f"ray magnitude rate must be finite and positive, got {self.rate}")

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.magnitudes is not None:
            if len(self.magnitudes) != n:
                raise ModelError(f"{len(self.magnitudes)} magnitudes for n={n}")
            m = self.magnitudes
        else:
            m = rng.exponential(1.0 / self.rate, size=n)
        return np.outer(m, self.direction)


_SOURCES = {cls.kind: cls for cls in (Constant, FiniteSupport, AxisNoise, MultiresolutionAxis, Ray)}


def _json_key(doc, key: str, what: str, convert=lambda value: value):
    """``convert(doc[key])`` of a parsed JSON object, or a ModelError naming the
    key that is missing or holds a value ``convert`` refuses."""
    if not isinstance(doc, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ModelError(f"{what} has no {key!r} key")
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{what}'s {key!r} is invalid: {exc}") from None


def source_to_dict(source) -> dict:
    """The JSON object of a source: its ``kind``, then each field that is set."""
    doc = {"kind": source.kind}
    for f in fields(source):
        value = getattr(source, f.name)
        if value is not None:
            doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def source_from_dict(doc: dict):
    """The source that ``source_to_dict`` wrote ``doc`` from."""
    kind = _json_key(doc, "kind", "a vector source")
    if not isinstance(kind, str) or kind not in _SOURCES:
        raise ModelError(f"unknown vector source kind {kind!r}")
    cls = _SOURCES[kind]
    for f in fields(cls):
        if f.default is not None and f.name not in doc:
            raise ModelError(f"{kind} source has no {f.name!r} key")
    try:
        return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{kind} source: {exc}") from None


# ---------------------------------------------------------------------------
# Model and generative process

@dataclass(frozen=True)
class LatentModel:
    """Full parameter set: distribution family, node count, vector source.

    The JSON form keeps the source in a one-entry ``sources`` list.
    """

    distribution: EdgeDistribution
    n: int
    source: Constant | FiniteSupport | AxisNoise | MultiresolutionAxis | Ray

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 1:
            raise ModelError("node count must be positive")
        if self.n > MAX_NODES:
            raise ModelError(f"n={self.n} exceeds the limit of {MAX_NODES} nodes")

    def to_json(self) -> str:
        doc = {
            "distribution": {"family": self.distribution.family},
            "n": self.n,
            "sources": [source_to_dict(self.source)],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "LatentModel":
        doc = json.loads(text)
        sources = _json_key(doc, "sources", "a model")
        if not isinstance(sources, list) or len(sources) != 1:
            raise ModelError(f"a model has one vector source, got {sources!r}")
        return cls(
            EdgeDistribution(_json_key(_json_key(doc, "distribution", "a model"),
                                       "family", "a model's distribution")),
            _json_key(doc, "n", "a model", lambda n: _integer(n, "n")),
            source_from_dict(sources[0]),
        )


# The first label of each random stream, one per drawing site; see derive_seed.
VECTORS, NETWORK, KMEANS_RESTART, SWEEP_DIMENSION, NULL_SAMPLE = range(5)


def derive_seed(seed: int, *labels: int) -> int:
    """Seed of the independent stream that ``labels`` name under ``seed``.

    Every generator in wrdpm is ``default_rng(derive_seed(seed, ...))``, with
    a fixed first label per drawing site:

    - ``VECTORS``: the vectors of ``draw_vectors``;
    - ``NETWORK``: the weights of ``sample_network`` and of each null draw;
    - ``KMEANS_RESTART, r``: restart r of ``angular_kmeans``;
    - ``SWEEP_DIMENSION, d``: the k-means seed of dimension d in
      ``dimension_sweep``;
    - ``NULL_SAMPLE, i``: the network seed of sample i in ``null_compare``.

    So one seed serves every call of a run, and no two of its streams
    coincide. The labels are a SeedSequence spawn key, which is appended
    after the seed's entropy is padded: no labels give back the stream of
    ``default_rng(seed)``, as the list seed ``[seed, 0]`` does. The one
    generator not derived here is the fixed ``default_rng(0)`` of the
    Lanczos start's restart and check vectors in
    ``embedding._truncated_factor``, which keeps the fit a function of the
    matrix alone.
    """
    return int(np.random.SeedSequence(seed, spawn_key=labels).generate_state(1, np.uint64)[0])


def draw_vectors(model: LatentModel, seed: int) -> np.ndarray:
    """Draw the read-only n x d vector matrix, row j for node j; deterministic given seed."""
    x = model.source.draw(model.n, np.random.default_rng(derive_seed(seed, VECTORS)))
    x.setflags(write=False)
    return x


def dot_product_grid(x: np.ndarray) -> np.ndarray:
    """Pairwise dot products of the rows of x; diagonal = squared norms.

    The whole grid, for a reader who wants it: the sampler and the
    likelihood make theirs by row blocks (`_parameter_blocks`), whose rates
    can differ from these in the last bit. A product past the float range
    is inf or nan. numpy computes ``x @ x.T`` of a C-contiguous x as a
    symmetric rank-k update and mirrors its triangle, so the grid is exactly
    symmetric as it is made; an x of another layout is copied first, as the
    general product of some BLAS kernels rounds its two triangles apart.
    """
    x = np.ascontiguousarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return x @ x.T


def _parameter_blocks(distribution: EdgeDistribution, x: np.ndarray, clamp: bool):
    """The one walk over a network's pair parameters, the dot products of the
    rows of the n x d matrix ``x``: yields ``(rows, mask, pairs, params)``
    for each block of `graph._upper_blocks`, with ``params`` the block's
    j < l pair parameters, in row-major order, taken from its products
    ``x[rows] @ x.T``.

    ``x`` is taken C-contiguous, so the products are a function of its
    values; they can differ from `dot_product_grid`'s in the last bit.
    Each entry that a pair reads must be finite. With ``clamp`` the
    parameters are clamped into the domain; otherwise each such entry must
    lie in it. A block is checked as it is made, so the first bad entry in
    row-major order is named with no n x n or pair-sized mask. Each row's
    pairs are moved in turn to the front of the block's own buffer, and
    ``params`` is a view of it, so a consumer holds one block at a time.
    ``block[mask]`` would copy the pairs out beside the block, and
    `_pair_parameters` would then peak at 5.9 n^2 bytes at n = 600, past
    the 5.5 that tests/test_memory.py holds it to; the row moves keep it at 5.3.
    """
    x = np.ascontiguousarray(x, dtype=float)
    n = len(x)
    for rows, mask, pairs in _upper_blocks(n):
        # A product past the float range is inf or nan, for the check to refuse.
        with np.errstate(over="ignore", invalid="ignore"):
            block = x[rows] @ x.T
        bad = ~np.isfinite(block)
        if not clamp:
            bad |= distribution.domain_violations(block)
        bad &= mask
        if bad.any():
            i, l = np.argwhere(bad)[0]
            raise DomainError(f"grid entry ({rows.start + i},{l}) = {block[i, l]:g} outside "
                              f"the {distribution.family} domain")
        del bad
        params, first = block.reshape(-1), 0
        for i, keep in enumerate(mask):
            row = block[i, keep]
            params[first:first + len(row)] = row
            first += len(row)
        params = params[:first]
        yield rows, mask, pairs, distribution.clamp(params) if clamp else params
        del block, params  # before the next block is made


def _pair_parameters(distribution: EdgeDistribution, x: np.ndarray, clamp: bool):
    """The parameters of the j < l pairs of the rows of ``x``, in row-major
    order, checked (and with ``clamp`` clamped) by `_parameter_blocks`."""
    n = len(x)
    params = np.empty(n * (n - 1) // 2)
    for _, _, pairs, block in _parameter_blocks(distribution, x, clamp):
        params[pairs] = block
        del block  # before the next block is made
    return params


def _draw_buffer(n: int, params) -> np.ndarray:
    """The zeroed n x n matrix that `_draw_blocks` draws with ``params`` into: uint8 when
    the largest is at most `_BYTE_COUNT_RATE_MAX` (every Bernoulli one is), else float64."""
    dtype = np.uint8 if np.max(params, initial=0.0) <= _BYTE_COUNT_RATE_MAX else np.float64
    return np.zeros((n, n), dtype)


def _draw_blocks(distribution: EdgeDistribution, blocks, largest: float, seed: int,
                 out: np.ndarray) -> WeightedGraph:
    """Draw one network into ``out``, a float64 or uint8 n x n matrix with a
    zero diagonal, and return the graph over it (`WeightedGraph._wrap`).

    ``blocks`` yields ``(rows, mask, pairs, params)`` for each block of
    `graph._upper_blocks` in turn, ``params`` holding one in-domain
    parameter per j < l pair of the block, in row-major order, or one for
    every pair; both draw the same weights from the same seed. ``largest``
    is the largest parameter of the network, which a refusal names. Each
    block is drawn straight into ``out``'s upper triangle and mirrored into
    the lower one as soon as it is drawn (the rows above it are complete by
    then), so no pair vector or pair mask of the whole network is formed.
    ``sample`` consumes the stream one pair at a time, so the blocks draw
    what one call for every pair draws, bit for bit. Every off-diagonal
    entry is written and the diagonal never is: the draw holds only until
    ``out`` is refilled, and none of its entries is stale.

    The counts (booleans or nonnegative int64) are written as ``out``'s
    dtype, so the weights meet `_wrap`'s contract. A count past an integer
    ``out``'s maximum is a DomainError, never a wrapped value.
    """
    rng = np.random.default_rng(derive_seed(seed, NETWORK))
    limit = np.iinfo(out.dtype).max if out.dtype.kind in "iu" else None
    for rows, mask, pairs, params in blocks:
        try:
            drawn = distribution.sample(params, rng, pairs.stop - pairs.start)
        except ValueError:
            # numpy refuses Poisson rates past about 9.2e18, where int64 counts
            # end; the error names the network's largest rate, not this block's.
            raise DomainError(f"Poisson rate {largest:g} is too large to sample") from None
        if limit is not None and drawn.max(initial=0) > limit:
            raise DomainError(f"count {drawn.max()} does not fit the {out.dtype} draw buffer")
        out[rows][mask] = drawn
        out[rows, :rows.start] = out[:rows.start, rows].T
        square = out[rows, rows]
        np.copyto(square, square.T, where=mask[:, rows].T)
        del params, drawn  # before the next block is made
    return WeightedGraph._wrap(out)


def _sample_pairs(distribution: EdgeDistribution, params, seed: int,
                  out: np.ndarray) -> WeightedGraph:
    """Draw one network into ``out`` by `_draw_blocks`, with ``params`` one
    in-domain parameter per j < l pair, in row-major order, or one for every
    pair, as the null ensemble holds its rates."""
    per_pair = np.ndim(params) > 0
    blocks = ((rows, mask, pairs, params[pairs] if per_pair else params)
              for rows, mask, pairs in _upper_blocks(len(out)))
    return _draw_blocks(distribution, blocks, np.max(params, initial=0.0), seed, out)


def sample_network(
    model: LatentModel,
    vectors: np.ndarray,
    seed: int,
    clamp: bool = False,
) -> WeightedGraph:
    """Draw one weighted network from the dot products of ``vectors``.

    The pair parameters are made one `_parameter_blocks` row block at a
    time, twice, and never whole: a first walk checks every block and takes
    the largest parameter, which picks the weights' `_draw_buffer`, and a
    second walk makes each block again and draws it. So the draw holds its
    weights and one block, with no n x n grid and no pair parameters.
    """
    x = np.ascontiguousarray(vectors, dtype=float)
    if x.ndim != 2:
        raise ModelError(f"vectors must be an n x d matrix, got shape {x.shape}")
    if len(x) != model.n:
        raise ModelError(f"vectors for {len(x)} nodes, model has n={model.n}")
    dist = model.distribution
    largest = max((np.max(params, initial=0.0)
                   for *_, params in _parameter_blocks(dist, x, clamp)), default=0.0)
    return _draw_blocks(dist, _parameter_blocks(dist, x, clamp), largest, seed,
                        _draw_buffer(model.n, largest))
