"""Latent vector models and the weighted dot-product generative process.

A model couples an edge-weight distribution family (Bernoulli or Poisson,
each with one parameter) with one latent vector source. Sampling proceeds
by drawing one latent vector per node from the source, forming the pairwise
dot-product grid, and drawing each edge weight from the distribution
parametrized by the corresponding grid entry.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields
from typing import ClassVar, Optional

import numpy as np
from scipy.special import gammaln

from .graph import MAX_NODES, WeightedGraph, _require_finite

PROB_SUM_TOL = 1e-12


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
        if self.family == "bernoulli":
            return np.clip(params, 0.0, 1.0)
        return np.maximum(params, 0.0)

    def sample(self, params, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` weights, drawn with one parameter each or one for all."""
        if self.family == "bernoulli":
            return rng.random(size) < params
        return rng.poisson(params, size)

    def log_pmf(self, params: np.ndarray, observed: np.ndarray) -> np.ndarray:
        """Elementwise log probability mass; -inf where the observation is impossible."""
        params = np.asarray(params, dtype=float)
        observed = np.asarray(observed, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.family == "bernoulli":
                out = np.where(
                    observed > 0.5, np.log(params), np.log1p(-params)
                )
            else:
                out = observed * np.log(params) - params - gammaln(observed + 1)
                # lambda = 0 is a point mass at weight 0
                zero_rate = params == 0
                out = np.where(zero_rate & (observed == 0), 0.0, out)
                out = np.where(zero_rate & (observed > 0), -np.inf, out)
        return np.where(np.isnan(out), -np.inf, out)


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


@dataclass(frozen=True)
class Constant:
    """Every node receives the same vector."""

    kind: ClassVar[str] = "constant"
    vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vector", _finite_array(self.vector, "vector", 1))

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.tile(self.vector, (n, 1))


@dataclass(frozen=True)
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

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

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

    @property
    def dim(self) -> int:
        return self.d

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

    @property
    def dim(self) -> int:
        return self.d

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        axes = rng.integers(0, self.d, size=n)
        out = _half_normal(rng, self.sigma2, (n, self.d))
        out[np.arange(n), axes] = rng.exponential(self.exp_mean, size=n)
        return out


@dataclass(frozen=True)
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

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

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


def derive_seed(seed: int, index: int) -> int:
    """Seed of the independent stream ``index`` under ``seed``.

    Hashing ``[seed, index]`` through a SeedSequence keeps the streams of
    different seeds apart; ``seed ^ index`` does not (seeds 0 and 1 give the
    same set of streams).
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def draw_vectors(model: LatentModel, seed: int) -> np.ndarray:
    """Draw the read-only n x d vector matrix, row j for node j; deterministic given seed."""
    x = model.source.draw(model.n, np.random.default_rng(seed))
    x.setflags(write=False)
    return x


def dot_product_grid(x: np.ndarray) -> np.ndarray:
    """Pairwise dot products of the rows of x; diagonal = squared norms."""
    x = np.asarray(x, dtype=float)
    grid = x @ x.T
    return (grid + grid.T) / 2.0


def _upper_mask(n: int) -> np.ndarray:
    """The n x n boolean mask of the j < l pairs; it selects them in row-major order."""
    return np.triu(np.ones((n, n), dtype=bool), 1)


def _pair_parameters(distribution: EdgeDistribution, grid: np.ndarray, clamp: bool):
    """The j < l mask of a square grid and the parameters of its pairs, in row-major order.

    With ``clamp`` the parameters are clamped into the domain; otherwise
    every off-diagonal grid entry must lie in it.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ModelError(f"parameter grid must be square, got shape {grid.shape}")
    upper = _upper_mask(grid.shape[0])
    if clamp:
        return upper, distribution.clamp(grid[upper])
    bad = distribution.domain_violations(grid)
    np.fill_diagonal(bad, False)
    if bad.any():
        j, l = np.argwhere(bad)[0]
        raise DomainError(f"grid entry ({j},{l}) = {grid[j, l]:g} outside "
                          f"the {distribution.family} domain")
    return upper, grid[upper]


def _sample_pairs(distribution: EdgeDistribution, params, upper: np.ndarray,
                  seed: int) -> WeightedGraph:
    """Draw one network from the parameters of the j < l pairs that the
    ``_upper_mask`` ``upper`` selects.

    ``params`` holds one in-domain parameter per pair, in row-major order,
    or one for every pair; both draw the same weights from the same seed.
    """
    n = upper.shape[0]
    draws = distribution.sample(params, np.random.default_rng(seed), n * (n - 1) // 2)
    weights = np.zeros((n, n))
    weights[upper] = draws
    weights.T[upper] = draws
    return WeightedGraph(weights)


def sample_from_grids(
    distribution: EdgeDistribution,
    grid: np.ndarray,
    seed: int,
    clamp: bool = False,
) -> WeightedGraph:
    """Draw one weighted network with per-edge parameters from the grid."""
    upper, params = _pair_parameters(distribution, grid, clamp)
    return _sample_pairs(distribution, params, upper, seed)


def sample_network(
    model: LatentModel,
    vectors: np.ndarray,
    seed: int,
    clamp: bool = False,
) -> WeightedGraph:
    """Draw one weighted network from the dot-product grid of ``vectors``."""
    if vectors.shape[0] != model.n:
        raise ModelError(f"vectors for {vectors.shape[0]} nodes, model has n={model.n}")
    return sample_from_grids(model.distribution, dot_product_grid(vectors), seed, clamp)


def log_likelihood(
    distribution: EdgeDistribution,
    grid: np.ndarray,
    g: WeightedGraph,
    clamp: bool = False,
) -> float:
    """Log probability of the observed weights under the g.n x g.n parameter grid.

    Returns -inf (with a warning) when any observed edge weight has zero
    probability under its grid entry.
    """
    if not g.is_integer_valued():
        raise ModelError(f"{distribution.family} likelihood needs integer weights")
    if distribution.family == "bernoulli" and np.any(g.weights > 1):
        raise ModelError("bernoulli likelihood needs 0/1 weights")
    if np.shape(grid) != (g.n, g.n):
        raise ModelError(f"parameter grid of shape {np.shape(grid)} for a {g.n}-node graph")
    upper, params = _pair_parameters(distribution, grid, clamp)
    terms = distribution.log_pmf(params, g.weights[upper])
    if np.any(np.isneginf(terms)):
        warnings.warn("zero-probability observation; log-likelihood is -inf")
        return float("-inf")
    return float(terms.sum())
