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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .graph import WeightedGraph

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

    def sample(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.family == "bernoulli":
            return (rng.random(params.shape) < params).astype(float)
        return rng.poisson(params).astype(float)

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

def _half_normal(rng: np.random.Generator, sigma2: float, size) -> np.ndarray:
    return np.abs(rng.normal(0.0, np.sqrt(sigma2), size=size))


@dataclass(frozen=True)
class Constant:
    """Every node receives the same vector."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.vector, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.tile(self.vector, (n, 1))

    def to_dict(self) -> dict:
        return {"kind": "constant", "vector": self.vector.tolist()}


@dataclass(frozen=True)
class FiniteSupport:
    """Distribution over a finite set of vectors.

    With ``assignment`` given, node j is deterministically mapped to
    ``vectors[assignment[j]]`` (block-model style); otherwise each node
    samples its vector independently by the given probabilities.
    """

    vectors: np.ndarray
    probabilities: np.ndarray
    assignment: Optional[np.ndarray] = None

    def __post_init__(self):
        vs = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        ps = np.asarray(self.probabilities, dtype=float)
        if ps.shape != (vs.shape[0],):
            raise ModelError("one probability per support vector required")
        if np.any(ps < 0) or abs(ps.sum() - 1.0) > PROB_SUM_TOL:
            raise ModelError(f"probabilities must sum to 1, got {ps.sum()!r}")
        vs.setflags(write=False)
        ps.setflags(write=False)
        object.__setattr__(self, "vectors", vs)
        object.__setattr__(self, "probabilities", ps)
        if self.assignment is not None:
            a = np.asarray(self.assignment, dtype=int)
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

    def to_dict(self) -> dict:
        d = {
            "kind": "finite_support",
            "vectors": self.vectors.tolist(),
            "probabilities": self.probabilities.tolist(),
        }
        if self.assignment is not None:
            d["assignment"] = self.assignment.tolist()
        return d


@dataclass(frozen=True)
class AxisNoise:
    """Uniformly pick a standard basis axis, add i.i.d. half-normal noise.

    A draw is e_c + sum_j Y_j e_j with c uniform over the d axes and each
    Y_j an independent half-normal with underlying variance ``sigma2``.
    Rows therefore cluster around the basis vectors, one cluster per axis.
    The default noise scale sqrt(sigma2) = 0.1 keeps intra-community dot
    products near 1 and inter-community ones near 0.
    """

    d: int = 3
    sigma2: float = 0.01

    def __post_init__(self):
        if self.d < 1 or not 0 <= self.sigma2 < np.inf:
            raise ModelError(
                f"axis-noise source needs d >= 1 and finite sigma2 >= 0, "
                f"got d={self.d}, sigma2={self.sigma2}"
            )

    @property
    def dim(self) -> int:
        return self.d

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        axes = rng.integers(0, self.d, size=n)
        out = _half_normal(rng, self.sigma2, (n, self.d))
        out[np.arange(n), axes] += 1.0
        return out

    def to_dict(self) -> dict:
        return {"kind": "axis_noise", "d": self.d, "sigma2": self.sigma2}


@dataclass(frozen=True)
class MultiresolutionAxis:
    """Exponential magnitude on a random axis, half-normal noise elsewhere.

    A draw is X e_c + sum_{j != c} Y_j e_j with X exponential with mean
    ``exp_mean`` and Y_j half-normal; the exponential magnitudes produce
    heterogeneous within-community strength.
    """

    d: int = 3
    sigma2: float = 0.01
    exp_mean: float = 2.0

    def __post_init__(self):
        if self.d < 1 or not 0 <= self.sigma2 < np.inf or not 0 < self.exp_mean < np.inf:
            raise ModelError(
                "multiresolution source needs d >= 1, finite sigma2 >= 0 and "
                f"finite exp_mean > 0, got d={self.d}, sigma2={self.sigma2}, "
                f"exp_mean={self.exp_mean}"
            )

    @property
    def dim(self) -> int:
        return self.d

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        axes = rng.integers(0, self.d, size=n)
        out = _half_normal(rng, self.sigma2, (n, self.d))
        out[np.arange(n), axes] = rng.exponential(self.exp_mean, size=n)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "multiresolution_axis",
            "d": self.d,
            "sigma2": self.sigma2,
            "exp_mean": self.exp_mean,
        }


@dataclass(frozen=True)
class Ray:
    """Vectors along a fixed direction with nonnegative magnitudes.

    Magnitudes are either fixed per node (``magnitudes``, Chung-Lu style)
    or drawn i.i.d. exponential with the given rate.
    """

    direction: np.ndarray
    magnitudes: Optional[np.ndarray] = None
    rate: Optional[float] = None

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.direction, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "direction", v)
        if (self.magnitudes is None) == (self.rate is None):
            raise ModelError("ray source needs exactly one of magnitudes or rate")
        if self.magnitudes is not None:
            m = np.asarray(self.magnitudes, dtype=float)
            if np.any(m < 0):
                raise ModelError("ray magnitudes must be nonnegative")
            m.setflags(write=False)
            object.__setattr__(self, "magnitudes", m)
        elif not 0 < self.rate < np.inf:
            raise ModelError(f"ray magnitude rate must be finite and positive, got {self.rate}")

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

    def to_dict(self) -> dict:
        d = {"kind": "ray", "direction": self.direction.tolist()}
        if self.magnitudes is not None:
            d["magnitudes"] = self.magnitudes.tolist()
        else:
            d["rate"] = self.rate
        return d


_SOURCE_KINDS = {
    "constant": lambda d: Constant(np.array(d["vector"])),
    "finite_support": lambda d: FiniteSupport(
        np.array(d["vectors"]),
        np.array(d["probabilities"]),
        np.array(d["assignment"]) if "assignment" in d else None,
    ),
    "axis_noise": lambda d: AxisNoise(int(d["d"]), float(d["sigma2"])),
    "multiresolution_axis": lambda d: MultiresolutionAxis(
        int(d["d"]), float(d["sigma2"]), float(d["exp_mean"])
    ),
    "ray": lambda d: Ray(
        np.array(d["direction"]),
        np.array(d["magnitudes"]) if "magnitudes" in d else None,
        float(d["rate"]) if "rate" in d else None,
    ),
}


def _json_key(doc, key: str, what: str, convert=lambda value: value):
    """``convert(doc[key])`` of a parsed JSON object, or a ModelError naming the
    key that is missing or holds a value of the wrong type."""
    if not isinstance(doc, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ModelError(f"{what} has no {key!r} key")
    try:
        return convert(doc[key])
    except TypeError:
        raise ModelError(
            f"{what}'s {key!r} has the wrong type ({type(doc[key]).__name__})") from None


def source_from_dict(d: dict):
    kind = _json_key(d, "kind", "a vector source")
    if not isinstance(kind, str) or kind not in _SOURCE_KINDS:
        raise ModelError(f"unknown vector source kind {kind!r}")
    try:
        return _SOURCE_KINDS[kind](d)
    except KeyError as exc:
        raise ModelError(f"{kind} source has no {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise ModelError(f"{kind} source has a value of the wrong type: {exc}") from None


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
        if self.n < 1:
            raise ModelError("node count must be positive")

    def to_json(self) -> str:
        doc = {
            "distribution": {"family": self.distribution.family},
            "n": self.n,
            "sources": [self.source.to_dict()],
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
            _json_key(doc, "n", "a model", int),
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


def _pair_parameters(distribution: EdgeDistribution, grid: np.ndarray, clamp: bool):
    """The j < l index pairs of a square grid and their parameters, in row-major order.

    With ``clamp`` the parameters are clamped into the domain; otherwise
    every off-diagonal grid entry must lie in it.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ModelError(f"parameter grid must be square, got shape {grid.shape}")
    pairs = np.triu_indices(grid.shape[0], k=1)
    if clamp:
        return pairs, distribution.clamp(grid[pairs])
    bad = distribution.domain_violations(grid)
    np.fill_diagonal(bad, False)
    if bad.any():
        j, l = np.argwhere(bad)[0]
        raise DomainError(f"grid entry ({j},{l}) = {grid[j, l]:g} outside "
                          f"the {distribution.family} domain")
    return pairs, grid[pairs]


def sample_from_grids(
    distribution: EdgeDistribution,
    grid: np.ndarray,
    seed: int,
    clamp: bool = False,
) -> WeightedGraph:
    """Draw one weighted network with per-edge parameters from the grid."""
    pairs, params = _pair_parameters(distribution, grid, clamp)
    weights = np.zeros(np.shape(grid))
    weights[pairs] = distribution.sample(params, np.random.default_rng(seed))
    weights += weights.T
    return WeightedGraph(weights)


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
    pairs, params = _pair_parameters(distribution, grid, clamp)
    terms = distribution.log_pmf(params, g.weights[pairs])
    if np.any(np.isneginf(terms)):
        warnings.warn("zero-probability observation; log-likelihood is -inf")
        return float("-inf")
    return float(terms.sum())
