"""Weighted random dot product networks: generation, embedding, analysis."""

from .analysis import (
    NullEnsembleReport,
    evaluate_null_likelihood,
    null_compare,
    weighted_clustering,
)
from .community import (
    Partition,
    StressRecord,
    StressReport,
    angular_kmeans,
    centrality,
    dimension_sweep,
    stress,
)
from .embedding import Embedding, SolverConfig, embed
from .graph import (
    GraphFormatError,
    WeightedGraph,
    load_graph,
    save_graph,
    total_weight,
)
from .model import (
    AxisNoise,
    Constant,
    DomainError,
    EdgeDistribution,
    FiniteSupport,
    LatentModel,
    ModelError,
    MultiresolutionAxis,
    Ray,
    dot_product_grid,
    draw_vectors,
    sample_network,
)
from .specialize import (
    BlockModelSpec,
    ChungLuSpec,
    NotPSDError,
    complete_diagonal,
    factor_psd,
    fit_poisson_er,
    make_chung_lu,
    make_er,
    make_sbm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
