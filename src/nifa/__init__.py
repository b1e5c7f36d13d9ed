"""Identifiable nonparametric Bayesian factor analysis.

Latent factors are monotone piecewise-linear transforms of uniformly
distributed latent locations, anchored by diffusion-map coordinates and
fit with a MALA-within-Gibbs sampler.
"""

from .model import (
    DataMatrix,
    DomainError,
    FactorAssignment,
    Hyperparameters,
    ShapeError,
    log_likelihood,
    spline_basis,
)
from .pretrain import (
    AnchorSet,
    DegenerateGeometryError,
    DiffusionConfig,
    anchor_set,
    estimate_dimension,
    run_pretraining,
)
from .sampler import (
    ChainDiagnostics,
    LatentGeometry,
    PosteriorChain,
    initial_state,
    log_joint,
    run_chain,
    sweep,
)
from .postprocess import (
    AlignmentReport,
    DegenerateLoadingError,
    match_align,
    normalize_columns,
    orthogonalize_partition,
    postprocess_chain,
    summarize,
)
from .metrics import (
    covariance_estimators,
    ks_to_uniform,
    sliced_wasserstein,
    sliced_wasserstein_details,
    wasserstein2_1d,
)
from .simulate import (
    gen_hetero_clusters,
    gen_setting1,
    gen_setting2,
    gen_setting3,
    gen_swiss_roll,
    posterior_predictive_array,
)
from .runio import load_anchor_set, load_chain, save_anchor_set, save_chain

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "AnchorSet",
    "ChainDiagnostics",
    "DataMatrix",
    "DegenerateGeometryError",
    "DegenerateLoadingError",
    "DiffusionConfig",
    "DomainError",
    "FactorAssignment",
    "Hyperparameters",
    "LatentGeometry",
    "PosteriorChain",
    "ShapeError",
    "anchor_set",
    "covariance_estimators",
    "estimate_dimension",
    "gen_hetero_clusters",
    "gen_setting1",
    "gen_setting2",
    "gen_setting3",
    "gen_swiss_roll",
    "initial_state",
    "ks_to_uniform",
    "load_anchor_set",
    "load_chain",
    "log_joint",
    "log_likelihood",
    "match_align",
    "normalize_columns",
    "orthogonalize_partition",
    "posterior_predictive_array",
    "postprocess_chain",
    "run_chain",
    "run_pretraining",
    "save_anchor_set",
    "save_chain",
    "sliced_wasserstein",
    "sliced_wasserstein_details",
    "spline_basis",
    "summarize",
    "sweep",
    "wasserstein2_1d",
]
