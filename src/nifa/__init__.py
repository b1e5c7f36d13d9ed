"""Identifiable nonparametric Bayesian factor analysis.

Latent factors are monotone piecewise-linear transforms of uniformly
distributed latent locations, anchored by diffusion-map coordinates and
fit with a MALA-within-Gibbs sampler.

Importing the package runs none of its submodules. Each one sits in
``sys.modules`` and as an attribute of the package from the start, and its
body runs when one of its attributes (or a public name below) is first
read, so a command runs only the modules it uses. The first read of a
submodule must come from one thread at a time: no module lock guards it.
"""

import importlib.util
import sys

# the public names, by the submodule that defines them
_EXPORTS = {
    "model": ("AnchorSet", "ChainDiagnostics", "DataMatrix", "DegenerateLoadingError",
              "DiffusionConfig", "DomainError", "FactorAssignment", "Hyperparameters",
              "PosteriorChain", "ShapeError", "log_likelihood", "spline_basis"),
    "pretrain": ("DegenerateGeometryError", "anchor_set", "estimate_dimension",
                 "run_pretraining"),
    "sampler": ("LatentGeometry", "initial_state", "log_joint", "run_chain", "sweep"),
    "postprocess": ("AlignmentReport", "match_align", "normalize_columns",
                    "orthogonalize_partition", "postprocess_chain", "summarize"),
    "metrics": ("covariance_estimators", "ks_to_uniform", "sliced_wasserstein",
                "sliced_wasserstein_details", "wasserstein2_1d"),
    "simulate": ("gen_hetero_clusters", "gen_setting1", "gen_setting2", "gen_setting3",
                 "gen_swiss_roll", "posterior_predictive_array"),
    "runio": ("load_anchor_set", "load_chain", "save_anchor_set", "save_chain"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)  # makes the module lazy; its body runs later
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
