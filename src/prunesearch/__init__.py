"""Pruning-metric discovery toolkit for desk-scale decoder-only transformers."""

import os

# Processes are the only parallelism: one BLAS thread, so no result depends on
# the core count. Set before numpy loads, over any value the caller set.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .metric import MAGNITUDE, Coeff, MetricConfig, MetricKind, Transform, preset
from .model import ModelConfig, ModelWeights, forward, init_model
from .objective import CalibrationSet, evaluate_config, evaluate_configs, make_context, synthetic_calibration
from .prune import Mask, SemiStructured, Unstructured, build_mask, prune_model
from .search import SearchParams, SearchResult, exhaustive_search, nsga2_search, random_search

__version__ = "0.1.0"

__all__ = [
    "MAGNITUDE",
    "CalibrationSet",
    "Coeff",
    "Mask",
    "MetricConfig",
    "MetricKind",
    "ModelConfig",
    "ModelWeights",
    "SearchParams",
    "SearchResult",
    "SemiStructured",
    "Transform",
    "Unstructured",
    "build_mask",
    "evaluate_config",
    "evaluate_configs",
    "exhaustive_search",
    "forward",
    "init_model",
    "make_context",
    "nsga2_search",
    "preset",
    "prune_model",
    "random_search",
    "synthetic_calibration",
    "__version__",
]
