"""Classification of compositional data in transformed coordinates.

A library and command line tool for compositions (vectors of non-negative
parts carrying relative information): a power-parameterised family of
simplex-to-Euclidean transformations with its inverse, two simplex
metrics, regularised Gaussian discriminant and k-nearest-neighbour
classifiers, and a reproducible cross-validated model-selection protocol
over the transformation and classifier parameters.
"""

from .classifiers import (
    COND_THRESHOLD,
    GaussianGroupModel,
    KnnFit,
    RdaModel,
    fit_gaussian_groups,
    fit_knn,
    fit_rda,
    knn_predict,
    knn_predict_batch,
    rda_predict,
    rda_scores,
    regularize_covariances,
)
from .core import (
    CLOSURE_TOL,
    alpha_transform,
    boxcox_componentwise,
    closure,
    clr,
    helmert_submatrix,
    inverse_alpha_transform,
    power_transform,
)
from .dataio import (
    GLASS_COMPONENTS,
    GLASS_TYPE_NAMES,
    DatasetSchema,
    LabeledCompositionDataset,
    SyntheticSpec,
    find_glass,
    generate_synthetic,
    group_summary,
    load_dataset,
    load_glass,
    read_table,
    zero_summary,
)
from .evaluation import (
    CvConfig,
    EvalReport,
    GridResult,
    GridSpec,
    MethodSpec,
    cv_evaluate,
    grid_search,
    stratified_split,
)
from .metrics import (
    MetricSpec,
    alpha_distance,
    esov_distance,
    pairwise_distances,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    # core
    "CLOSURE_TOL",
    "closure",
    "helmert_submatrix",
    "power_transform",
    "alpha_transform",
    "inverse_alpha_transform",
    "clr",
    "boxcox_componentwise",
    # metrics
    "MetricSpec",
    "alpha_distance",
    "esov_distance",
    "pairwise_distances",
    # classifiers
    "COND_THRESHOLD",
    "GaussianGroupModel",
    "RdaModel",
    "KnnFit",
    "fit_gaussian_groups",
    "regularize_covariances",
    "fit_rda",
    "rda_scores",
    "rda_predict",
    "fit_knn",
    "knn_predict",
    "knn_predict_batch",
    # evaluation
    "CvConfig",
    "MethodSpec",
    "GridSpec",
    "EvalReport",
    "GridResult",
    "stratified_split",
    "cv_evaluate",
    "grid_search",
    # dataio
    "DatasetSchema",
    "LabeledCompositionDataset",
    "SyntheticSpec",
    "read_table",
    "load_dataset",
    "load_glass",
    "find_glass",
    "zero_summary",
    "group_summary",
    "generate_synthetic",
    "GLASS_COMPONENTS",
    "GLASS_TYPE_NAMES",
]
