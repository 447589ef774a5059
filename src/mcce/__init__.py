"""Causal concept-effect estimation for black-box classifiers.

The package answers "how would this model's output move if one concept
of this input were different?" when only a subset of concept
annotations is available. Residual directions of the embedding space
stand in for the missing annotations.

Layout:
    linalg      minimum-norm least squares, residualization, truncated SVD
    data        schemas, columnar datasets and edit pairs, dataset IO, masking
    explainers  batched mcce / slearner and per-edit approx estimators, model IO
    evaluation  row-wise distances, paired effects, grouped error reports, macro F1
    synthetic   seeded generator with counterfactual ground truth
    cli         command-line pipeline (synth, fit, explain, evaluate, ...)
"""

from .data import (
    SPACE_LOGIT,
    SPACE_PROBABILITY,
    SPACES,
    ConceptSchema,
    Dataset,
    EditPairs,
    load_dataset,
    load_schema,
    one_hot,
    save_dataset,
    softmax,
)
from .errors import NumericalError, ValidationError
from .evaluation import (
    DISTANCES,
    METRICS,
    EvalGroup,
    EvalReport,
    coefficient_error,
    dist_cosine,
    dist_l2,
    dist_norm,
    get_distance,
    icace,
    icace_error,
    macro_f1,
)
from .explainers import (
    ApproxEstimate,
    CoefficientReport,
    Effects,
    LabelIndex,
    MCCEModel,
    SLearnerModel,
    build_label_index,
    explain_approx,
    explain_mcce,
    explain_slearner,
    fit_mcce,
    fit_slearner,
    global_report,
    load_model,
    predict_labels,
    read_effects,
    save_model,
    write_effects,
)
from .linalg import LstsqSolution, lstsq, residualize, truncated_svd
from .synthetic import (
    SynthConfig,
    SynthGroundTruth,
    default_config,
    generate,
    load_ground_truth,
    load_synth_config,
    make_pairs,
    oracle_effect,
    save_ground_truth,
    synthesize_sample,
)

__version__ = "0.1.0"

__all__ = [
    "SPACE_LOGIT",
    "SPACE_PROBABILITY",
    "SPACES",
    "ConceptSchema",
    "Dataset",
    "EditPairs",
    "load_dataset",
    "load_schema",
    "one_hot",
    "save_dataset",
    "softmax",
    "NumericalError",
    "ValidationError",
    "DISTANCES",
    "METRICS",
    "EvalGroup",
    "EvalReport",
    "coefficient_error",
    "dist_cosine",
    "dist_l2",
    "dist_norm",
    "get_distance",
    "icace",
    "icace_error",
    "macro_f1",
    "ApproxEstimate",
    "CoefficientReport",
    "Effects",
    "LabelIndex",
    "MCCEModel",
    "SLearnerModel",
    "build_label_index",
    "explain_approx",
    "explain_mcce",
    "explain_slearner",
    "fit_mcce",
    "fit_slearner",
    "global_report",
    "load_model",
    "predict_labels",
    "read_effects",
    "save_model",
    "write_effects",
    "LstsqSolution",
    "lstsq",
    "residualize",
    "truncated_svd",
    "SynthConfig",
    "SynthGroundTruth",
    "default_config",
    "generate",
    "load_ground_truth",
    "load_synth_config",
    "make_pairs",
    "oracle_effect",
    "save_ground_truth",
    "synthesize_sample",
    "__version__",
]
