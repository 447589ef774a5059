"""Causal concept-effect estimation for black-box classifiers.

The package answers "how would this model's output move if one concept
of this input were different?" when only a subset of concept
annotations is available. Residual directions of the embedding space
stand in for the missing annotations.

Layout:
    linalg      minimum-norm least squares, residualization, truncated SVD
    data        schemas, columnar datasets and edit pairs, masking; every file format
    explainers  batched mcce, slearner and approx estimators, model IO
    evaluation  row-wise distances, paired effects, grouped error reports, macro F1
    synthetic   seeded generator with counterfactual ground truth
    cli         command-line pipeline (synth, fit, explain, evaluate, ...)
"""

import importlib

# Each public name and the submodule that defines it. A name's module is
# imported on first use (PEP 562), so `import mcce` loads neither numpy
# nor any submodule until something asks for them.
_EXPORTS = {
    **dict.fromkeys(
        (
            "SPACE_LOGIT", "SPACE_PROBABILITY", "SPACES", "ConceptSchema", "Dataset", "EditPairs",
            "load_dataset", "load_schema", "one_hot", "save_dataset", "softmax",
        ),
        "data",
    ),
    **dict.fromkeys(("NumericalError", "ValidationError"), "errors"),
    **dict.fromkeys(
        (
            "DISTANCES", "METRICS", "EvalGroup", "EvalReport", "dist_cosine", "dist_l2",
            "dist_norm", "get_distance", "icace", "icace_error", "macro_f1", "match_effects",
        ),
        "evaluation",
    ),
    **dict.fromkeys(
        (
            "ApproxEffects", "CoefficientReport", "Effects", "MCCEModel",
            "SLearnerModel", "build_label_index", "explain_approx", "explain_mcce",
            "explain_slearner", "fit_mcce", "fit_slearner", "global_report", "load_model",
            "predict_labels", "read_effects", "save_model", "write_effects",
        ),
        "explainers",
    ),
    **dict.fromkeys(("LstsqSolution", "lstsq", "residualize", "truncated_svd"), "linalg"),
    **dict.fromkeys(
        (
            "SynthConfig", "SynthGroundTruth", "default_config", "generate", "load_ground_truth",
            "load_synth_config", "make_pairs", "oracle_effect", "save_ground_truth",
            "synthesize_sample",
        ),
        "synthetic",
    ),
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
