"""Remaining-useful-life prediction toolkit for water distribution pipes."""

from .data import (
    Dataset,
    FeatureMatrix,
    Material,
    Split,
    build_features,
    encode_material,
    ingest_csv,
    split_dataset,
    write_csv,
)
from .metrics import MetricsReport, classify_accuracy, evaluate
from .regression import DeteriorationModel, builtin, fit_polynomial, halflife_check, predict_rul
from .stats import SignificanceReport, SummaryStats, significance_report, summarize
from .synth import GeneratorConfig, generate, moment_report

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DeteriorationModel",
    "FeatureMatrix",
    "GeneratorConfig",
    "Material",
    "MetricsReport",
    "SignificanceReport",
    "Split",
    "SummaryStats",
    "build_features",
    "builtin",
    "classify_accuracy",
    "encode_material",
    "evaluate",
    "fit_polynomial",
    "generate",
    "halflife_check",
    "ingest_csv",
    "moment_report",
    "predict_rul",
    "significance_report",
    "split_dataset",
    "summarize",
    "write_csv",
]
