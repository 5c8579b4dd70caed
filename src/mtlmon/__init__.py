"""Bounded-memory online robustness monitoring for metric temporal logic
specifications over uniformly sampled traces."""

from .formula import (
    CoreNode,
    Formula,
    Interval,
    ParseError,
    SurfaceNode,
    compile_formula,
    desugar,
    format_formula,
    parse_formula,
)
from .monitor import Monitor
from .oracle import Trace, boolean_eval, offline_robustness, offline_robustness_series
from .semantics import (
    Predicate,
    PredicateError,
    Rho,
    StateSample,
    parse_predicates,
    signed_distance,
)
from .traceio import (
    ConfigError,
    PredictorMode,
    TraceError,
    TraceExhausted,
    gen_case_study_trace,
    load_trace,
    predict,
    write_robustness_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CoreNode",
    "Formula",
    "Interval",
    "ParseError",
    "SurfaceNode",
    "compile_formula",
    "desugar",
    "format_formula",
    "parse_formula",
    "Monitor",
    "Trace",
    "boolean_eval",
    "offline_robustness",
    "offline_robustness_series",
    "Predicate",
    "PredicateError",
    "Rho",
    "StateSample",
    "parse_predicates",
    "signed_distance",
    "ConfigError",
    "PredictorMode",
    "TraceError",
    "TraceExhausted",
    "gen_case_study_trace",
    "load_trace",
    "predict",
    "write_robustness_csv",
    "__version__",
]
