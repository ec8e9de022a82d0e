"""Distances between finite sets built from averages of element distances,
their power-mean generalizations, hierarchical and continuous extensions,
and a randomized verifier for the metric axioms.

A public name is imported from its module when it is first read, so that
``import setmetric`` and each command load only the modules they use.
"""

import importlib

_PUBLIC = {
    "axioms": (
        "METRIC_AXIOMS", "PARTIAL_AXIOMS", "AxiomReport", "Violation", "chained_overlap_sampler",
        "check_axioms", "random_point_registry", "subset_triple_sampler",
    ),
    "continuous": (
        "DEFAULT_ALPHA_GRID", "EstimateResult", "FuzzySet", "Interval", "IntervalUnion",
        "SamplePlan", "estimate_average_metric", "fuzzy_distance", "interval_average_metric",
        "interval_group_average", "interval_metric_closed_form", "sample_count_ratio",
        "steinhaus",
    ),
    "core": (
        "BaseMetric", "DiscreteMetric", "Element", "ElementRegistry", "EuclideanMetric",
        "FiniteSet", "LpMetric", "MatrixMetric", "average_metric", "group_average", "hausdorff",
        "jaccard", "min_cross_distance", "pair_sum", "point_set_distance", "semi_metric",
        "symdiff_cardinality", "triangle_surplus",
    ),
    "errors": (
        "DomainError", "EmptySetError", "LevelMismatchError", "NullMeasureError", "ParameterError",
        "RegistryMismatchError", "SamplingError", "UnknownIdError",
    ),
    "hierarchy": (
        "NestedSet", "containing_collection", "duality_ratio", "nested_average_metric",
        "nested_triple_sampler",
    ),
    "power_means": (
        "closed_form_pointwise_discrete", "closed_form_sidewise_discrete", "exp_mean",
        "log_cardinality_distance", "pointwise_mean_distance", "power_mean",
        "sidewise_mean_distance",
    ),
    "workspace": ("Workspace", "WorkspaceError", "load_workspace", "parse_workspace"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, or a module of the package, imported on first read and
    then kept in the package's namespace."""
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value
