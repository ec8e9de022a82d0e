"""Distances between finite sets built from averages of element distances,
their power-mean generalizations, hierarchical and continuous extensions,
and a randomized verifier for the metric axioms."""

from .axioms import (
    METRIC_AXIOMS,
    PARTIAL_AXIOMS,
    AxiomReport,
    Violation,
    chained_overlap_sampler,
    check_axioms,
    random_point_registry,
    subset_triple_sampler,
)
from .continuous import (
    DEFAULT_ALPHA_GRID,
    EstimateResult,
    FuzzySet,
    Interval,
    IntervalUnion,
    SamplePlan,
    estimate_average_metric,
    fuzzy_distance,
    interval_average_metric,
    interval_group_average,
    interval_metric_closed_form,
    sample_count_ratio,
    steinhaus,
)
from .core import (
    BaseMetric,
    DiscreteMetric,
    Element,
    ElementRegistry,
    EuclideanMetric,
    FiniteSet,
    LpMetric,
    MatrixMetric,
    average_metric,
    group_average,
    hausdorff,
    jaccard,
    min_cross_distance,
    pair_sum,
    point_set_distance,
    semi_metric,
    symdiff_cardinality,
    triangle_surplus,
)
from .errors import (
    DomainError,
    EmptySetError,
    LevelMismatchError,
    NullMeasureError,
    ParameterError,
    RegistryMismatchError,
    SamplingError,
    UnknownIdError,
)
from .hierarchy import (
    NestedSet,
    containing_collection,
    duality_ratio,
    nested_average_metric,
    nested_triple_sampler,
)
from .power_means import (
    closed_form_pointwise_discrete,
    closed_form_sidewise_discrete,
    exp_mean,
    log_cardinality_distance,
    pointwise_mean_distance,
    power_mean,
    sidewise_mean_distance,
)
from .workspace import Workspace, WorkspaceError, load_workspace, parse_workspace

__version__ = "0.1.0"
