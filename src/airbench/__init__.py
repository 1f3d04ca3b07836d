"""Benchmark harness for surrogate models of steady 2-D airfoil aerodynamics.

Generates analytic potential-flow ground truth, evaluates predictors on
accuracy, speed-up, out-of-distribution generalization, and physics
compliance, and records scored runs on a leaderboard.
"""

from .errors import (
    AirbenchError,
    ConfigError,
    CoverageError,
    DomainError,
    FormatError,
    GeometryError,
    InferenceError,
    ParameterError,
    ShapeError,
    SingularityError,
    TrainingError,
    ValidationError,
)
from .model import (
    Dataset,
    FieldSet,
    Prediction,
    Sample,
    SampleMeta,
    Split,
    polygon_is_simple,
    validate_dataset,
    validate_sample,
)
from .io import (
    dataset_digest,
    read_dataset,
    read_predictions,
    write_dataset,
    write_predictions,
)
from .synthflow import (
    GenerationConfig,
    JoukowskiParams,
    chord_length,
    circulation_kutta,
    distance_to_surface,
    generate_benchmark,
    generate_split,
    sample_point_cloud,
)
from .metrics import (
    FieldCriterion,
    SplitMetrics,
    evaluate_split,
    field_error,
    force_coefficients,
    spearman_with_flag,
)
from .scoring import (
    Classification,
    CategoryResult,
    CriterionResult,
    Direction,
    ML_CRITERIA,
    OOD_CRITERIA,
    PHYSICS_CRITERIA,
    ScoreReport,
    ScoringConfig,
    ThresholdSpec,
    accuracy_score,
    build_category,
    category_score,
    classify,
    combine_global,
    compute_speedup,
    default_scoring_config,
    score_from_values,
    speed_score,
)
from .baselines import (
    ConstantPredictor,
    KnnModel,
    KnnPredictor,
    OraclePredictor,
    constant_predict,
    fit_channel_means,
    knn_fit,
    knn_predict,
    oracle_predict,
    resolve_builtin,
)
from .harness import (
    LeaderboardEntry,
    PredictorSpec,
    TrainingOutcome,
    append_leaderboard_entry,
    leaderboard_list,
    render_report,
    resolve_store_path,
    run_benchmark,
    run_inference,
    run_training,
)

__version__ = "0.1.0"
