"""Criterion classification, sub-scores, and the global benchmark score.

Each raw criterion value is classified against two calibrated thresholds as
Unacceptable (0 points), Acceptable (1 point), or Great (2 points). A
category's accuracy score is the points fraction (2*Ng + No) / (2*N); the
ML-related and OOD categories blend accuracy with a log-scale speed-up score,
while the physics category is accuracy only. The global score is the weighted
sum of the three category scores, zeroed outright when the training budget
was exceeded.

Score combinations are evaluated in exact rational arithmetic and rounded
once at the end, so reference configurations reproduce their expected
values bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from importlib import resources

from .errors import AirbenchError
from .io import RunMetrics, decode, json_digest, read_json
from .metrics import ML_CRITERIA, FieldCriterion, SplitMetrics, compute_speedup

PHYSICS_CRITERIA = ("C_D", "C_L", "rho_D", "rho_L")
OOD_CRITERIA = ML_CRITERIA + PHYSICS_CRITERIA
# Each category's criteria in report order; the scoring config holds one threshold table per category.
CATEGORIES = {"ml": ML_CRITERIA, "ood": OOD_CRITERIA, "physics": PHYSICS_CRITERIA}


class Classification(IntEnum):
    UNACCEPTABLE = 0
    ACCEPTABLE = 1
    GREAT = 2

    @property
    def marker(self) -> str:
        return {0: "U", 1: "A", 2: "G"}[int(self)]


class Direction(str, Enum):
    MIN = "min"  # smaller is better
    MAX = "max"  # larger is better


@dataclass(frozen=True)
class ThresholdSpec:
    """Two calibrated thresholds and the direction of improvement."""

    t1: float
    t2: float
    direction: Direction

    def __post_init__(self):
        if not (math.isfinite(self.t1) and math.isfinite(self.t2) and self.t1 < self.t2):
            raise AirbenchError(f"thresholds must satisfy t1 < t2, got {self.t1}, {self.t2}")


def classify(value: float, spec: ThresholdSpec) -> Classification:
    """Classify one raw criterion value against a threshold pair.

    Minimize-better: value < t1 is Great, t1 <= value < t2 is Acceptable,
    value >= t2 is Unacceptable. Maximize-better mirrors that: value > t2 is
    Great, t1 < value <= t2 is Acceptable, value <= t1 is Unacceptable.
    Non-finite values classify as Unacceptable instead of raising, so a NaN
    metric yields a (bad) score rather than a crash.
    """
    if not math.isfinite(value):
        return Classification.UNACCEPTABLE
    if spec.direction is Direction.MIN:
        if value < spec.t1:
            return Classification.GREAT
        if value < spec.t2:
            return Classification.ACCEPTABLE
        return Classification.UNACCEPTABLE
    if value > spec.t2:
        return Classification.GREAT
    if value > spec.t1:
        return Classification.ACCEPTABLE
    return Classification.UNACCEPTABLE


def accuracy_score(n_great: int, n_acceptable: int, n_unacceptable: int) -> float:
    """Points fraction (2*Ng + 1*No + 0*Nr) / (2*N) of a non-empty criterion set."""
    n = n_great + n_acceptable + n_unacceptable
    return (2 * n_great + n_acceptable) / (2 * n)


def speed_score(speedup: float, speedup_max: float) -> float:
    """log10(speedup) / log10(speedup_max), clamped to [0, 1].

    `speedup` comes from `compute_speedup` and `speedup_max` from a
    `ScoringConfig`. There is no reward beyond `speedup_max`, and a slowdown
    (speedup < 1) scores 0 rather than going negative.
    """
    if speedup < 1.0:
        return 0.0
    return min(math.log10(speedup) / math.log10(speedup_max), 1.0)


def category_score(accuracy: float, speed: float, alpha_a: float, alpha_s: float) -> float:
    """Weighted blend alpha_a * accuracy + alpha_s * speed, exactly rounded."""
    return float(Fraction(alpha_a) * Fraction(accuracy) + Fraction(alpha_s) * Fraction(speed))


@dataclass
class CriterionResult:
    name: str
    value: float
    classification: Classification
    non_finite: bool


@dataclass
class CategoryResult:
    """Classified criteria and sub-scores for one category."""

    name: str
    criteria: list[CriterionResult]
    accuracy: float
    speedup: float | None
    speed: float | None
    score: float

    def __post_init__(self):
        if (self.speed is None) != (self.speedup is None):
            raise AirbenchError(f"category {self.name!r}: a speed score goes with a speed-up")

    def markers(self) -> str:
        return " ".join(c.classification.marker for c in self.criteria)


@dataclass
class ScoreReport:
    """Machine form of a full benchmark scoring run."""

    ml: CategoryResult
    ood: CategoryResult
    physics: CategoryResult
    global_score: float
    rejected: bool
    rejection_reason: str | None


@dataclass(frozen=True)
class ScoringConfig:
    """Weights, speed-up cap, training budget, and per-criterion thresholds.

    `thresholds` holds one table per category of `CATEGORIES`. The fields
    are the JSON layout: `asdict` writes a config, `decode` reads it.
    """

    alpha_ml: float
    alpha_ood: float
    alpha_ph: float
    alpha_a: float
    alpha_s: float
    speedup_max: float
    training_budget_s: float
    thresholds: dict[str, dict[str, ThresholdSpec]]
    field_criteria: tuple[FieldCriterion, ...]

    def __post_init__(self):
        for name in ("alpha_ml", "alpha_ood", "alpha_ph", "alpha_a", "alpha_s"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise AirbenchError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if abs(self.alpha_ml + self.alpha_ood + self.alpha_ph - 1.0) > 1e-12:
            raise AirbenchError("category weights must sum to 1")
        if abs(self.alpha_a + self.alpha_s - 1.0) > 1e-12:
            raise AirbenchError("accuracy/speed weights must sum to 1")
        if not (self.speedup_max > 1 and math.isfinite(self.speedup_max)):
            raise AirbenchError(f"speedup_max must be > 1 and finite, got {self.speedup_max}")
        if not self.training_budget_s > 0:
            raise AirbenchError("training_budget_s must be positive")
        if set(self.thresholds) != set(CATEGORIES):
            raise AirbenchError(f"thresholds must hold exactly {sorted(CATEGORIES)}, got {sorted(self.thresholds)}")
        for label, names in CATEGORIES.items():
            if set(self.thresholds[label]) != set(names):
                raise AirbenchError(
                    f"{label} thresholds must cover exactly {sorted(names)}, got {sorted(self.thresholds[label])}"
                )
        crit_names = [c.name for c in self.field_criteria]
        if sorted(crit_names) != sorted(ML_CRITERIA):
            raise AirbenchError(f"field criteria must be exactly {sorted(ML_CRITERIA)}")

    def digest(self) -> str:
        return json_digest(asdict(self))


def default_scoring_config() -> ScoringConfig:
    """The shipped default configuration (weights, caps, threshold table)."""
    with resources.as_file(resources.files("airbench.data") / "default_scoring.json") as path:
        return decode(ScoringConfig, read_json(path), path)


def build_category(
    name: str,
    split: SplitMetrics,
    config: ScoringConfig,
    speedup: float | None = None,
) -> CategoryResult:
    """Classify one category's criteria, read from `split`, in their order, then score them.

    Accuracy is the points fraction of the classes. With a speed-up, the
    category score blends accuracy and speed by the configured weights;
    without one (the physics category) it is the accuracy fraction alone.
    """
    values = {**split.field_errors, "C_D": split.c_d_rel_err, "C_L": split.c_l_rel_err,
              "rho_D": split.spearman_d, "rho_L": split.spearman_l}
    thresholds = config.thresholds[name]
    criteria = []
    for criterion in CATEGORIES[name]:
        v = float(values[criterion])
        criteria.append(CriterionResult(
            name=criterion, value=v, classification=classify(v, thresholds[criterion]),
            non_finite=not math.isfinite(v),
        ))
    classes = [c.classification for c in criteria]
    great, acceptable = classes.count(Classification.GREAT), classes.count(Classification.ACCEPTABLE)
    accuracy = accuracy_score(great, acceptable, len(classes) - great - acceptable)
    speed = None if speedup is None else speed_score(speedup, config.speedup_max)
    return CategoryResult(
        name=name, criteria=criteria, accuracy=accuracy, speedup=speedup, speed=speed,
        score=accuracy if speed is None else category_score(accuracy, speed, config.alpha_a, config.alpha_s),
    )


def combine_global(score_ml: float, score_ood: float, score_physics: float, config: ScoringConfig) -> float:
    """Weighted sum of the three category scores, exactly rounded."""
    return float(
        Fraction(config.alpha_ml) * Fraction(score_ml)
        + Fraction(config.alpha_ood) * Fraction(score_ood)
        + Fraction(config.alpha_ph) * Fraction(score_physics)
    )


def rejected_report(reason: str) -> ScoreReport:
    """A zero-score report for a run rejected before evaluation."""
    empty = {
        name: CategoryResult(name=name, criteria=[], accuracy=0.0, speedup=None, speed=None, score=0.0)
        for name in CATEGORIES
    }
    return ScoreReport(**empty, global_score=0.0, rejected=True, rejection_reason=reason)


def score_from_values(metrics: RunMetrics, config: ScoringConfig) -> ScoreReport:
    """Score one run's raw metrics.

    ML and physics criteria come from the test split, OOD criteria from the
    OOD split. Each speed-up is the split's total reference solver time over
    its inference time.
    """
    speedup_ml, speedup_ood = (
        compute_speedup(split.total_solver_time_s, split.total_inference_time_s)
        for split in (metrics.test, metrics.ood)
    )
    ml = build_category("ml", metrics.test, config, speedup_ml)
    ood = build_category("ood", metrics.ood, config, speedup_ood)
    physics = build_category("physics", metrics.test, config)
    return ScoreReport(
        ml=ml,
        ood=ood,
        physics=physics,
        global_score=combine_global(ml.score, ood.score, physics.score, config),
        rejected=False,
        rejection_reason=None,
    )
