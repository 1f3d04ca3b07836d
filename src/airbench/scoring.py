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
from dataclasses import asdict, dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from .errors import ConfigError, DomainError
from .io import decode, decoding, json_digest, read_json
from .metrics import FieldCriterion, SplitMetrics

ML_CRITERIA = ("u_x", "u_y", "p", "nu_t", "p_s")
PHYSICS_CRITERIA = ("C_D", "C_L", "rho_D", "rho_L")
OOD_CRITERIA = ML_CRITERIA + PHYSICS_CRITERIA


class Classification(IntEnum):
    UNACCEPTABLE = 0
    ACCEPTABLE = 1
    GREAT = 2

    @property
    def marker(self) -> str:
        return {0: "U", 1: "A", 2: "G"}[int(self)]


class Direction(Enum):
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
            raise ConfigError(f"thresholds must satisfy t1 < t2, got {self.t1}, {self.t2}")


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
    """Points fraction (2*Ng + 1*No + 0*Nr) / (2*N)."""
    if min(n_great, n_acceptable, n_unacceptable) < 0:
        raise DomainError("criterion counts must be non-negative")
    n = n_great + n_acceptable + n_unacceptable
    if n == 0:
        raise ConfigError("empty criterion set")
    return (2 * n_great + n_acceptable) / (2 * n)


def compute_speedup(solver_time_s: float, inference_time_s: float) -> float:
    """Reference solver time over surrogate inference time."""
    if not (solver_time_s > 0 and math.isfinite(solver_time_s)):
        raise DomainError(f"solver time must be positive, got {solver_time_s}")
    if not (inference_time_s > 0 and math.isfinite(inference_time_s)):
        raise DomainError(f"inference time must be positive, got {inference_time_s}")
    return solver_time_s / inference_time_s


def speed_score(speedup: float, speedup_max: float) -> float:
    """log10(speedup) / log10(speedup_max), clamped to [0, 1].

    There is no reward beyond `speedup_max`, and a slowdown (speedup < 1)
    scores 0 rather than going negative.
    """
    if not (speedup > 0 and math.isfinite(speedup)):
        raise DomainError(f"speedup must be positive, got {speedup}")
    if not (speedup_max > 1 and math.isfinite(speedup_max)):
        raise ConfigError(f"speedup_max must be > 1, got {speedup_max}")
    if speedup < 1.0:
        return 0.0
    return min(math.log10(speedup) / math.log10(speedup_max), 1.0)


def category_score(accuracy: float, speed: float, alpha_a: float, alpha_s: float) -> float:
    """Weighted blend alpha_a * accuracy + alpha_s * speed, exactly rounded."""
    if abs(alpha_a + alpha_s - 1.0) > 1e-12:
        raise ConfigError(f"accuracy/speed weights must sum to 1, got {alpha_a} + {alpha_s}")
    return float(Fraction(alpha_a) * Fraction(accuracy) + Fraction(alpha_s) * Fraction(speed))


@dataclass
class CriterionResult:
    name: str
    value: float
    classification: Classification
    non_finite: bool = False


@dataclass
class CategoryResult:
    """Classified criteria and sub-scores for one category."""

    name: str
    criteria: list[CriterionResult] = field(default_factory=list)
    accuracy: float = 0.0
    speedup: float | None = None
    speed: float | None = None
    score: float = 0.0

    def __post_init__(self):
        if (self.speed is None) != (self.speedup is None):
            raise DomainError(f"category {self.name!r}: a speed score goes with a speed-up")

    def counts(self) -> tuple[int, int, int]:
        ng = sum(1 for c in self.criteria if c.classification is Classification.GREAT)
        no = sum(1 for c in self.criteria if c.classification is Classification.ACCEPTABLE)
        nr = sum(1 for c in self.criteria if c.classification is Classification.UNACCEPTABLE)
        return ng, no, nr

    def markers(self) -> str:
        return " ".join(c.classification.marker for c in self.criteria)


@dataclass
class ScoreReport:
    """Machine form of a full benchmark scoring run."""

    ml: CategoryResult
    ood: CategoryResult
    physics: CategoryResult
    global_score: float
    rejected: bool = False
    rejection_reason: str | None = None


@dataclass(frozen=True)
class ScoringConfig:
    """Weights, speed-up cap, training budget, and per-criterion thresholds."""

    alpha_ml: float
    alpha_ood: float
    alpha_ph: float
    alpha_a: float
    alpha_s: float
    speedup_max: float
    training_budget_s: float
    thresholds_ml: dict[str, ThresholdSpec]
    thresholds_ood: dict[str, ThresholdSpec]
    thresholds_physics: dict[str, ThresholdSpec]
    field_criteria: tuple[FieldCriterion, ...]
    solver_time_source: str = "sample_meta"  # or "constant"
    solver_time_constant_s: float = 1500.0

    def __post_init__(self):
        if abs(self.alpha_ml + self.alpha_ood + self.alpha_ph - 1.0) > 1e-12:
            raise ConfigError("category weights must sum to 1")
        if abs(self.alpha_a + self.alpha_s - 1.0) > 1e-12:
            raise ConfigError("accuracy/speed weights must sum to 1")
        if not self.speedup_max > 1:
            raise ConfigError(f"speedup_max must be > 1, got {self.speedup_max}")
        if not self.training_budget_s > 0:
            raise ConfigError("training_budget_s must be positive")
        if self.solver_time_source not in ("sample_meta", "constant"):
            raise ConfigError(f"unknown solver_time_source {self.solver_time_source!r}")
        if self.solver_time_source == "constant" and not self.solver_time_constant_s > 0:
            raise ConfigError("solver_time_constant_s must be positive")
        for names, table, label in (
            (ML_CRITERIA, self.thresholds_ml, "ml"),
            (OOD_CRITERIA, self.thresholds_ood, "ood"),
            (PHYSICS_CRITERIA, self.thresholds_physics, "physics"),
        ):
            if set(table) != set(names):
                raise ConfigError(
                    f"{label} thresholds must cover exactly {sorted(names)}, got {sorted(table)}"
                )
        crit_names = [c.name for c in self.field_criteria]
        if sorted(crit_names) != sorted(ML_CRITERIA):
            raise ConfigError(f"field criteria must be exactly {sorted(ML_CRITERIA)}")

    def to_dict(self) -> dict:
        def table(t: dict[str, ThresholdSpec]) -> dict:
            return {
                name: {"t1": s.t1, "t2": s.t2, "direction": s.direction.value}
                for name, s in sorted(t.items())
            }

        return {
            "alpha_ml": self.alpha_ml,
            "alpha_ood": self.alpha_ood,
            "alpha_ph": self.alpha_ph,
            "alpha_a": self.alpha_a,
            "alpha_s": self.alpha_s,
            "speedup_max": self.speedup_max,
            "training_budget_s": self.training_budget_s,
            "solver_time_source": self.solver_time_source,
            "solver_time_constant_s": self.solver_time_constant_s,
            "thresholds": {
                "ml": table(self.thresholds_ml),
                "ood": table(self.thresholds_ood),
                "physics": table(self.thresholds_physics),
            },
            "field_criteria": [asdict(c) for c in self.field_criteria],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScoringConfig":
        """Decode a config's JSON object, whose ``thresholds`` object holds the three tables."""
        with decoding("scoring config", ConfigError):
            doc = dict(data)
            doc.update({f"thresholds_{name}": t for name, t in doc.pop("thresholds").items()})
        return decode(cls, doc, "scoring config", ConfigError)

    def digest(self) -> str:
        return json_digest(self.to_dict())


def default_scoring_config() -> ScoringConfig:
    """The shipped default configuration (weights, caps, threshold table)."""
    with resources.as_file(resources.files("airbench.data") / "default_scoring.json") as path:
        return ScoringConfig.from_dict(read_json(path))


def classify_criteria(
    values: Mapping[str, float],
    thresholds: Mapping[str, ThresholdSpec],
    order: Sequence[str],
) -> list[CriterionResult]:
    """Classify named raw values in a fixed criterion order."""
    out = []
    for name in order:
        if name not in values:
            raise ConfigError(f"missing criterion value {name!r}")
        v = float(values[name])
        out.append(
            CriterionResult(
                name=name,
                value=v,
                classification=classify(v, thresholds[name]),
                non_finite=not math.isfinite(v),
            )
        )
    return out


def build_category(
    name: str,
    criteria: list[CriterionResult],
    config: ScoringConfig,
    speedup: float | None = None,
) -> CategoryResult:
    """Assemble one category: accuracy from the points, optional speed blend.

    With a speed-up, the category score blends accuracy and speed by the
    configured weights; without one (the physics category) it is the
    accuracy fraction alone.
    """
    cat = CategoryResult(name=name, criteria=criteria)
    cat.accuracy = accuracy_score(*cat.counts())
    if speedup is None:
        cat.score = cat.accuracy
    else:
        cat.speedup = speedup
        cat.speed = speed_score(speedup, config.speedup_max)
        cat.score = category_score(cat.accuracy, cat.speed, config.alpha_a, config.alpha_s)
    return cat


def combine_global(score_ml: float, score_ood: float, score_physics: float, config: ScoringConfig) -> float:
    """Weighted sum of the three category scores, exactly rounded."""
    for s in (score_ml, score_ood, score_physics):
        if not (0.0 <= s <= 1.0):
            raise DomainError(f"category scores must lie in [0, 1], got {s}")
    return float(
        Fraction(config.alpha_ml) * Fraction(score_ml)
        + Fraction(config.alpha_ood) * Fraction(score_ood)
        + Fraction(config.alpha_ph) * Fraction(score_physics)
    )


def rejected_report(reason: str) -> ScoreReport:
    """A zero-score report for a run rejected before evaluation."""
    return ScoreReport(
        ml=CategoryResult(name="ml"),
        ood=CategoryResult(name="ood"),
        physics=CategoryResult(name="physics"),
        global_score=0.0,
        rejected=True,
        rejection_reason=reason,
    )


def score_from_values(
    ml_values: Mapping[str, float],
    ood_values: Mapping[str, float],
    physics_values: Mapping[str, float],
    speedup_ml: float,
    speedup_ood: float,
    config: ScoringConfig,
) -> ScoreReport:
    """Full scoring pipeline from raw criterion values and speed-ups."""
    ml = build_category(
        "ml", classify_criteria(ml_values, config.thresholds_ml, ML_CRITERIA), config, speedup_ml
    )
    ood = build_category(
        "ood",
        classify_criteria(ood_values, config.thresholds_ood, OOD_CRITERIA),
        config,
        speedup_ood,
    )
    physics = build_category(
        "physics", classify_criteria(physics_values, config.thresholds_physics, PHYSICS_CRITERIA), config
    )
    return ScoreReport(
        ml=ml,
        ood=ood,
        physics=physics,
        global_score=combine_global(ml.score, ood.score, physics.score, config),
    )


def criterion_values_from_metrics(metrics: SplitMetrics, names: Sequence[str]) -> dict[str, float]:
    """Pull named criterion values out of a split's raw metrics."""
    mapping = {
        "C_D": metrics.c_d_rel_err,
        "C_L": metrics.c_l_rel_err,
        "rho_D": metrics.spearman_d,
        "rho_L": metrics.spearman_l,
    }
    out = {}
    for name in names:
        if name in mapping:
            out[name] = mapping[name]
        elif name in metrics.field_errors:
            out[name] = metrics.field_errors[name]
        else:
            raise ConfigError(f"criterion {name!r} not present in metrics")
    return out
