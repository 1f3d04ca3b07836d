"""Benchmark harness for surrogate models of steady 2-D airfoil aerodynamics.

Generates analytic potential-flow ground truth, evaluates predictors on
accuracy, speed-up, out-of-distribution generalization, and physics
compliance, and records scored runs on a leaderboard. The package exports
what a library caller needs to generate a benchmark and run it; everything
else is imported from its submodule.
"""

from .errors import AirbenchError
from .harness import PredictorSpec, run_benchmark
from .scoring import default_scoring_config
from .synthflow import GenerationConfig, generate_benchmark
