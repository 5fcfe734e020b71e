"""Inference engines: importance sampling (prior proposals, and the batched
lockstep IC engine), RMH/LMH MCMC, IC, and diagnostics."""

from repro.ppl.inference import batched, diagnostics, importance_sampling, random_walk_metropolis
from repro.ppl.inference.batched import (
    TraceJob,
    batched_importance_sampling,
    mixed_batched_importance_sampling,
    per_trace_keys,
    request_key,
)
from repro.ppl.inference.plans import PlanCache
from repro.ppl.inference.importance_sampling import importance_sampling as run_importance_sampling
from repro.ppl.inference.random_walk_metropolis import RandomWalkMetropolis
from repro.ppl.inference.inference_compilation import InferenceCompilation, TrainingHistory
from repro.ppl.inference.diagnostics import (
    autocorrelation,
    effective_sample_size,
    gelman_rubin,
    integrated_autocorrelation_time,
)

__all__ = [
    "batched",
    "batched_importance_sampling",
    "mixed_batched_importance_sampling",
    "TraceJob",
    "PlanCache",
    "per_trace_keys",
    "request_key",
    "diagnostics",
    "importance_sampling",
    "random_walk_metropolis",
    "run_importance_sampling",
    "RandomWalkMetropolis",
    "InferenceCompilation",
    "TrainingHistory",
    "autocorrelation",
    "effective_sample_size",
    "gelman_rubin",
    "integrated_autocorrelation_time",
]
