"""Inference engines: importance sampling (the batched lockstep engine, with
prior or network proposals), RMH/LMH MCMC, IC, and diagnostics."""

from repro.ppl.inference import batched, diagnostics, random_walk_metropolis
from repro.ppl.inference.batched import (
    TraceJob,
    batched_importance_sampling,
    mixed_batched_importance_sampling,
    per_trace_keys,
    request_key,
)
from repro.ppl.inference.plans import PlanCache
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
    "random_walk_metropolis",
    "RandomWalkMetropolis",
    "InferenceCompilation",
    "TrainingHistory",
    "autocorrelation",
    "effective_sample_size",
    "gelman_rubin",
    "integrated_autocorrelation_time",
]
