"""Distributed training and inference: allreduce, trainer, performance model,
and the per-rank batched importance-sampling driver."""

from repro.common.utils import partition_traces, shard_jobs
from repro.distributed.allreduce import (
    CommunicationStats,
    average_gradients,
    dense_allreduce,
    fused_sparse_allreduce,
    sparse_allreduce,
)
from repro.distributed.performance_model import (
    CORI,
    EDISON,
    PAPER_TABLE2,
    PLATFORMS,
    ClusterPerformanceModel,
    ClusterSpec,
    CpuPlatform,
    Interconnect,
    SingleNodeModel,
    WeakScalingPoint,
)
from repro.distributed.trainer import DistributedTrainer, TrainingLoop, TrainingReport
from repro.distributed.load_balance import SchemeEvaluation, compare_schemes, evaluate_scheme
from repro.distributed.inference import distributed_importance_sampling

__all__ = [
    "CommunicationStats",
    "average_gradients",
    "dense_allreduce",
    "sparse_allreduce",
    "fused_sparse_allreduce",
    "CORI",
    "EDISON",
    "PAPER_TABLE2",
    "PLATFORMS",
    "ClusterPerformanceModel",
    "ClusterSpec",
    "CpuPlatform",
    "Interconnect",
    "SingleNodeModel",
    "WeakScalingPoint",
    "DistributedTrainer",
    "TrainingLoop",
    "TrainingReport",
    "SchemeEvaluation",
    "compare_schemes",
    "evaluate_scheme",
    "distributed_importance_sampling",
    "partition_traces",
    "shard_jobs",
]
