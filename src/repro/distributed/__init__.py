"""Distributed training: allreduce, trainer and performance model."""

from repro.common.utils import shard_jobs
from repro.distributed.allreduce import (
    CommunicationStats,
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

__all__ = [
    "CommunicationStats",
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
    "shard_jobs",
]
